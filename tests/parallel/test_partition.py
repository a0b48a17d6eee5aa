"""Unit tests for index-space partitioning."""

import pytest

from repro.parallel.partition import split_range, split_weighted


class TestSplitRange:
    def test_even_split(self):
        assert split_range(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_front_loads(self):
        assert split_range(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_more_parts_than_items(self):
        assert split_range(2, 5) == [(0, 1), (1, 2)]

    def test_single_part(self):
        assert split_range(5, 1) == [(0, 5)]

    def test_zero_total(self):
        assert split_range(0, 3) == []

    def test_covers_everything_once(self):
        for total in range(0, 30):
            for parts in range(1, 8):
                chunks = split_range(total, parts)
                covered = [x for lo, hi in chunks for x in range(lo, hi)]
                assert covered == list(range(total))
                assert all(hi > lo for lo, hi in chunks)

    def test_validation(self):
        with pytest.raises(ValueError):
            split_range(-1, 2)
        with pytest.raises(ValueError):
            split_range(3, 0)


class TestSplitWeighted:
    def test_equal_weights_split_like_split_range(self):
        assert split_weighted([1] * 8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_heavy_rows_get_narrow_chunks(self):
        assert split_weighted([(41 - i) ** 3 for i in range(41)], 2) == [(0, 7), (7, 41)]

    def test_a_chunk_that_would_be_empty_is_merged_away(self):
        assert split_weighted([5, 1, 1, 1], 4) == [(0, 1), (1, 2), (2, 4)]
        assert split_weighted([0, 0, 1], 2) == [(0, 3)]

    def test_covers_everything_once(self):
        for total in range(0, 20):
            for parts in range(1, 8):
                chunks = split_weighted([(total - i) ** 3 for i in range(total)], parts)
                covered = [x for lo, hi in chunks for x in range(lo, hi)]
                assert covered == list(range(total))
                assert all(hi > lo for lo, hi in chunks)
                assert len(chunks) <= parts

    def test_validation(self):
        with pytest.raises(ValueError):
            split_weighted([1, 2], 0)
