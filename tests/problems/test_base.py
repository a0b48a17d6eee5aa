"""Unit tests for the ParenthesizationProblem base contract."""

import numpy as np
import pytest

from repro.core import solve
from repro.errors import InvalidProblemError
from repro.problems.base import ParenthesizationProblem
from repro.problems.specs import FAMILIES, family_generators


class TinyProblem(ParenthesizationProblem):
    """Minimal concrete subclass using the default table builders."""

    def init_cost(self, i):
        return float(i)

    def split_cost(self, i, k, j):
        return float(i + k + j)


class TestContract:
    def test_n_validation(self):
        with pytest.raises(InvalidProblemError):
            TinyProblem(0)
        assert TinyProblem(1).n == 1

    def test_default_init_vector(self):
        p = TinyProblem(4)
        assert np.array_equal(p.init_vector(), [0.0, 1.0, 2.0, 3.0])

    def test_default_f_table(self):
        p = TinyProblem(3)
        F = p.f_table()
        assert F.shape == (4, 4, 4)
        assert F[0, 1, 2] == 3.0
        assert F[0, 2, 3] == 5.0
        assert np.isinf(F[0, 0, 1])  # k == i invalid
        assert np.isinf(F[2, 1, 3])  # k < i invalid

    def test_cached_f_table_is_cached(self):
        p = TinyProblem(3)
        assert p.cached_f_table() is p.cached_f_table()

    def test_num_intervals(self):
        assert TinyProblem(4).num_intervals == 10

    def test_validate_happy(self):
        TinyProblem(4).validate()

    def test_validate_rejects_negative_init(self):
        class Bad(TinyProblem):
            def init_cost(self, i):
                return -1.0

        with pytest.raises(InvalidProblemError, match="init"):
            Bad(3).validate()

    def test_validate_rejects_negative_f(self):
        class Bad(TinyProblem):
            def split_cost(self, i, k, j):
                return -2.0

        with pytest.raises(InvalidProblemError, match="non-negative"):
            Bad(3).validate()

    def test_validate_rejects_nan_f(self):
        class Bad(TinyProblem):
            def split_cost(self, i, k, j):
                return float("nan")

        with pytest.raises(InvalidProblemError, match="NaN"):
            Bad(3).validate()

    def test_validate_table_shape(self):
        p = TinyProblem(3)
        with pytest.raises(InvalidProblemError, match="shape"):
            p.validate_table(np.zeros((2, 2, 2)))

    def test_repr(self):
        assert "TinyProblem(n=3)" in repr(TinyProblem(3))


class TestOneCostDefinition:
    """Each closed-form family defines ``f`` by its scalar and its
    diagonal blocks only: the dense table and the delta weight checks
    come from the base class."""

    @pytest.mark.parametrize("family", [f for f in FAMILIES if f != "generic"])
    def test_family_inherits_the_table_and_the_delta_checks(self, family):
        cls = type(family_generators()[family](6, seed=0))
        assert cls.f_table is ParenthesizationProblem.f_table
        assert cls.delta_window is ParenthesizationProblem.delta_window

    def test_scalar_only_subclass_solves_from_its_scalars(self):
        p = TinyProblem(6)
        F = p.f_table()
        for i in range(6):
            for k in range(i + 1, 6):
                for j in range(k + 1, 7):
                    assert F[i, k, j] == p.split_cost(i, k, j)
        assert solve(p, method="sequential").value == solve(p, method="huang").value

    @pytest.mark.parametrize("bad, match", [(float("nan"), "NaN"), (-2.0, "non-negative")])
    def test_scalar_only_subclass_refuses_a_bad_split_cost(self, bad, match):
        class Bad(TinyProblem):
            def split_cost(self, i, k, j):
                return bad if (i, k, j) == (1, 3, 4) else super().split_cost(i, k, j)

        with pytest.raises(InvalidProblemError, match=match):
            Bad(5).f_table()
        with pytest.raises(InvalidProblemError, match=match):
            solve(Bad(5), method="sequential")
