"""Integration: every solver agrees with every other on every family."""

import numpy as np
import pytest

from repro.core import solve
from repro.core.sequential import solve_knuth, solve_sequential
from repro.problems.generators import (
    random_bst,
    random_generic,
    random_matrix_chain,
    random_polygon,
)

PARALLEL_METHODS = ("huang", "huang-banded", "rytter")


def w_tables_equal(a, b):
    return np.allclose(np.nan_to_num(a, posinf=-1.0), np.nan_to_num(b, posinf=-1.0))


class TestAllFamiliesAllSolvers:
    @pytest.mark.parametrize(
        "family,make",
        [
            ("chain", lambda s: random_matrix_chain(12, seed=s)),
            ("bst", lambda s: random_bst(10, seed=s)),
            ("polygon", lambda s: random_polygon(12, seed=s)),
            ("polygon-product", lambda s: random_polygon(12, seed=s, rule="product")),
            ("generic", lambda s: random_generic(12, seed=s)),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_value_and_tables_agree(self, family, make, seed):
        p = make(seed)
        ref = solve_sequential(p)
        for method in PARALLEL_METHODS:
            out = solve(p, method=method)
            assert out.value == pytest.approx(ref.value), (family, method)
            assert w_tables_equal(out.w, ref.w), (family, method)

    def test_knuth_on_bsts(self):
        for seed in range(4):
            p = random_bst(13, seed=seed)
            assert solve_knuth(p).value == pytest.approx(solve_sequential(p).value)


class TestTreesAgree:
    @pytest.mark.parametrize("method", ("sequential",) + PARALLEL_METHODS)
    def test_reconstructed_tree_realises_value(self, method):
        p = random_matrix_chain(10, seed=9)
        out = solve(p, method=method, reconstruct=True)
        assert out.tree.weight(p) == pytest.approx(out.value)

    def test_unique_optimum_same_tree_everywhere(self):
        """On an instance with a forced unique optimum, every solver
        reconstructs the same tree."""
        from repro.trees import random_tree, synthesize_instance

        target = random_tree(10, seed=21)
        p = synthesize_instance(target, style="uniform_plus")
        trees = [
            solve(p, method=m, reconstruct=True).tree
            for m in ("sequential",) + PARALLEL_METHODS
        ]
        for t in trees:
            assert t == target


class TestEdgeSizes:
    @pytest.mark.parametrize("method", PARALLEL_METHODS)
    def test_n1(self, method):
        p = random_generic(1, seed=0)
        out = solve(p, method=method)
        assert out.value == pytest.approx(p.init_cost(0))

    @pytest.mark.parametrize("method", PARALLEL_METHODS)
    def test_n2(self, method):
        p = random_generic(2, seed=0)
        expected = p.init_cost(0) + p.init_cost(1) + p.split_cost(0, 1, 2)
        assert solve(p, method=method).value == pytest.approx(expected)

    @pytest.mark.parametrize("method", PARALLEL_METHODS)
    def test_n3(self, method):
        p = random_generic(3, seed=1)
        assert solve(p, method=method).value == pytest.approx(
            solve_sequential(p).value
        )
