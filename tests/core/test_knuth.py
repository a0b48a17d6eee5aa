"""Knuth's split windows: the sweep's O(n²) mode for optimal BSTs."""

import tracemalloc

import numpy as np
import pytest

from repro.core import solve, solve_knuth
from repro.core.sequential import solve_sequential
from repro.errors import InvalidProblemError
from repro.problems import (
    BottleneckChainProblem,
    GenericProblem,
    MatrixChainProblem,
    OptimalBSTProblem,
    PolygonTriangulationProblem,
    ReliabilityBSTProblem,
)
from repro.problems.base import ParenthesizationProblem
from repro.problems.generators import random_bst

UNDECLARED = {
    "chain": lambda: MatrixChainProblem([3, 7, 2, 9, 4, 11, 5]),
    "polygon": lambda: PolygonTriangulationProblem(
        [(0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)]
    ),
    "generic": lambda: GenericProblem(4, lambda i: 1.0, lambda i, k, j: float(k)),
    "bottleneck": lambda: BottleneckChainProblem([7, 2, 9, 4, 8, 3]),
    "reliability": lambda: ReliabilityBSTProblem(
        [0.9, 0.8, 0.95], [0.99, 0.9, 0.97, 0.92]
    ),
}


@pytest.fixture
def no_dense_table(monkeypatch):
    """Make any build of the dense (n+1)³ f table fail the test."""

    def refuse(self):
        raise AssertionError("built the dense f table")

    monkeypatch.setattr(ParenthesizationProblem, "cached_f_table", refuse)


class TestQuadrangleDeclaration:
    def test_only_bsts_declare_it(self):
        assert OptimalBSTProblem.quadrangle is True
        assert ParenthesizationProblem.quadrangle is False
        for make in UNDECLARED.values():
            assert make().quadrangle is False

    def test_bst_cost_meets_the_declared_conditions(self):
        """What the declaration states, on exact (integer) weights: f
        ignores k, grows with the interval and meets the quadrangle
        inequality."""
        p = OptimalBSTProblem([3, 1, 4, 1, 5], [9, 2, 6, 5, 3, 5])
        F, n = p.f_table(), p.n
        for i in range(n - 1):
            for j in range(i + 2, n + 1):
                assert (F[i, i + 1 : j, j] == F[i, i + 1, j]).all()

        def g(i, j):
            return F[i, i + 1, j]

        for i in range(n - 1):
            for ip in range(i, n - 1):
                for j in range(ip + 2, n + 1):
                    for jp in range(j, n + 1):
                        assert g(i, j) + g(ip, jp) <= g(ip, j) + g(i, jp)
                        assert g(ip, j) <= g(i, jp)

    @pytest.mark.parametrize("family", sorted(UNDECLARED))
    def test_undeclared_family_refused_before_any_table(self, family, no_dense_table):
        with pytest.raises(InvalidProblemError, match="quadrangle"):
            solve_knuth(UNDECLARED[family]())

    def test_solve_refuses_through_the_declaration(self, no_dense_table):
        with pytest.raises(InvalidProblemError, match="quadrangle"):
            solve(MatrixChainProblem([3, 7, 2, 9, 4, 11, 5]), method="knuth")


class TestSolveKnuth:
    def test_clrs_bst(self, clrs_bst):
        assert solve_knuth(clrs_bst).value == pytest.approx(2.75)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_sequential_on_random_bsts(self, seed):
        p = random_bst(15, seed=seed)
        a = solve_knuth(p)
        b = solve_sequential(p)
        assert a.value == b.value
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.split, b.split)

    def test_zipf_weights(self):
        p = random_bst(12, seed=3, zipf=1.5)
        assert solve_knuth(p).value == solve_sequential(p).value

    def test_solves_bsts_without_the_dense_table(self, no_dense_table):
        p = random_bst(40, seed=4)
        got = solve(p, method="knuth", reconstruct=True)
        assert got.value == solve(p, method="sequential").value
        assert got.tree is not None

    def test_peak_memory_is_quadratic_at_n_1000(self):
        p = random_bst(999, seed=1)  # n = 1000 objects
        tracemalloc.start()
        try:
            solve_knuth(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # w and split are 8 MB each; the dense f table would be 8 GB
        assert peak < 32 * 2**20

    def test_infinite_weight_raises_the_sweeps_nan_error(self):
        p = OptimalBSTProblem([1.0, np.inf, 2.0, 3.0], [1.0] * 5)
        for solver in (solve_sequential, solve_knuth):
            with np.errstate(invalid="ignore"), pytest.raises(
                InvalidProblemError, match=r"NaN at cell \(2, 4\)"
            ):
                solver(p)

    def test_nan_in_a_window_names_the_first_nan_cell(self, monkeypatch):
        p = random_bst(8, seed=1)
        segment = p.split_cost_segment

        def poisoned(length, i0, cells):
            block = np.array(segment(length, i0, cells))
            if length == 4 and i0 <= 2 < i0 + cells:
                block[2 - i0] = np.nan
            return block

        monkeypatch.setattr(p, "split_cost_segment", poisoned)
        for solver in (solve_sequential, solve_knuth):
            with pytest.raises(InvalidProblemError, match=r"NaN at cell \(2, 6\)"):
                solver(p)

    def test_window_actually_shrinks_work(self):
        """Knuth windows examine O(n²) candidates vs Θ(n³) full range."""
        p = random_bst(20, seed=1)
        seq = solve_sequential(p)
        kn = solve_knuth(p)
        # Same split monotonicity that powers the speedup:
        s = kn.split
        n = p.n
        for i in range(n - 1):
            for j in range(i + 2, n):
                if s[i, j] != -1 and s[i, j + 1] != -1:
                    assert s[i, j] <= s[i, j + 1]
        assert kn.value == pytest.approx(seq.value)
