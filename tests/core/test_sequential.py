"""Unit tests for the O(n³) sequential DP."""

import numpy as np
import pytest

from repro.core.algebra import get_algebra, list_algebras
from repro.core.sequential import (
    set_leaves,
    solve_sequential,
    sweep_window,
    work_count_sequential,
)
from repro.errors import InvalidProblemError
from repro.problems import (
    GenericProblem,
    MatrixChainProblem,
    OptimalBSTProblem,
    PolygonTriangulationProblem,
)
from repro.problems.generators import (
    random_bottleneck_chain,
    random_bst,
    random_generic,
    random_matrix_chain,
    random_polygon,
    random_reliability_bst,
)


class TestKnownValues:
    def test_clrs(self, clrs_chain):
        res = solve_sequential(clrs_chain)
        assert res.value == 15125.0
        assert res.n == 6

    def test_two_objects(self):
        p = MatrixChainProblem([7, 2, 9])
        assert solve_sequential(p).value == 7 * 2 * 9

    def test_single_object(self):
        p = GenericProblem(1, init=lambda i: 5.0, f=lambda i, k, j: 0.0)
        res = solve_sequential(p)
        assert res.value == 5.0
        assert res.split[0, 1] == -1


class TestTables:
    def test_w_table_structure(self, clrs_chain):
        res = solve_sequential(clrs_chain)
        n = res.n
        # Lower triangle + diagonal invalid.
        for i in range(n + 1):
            for j in range(i + 1):
                assert np.isinf(res.w[i, j]) or i == j  # all inf
        assert np.isinf(res.w[2, 2])

    def test_split_inside_interval(self, clrs_chain):
        res = solve_sequential(clrs_chain)
        n = res.n
        for i in range(n):
            for j in range(i + 2, n + 1):
                assert i < res.split[i, j] < j

    def test_bellman_consistency(self):
        """w(i,j) equals the best split everywhere (fixed-point check)."""
        from repro.core.reconstruct import verify_w_table

        p = random_generic(12, seed=4)
        res = solve_sequential(p)
        assert verify_w_table(p, res.w)

    def test_monotone_under_length_for_nonneg(self):
        """With all-zero init and positive f, longer intervals cost more."""
        p = MatrixChainProblem([3, 5, 2, 8, 4, 6])
        res = solve_sequential(p)
        for i in range(p.n - 1):
            for j in range(i + 2, p.n + 1):
                assert res.w[i, j] >= res.w[i, j - 1]


class TestBruteForceAgreement:
    def brute_force(self, problem):
        """Exponential enumeration of all trees (tiny n only)."""
        from functools import lru_cache

        @lru_cache(maxsize=None)
        def best(i, j):
            if j == i + 1:
                return problem.init_cost(i)
            return min(
                best(i, k) + best(k, j) + problem.split_cost(i, k, j)
                for k in range(i + 1, j)
            )

        return best(0, problem.n)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_small(self, seed):
        p = random_generic(7, seed=seed)
        assert solve_sequential(p).value == pytest.approx(self.brute_force(p))


class TestWorkCount:
    def test_formula(self):
        # n(n² - 1)/6 = C(n+1, 3)
        assert work_count_sequential(2) == 1
        assert work_count_sequential(3) == 4
        assert work_count_sequential(6) == 35

    def test_matches_enumeration(self):
        n = 9
        count = sum(
            j - i - 1 for i in range(n) for j in range(i + 2, n + 1)
        )
        assert work_count_sequential(n) == count

    def test_invalid(self):
        with pytest.raises(ValueError):
            work_count_sequential(0)


class TestValidation:
    def test_rejects_negative_init(self):
        p = GenericProblem(3, init=lambda i: -1.0, f=lambda i, k, j: 0.0)
        with pytest.raises(Exception):
            solve_sequential(p)


# ---------------------------------------------------------------------------
# The diagonal sweep against the cell-by-cell fill it replaced.
# ---------------------------------------------------------------------------


def per_cell_sweep(problem, alg, w, *, lo=0, hi=None, max_length=None, split=None):
    """Reference for :func:`sweep_window`: the cell-by-cell fill, one
    Python iteration per cell, each reading its row of the problem's
    dense (unvalidated) ``f`` table."""
    n = problem.n
    F = problem.f_table()
    hi = n if hi is None else hi
    top = n if max_length is None else max_length
    for length in range(2, top + 1):
        for i in range(max(0, lo - length), min(n - length, hi) + 1):
            j = i + length
            cand = alg.extend(
                alg.extend(w[i, i + 1 : j], w[i + 1 : j, j]),
                alg.encode_f(F[i, i + 1 : j, j]),
            )
            best = int(alg.argwitness(cand))
            if cand[best] != cand[best]:
                raise InvalidProblemError(f"f(i, k, j) contains NaN at cell ({i}, {j})")
            w[i, j] = cand[best]
            if split is not None:
                split[i, j] = i + 1 + best


SWEEP_FAMILIES = {
    "chain": lambda n, seed: random_matrix_chain(n, seed=seed),
    "bottleneck": lambda n, seed: random_bottleneck_chain(n, seed=seed),
    "bst": lambda n, seed: random_bst(n - 1, seed=seed),
    "reliability": lambda n, seed: random_reliability_bst(n, seed=seed),
    "polygon-perimeter": lambda n, seed: random_polygon(n + 1, seed=seed),
    "polygon-product": lambda n, seed: random_polygon(n + 1, seed=seed, rule="product"),
}


def _outcome(fill, problem, alg, w0, **window):
    """``fill``'s tables from a copy of ``w0``, or the error it raised."""
    w = w0.copy()
    split = np.full(w.shape, -1, dtype=np.int64)
    try:
        fill(problem, alg, w, split=split, **window)
    except InvalidProblemError as exc:
        return str(exc)
    return w.tobytes(), split.tobytes()


def _windows(n, rng):
    """A full window, one-cell columns at both edges (every diagonal
    one cell), an empty one, and random ``(lo, hi, max_length)``."""
    fixed = [(0, n, None), (n, n, None), (0, 0, None), (n + 1, -1, None)]
    drawn = [
        (
            int(rng.integers(0, n + 2)),
            int(rng.integers(-1, n + 1)),
            None if rng.random() < 0.3 else int(rng.integers(1, n + 1)),
        )
        for _ in range(10)
    ]
    return fixed + drawn


def _stale_table(n, alg, rng):
    """Integer values with some unreached cells: what a window reads
    outside itself as it stands."""
    w = rng.integers(0, 100, size=(n + 1, n + 1)).astype(np.float64)
    w[rng.random(w.shape) < 0.1] = alg.zero
    return w


class TestSweepMatchesPerCellLoop:
    """Bitwise: ``w``, ``split`` and the cell a NaN error names."""

    @pytest.mark.parametrize("algebra", list_algebras())
    @pytest.mark.parametrize("family", sorted(SWEEP_FAMILIES))
    def test_random_windows(self, family, algebra):
        alg = get_algebra(algebra)
        rng = np.random.default_rng([len(family), len(algebra)])
        for n, seed in ((2, 0), (5, 1), (9, 2), (14, 3)):
            problem = SWEEP_FAMILIES[family](n, seed)
            w0 = _stale_table(n, alg, rng)
            for lo, hi, top in _windows(n, rng):
                window = dict(lo=lo, hi=hi, max_length=top)
                assert _outcome(sweep_window, problem, alg, w0, **window) == _outcome(
                    per_cell_sweep, problem, alg, w0, **window
                ), (n, lo, hi, top)

    @pytest.mark.parametrize("algebra", list_algebras())
    def test_integer_instances_from_the_leaves(self, algebra):
        """Cold fills where lex_min_plus can pack the costs too."""
        alg = get_algebra(algebra)
        rng = np.random.default_rng(7)
        problems = [
            random_matrix_chain(13, seed=1),
            OptimalBSTProblem(rng.integers(0, 9, size=12), rng.integers(0, 9, size=13)),
            PolygonTriangulationProblem(rng.integers(1, 9, size=14), rule="product"),
        ]
        for problem in problems:
            w0 = alg.full((problem.n + 1, problem.n + 1))
            set_leaves(problem, alg, w0)
            got = _outcome(sweep_window, problem, alg, w0)
            assert got == _outcome(per_cell_sweep, problem, alg, w0)
            assert not isinstance(got, str)

    @pytest.mark.parametrize("algebra", list_algebras())
    @pytest.mark.parametrize("family", ["bst", "polygon-perimeter"])
    def test_nan_names_the_same_cell(self, family, algebra):
        """An inf weight makes closed-form costs NaN (inf - inf)."""
        alg = get_algebra(algebra)
        rng = np.random.default_rng(11)
        if family == "bst":
            p, q = rng.integers(1, 9, size=12).astype(float), rng.integers(1, 9, size=13)
            p[7] = np.inf
            problem = OptimalBSTProblem(p, q)
        else:
            pts = rng.integers(-9, 9, size=(14, 2)).astype(float)
            # vertices 6 and 9 share x = inf: their distance is NaN
            pts[[6, 9], 0] = np.inf
            problem = PolygonTriangulationProblem(pts, rule="perimeter")
        n = problem.n
        w0 = _stale_table(n, alg, rng)
        for lo, hi, top in _windows(n, rng):
            window = dict(lo=lo, hi=hi, max_length=top)
            assert _outcome(sweep_window, problem, alg, w0, **window) == _outcome(
                per_cell_sweep, problem, alg, w0, **window
            ), (lo, hi, top)
        full = _outcome(sweep_window, problem, alg, w0)
        # lex_min_plus may first refuse the polygon's fractional costs
        assert "NaN at cell" in full or algebra == "lex_min_plus"

    def test_rejects_non_contiguous_tables(self):
        problem = random_matrix_chain(4, seed=0)
        w = np.full((5, 5), np.inf, order="F")
        with pytest.raises(ValueError, match="C-contiguous"):
            sweep_window(problem, get_algebra("min_plus"), w)
