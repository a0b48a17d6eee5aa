"""Delta re-solves: dirty windows, bitwise identity, refusal paths."""

import numpy as np
import pytest

from repro.core import solve
from repro.core.delta import (
    DELTA_METHODS,
    delta_meta_for,
    delta_resolve,
    try_delta,
)
from repro.errors import InvalidProblemError
from repro.problems import (
    BottleneckChainProblem,
    MatrixChainProblem,
    PolygonTriangulationProblem,
)
from repro.problems.base import ParenthesizationProblem
from repro.problems.generators import (
    random_bottleneck_chain,
    random_bst,
    random_matrix_chain,
    random_polygon,
    random_reliability_bst,
)
from repro.service import ResultCache


def _families(n=12, seed=5):
    return [
        random_matrix_chain(n, seed=seed),
        random_bottleneck_chain(n, seed=seed),
        random_bst(n, seed=seed),
        random_reliability_bst(n, seed=seed),
        random_polygon(n + 2, seed=seed),
        random_polygon(n + 2, seed=seed, rule="product"),
    ]


def _family_id(problem):
    rule = getattr(problem, "rule", None)
    return type(problem).__name__ + (f"-{rule}" if rule else "")


def _bump_last(problem):
    """The same instance with its last weight coordinate nudged."""
    w = problem.delta_weights()
    # integer weights are nudged up; float weights shrink so families
    # with bounded domains (reliabilities in (0, 1]) stay valid
    w[-1] = w[-1] + 1 if w.dtype.kind in "iu" else w[-1] * 0.75
    return _rebuild(problem, w)


def _rebuild(problem, weights):
    from repro.problems import OptimalBSTProblem, ReliabilityBSTProblem

    if isinstance(problem, MatrixChainProblem):
        return MatrixChainProblem([int(x) for x in weights])
    if isinstance(problem, BottleneckChainProblem):
        return BottleneckChainProblem(list(weights))
    if isinstance(problem, OptimalBSTProblem):
        m = (len(weights) - 1) // 2
        return OptimalBSTProblem(list(weights[m + 1 :]), list(weights[: m + 1]))
    if isinstance(problem, ReliabilityBSTProblem):
        n = (len(weights) + 1) // 2
        return ReliabilityBSTProblem(list(weights[n:]), list(weights[:n]))
    if isinstance(problem, PolygonTriangulationProblem):
        if problem.rule == "product":
            return PolygonTriangulationProblem(list(weights), rule="product")
        pts = [tuple(pt) for pt in np.asarray(weights).reshape(-1, 2)]
        return PolygonTriangulationProblem(pts, rule=problem.rule)
    raise AssertionError(f"no rebuild for {type(problem).__name__}")


def _segment_cases(n):
    """Every diagonal segment ``(length, i0, cells)`` of an n-object
    triangle."""
    for length in range(2, n + 1):
        for i0 in range(n - length + 1):
            for cells in range(1, n - length - i0 + 2):
                yield length, i0, cells


def _scalar_f_table(problem):
    """The dense ``f`` table from the scalar reference ``split_cost``."""
    n = problem.n
    f = np.full((n + 1, n + 1, n + 1), np.inf)
    for i in range(n - 1):
        for k in range(i + 1, n):
            for j in range(k + 1, n + 1):
                f[i, k, j] = problem.split_cost(i, k, j)
    return f


PERIMETER_POLYGON = [(0.0, 0.0), (2.0, 0.1), (3.0, 1.5), (1.7, 3.0), (0.1, 2.0), (-0.5, 1.0)]


class TestSplitCostSegment:
    """``split_cost_segment`` feeds every sweep of the recurrence and the
    dense table is assembled from it, so each family's closed form is
    pinned bitwise against its dense table and against its scalar
    ``split_cost`` on every diagonal segment."""

    @staticmethod
    def _assert_pinned(problem, f=None):
        if f is None:
            f = problem.cached_f_table()
        for length, i0, cells in _segment_cases(problem.n):
            block = problem.split_cost_segment(length, i0, cells)
            assert block.dtype == np.float64
            i = np.arange(i0, i0 + cells)[:, None]
            expected = f[i, i + np.arange(1, length), i + length]
            got = np.broadcast_to(block, expected.shape)
            assert got.tobytes() == expected.tobytes(), (length, i0, cells)

    @pytest.mark.parametrize("problem", _families(), ids=_family_id)
    def test_matches_dense_f_table_bitwise(self, problem):
        self._assert_pinned(problem)

    @pytest.mark.parametrize("problem", _families(), ids=_family_id)
    def test_matches_scalar_split_cost_bitwise(self, problem):
        self._assert_pinned(problem, _scalar_f_table(problem))

    def test_perimeter_polygon_matches_too(self):
        problem = PolygonTriangulationProblem(PERIMETER_POLYGON, rule="perimeter")
        self._assert_pinned(problem)
        self._assert_pinned(problem, _scalar_f_table(problem))

    def test_generic_reads_its_dense_table(self):
        from repro.problems import GenericProblem

        rng = np.random.default_rng(4)
        problem = GenericProblem.from_tables(
            rng.integers(0, 9, size=7).astype(float),
            rng.uniform(0.0, 5.0, size=(8, 8, 8)),
        )
        self._assert_pinned(problem)


class TestNoDenseTable:
    @pytest.mark.parametrize("problem", _families(), ids=_family_id)
    def test_sequential_and_delta_never_build_it(self, problem, monkeypatch):
        expected = solve(_bump_last(problem), method="sequential")

        def refuse(self):
            raise AssertionError("the dense f table was built")

        monkeypatch.setattr(ParenthesizationProblem, "cached_f_table", refuse)
        child = _bump_last(problem)
        parent_result = solve(problem, method="sequential")
        cold = solve(child, method="sequential")
        got = delta_resolve(
            child,
            problem.delta_weights(),
            parent_result,
            method="sequential",
            max_dirty=1.0,
        )
        assert got is not None
        np.testing.assert_array_equal(cold.w, expected.w)
        np.testing.assert_array_equal(got.w, expected.w)


class TestNaNSplitCosts:
    """An inf weight can make a closed-form split cost NaN (inf - inf).
    The sweep rejects it on the cold path and on the delta path alike."""

    ALGEBRAS = ["min_plus", "max_plus", "minimax", "maxmin"]

    def _bst_parent_and_child(self):
        parent = random_bst(12, seed=3)
        weights = parent.delta_weights()
        # key 10 of 12: prefix[10:] become inf, so every f with i >= 10
        # reads inf - inf; the dirty window stays under half the table
        weights[parent.num_keys + 10] = np.inf
        return parent, _rebuild(parent, weights)

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_bst_cold_solve_raises(self, algebra):
        _, child = self._bst_parent_and_child()
        with pytest.raises(InvalidProblemError, match="NaN"):
            solve(child, method="sequential", algebra=algebra)

    def test_bst_delta_resolve_raises(self):
        parent, child = self._bst_parent_and_child()
        parent_result = solve(parent, method="sequential")
        with pytest.raises(InvalidProblemError, match="NaN"):
            delta_resolve(child, parent.delta_weights(), parent_result)

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_bst_warm_cache_raises(self, algebra):
        parent, child = self._bst_parent_and_child()
        cache = ResultCache()
        solve(parent, method="sequential", algebra=algebra, cache=cache)
        with pytest.raises(InvalidProblemError, match="NaN"):
            solve(child, method="sequential", algebra=algebra, cache=cache)

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_perimeter_polygon_cold_solve_raises(self, algebra):
        # vertices 1 and 2 share x = inf: their distance is hypot(nan, 1)
        problem = PolygonTriangulationProblem(
            [(0.0, 0.0), (np.inf, 0.0), (np.inf, 1.0), (0.0, 1.0)]
        )
        with pytest.raises(InvalidProblemError, match="NaN"):
            solve(problem, method="sequential", algebra=algebra)


class TestDeltaWindow:
    def test_equal_weights_empty_window(self):
        p = random_matrix_chain(8, seed=0)
        lo, hi = p.delta_window(p.delta_weights())
        assert lo > p.n and hi < 0

    def test_suffix_edit_window_is_right_edge(self):
        p = random_matrix_chain(8, seed=0)
        w = p.delta_weights()
        w[-1] += 1
        assert p.delta_window(w) == (p.n, p.n)

    def test_shape_mismatch_is_unknown(self):
        p = random_matrix_chain(8, seed=0)
        assert p.delta_window(np.zeros(3)) is None
        assert p.delta_window("junk") is None

    def test_generic_problem_opts_out(self):
        from repro.problems import GenericProblem

        p = GenericProblem(4, lambda i: 0.0, lambda i, k, j: 1.0)
        assert p.delta_weights() is None
        assert p.delta_parent_payload() is None
        assert delta_meta_for(p, method="sequential") is None


class TestDeltaResolveBitwise:
    @pytest.mark.parametrize("problem", _families(), ids=_family_id)
    def test_families_bitwise_identical_to_cold(self, problem):
        parent_result = solve(problem, method="sequential")
        child = _bump_last(problem)
        cold = solve(child, method="sequential")
        got = delta_resolve(
            child,
            problem.delta_weights(),
            parent_result,
            method="sequential",
            max_dirty=1.0,
        )
        assert got is not None
        assert got.value == cold.value
        np.testing.assert_array_equal(got.w, cold.w)

    @pytest.mark.parametrize("algebra", ["min_plus", "max_plus", "minimax", "maxmin"])
    def test_bst_any_edit_position_bitwise_identical_to_cold(self, algebra):
        # An edit changes the rounding of every later prefix sum, which
        # f reads at both ends of the interval: a window that keeps the
        # cells right of the edit clean leaves them an ulp off.
        problem = random_bst(12, seed=7)
        parent_result = solve(problem, method="sequential", algebra=algebra)
        for pos in range(len(problem.delta_weights())):
            weights = problem.delta_weights()
            weights[pos] *= 1.37
            child = _rebuild(problem, weights)
            cold = solve(child, method="sequential", algebra=algebra)
            got = delta_resolve(
                child,
                problem.delta_weights(),
                parent_result,
                method="sequential",
                algebra=algebra,
                max_dirty=1.0,
            )
            assert got is not None
            assert got.value == cold.value, pos
            np.testing.assert_array_equal(got.w, cold.w)

    @pytest.mark.parametrize("algebra", ["min_plus", "max_plus", "minimax", "lex_min_plus"])
    def test_algebras_bitwise_identical_to_cold(self, algebra):
        # integer-valued dims keep packed lex arithmetic exact
        problem = random_matrix_chain(10, seed=3)
        parent_result = solve(problem, method="sequential", algebra=algebra)
        child = _bump_last(problem)
        cold = solve(child, method="sequential", algebra=algebra)
        got = delta_resolve(
            child,
            problem.delta_weights(),
            parent_result,
            method="sequential",
            algebra=algebra,
            max_dirty=1.0,
        )
        assert got is not None and got.algebra == cold.algebra
        np.testing.assert_array_equal(got.w, cold.w)

    def test_equal_weights_returns_parent_copy(self):
        problem = random_matrix_chain(8, seed=1)
        parent_result = solve(problem, method="sequential")
        got = delta_resolve(
            problem,
            problem.delta_weights(),
            parent_result,
            method="sequential",
            max_dirty=0.0,  # even a zero budget: nothing is dirty
        )
        assert got is not None and got.value == parent_result.value
        np.testing.assert_array_equal(got.w, parent_result.w)
        assert got.w is not parent_result.w

    def test_dirty_fraction_gate_declines(self):
        problem = random_matrix_chain(8, seed=1)
        parent_result = solve(problem, method="sequential")
        child = _bump_last(problem)
        assert (
            delta_resolve(
                child,
                problem.delta_weights(),
                parent_result,
                method="sequential",
                max_dirty=0.0,
            )
            is None
        )

    def test_wrong_algebra_parent_declines(self):
        problem = random_matrix_chain(8, seed=1)
        parent_result = solve(problem, method="sequential", algebra="max_plus")
        child = _bump_last(problem)
        assert (
            delta_resolve(
                child,
                problem.delta_weights(),
                parent_result,
                method="sequential",
                max_dirty=1.0,
            )
            is None
        )


class TestTryDelta:
    def _warm_cache(self, problem, method="sequential", **kwargs):
        cache = ResultCache()
        solve(problem, method=method, cache=cache, **kwargs)
        return cache

    def test_probe_finds_cached_sibling(self):
        parent = random_matrix_chain(12, seed=9)
        cache = self._warm_cache(parent)
        child = _bump_last(parent)
        cold = solve(child, method="sequential")
        got = try_delta(cache, child, method="sequential")
        assert got is not None
        np.testing.assert_array_equal(got.w, cold.w)

    @pytest.mark.parametrize("method", DELTA_METHODS)
    def test_every_pinned_method_answers(self, method):
        parent = random_matrix_chain(12, seed=9)
        cache = self._warm_cache(parent, method=method)
        child = _bump_last(parent)
        cold = solve(child, method=method)
        got = try_delta(cache, child, method=method)
        assert got is not None and got.method == method
        np.testing.assert_array_equal(got.w, cold.w)

    def test_off_axis_method_declines(self):
        parent = random_bst(10, seed=9)  # BSTs satisfy knuth's QI conditions
        cache = self._warm_cache(parent, method="knuth")
        child = _bump_last(parent)
        assert try_delta(cache, child, method="knuth") is None

    def test_reconstruct_declines(self):
        parent = random_matrix_chain(12, seed=9)
        cache = self._warm_cache(parent)
        child = _bump_last(parent)
        assert try_delta(cache, child, method="sequential", reconstruct=True) is None

    def test_solver_tuning_kwargs_decline(self):
        parent = random_matrix_chain(12, seed=9)
        cache = self._warm_cache(parent)
        child = _bump_last(parent)
        assert try_delta(cache, child, method="huang-banded", band=3) is None

    def test_execution_kwargs_do_not_decline(self):
        parent = random_matrix_chain(12, seed=9)
        cache = self._warm_cache(parent)
        child = _bump_last(parent)
        got = try_delta(
            cache, child, method="sequential", backend="thread", workers=2
        )
        assert got is not None

    def test_plain_dict_cache_is_ignored(self):
        parent = random_matrix_chain(12, seed=9)
        child = _bump_last(parent)
        assert try_delta({}, child, method="sequential") is None

    def test_different_structure_misses(self):
        parent = random_matrix_chain(12, seed=9)
        cache = self._warm_cache(parent)
        other = random_matrix_chain(13, seed=9)  # different n: different parent key
        assert try_delta(cache, other, method="sequential") is None


class TestSolveIntegration:
    def test_solve_cache_delta_path_bitwise(self):
        cache = ResultCache()
        parent = random_matrix_chain(14, seed=2)
        solve(parent, method="sequential", cache=cache)
        child = _bump_last(parent)
        via_cache = solve(child, method="sequential", cache=cache)
        cold = solve(child, method="sequential")
        assert via_cache.value == cold.value
        np.testing.assert_array_equal(via_cache.w, cold.w)
        # the delta answer was re-cached: the repeat is a plain hit
        before = cache.stats()["hits"]
        solve(child, method="sequential", cache=cache)
        assert cache.stats()["hits"] == before + 1
