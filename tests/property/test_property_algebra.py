"""Property-based equivalence: method × backend × tiling × algebra.

Every iterative solver, on every backend and tiling, under every
registered algebra, must commit tables **bitwise identical** to a plain
O(n³) per-algebra reference DP written with explicit Python loops (no
shared code path with the engine beyond the algebra's ufuncs).

Instances are drawn so the claim is exact rather than approximate: the
``+``-extend algebras (``min_plus``, ``max_plus``, ``lex_min_plus``)
get integer-valued costs (float64 sums of small integers are exact, so
association order cannot leak into results), while the arithmetic-free
``minimax``/``maxmin`` algebras also exercise fractional instances
(min/max never rounds).

The exhaustive pinned matrix — all five iterative hosts × all three
backends × all five algebras on one fixed instance — runs as a ``slow``
test so tier-1 stays fast; the randomized Hypothesis sweep covers the
same space probabilistically on serial/thread.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import solve
from repro.core.algebra import get_algebra, list_algebras
from repro.core.delta import DELTA_METHODS, delta_resolve
from repro.core.banded import BandedSolver
from repro.core.compact import CompactBandedSolver
from repro.core.huang import HuangSolver
from repro.core.rytter import RytterSolver
from repro.core.sequential import solve_sequential
from repro.problems import (
    BottleneckChainProblem,
    GenericProblem,
    MatrixChainProblem,
    OptimalBSTProblem,
    PolygonTriangulationProblem,
    ReliabilityBSTProblem,
)
from repro.problems.generators import random_bst, random_polygon

ALGEBRAS = list(list_algebras())
PLUS_ALGEBRAS = ("min_plus", "max_plus", "lex_min_plus")
ORDER_ALGEBRAS = ("minimax", "maxmin")
ITERATIVE = [
    ("huang", HuangSolver),
    ("huang-banded", BandedSolver),
    ("huang-compact", CompactBandedSolver),
    ("rytter", RytterSolver),
]


# ---------------------------------------------------------------------------
# The independent reference: explicit-loop O(n³) DP per algebra.
# ---------------------------------------------------------------------------


def reference_dp(problem, algebra) -> np.ndarray:
    """Plain bottom-up recurrence (*) over ``algebra`` — scalar loops,
    no vectorisation, no engine code."""
    alg = get_algebra(algebra)
    F = alg.encode_f(problem.cached_f_table())
    init = alg.encode_init(problem.init_vector())
    n = problem.n
    w = np.full((n + 1, n + 1), alg.zero)
    for i in range(n):
        w[i, i + 1] = init[i]
    for length in range(2, n + 1):
        for i in range(0, n - length + 1):
            j = i + length
            best = alg.zero
            for k in range(i + 1, j):
                cand = alg.extend_ufunc(
                    alg.extend_ufunc(w[i, k], w[k, j]), F[i, k, j]
                )
                best = alg.combine_ufunc(best, cand)
            w[i, j] = best
    return w


# ---------------------------------------------------------------------------
# Instance strategies (integer costs for +-extend algebras: see module
# docstring).
# ---------------------------------------------------------------------------


def int_chain(draw, n):
    dims = draw(
        st.lists(st.integers(1, 30), min_size=n + 1, max_size=n + 1)
    )
    return MatrixChainProblem(dims)


def int_generic(draw, n):
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    init = rng.integers(0, 20, size=n).astype(np.float64)
    F = rng.integers(0, 20, size=(n + 1,) * 3).astype(np.float64)
    return GenericProblem.from_tables(init, F, name=f"int-generic(n={n})")


def bottleneck(draw, n):
    weights = draw(st.lists(st.integers(1, 40), min_size=n + 1, max_size=n + 1))
    return BottleneckChainProblem(weights)


def reliability(draw, n):
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    r = rng.uniform(0.5, 1.0, size=max(0, n - 1))
    q = rng.uniform(0.5, 1.0, size=n)
    return ReliabilityBSTProblem(r, q)


def bst(draw, n):
    return random_bst(n - 1, seed=draw(st.integers(0, 2**31)))


def perimeter_polygon(draw, n):
    return random_polygon(n + 1, seed=draw(st.integers(0, 2**31)))


def product_polygon(draw, n):
    return random_polygon(n + 1, seed=draw(st.integers(0, 2**31)), rule="product")


#: float-cost families: exact for the sequential sweep under every
#: algebra but lex_min_plus (its packing needs integer costs), but not
#: for the iterative solvers, whose sums associate differently
FLOAT_FAMILIES = [bst, perimeter_polygon, product_polygon]
NON_LEX_ALGEBRAS = [name for name in ALGEBRAS if name != "lex_min_plus"]


@st.composite
def algebra_case(draw):
    """(problem, algebra) with integer costs wherever extend adds."""
    algebra = draw(st.sampled_from(ALGEBRAS))
    n = draw(st.integers(4, 8))
    if algebra in PLUS_ALGEBRAS:
        family = draw(st.sampled_from([int_chain, int_generic, bottleneck]))
    else:
        family = draw(st.sampled_from([int_chain, int_generic, bottleneck, reliability]))
    return family(draw, n), algebra


@st.composite
def float_case(draw):
    """(problem, algebra) over the float-cost families."""
    algebra = draw(st.sampled_from(NON_LEX_ALGEBRAS))
    family = draw(st.sampled_from(FLOAT_FAMILIES))
    return family(draw, draw(st.integers(4, 8))), algebra


# ---------------------------------------------------------------------------
# Randomized sweep (tier-1): engine == reference, bitwise.
# ---------------------------------------------------------------------------


class TestEngineMatchesReferenceDP:
    @given(
        case=algebra_case(),
        method=st.sampled_from([name for name, _ in ITERATIVE]),
        backend=st.sampled_from(["serial", "thread"]),
        tiles=st.integers(1, 5),
    )
    def test_iterative_bitwise_equals_reference(self, case, method, backend, tiles):
        problem, algebra = case
        ref = reference_dp(problem, algebra)
        out = solve(
            problem, method=method, algebra=algebra, backend=backend, tiles=tiles
        )
        assert np.array_equal(out.w, ref)
        assert out.algebra == algebra

    @given(case=st.one_of(algebra_case(), float_case()))
    def test_sequential_bitwise_equals_reference(self, case):
        problem, algebra = case
        assert np.array_equal(
            solve_sequential(problem, algebra=algebra).w, reference_dp(problem, algebra)
        )

    @given(case=algebra_case())
    def test_decoded_value_matches_reference_root(self, case):
        problem, algebra = case
        alg = get_algebra(algebra)
        ref_root = float(alg.decode(reference_dp(problem, algebra)[0, problem.n]))
        assert solve(problem, method="huang", algebra=algebra).value == ref_root


# ---------------------------------------------------------------------------
# The delta axis: an incremental re-sweep from a solved parent must be
# bitwise the cold child table, for every pinned method × algebra.
# (A delta re-sweep and a cold sequential solve run the same sweep, so
# for ``sequential`` the claim is exact for any weights; the iterative
# methods match it only where sums are exact, and the delta must
# decline for them elsewhere — see ``delta_case``.)
# ---------------------------------------------------------------------------


@st.composite
def delta_case(draw):
    """(parent problem, algebra, method, weight position to perturb)
    over the families that opt in to delta re-solves. BST and perimeter
    polygon costs are floats whose sums round: under a +-extend algebra
    the iterative solvers associate them differently from the
    sequential sweep, so a delta must decline for those methods there
    (or match their cold table)."""
    algebra = draw(st.sampled_from(ALGEBRAS))
    n = draw(st.integers(4, 8))
    if algebra in PLUS_ALGEBRAS:
        families = [int_chain, bottleneck]
    else:
        families = [int_chain, bottleneck, reliability]
    if algebra != "lex_min_plus":
        families += [bst, perimeter_polygon]
    family = draw(st.sampled_from(families))
    problem = family(draw, n)
    method = draw(st.sampled_from(DELTA_METHODS))
    pos = draw(st.integers(0, len(problem.delta_weights()) - 1))
    return problem, algebra, method, pos


def _sums_round(problem, algebra, method):
    """Would ``method``'s cold table differ from the sequential one?
    Float costs summed by an iterative solver."""
    float_costs = isinstance(problem, (OptimalBSTProblem, PolygonTriangulationProblem))
    return float_costs and algebra in PLUS_ALGEBRAS and method != "sequential"


def _perturbed_child(problem, pos):
    """The same instance with one weight coordinate nudged (integer-
    valued weights up by one — lex_min_plus needs integral costs;
    reliability's bounded floats scale down into (0, 1]; BST float
    weights scale up, which re-rounds every later prefix sum; polygon
    coordinates move by a scale and a shift)."""
    w = problem.delta_weights()
    if isinstance(problem, MatrixChainProblem):
        w[pos] += 1
        return MatrixChainProblem([int(x) for x in w])
    if isinstance(problem, BottleneckChainProblem):
        w[pos] += 1
        return BottleneckChainProblem([int(x) for x in w])
    if isinstance(problem, OptimalBSTProblem):
        w[pos] *= 1.37
        m = problem.num_keys
        return OptimalBSTProblem(w[m + 1 :], w[: m + 1])
    if isinstance(problem, PolygonTriangulationProblem):
        w[pos] = w[pos] * 1.37 + 0.011
        return PolygonTriangulationProblem(w.reshape(-1, 2), rule=problem.rule)
    w[pos] *= 0.75
    half = (len(w) + 1) // 2
    return ReliabilityBSTProblem(w[half:], w[:half])


class TestDeltaMatchesCold:
    @given(case=delta_case())
    @example(case=(random_bst(7, seed=0), "min_plus", "huang", 0))
    @settings(max_examples=40)
    def test_delta_resweep_bitwise_equals_cold(self, case):
        problem, algebra, method, pos = case
        parent = solve(problem, method=method, algebra=algebra)
        child = _perturbed_child(problem, pos)
        cold = solve(child, method=method, algebra=algebra)
        got = delta_resolve(
            child,
            problem.delta_weights(),
            parent,
            method=method,
            algebra=algebra,
            max_dirty=1.0,
        )
        if _sums_round(problem, algebra, method):
            assert got is None
            return
        assert got is not None
        assert np.array_equal(got.w, cold.w)
        assert got.value == cold.value
        assert got.algebra == cold.algebra


# ---------------------------------------------------------------------------
# Semantic spot checks: the algebra objective equals a brute-force
# scan over *all* trees (small n).
# ---------------------------------------------------------------------------


def _all_tree_values(problem, per_tree):
    from repro.trees.enumerate import enumerate_trees

    return [per_tree(t) for t in enumerate_trees(0, problem.n)]


class TestObjectiveSemantics:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=10)
    def test_minimax_is_best_bottleneck_over_all_trees(self, seed):
        rng = np.random.default_rng(seed)
        problem = BottleneckChainProblem(rng.integers(1, 30, size=6))
        best = min(_all_tree_values(problem, problem.bottleneck_cost))
        assert solve(problem, algebra="minimax").value == best

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=10)
    def test_maxmin_is_best_reliability_over_all_trees(self, seed):
        rng = np.random.default_rng(seed)
        problem = ReliabilityBSTProblem(
            rng.uniform(0.5, 1.0, size=4), rng.uniform(0.5, 1.0, size=5)
        )
        best = max(_all_tree_values(problem, problem.tree_reliability))
        assert solve(problem, algebra="maxmin").value == best

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=10)
    def test_max_plus_is_most_expensive_tree(self, seed):
        rng = np.random.default_rng(seed)
        problem = MatrixChainProblem(rng.integers(1, 20, size=7))
        worst = max(_all_tree_values(problem, lambda t: t.weight(problem)))
        assert solve(problem, algebra="max_plus").value == worst

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=10)
    def test_lex_min_plus_primary_channel_equals_min_plus(self, seed):
        rng = np.random.default_rng(seed)
        problem = MatrixChainProblem(rng.integers(1, 20, size=8))
        assert (
            solve(problem, algebra="lex_min_plus").value
            == solve(problem, algebra="min_plus").value
        )


# ---------------------------------------------------------------------------
# The pinned exhaustive matrix (slow job): five hosts × three backends
# × five algebras on one fixed integer instance.
# ---------------------------------------------------------------------------

PINNED = MatrixChainProblem([8, 3, 11, 5, 2, 9, 7, 4])  # n = 7, integer costs


def _lockstep_host(problem, algebra, backend, tiles):
    """The fifth iterative host: a solver driven one kernel super-step
    at a time (the lockstep validator's usage pattern), rather than
    through ``run()``."""
    with HuangSolver(problem, algebra=algebra, backend=backend, tiles=tiles) as s:
        for _ in range(s.paper_schedule_length()):
            s.a_activate()
            s.a_square()
            s.a_pebble()
            s.iterations_run += 1
        return s.w.copy()


@pytest.mark.slow
class TestPinnedMatrix:
    @pytest.mark.parametrize("algebra", ALGEBRAS)
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_all_methods_bitwise_equal_reference(self, algebra, backend):
        ref = reference_dp(PINNED, algebra)
        for method, cls in ITERATIVE:
            with cls(PINNED, algebra=algebra, backend=backend, tiles=3) as solver:
                out = solver.run()
            assert np.array_equal(out.w, ref), (method, backend, algebra)
        lockstep = _lockstep_host(PINNED, algebra, backend, 3)
        assert np.array_equal(lockstep, ref), ("lockstep", backend, algebra)
