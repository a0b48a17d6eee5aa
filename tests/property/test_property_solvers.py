"""Property-based tests on the solvers (the core correctness story)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.banded import BandedSolver
from repro.core.huang import HuangSolver
from repro.core.rytter import RytterSolver
from repro.core.sequential import solve_knuth, solve_sequential
from repro.problems import GenericProblem, OptimalBSTProblem
from repro.problems.generators import random_bst


@st.composite
def generic_problem(draw, max_n=9):
    """Arbitrary non-negative recurrence-(*) instances, including ties,
    zeros and wildly different magnitudes."""
    n = draw(st.integers(1, max_n))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    init = rng.uniform(0.0, scale, size=n)
    F = rng.uniform(0.0, scale, size=(n + 1,) * 3)
    # Inject ties with some probability to exercise argmin plateaus.
    if draw(st.booleans()):
        F = np.round(F, 1)
        init = np.round(init, 1)
    return GenericProblem.from_tables(init, F)


class TestSolverProperties:
    @given(p=generic_problem())
    def test_huang_equals_sequential(self, p):
        assert np.isclose(
            HuangSolver(p).run().value, solve_sequential(p).value
        )

    @given(p=generic_problem())
    def test_banded_equals_sequential(self, p):
        assert np.isclose(
            BandedSolver(p).run().value, solve_sequential(p).value
        )

    @given(p=generic_problem(max_n=8))
    def test_rytter_equals_sequential(self, p):
        assert np.isclose(
            RytterSolver(p).run().value, solve_sequential(p).value
        )

    @given(p=generic_problem())
    def test_w_never_below_truth(self, p):
        """w' >= w pointwise at every iteration (upper-bound invariant:
        every finite w' value is realised by some actual tree)."""
        ref = solve_sequential(p).w
        s = HuangSolver(p)
        for _ in range(s.paper_schedule_length()):
            s.iterate()
            assert (s.w >= ref - 1e-9).all()

    @given(p=generic_problem())
    def test_iterations_monotone_tables(self, p):
        """w' and pw' only ever decrease."""
        s = HuangSolver(p)
        w_prev = s.w.copy()
        pw_prev = s.pw.copy()
        for _ in range(min(4, s.paper_schedule_length())):
            s.iterate()
            assert (s.w <= w_prev + 1e-12).all()
            assert (s.pw <= pw_prev + 1e-12).all()
            w_prev = s.w.copy()
            pw_prev = s.pw.copy()

    @given(p=generic_problem(max_n=7))
    def test_value_scale_invariance(self, p):
        """Multiplying all costs by a constant multiplies the optimum."""
        c = 7.0
        init2 = p.init_vector() * c
        F2 = p.cached_f_table().copy()
        F2[np.isfinite(F2)] *= c
        p2 = GenericProblem.from_tables(init2, F2)
        v1 = solve_sequential(p).value
        v2 = solve_sequential(p2).value
        assert np.isclose(v2, c * v1)

    @given(p=generic_problem(max_n=7), extra=st.floats(0.1, 5.0))
    def test_adding_to_init_adds_linearly_lower_bound(self, p, extra):
        """Adding a constant to every init adds at least n*extra (each
        tree has exactly n leaves)."""
        init2 = p.init_vector() + extra
        p2 = GenericProblem.from_tables(init2, p.cached_f_table().copy())
        v1 = solve_sequential(p).value
        v2 = solve_sequential(p2).value
        assert np.isclose(v2, v1 + p.n * extra)


@st.composite
def bst_problem(draw, max_keys=30):
    """Optimal BSTs across the generators and weight kinds Knuth's
    windows must agree on: uniform floats, small integers (ties and
    zeros, exact sums), floats scaled by one factor from 1e-300 to
    1e300, and ``random_bst`` with and without Zipf access weights."""
    m = draw(st.integers(1, max_keys))
    seed = draw(st.integers(0, 2**31 - 1))
    kind = draw(st.sampled_from(["float", "int", "scaled", "random", "zipf"]))
    if kind == "random":
        return random_bst(m, seed=seed)
    if kind == "zipf":
        return random_bst(m, seed=seed, zipf=draw(st.sampled_from([0.8, 1.2, 2.0])))
    rng = np.random.default_rng(seed)
    if kind == "int":
        top = draw(st.sampled_from([2, 4, 100]))
        p, q = rng.integers(0, top, m), rng.integers(0, top, m + 1)
    else:
        p, q = rng.uniform(0.0, 1.0, m), rng.uniform(0.0, 1.0, m + 1)
        if kind == "scaled":
            scale = 10.0 ** draw(st.integers(-300, 300))
            p, q = p * scale, q * scale
    return OptimalBSTProblem(p.astype(float), q.astype(float))


class TestKnuthAxis:
    @settings(max_examples=60)
    @given(p=bst_problem())
    def test_knuth_tables_equal_sequential_bitwise(self, p):
        kn, seq = solve_knuth(p), solve_sequential(p)
        np.testing.assert_array_equal(kn.w, seq.w)
        np.testing.assert_array_equal(kn.split, seq.split)
