"""The sweep computes of :mod:`repro.core.kernels_fused`: tables equal
to the sequential DP's for every method, algebra and backend, the
scalar lowerings behind the optional numba engine, the banded square's
grouped numpy engine against the band-restricted lattice, the
``fast_vdf``-style packed range check with its exact two-channel
fallback, and one compute per kernel on the public surface.

The heavy equivalence coverage lives in the golden tables and the
property suite's explicit-loop reference DP; this file pins the
computes' own machinery — including the guarantee that a numba-less
environment resolves to the numpy engine and still solves
bitwise-identically (exercised in a subprocess with numba imports
blocked, so it holds even where numba *is* installed).
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.core.kernels as kernels
from repro.core import plan_for, solve
from repro.core.algebra import (
    FLOAT_EXACT_INT_MAX,
    get_algebra,
    lex_pack,
    lex_range_check,
    lex_unpack,
    list_algebras,
)
from repro.core.banded import BandedSolver
from repro.core.kernels import SweepKernel, rytter_square_tile
from repro.core.kernels_fused import (
    HAVE_NUMBA,
    _band_restrict,
    _banded_matmul_reduce,
    _CompiledKernels,
    _identity_jit,
    _lex_exact_extend,
    _lex_exact_matmul,
    _lex_exact_pebble,
    _make_activate_kernel,
    _make_activate_pair_kernel,
    _make_banded_matmul_kernel,
    _make_matmul_kernel,
    _make_pebble_kernel,
    _matmul_reduce,
    _require_packable,
    _scalar_extend,
    _scalar_improves,
    fused_backend,
    fused_banded_square_tile,
    fused_compact_activate_tile,
    fused_dense_activate_tile,
)
from repro.errors import InvalidProblemError
from repro.problems.generators import random_generic, random_matrix_chain

_SRC_PATH = str(Path(__file__).resolve().parents[2] / "src")

METHODS = ["huang", "huang-banded", "huang-compact", "rytter"]


def _canon(w: np.ndarray) -> np.ndarray:
    """Make +inf comparable under array_equal (bitwise elsewhere)."""
    return np.nan_to_num(w, posinf=-1.0)


def _sequential_w(problem, algebra="min_plus") -> np.ndarray:
    return solve(problem, method="sequential", algebra=algebra).w


class TestTablesMatchTheSequentialDP:
    """Integer-cost chains sum exactly, so every method's table is the
    sequential DP's bit for bit, per method, algebra and backend."""

    @pytest.mark.parametrize("method", METHODS)
    def test_methods_bitwise_equal(self, method):
        p = random_matrix_chain(12, seed=11)
        out = solve(p, method=method)
        assert np.array_equal(_canon(out.w), _canon(_sequential_w(p)))
        assert out.value == solve(p, method="sequential").value

    @pytest.mark.parametrize("algebra", list_algebras())
    def test_algebras_bitwise_equal(self, algebra):
        p = random_matrix_chain(12, seed=5)
        out = solve(p, method="huang", algebra=algebra)
        assert np.array_equal(_canon(out.w), _canon(_sequential_w(p, algebra)))

    @pytest.mark.parametrize("method", METHODS)
    def test_thread_tiles_bitwise_equal_serial(self, method):
        p = random_generic(10, seed=3)
        ref = solve(p, method=method, backend="serial")
        out = solve(p, method=method, backend="thread", tiles=3)
        assert np.array_equal(_canon(ref.w), _canon(out.w))
        assert ref.iterations == out.iterations

    @pytest.mark.parametrize("algebra", list_algebras())
    def test_activate_tiles_are_the_equations(self, algebra):
        """The activate lowerings compose eqs. (1a)/(1b)'s operand
        pairs — cell-for-cell bitwise against the equations written as
        transposed extends, for both dense sides and the compact pair."""
        alg = get_algebra(algebra)
        rng = np.random.default_rng(13)
        F = rng.integers(0, 50, size=(7, 7, 7)).astype(np.float64)
        w = rng.integers(0, 50, size=(7, 7)).astype(np.float64)
        w[0, 3] = alg.zero  # an unreached weight cell stays absorbing
        lo, hi = 1, 4
        eq_1a = alg.extend(F[lo:hi], w[None, :, :]).transpose(0, 2, 1)
        got = fused_dense_activate_tile(("a", lo, hi), F=F, w=w, algebra=alg)
        assert np.array_equal(_canon(eq_1a), _canon(got))
        lo, hi = 2, 6
        eq_1b = alg.extend(F[:, :, lo:hi], w[:, :, None]).transpose(2, 0, 1)
        got = fused_dense_activate_tile(("b", lo, hi), F=F, w=w, algebra=alg)
        assert np.array_equal(_canon(eq_1b), _canon(got))
        lo, hi = 1, 5
        T = F[lo:hi].transpose(0, 2, 1)
        u1, u2 = fused_compact_activate_tile((lo, hi), F=F, w=w, algebra=alg)
        assert np.array_equal(_canon(alg.extend(T, w.T[None, :, :])), _canon(u1))
        assert np.array_equal(_canon(alg.extend(T, w[lo:hi, None, :])), _canon(u2))


def _banded_lattice(pw, band, lo, hi, alg):
    """Eq. (2c) over band offsets ``d = 0 .. band``, written as one
    whole-lattice compose per offset and side — the definition the
    grouped engine is checked against."""
    N = pw.shape[0]
    ar = np.arange(N)
    acc = alg.full((hi - lo, N, N, N))
    for d in range(0, min(band, N - 1) + 1):
        ps = ar[d:]
        Yr = pw[(ps - d)[:, None], ar[None, :], ps[:, None], ar[None, :]]
        alg.combine(acc[:, :, d:, :], alg.extend(pw[lo:hi, :, : N - d, :], Yr), out=acc[:, :, d:, :])
        qs = ar[: N - d]
        Ys = pw[ar[:, None], (qs + d)[None, :], ar[:, None], qs[None, :]]
        alg.combine(acc[:, :, :, : N - d], alg.extend(pw[lo:hi, :, :, d:], Ys), out=acc[:, :, :, : N - d])
    return acc


def _committed(solver, lo, acc):
    """What the banded commit leaves in rows ``lo:`` of pw."""
    acc = acc.copy()
    hi = lo + acc.shape[0]
    acc[~solver._band_mask[lo:hi]] = solver.algebra.zero
    return solver.algebra.combine(solver.pw[lo:hi], acc)


class TestBandedSquare:
    """The grouped numpy engine commits what the band-restricted
    eq. (2c) lattice commits, at every band, tiling and sweep."""

    @pytest.mark.parametrize("algebra", list_algebras())
    @pytest.mark.parametrize("band", [0, 1, 3, None])
    def test_commits_the_band_restricted_lattice(self, algebra, band):
        solver = BandedSolver(random_matrix_chain(9, seed=2), algebra=algebra, band=band)
        N = solver.n + 1
        for _ in range(solver.paper_schedule_length()):
            solver.a_activate()
            for lo, hi in [(0, N), (0, 4), (4, N), (2, 3)]:
                got = fused_banded_square_tile(
                    (lo, hi), pw=solver.pw, band=solver.band, algebra=solver.algebra
                )
                want = _banded_lattice(solver.pw, solver.band, lo, hi, solver.algebra)
                assert np.array_equal(
                    _canon(_committed(solver, lo, got)),
                    _canon(_committed(solver, lo, want)),
                ), (lo, hi)
            solver.a_square()
            solver.a_pebble()
            solver.iterations_run += 1

    def test_blocked_rows_match_unblocked(self, monkeypatch):
        """The intermediate is blocked over rows; a budget below one
        row's intermediate still runs one row at a time."""
        import repro.core.kernels_fused as kf

        solver = BandedSolver(random_matrix_chain(9, seed=3), band=9)
        for _ in range(3):
            solver.a_activate()
            solver.a_square()
            solver.a_pebble()
        whole = fused_banded_square_tile((1, 8), pw=solver.pw, band=9, algebra=solver.algebra)
        for chunk in (4 * 10 * 10 * 9, 16):
            monkeypatch.setattr(kf, "CHUNK", chunk)
            got = fused_banded_square_tile((1, 8), pw=solver.pw, band=9, algebra=solver.algebra)
            assert np.array_equal(_canon(got), _canon(whole)), chunk

    def test_thread_tiles_split_the_rows_by_work(self):
        """Row i composes into about (n + 1 - i)³ cells, so the first
        of two tiles is the narrow one."""
        with BandedSolver(random_matrix_chain(40, seed=0), backend="thread", tiles=2) as s:
            tiles = s.plan.step("square").tiles
            assert tiles[0][0] == 0 and tiles[-1][1] == s.n + 1
            assert tiles[0][1] - tiles[0][0] < tiles[1][1] - tiles[1][0]
            assert s.plan.step("pebble").tiles == ((0, 21), (21, 41))


class TestNumbaBranchesUnjitted:
    def test_the_loop_nests_solve_every_method(self, monkeypatch):
        """The numba engine's branches, with its loop nests run
        un-jitted, commit the sequential DP's tables: the glue around
        the compiled kernels is exercised where numba is absent."""
        import repro.core.kernels_fused as kf

        monkeypatch.setattr(kf, "HAVE_NUMBA", True)
        monkeypatch.setattr(
            kf, "_kernels_for", lambda alg: _CompiledKernels(alg.lowering(), _identity_jit)
        )
        p = random_matrix_chain(5, seed=4)
        for method in METHODS:
            for algebra in ("min_plus", "minimax"):
                out = solve(p, method=method, algebra=algebra, backend="serial")
                assert np.array_equal(
                    _canon(out.w), _canon(_sequential_w(p, algebra))
                ), (method, algebra)


class TestScalarLowerings:
    """The un-jitted loop bodies are the single source of scalar
    semantics — they must match the ufunc slab arithmetic exactly for
    every (extend, combine) pair the registered algebras use."""

    PAIRS = sorted(
        {
            (
                get_algebra(name).lowering().ext_name,
                get_algebra(name).lowering().comb_name,
            )
            for name in list_algebras()
        }
    )

    @pytest.mark.parametrize("ext_name,comb_name", PAIRS)
    def test_matmul_loop_matches_ufunc_reduce(self, ext_name, comb_name):
        alg = next(
            get_algebra(n)
            for n in list_algebras()
            if get_algebra(n).lowering().ext_name == ext_name
            and get_algebra(n).lowering().comb_name == comb_name
        )
        rng = np.random.default_rng(0)
        X = rng.integers(0, 50, size=(6, 4)).astype(np.float64)
        Y = rng.integers(0, 50, size=(4, 5)).astype(np.float64)
        X[0, :] = alg.zero  # unreached rows must stay absorbing
        kernel = _make_matmul_kernel(
            _scalar_extend(ext_name, _identity_jit),
            _scalar_improves(comb_name, _identity_jit),
            _identity_jit,
        )
        red = np.full((6, 5), alg.zero)
        kernel(X, Y, red)
        expect = alg.combine_ufunc.reduce(
            alg.extend_ufunc(X[:, :, None], Y[None, :, :]), axis=1
        )
        assert np.array_equal(_canon(red), _canon(expect))

    @pytest.mark.parametrize("ext_name,comb_name", PAIRS)
    def test_pebble_loop_matches_ufunc_reduce(self, ext_name, comb_name):
        alg = next(
            get_algebra(n)
            for n in list_algebras()
            if get_algebra(n).lowering().ext_name == ext_name
            and get_algebra(n).lowering().comb_name == comb_name
        )
        rng = np.random.default_rng(1)
        pwb = rng.integers(0, 30, size=(2, 3, 4, 4)).astype(np.float64)
        w = rng.integers(0, 30, size=(4, 4)).astype(np.float64)
        pwb[0, 0] = alg.zero
        kernel = _make_pebble_kernel(
            _scalar_extend(ext_name, _identity_jit),
            _scalar_improves(comb_name, _identity_jit),
            _identity_jit,
        )
        cand = np.full((2, 3), alg.zero)
        kernel(pwb, w, cand)
        expect = alg.select(
            alg.extend(pwb, w[None, None, :, :]), axis=(2, 3)
        )
        assert np.array_equal(_canon(cand), _canon(expect))

    @pytest.mark.parametrize("ext_name,comb_name", PAIRS)
    @pytest.mark.parametrize("d0,d1", [(0, 2), (-2, 0), (-1, 1)])
    def test_banded_matmul_loop_matches_masked_reduce(
        self, ext_name, comb_name, d0, d1
    ):
        """The clamped reduction window r in [p-d1, p-d0] must select
        exactly the in-band candidates a mask-then-reduce picks."""
        alg = next(
            get_algebra(n)
            for n in list_algebras()
            if get_algebra(n).lowering().ext_name == ext_name
            and get_algebra(n).lowering().comb_name == comb_name
        )
        rng = np.random.default_rng(4)
        Xf = rng.integers(0, 50, size=(6, 5)).astype(np.float64)
        Y = rng.integers(0, 50, size=(5, 7)).astype(np.float64)
        Xf[0, :] = alg.zero  # unreached rows must stay absorbing
        kernel = _make_banded_matmul_kernel(
            _scalar_extend(ext_name, _identity_jit),
            _scalar_improves(comb_name, _identity_jit),
            _identity_jit,
        )
        red = np.full((6, 7), alg.zero)
        kernel(Xf, Y, d0, d1, red)
        Ym = _band_restrict(Y, d0, d1, alg.zero)
        expect = alg.combine_ufunc.reduce(
            alg.extend_ufunc(Xf[:, :, None], Ym[None, :, :]), axis=1
        )
        assert np.array_equal(_canon(red), _canon(expect))

    @pytest.mark.parametrize("ext_name,comb_name", PAIRS)
    def test_activate_loop_matches_elementwise_extend(self, ext_name, comb_name):
        alg = next(
            get_algebra(n)
            for n in list_algebras()
            if get_algebra(n).lowering().ext_name == ext_name
        )
        rng = np.random.default_rng(5)
        X = rng.integers(0, 40, size=(2, 3, 4)).astype(np.float64)
        Y = rng.integers(0, 40, size=(3, 4)).astype(np.float64)
        X[0, 0] = alg.zero
        kernel = _make_activate_kernel(
            _scalar_extend(ext_name, _identity_jit), _identity_jit
        )
        out = np.empty_like(X)
        kernel(X, Y, out)
        assert np.array_equal(
            _canon(out), _canon(alg.extend_ufunc(X, Y[None, :, :]))
        )

    @pytest.mark.parametrize("ext_name,comb_name", PAIRS)
    def test_activate_pair_loop_matches_elementwise_extends(
        self, ext_name, comb_name
    ):
        alg = next(
            get_algebra(n)
            for n in list_algebras()
            if get_algebra(n).lowering().ext_name == ext_name
        )
        rng = np.random.default_rng(6)
        X = rng.integers(0, 40, size=(2, 3, 4)).astype(np.float64)
        Y1 = rng.integers(0, 40, size=(3, 4)).astype(np.float64)
        Y2 = rng.integers(0, 40, size=(2, 4)).astype(np.float64)
        X[1, 2] = alg.zero
        kernel = _make_activate_pair_kernel(
            _scalar_extend(ext_name, _identity_jit), _identity_jit
        )
        U1, U2 = np.empty_like(X), np.empty_like(X)
        kernel(X, Y1, Y2, U1, U2)
        assert np.array_equal(
            _canon(U1), _canon(alg.extend_ufunc(X, Y1[None, :, :]))
        )
        assert np.array_equal(
            _canon(U2), _canon(alg.extend_ufunc(X, Y2[:, None, :]))
        )

    def test_unknown_lowering_names_raise(self):
        with pytest.raises(InvalidProblemError, match="no scalar lowering"):
            _scalar_extend("multiply", _identity_jit)
        with pytest.raises(InvalidProblemError, match="no scalar lowering"):
            _scalar_improves("add", _identity_jit)


class TestMatmulReduce:
    def test_never_reshapes_strided_out(self):
        """The square tile passes non-contiguous triangular slices of
        ``acc`` as ``out`` — the combine must land in the backing array,
        which a reshape-induced copy would silently drop."""
        alg = get_algebra("min_plus")
        acc = alg.full((2, 4, 4, 4))
        out = acc[:, 2:, :2, 2]  # strided view, shape (2, 2, 2)
        assert not out.flags.c_contiguous
        Xf = np.arange(8, dtype=np.float64).reshape(4, 2)
        Y = np.ones((2, 2))
        _matmul_reduce(Xf, Y, out, alg, packed=False)
        expect = alg.combine_ufunc.reduce(
            alg.extend_ufunc(Xf[:, :, None], Y[None, :, :]), axis=1
        ).reshape(2, 2, 2)
        assert np.array_equal(acc[:, 2:, :2, 2], expect)

    def test_blocked_path_matches_unblocked(self, monkeypatch):
        import repro.core.kernels_fused as kf

        alg = get_algebra("max_plus")
        rng = np.random.default_rng(7)
        Xf = rng.normal(size=(37, 5))
        Y = rng.normal(size=(5, 11))
        big = np.full((37, 11), alg.zero)
        _matmul_reduce(Xf, Y, big, alg, packed=False)
        monkeypatch.setattr(kf, "CHUNK", 16)  # force many blocks
        small = np.full((37, 11), alg.zero)
        _matmul_reduce(Xf, Y, small, alg, packed=False)
        assert np.array_equal(big, small)


class TestBandedMatmulReduce:
    @pytest.mark.parametrize("d0,d1", [(0, 2), (-2, 0)])
    def test_matches_masked_full_reduce(self, d0, d1):
        """The window loop (un-jitted without numba) behind the wrapper
        must equal the naive mask-the-plane-then-reduce formulation."""
        for name in list_algebras():
            if name == "lex_min_plus":
                continue  # packed payloads covered separately below
            alg = get_algebra(name)
            rng = np.random.default_rng(8)
            X = rng.integers(0, 60, size=(2, 4, 5)).astype(np.float64)
            Y = rng.integers(0, 60, size=(5, 6)).astype(np.float64)
            X[0, 1] = alg.zero  # whole unreached row stays absorbing
            out = np.full((2, 4, 6), alg.zero)
            _banded_matmul_reduce(X, Y, d0, d1, out, alg, exact=False)
            Ym = _band_restrict(Y, d0, d1, alg.zero)
            expect = alg.combine_ufunc.reduce(
                alg.extend_ufunc(X[..., :, None], Ym[None, None, :, :]), axis=-2
            )
            assert np.array_equal(_canon(out), _canon(expect)), name

    def test_never_reshapes_strided_out(self):
        """The banded square tile passes non-contiguous triangular
        slices of ``acc`` as ``out`` — the combine must land in the
        backing array, which a reshape-induced copy would silently
        drop."""
        alg = get_algebra("min_plus")
        acc = alg.full((2, 4, 4, 4))
        out = acc[:, 2:, :2, 2]  # strided view, shape (2, 2, 2)
        assert not out.flags.c_contiguous
        rng = np.random.default_rng(9)
        X = rng.integers(0, 60, size=(2, 2, 3)).astype(np.float64)
        Y = rng.integers(0, 60, size=(3, 2)).astype(np.float64)
        _banded_matmul_reduce(X, Y, 0, 2, out, alg, exact=False)
        Ym = _band_restrict(Y, 0, 2, alg.zero)
        expect = alg.combine_ufunc.reduce(
            alg.extend_ufunc(X[..., :, None], Ym[None, None, :, :]), axis=-2
        )
        assert np.array_equal(acc[:, 2:, :2, 2], expect)

    def test_exact_reduces_the_band_restricted_two_channels(self):
        """exact=True (an out-of-range packed tile) runs the
        band-restricted exact two-channel matmul."""
        alg = get_algebra("lex_min_plus")
        big = np.nextafter(FLOAT_EXACT_INT_MAX, 0.0)
        X = np.array([[[big, lex_pack(1.0, 1)]]])
        Y = np.array([[big], [lex_pack(2.0, 1)]])
        out = np.full((1, 1, 1), alg.zero)
        _banded_matmul_reduce(X, Y, -1, 0, out, alg, exact=True)
        assert out[0, 0, 0] == lex_pack(3.0, 2)
        # the same candidates with the small one pushed out of band
        # must select the remaining (overflowing) candidate and raise
        out = np.full((1, 1, 1), alg.zero)
        with pytest.raises(InvalidProblemError, match="exactly-representable"):
            _banded_matmul_reduce(X, Y, 0, 0, out, alg, exact=True)


class TestLexFastVdf:
    """The fast_vdf idiom: range-check once, packed fast path when the
    arithmetic is exact, two-channel fallback otherwise."""

    def test_range_check_accepts_and_rejects(self):
        ok = np.array([1.0, np.inf, -5.0])
        assert lex_range_check(ok, np.array([2.0**40]))
        assert not lex_range_check(np.array([2.0**52]), np.array([2.0**52]))
        assert lex_range_check(np.array([np.inf, np.inf]))  # no finite mass

    def test_exact_matmul_matches_packed_in_range(self):
        rng = np.random.default_rng(2)
        alg = get_algebra("lex_min_plus")
        Xf = lex_pack(rng.integers(0, 100, (5, 3)), rng.integers(0, 9, (5, 3)))
        Y = lex_pack(rng.integers(0, 100, (3, 4)), rng.integers(0, 9, (3, 4)))
        Xf[0, :] = np.inf  # an unreached row
        packed = alg.combine_ufunc.reduce(
            alg.extend_ufunc(Xf[:, :, None], Y[None, :, :]), axis=1
        )
        exact = _lex_exact_matmul(Xf, Y)
        assert np.array_equal(_canon(exact), _canon(packed))

    def test_exact_pebble_matches_packed_in_range(self):
        rng = np.random.default_rng(3)
        alg = get_algebra("lex_min_plus")
        pwb = lex_pack(
            rng.integers(0, 50, (2, 3, 4, 4)), rng.integers(0, 9, (2, 3, 4, 4))
        )
        w = lex_pack(rng.integers(0, 50, (4, 4)), rng.integers(0, 9, (4, 4)))
        pwb[0, 0] = np.inf
        packed = alg.select(alg.extend(pwb, w[None, None, :, :]), axis=(2, 3))
        exact = _lex_exact_pebble(pwb, w)
        assert np.array_equal(_canon(exact), _canon(packed))

    def test_exact_extend_matches_packed_in_range(self):
        alg = get_algebra("lex_min_plus")
        rng = np.random.default_rng(12)
        X = lex_pack(
            rng.integers(0, 50, (2, 3, 4)), rng.integers(0, 9, (2, 3, 4))
        )
        Y = lex_pack(rng.integers(0, 50, (3, 4)), rng.integers(0, 9, (3, 4)))
        X[0, 0] = np.inf  # unreached cells stay absorbing
        packed = alg.extend_ufunc(X, Y[None, :, :])
        exact = _lex_exact_extend(X, Y[None, :, :])
        assert np.array_equal(_canon(exact), _canon(packed))

    def test_exact_extend_unpackable_raises(self):
        big = np.nextafter(FLOAT_EXACT_INT_MAX, 0.0)
        with pytest.raises(InvalidProblemError, match="exactly-representable"):
            _lex_exact_extend(np.array([big]), np.array([big]))

    def test_fallback_selected_result_stays_packable(self):
        """Inputs that trip the conservative range check but whose
        *selected* result is representable must succeed exactly: the
        reduce picks the small candidate, not the overflow one."""
        big = np.nextafter(FLOAT_EXACT_INT_MAX, 0.0)
        Xf = np.array([[big, lex_pack(3.0, 1)]])
        Y = np.array([[big], [lex_pack(4.0, 2)]])
        assert not lex_range_check(Xf, Y)
        out = _lex_exact_matmul(Xf, Y)
        c, s = lex_unpack(out)
        assert (c[0, 0], s[0, 0]) == (7.0, 3.0)

    def test_unpackable_result_raises(self):
        with pytest.raises(InvalidProblemError, match="exactly-representable"):
            _require_packable(np.array([2.0 * FLOAT_EXACT_INT_MAX]))
        # and through the matmul fallback itself
        big = np.nextafter(FLOAT_EXACT_INT_MAX, 0.0)
        Xf = np.array([[big]])
        Y = np.array([[big]])
        with pytest.raises(InvalidProblemError, match="exactly-representable"):
            _lex_exact_matmul(Xf, Y)

    def test_out_of_range_tile_falls_back_through_matmul_reduce(self):
        """packed=True with out-of-range inputs routes through the exact
        two-channel path inside ``_matmul_reduce``."""
        alg = get_algebra("lex_min_plus")
        big = np.nextafter(FLOAT_EXACT_INT_MAX, 0.0)
        Xf = np.array([[big, lex_pack(1.0, 1)]])
        Y = np.array([[big], [lex_pack(2.0, 1)]])
        out = np.full((1, 1), alg.zero)
        _matmul_reduce(Xf, Y, out, alg, packed=True)
        assert out[0, 0] == lex_pack(3.0, 2)


class TestLexOutOfRange:
    """Every iterative method gives the same answer to a
    ``lex_min_plus`` chain whose optimum cannot be packed exactly: it
    refuses, at every n, instead of rounding."""

    @pytest.mark.parametrize("n", [7, 12, 16])
    @pytest.mark.parametrize("method", METHODS)
    def test_every_iterative_method_refuses(self, method, n):
        p = random_matrix_chain(n, seed=7, dim_low=3000, dim_high=14000)
        with pytest.raises(InvalidProblemError, match="exactly-representable"):
            solve(p, method=method, algebra="lex_min_plus")

    def test_rytter_square_falls_back_exact(self):
        """Out-of-range packed inputs take the exact two-channel matmul
        over the useful rows and columns: a small selected result comes
        back exactly, an unpackable one raises instead of rounding."""
        alg = get_algebra("lex_min_plus")
        big = np.nextafter(FLOAT_EXACT_INT_MAX, 0.0)
        M = np.full((4, 4), np.inf)
        M[0, :2] = [big, lex_pack(3.0, 1)]
        M[1, :2] = [lex_pack(4.0, 2), lex_pack(1.0, 0)]
        pw = M.reshape(2, 2, 2, 2)
        out = rytter_square_tile((0, 1), pw=pw, useful=np.array([0, 1]), algebra=alg)
        assert out[0, 0] == lex_pack(7.0, 3)
        assert out[0, 1] == lex_pack(4.0, 1)
        assert np.isinf(out[0, 2:]).all()
        with pytest.raises(InvalidProblemError, match="exactly-representable"):
            rytter_square_tile((0, 1), pw=pw, useful=np.array([0]), algebra=alg)
        none = rytter_square_tile((0, 2), pw=pw, useful=np.array([], int), algebra=alg)
        assert np.isinf(none).all() and none.shape == (2, 4)


class TestOneComputePerKernel:
    """Each kernel has exactly one compute; nothing public selects
    another."""

    def test_every_kernel_names_one_compute(self):
        found = [
            cls
            for _, cls in inspect.getmembers(kernels, inspect.isclass)
            if issubclass(cls, SweepKernel) and cls is not SweepKernel
        ]
        assert len(found) == 9
        for cls in found:
            assert callable(cls.compute_fn), cls
            assert [name for name in dir(cls) if "compute" in name] == ["compute_fn"]

    def test_solve_refuses_the_deleted_keyword(self):
        p = random_matrix_chain(5, seed=0)
        with pytest.raises(InvalidProblemError, match="takes no keyword kernel_impl"):
            solve(p, method="huang", kernel_impl="fused")

    def test_plan_for_refuses_the_deleted_keyword(self):
        p = random_matrix_chain(5, seed=0)
        with pytest.raises(InvalidProblemError, match="takes no keyword kernel_impl"):
            plan_for(p, method="huang", kernel_impl="fused")

    @pytest.mark.parametrize("method", METHODS)
    def test_plan_describe_names_the_engine(self, method):
        text = plan_for(random_matrix_chain(8, seed=0), method=method).describe()
        assert f"engine={fused_backend()}" in text
        assert "tier" not in text and "impl=" not in text


class TestNumpyFallbackIsolation:
    def test_without_numba_resolves_numpy_and_matches(self):
        """In a fresh interpreter with numba imports *blocked* (not just
        absent), the computes must resolve to the numpy engine and solve
        bitwise-identically to the sequential DP."""
        code = (
            "import sys\n"
            "sys.modules['numba'] = None  # block the import outright\n"
            "from repro.core.kernels_fused import HAVE_NUMBA, fused_backend\n"
            "assert not HAVE_NUMBA\n"
            "assert fused_backend() == 'numpy'\n"
            "import numpy as np\n"
            "from repro.core import solve\n"
            "from repro.problems.generators import random_matrix_chain\n"
            "p = random_matrix_chain(10, seed=3)\n"
            "seq = solve(p, method='sequential')\n"
            "for method in ('huang', 'huang-banded', 'huang-compact', 'rytter'):\n"
            "    out = solve(p, method=method)\n"
            "    assert out.value == seq.value, method\n"
            "    ws = np.nan_to_num(seq.w, posinf=-1.0)\n"
            "    wo = np.nan_to_num(out.w, posinf=-1.0)\n"
            "    assert np.array_equal(ws, wo), method\n"
            "print('numpy-fallback-ok')\n"
        )
        env = dict(os.environ, PYTHONPATH=_SRC_PATH)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        assert "numpy-fallback-ok" in proc.stdout


@pytest.mark.slow
@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed ([perf] extra)")
class TestNumbaEngine:
    """Compiled-engine equivalence — runs only on the [perf] CI leg.

    The full method × algebra matrix: the JIT engine has its own loop
    nests for the dense matmul, the banded window matmul, the pebble
    reduce and both activate lowerings, so every method routes at least
    one compiled kernel."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("algebra", list_algebras())
    def test_jit_solve_matches_sequential(self, method, algebra):
        assert fused_backend() == "numba"
        p = random_matrix_chain(12, seed=9)
        out = solve(p, method=method, algebra=algebra)
        assert np.array_equal(_canon(out.w), _canon(_sequential_w(p, algebra)))
        assert out.value == solve(p, method="sequential", algebra=algebra).value
