"""The fused kernel tier: bitwise identity with the slab kernels, the
scalar lowerings behind the optional numba engine, the ``fast_vdf``-style
packed range check with its exact two-channel fallback, and the tier
that the execution table picks on the public surface.

The heavy equivalence coverage (golden tables, hypothesis property
harness) carries a tier axis of its own, forced through the private
``_force_tier`` hook; this file pins the tier's own machinery —
including the guarantee that a numba-less environment resolves the
fused tier to the numpy engine and still solves bitwise-identically
(exercised in a subprocess with numba imports blocked, so it holds even
where numba *is* installed).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import plan_for, solve
from repro.core.algebra import (
    FLOAT_EXACT_INT_MAX,
    get_algebra,
    lex_pack,
    lex_range_check,
    lex_unpack,
    list_algebras,
)
from repro.core.kernels import (
    compact_activate_tile,
    dense_activate_tile,
)
from repro.core.kernels_fused import (
    HAVE_NUMBA,
    _band_restrict,
    _banded_matmul_reduce,
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
    fused_compact_activate_tile,
    fused_dense_activate_tile,
)
from repro.core.plan import _force_tier, choose_tier
from repro.errors import InvalidProblemError
from repro.problems.generators import random_generic, random_matrix_chain

_SRC_PATH = str(Path(__file__).resolve().parents[2] / "src")

METHODS = ["huang", "huang-banded", "huang-compact", "rytter"]


def _canon(w: np.ndarray) -> np.ndarray:
    """Make +inf comparable under array_equal (bitwise elsewhere)."""
    return np.nan_to_num(w, posinf=-1.0)


def _solve_on(tier: str, problem, **kwargs):
    with _force_tier(tier):
        return solve(problem, **kwargs)


class TestFusedMatchesSlab:
    """fused ≡ slab bit-for-bit, per method, algebra and backend."""

    @pytest.mark.parametrize("method", METHODS)
    def test_methods_bitwise_equal(self, method):
        p = random_generic(12, seed=11)
        slab = _solve_on("slab", p, method=method)
        fused = _solve_on("fused", p, method=method)
        assert np.array_equal(_canon(slab.w), _canon(fused.w))
        assert slab.iterations == fused.iterations
        assert slab.value == fused.value

    @pytest.mark.parametrize("algebra", list_algebras())
    def test_algebras_bitwise_equal(self, algebra):
        p = random_matrix_chain(12, seed=5)
        slab = _solve_on("slab", p, method="huang", algebra=algebra)
        fused = _solve_on("fused", p, method="huang", algebra=algebra)
        assert np.array_equal(_canon(slab.w), _canon(fused.w))
        assert slab.value == fused.value

    @pytest.mark.parametrize("backend", ["thread"])
    def test_backends_bitwise_equal(self, backend):
        p = random_generic(10, seed=3)
        ref = _solve_on("slab", p, method="huang", backend="serial")
        out = _solve_on("fused", p, method="huang", backend=backend, tiles=3)
        assert np.array_equal(_canon(ref.w), _canon(out.w))
        assert ref.iterations == out.iterations

    def test_the_tables_choice_matches_both_forced_tiers(self):
        """A solve left to the execution table commits the table of
        either forced tier."""
        for n in (6, 16):
            p = random_matrix_chain(n, seed=1)
            chosen = solve(p, method="huang")
            for tier in ("slab", "fused"):
                forced = _solve_on(tier, p, method="huang")
                assert np.array_equal(_canon(chosen.w), _canon(forced.w))

    @pytest.mark.parametrize("algebra", list_algebras())
    def test_activate_tiles_bitwise_equal_slab(self, algebra):
        """The fused activate lowerings compose the same (cell, weight)
        operand pairs as the slab transposes — cell-for-cell bitwise,
        for both dense sides and the compact pair."""
        alg = get_algebra(algebra)
        rng = np.random.default_rng(13)
        F = rng.integers(0, 50, size=(7, 7, 7)).astype(np.float64)
        w = rng.integers(0, 50, size=(7, 7)).astype(np.float64)
        w[0, 3] = alg.zero  # an unreached weight cell stays absorbing
        for tile in [("a", 1, 4), ("b", 2, 6)]:
            slab = dense_activate_tile(tile, F=F, w=w, algebra=alg)
            fused = fused_dense_activate_tile(tile, F=F, w=w, algebra=alg)
            assert np.array_equal(_canon(slab), _canon(fused)), tile
        s1, s2 = compact_activate_tile((1, 5), F=F, w=w, algebra=alg)
        f1, f2 = fused_compact_activate_tile((1, 5), F=F, w=w, algebra=alg)
        assert np.array_equal(_canon(s1), _canon(f1))
        assert np.array_equal(_canon(s2), _canon(f2))


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
        """The per-diagonal numpy engine (and the JIT window loop) must
        equal the naive mask-the-plane-then-reduce formulation."""
        for name in list_algebras():
            if name == "lex_min_plus":
                continue  # packed payloads covered separately below
            alg = get_algebra(name)
            rng = np.random.default_rng(8)
            X = rng.integers(0, 60, size=(2, 4, 5)).astype(np.float64)
            Y = rng.integers(0, 60, size=(5, 6)).astype(np.float64)
            X[0, 1] = alg.zero  # whole unreached row stays absorbing
            out = np.full((2, 4, 6), alg.zero)
            _banded_matmul_reduce(X, Y, d0, d1, out, alg, packed=False)
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
        _banded_matmul_reduce(X, Y, 0, 2, out, alg, packed=False)
        Ym = _band_restrict(Y, 0, 2, alg.zero)
        expect = alg.combine_ufunc.reduce(
            alg.extend_ufunc(X[..., :, None], Ym[None, None, :, :]), axis=-2
        )
        assert np.array_equal(acc[:, 2:, :2, 2], expect)

    def test_out_of_range_packed_falls_back_exact(self):
        """packed=True with out-of-range inputs routes through the
        band-restricted exact two-channel matmul."""
        alg = get_algebra("lex_min_plus")
        big = np.nextafter(FLOAT_EXACT_INT_MAX, 0.0)
        X = np.array([[[big, lex_pack(1.0, 1)]]])
        Y = np.array([[big], [lex_pack(2.0, 1)]])
        out = np.full((1, 1, 1), alg.zero)
        _banded_matmul_reduce(X, Y, -1, 0, out, alg, packed=True)
        assert out[0, 0, 0] == lex_pack(3.0, 2)
        # the same candidates with the small one pushed out of band
        # must select the remaining (overflowing) candidate and raise
        out = np.full((1, 1, 1), alg.zero)
        with pytest.raises(InvalidProblemError, match="exactly-representable"):
            _banded_matmul_reduce(X, Y, 0, 0, out, alg, packed=True)


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


class TestTierSurface:
    """No public surface names a tier: the execution table picks it, and
    only the private hook forces one."""

    def test_the_hook_refuses_an_unknown_tier(self):
        with pytest.raises(ValueError, match="unknown tier 'jit'"):
            with _force_tier("jit"):
                pass

    def test_solve_refuses_the_deleted_keyword(self):
        p = random_matrix_chain(5, seed=0)
        with pytest.raises(InvalidProblemError, match="takes no keyword kernel_impl"):
            solve(p, method="huang", kernel_impl="fused")

    def test_plan_for_refuses_the_deleted_keyword(self):
        p = random_matrix_chain(5, seed=0)
        with pytest.raises(InvalidProblemError, match="takes no keyword kernel_impl"):
            plan_for(p, method="huang", kernel_impl="fused")

    def test_the_hook_is_scoped_to_its_block(self):
        p = random_matrix_chain(8, seed=0)
        with _force_tier("fused"):
            assert plan_for(p, method="rytter").tier == "fused"
        assert plan_for(p, method="rytter").tier == choose_tier("rytter", 8)

    def test_plan_describe_shows_tiers(self):
        p = random_matrix_chain(8, seed=0)
        with _force_tier("fused"):
            fused = plan_for(p, method="huang").describe()
            banded = plan_for(p, method="huang-banded").describe()
            compact = plan_for(p, method="huang-compact").describe()
        assert f"tier=fused[{fused_backend()}]" in fused
        assert "impl=fused" in fused
        assert "impl=slab" not in fused  # every dense step now lowers
        assert "impl=fused" in banded  # banded square + activate lower
        assert "impl=slab" not in banded
        assert "impl=fused" in compact  # the compact activate lowers
        assert "impl=slab" in compact  # compact square/pebble serve both tiers
        with _force_tier("slab"):
            slab = plan_for(p, method="huang").describe()
        assert "tier=slab" in slab
        assert "impl=fused" not in slab


class TestNumpyFallbackIsolation:
    def test_fused_without_numba_resolves_numpy_and_matches(self):
        """In a fresh interpreter with numba imports *blocked* (not just
        absent), the fused tier must resolve to the numpy engine and
        solve bitwise-identically to the slab tier."""
        code = (
            "import sys\n"
            "sys.modules['numba'] = None  # block the import outright\n"
            "from repro.core.kernels_fused import HAVE_NUMBA, fused_backend\n"
            "assert not HAVE_NUMBA\n"
            "assert fused_backend() == 'numpy'\n"
            "import numpy as np\n"
            "from repro.core import solve\n"
            "from repro.core.plan import _force_tier\n"
            "from repro.problems.generators import random_matrix_chain\n"
            "p = random_matrix_chain(10, seed=3)\n"
            "with _force_tier('slab'):\n"
            "    slab = solve(p, method='huang')\n"
            "with _force_tier('fused'):\n"
            "    auto = solve(p, method='huang')\n"
            "assert auto.value == slab.value\n"
            "assert auto.iterations == slab.iterations\n"
            "ws = np.nan_to_num(slab.w, posinf=-1.0)\n"
            "wa = np.nan_to_num(auto.w, posinf=-1.0)\n"
            "assert np.array_equal(ws, wa)\n"
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
    nests for the dense/rytter matmul, the banded window matmul, the
    pebble reduce and both activate lowerings, so every method routes
    at least one compiled kernel."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("algebra", list_algebras())
    def test_jit_solve_matches_slab(self, method, algebra):
        assert fused_backend() == "numba"
        p = random_matrix_chain(12, seed=9)
        slab = _solve_on("slab", p, method=method, algebra=algebra)
        fused = _solve_on("fused", p, method=method, algebra=algebra)
        assert np.array_equal(_canon(slab.w), _canon(fused.w))
        assert slab.value == fused.value
