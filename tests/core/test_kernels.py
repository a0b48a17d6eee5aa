"""Kernel-engine equivalence: every method × backend × tiling commits
bitwise-identical tables and iteration counts to the serial reference.

This is the refactor's safety net: the five iterative solvers are thin
kernel-set declarations over one engine, so a single suite pins down
that no (backend, tiles) combination can change a result — the CREW
guarantee made executable.
"""

import numpy as np
import pytest

from repro.core import solve
from repro.core.banded import BandedSolver
from repro.core.compact import CompactBandedSolver
from repro.core.huang import HuangSolver
from repro.core.hybrid import HybridSolver
from repro.core.kernels import KernelEngine
from repro.core.lockstep import run_lockstep
from repro.core.rytter import RytterSolver
from repro.core.sequential import solve_sequential
from repro.parallel.backends import SerialBackend
from repro.problems.generators import random_generic, random_matrix_chain

BACKENDS = ["serial", "thread"]

# (method, solver class, problem size) — sizes chosen so the full
# matrix of methods × backends × tilings stays fast while still
# exercising uneven tile splits and multi-class pebbling.
CASES = [
    ("huang", HuangSolver, 10),
    ("huang-banded", BandedSolver, 12),
    ("huang-compact", CompactBandedSolver, 14),
    ("rytter", RytterSolver, 9),
]


def _canon(w: np.ndarray) -> np.ndarray:
    """Make +inf comparable under array_equal (bitwise elsewhere)."""
    return np.nan_to_num(w, posinf=-1.0)


class TestMethodBackendEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method,cls,n", CASES, ids=[c[0] for c in CASES])
    def test_bitwise_equal_to_serial_reference(self, method, cls, n, backend):
        p = random_generic(n, seed=11)
        ref = cls(p).run()  # serial, single tile: the reference path
        with cls(p, backend=backend, tiles=3) as solver:
            out = solver.run()
        assert np.array_equal(_canon(out.w), _canon(ref.w))
        assert out.iterations == ref.iterations
        assert out.value == solve_sequential(p).value or out.value == pytest.approx(
            solve_sequential(p).value
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method,cls,n", CASES, ids=[c[0] for c in CASES])
    def test_solve_facade_routes_backend(self, method, cls, n, backend):
        p = random_matrix_chain(n, seed=7)
        ref = solve(p, method=method)
        out = solve(p, method=method, backend=backend, tiles=4)
        assert np.array_equal(_canon(out.w), _canon(ref.w))
        assert out.iterations == ref.iterations

    @pytest.mark.parametrize("tiles", [1, 2, 5, 16])
    def test_any_tiling_is_exact(self, tiles):
        """More tiles than rows, uneven splits — all bitwise identical."""
        p = random_generic(8, seed=3)
        ref = HuangSolver(p).run()
        with HuangSolver(p, backend="thread", tiles=tiles) as s:
            out = s.run()
        assert np.array_equal(_canon(out.w), _canon(ref.w))

    def test_size_band_window_through_engine(self):
        p = random_generic(12, seed=9)
        ref = BandedSolver(p, size_band=True).run()
        with BandedSolver(p, size_band=True, backend="thread", tiles=3) as s:
            out = s.run()
        assert np.array_equal(_canon(out.w), _canon(ref.w))
        assert out.iterations == ref.iterations

    def test_hybrid_inherits_engine(self):
        p = random_matrix_chain(12, seed=2)
        ref = HybridSolver(p).run()
        with HybridSolver(p, backend="thread", tiles=3) as s:
            out = s.run()
        assert np.array_equal(_canon(out.w), _canon(ref.w))
        assert out.value == pytest.approx(solve_sequential(p).value)

    def test_compact_matches_banded_dense_pw_under_backend(self):
        """The cross-layout invariant survives tiled execution."""
        p = random_generic(10, seed=5)
        b = BandedSolver(p, backend="thread", tiles=3)
        c = CompactBandedSolver(p, backend="thread", tiles=4)
        for _ in range(3):
            b.iterate()
            c.iterate()
        dense = c.to_dense_pw()
        mask = np.isfinite(dense)
        assert np.array_equal(mask, np.isfinite(b.pw))
        assert np.allclose(dense[mask], b.pw[mask])
        b.close()
        c.close()


class TestLockstepThroughEngine:
    """The Section 4 machine-checked proof must hold on every backend —
    the lockstep validator drives the solver one kernel super-step at a
    time, so it exercises the engine exactly as the paper's schedule
    does."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_lockstep_certifies_on_all_backends(self, backend):
        p = random_generic(8, seed=1)
        with HuangSolver(p, backend=backend, tiles=3) as solver:
            rep = run_lockstep(p, solver=solver)
        assert rep.ok

    def test_lockstep_banded_through_engine(self):
        p = random_generic(8, seed=5)
        with BandedSolver(p, backend="thread", tiles=2) as solver:
            rep = run_lockstep(p, solver=solver)
        assert rep.ok


class TestKernelEngine:
    def test_default_tiles_serial(self):
        engine = KernelEngine("serial")
        assert engine.tiles == 1
        engine.close()

    def test_default_tiles_follow_workers(self):
        engine = KernelEngine("thread", workers=3)
        assert engine.tiles == 3
        engine.close()

    def test_adopts_backend_instance(self):
        be = SerialBackend()
        engine = KernelEngine(be, tiles=2)
        assert engine.backend is be
        assert engine.tiles == 2

    def test_rejects_bad_tiles(self):
        with pytest.raises(ValueError, match="tiles"):
            KernelEngine("serial", tiles=0)

    def test_solver_close_idempotent(self):
        p = random_generic(5, seed=0)
        s = HuangSolver(p, backend="thread", tiles=2)
        s.run()
        s.close()
        s.close()

    def test_single_operation_override_still_dispatches(self):
        """Subclasses can still replace one named operation — the hook
        the lockstep sabotage test and solver variants rely on."""
        p = random_generic(6, seed=4)

        calls = []

        class Instrumented(HuangSolver):
            def a_square(self):
                calls.append(self.iterations_run)
                return super().a_square()

        s = Instrumented(p)
        s.iterate()
        assert calls == [0]
