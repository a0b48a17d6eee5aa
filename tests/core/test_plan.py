"""Sweep-plan compilation: the one-time half of the plan/execute split.

The plan freezes schedule + tiles once per solve; these
tests pin that compilation is lazy and cached, that the frozen tiles
are exactly what the kernels would re-derive, that ``plan_for`` and
``solve`` validate their inputs up front (a process pool runs no
tiles), and that executing through a compiled plan is what
``iterate()`` actually does.
"""

import os

import numpy as np
import pytest

from repro.core import plan_for, solve
from repro.core.api import ITERATIVE_METHODS, METHODS
from repro.core.banded import BandedSolver
from repro.core.compact import CompactBandedSolver
from repro.core.huang import HuangSolver
from repro.core.hybrid import HybridSolver
from repro.core.kernels import KernelEngine
from repro.core.plan import SweepPlan
from repro.core.rytter import RytterSolver
from repro.errors import BackendError, InvalidProblemError
from repro.parallel.backends import ProcessBackend
from repro.problems.base import ParenthesizationProblem
from repro.problems.generators import random_generic, random_matrix_chain


class TestCompilation:
    def test_steps_follow_schedule(self):
        with HuangSolver(random_generic(8, seed=0)) as solver:
            plan = solver.plan
            assert plan.schedule == solver.SCHEDULE == ("activate", "square", "pebble")
            assert [step.kernel for step in plan] == [
                solver._kernels[name] for name in solver.SCHEDULE
            ]

    def test_plan_is_compiled_once_and_cached(self):
        with HuangSolver(random_generic(6, seed=1)) as solver:
            assert solver.plan is solver.plan
            solver.run()
            assert solver.plan is solver._plan

    def test_tiles_frozen_match_kernel_derivation(self):
        with BandedSolver(random_generic(10, seed=2), tiles=3) as solver:
            for name in solver.SCHEDULE:
                kernel = solver._kernels[name]
                assert solver.plan.step(name).tiles == tuple(
                    kernel.tiles(solver, solver.tiles)
                )

    def test_rytter_tiles_cover_matrix_rows(self):
        with RytterSolver(random_generic(6, seed=4), tiles=4) as solver:
            step = solver.plan.step("square")
            K = (solver.n + 1) ** 2
            assert step.tiles[0][0] == 0 and step.tiles[-1][1] == K

    def test_describe_mentions_kernels_and_tiles(self):
        with HuangSolver(random_generic(6, seed=5), tiles=2) as solver:
            text = solver.plan.describe()
        assert "HuangSolver" in text
        assert "DenseSquareKernel" in text
        assert "tiles=" in text and "plan:" in text


class TestOneOffExecute:
    def test_engine_execute_matches_plan_path(self):
        """KernelEngine.execute (the ad-hoc entry: fresh tiles) must
        commit the same tables the compiled plan path does — on the
        serial reference and on tiled threads."""
        p = random_generic(6, seed=9)
        for backend_kwargs in ({}, {"backend": "thread", "workers": 2, "tiles": 2}):
            with HuangSolver(p, **backend_kwargs) as planned, HuangSolver(
                p, **backend_kwargs
            ) as adhoc:
                planned.iterate()
                for name in adhoc.SCHEDULE:
                    adhoc._engine.execute(adhoc._kernels[name], adhoc)
                assert np.array_equal(
                    np.nan_to_num(planned.w, posinf=-1.0),
                    np.nan_to_num(adhoc.w, posinf=-1.0),
                )
                assert np.array_equal(
                    np.nan_to_num(planned.pw, posinf=-1.0),
                    np.nan_to_num(adhoc.pw, posinf=-1.0),
                )


class TestPlanFor:
    def test_compiles_without_running(self):
        plan = plan_for(random_matrix_chain(10, seed=0), method="huang-banded")
        assert isinstance(plan, SweepPlan)
        assert plan.method == "BandedSolver" and plan.n == 10

    def test_rejects_sequential_methods(self):
        with pytest.raises(InvalidProblemError, match="no sweep plan"):
            plan_for(random_matrix_chain(6, seed=0), method="sequential")


class TestUpFrontValidation:
    def test_solve_rejects_unknown_backend_with_choices(self):
        with pytest.raises(InvalidProblemError, match="serial"):
            solve(random_matrix_chain(6, seed=0), method="huang", backend="gpu")

    def test_solve_many_rejects_unknown_backend(self):
        from repro.core import solve_many

        with pytest.raises(InvalidProblemError, match="thread"):
            solve_many([random_matrix_chain(4, seed=0)], backend="gpu")

    def test_solve_many_rejects_unknown_start_method(self):
        from repro.core import solve_many

        with pytest.raises(InvalidProblemError, match="fork"):
            solve_many(
                [random_matrix_chain(4, seed=0)],
                backend="process",
                start_method="threads",
            )

    def test_solve_many_rejects_start_method_without_process_backend(self):
        from repro.core import solve_many

        with pytest.raises(InvalidProblemError, match="process"):
            solve_many(
                [random_matrix_chain(4, seed=0)], backend="thread", start_method="fork"
            )

    def test_solve_many_rejects_start_method_with_backend_instance(self):
        """A Backend instance already carries its start method; the
        error must say so instead of claiming the backend is not
        'process'."""
        from repro.core import solve_many

        with ProcessBackend(workers=1, start_method="fork") as be:
            with pytest.raises(InvalidProblemError, match="by name"):
                solve_many(
                    [random_matrix_chain(4, seed=0)], backend=be, start_method="fork"
                )
            assert be.health()["started"] is False

    def test_plan_for_validates_backend(self):
        with pytest.raises(InvalidProblemError, match="serial"):
            plan_for(random_matrix_chain(6, seed=0), method="huang", backend="gpu")


@pytest.fixture
def no_pool_no_table(monkeypatch):
    """Fail the test if a process pool starts or a solver builds its
    first table (the dense f table every iterative solver reads)."""

    def no_pool(self):
        raise AssertionError("started a process pool")

    def no_table(self):
        raise AssertionError("built a table")

    monkeypatch.setattr(ProcessBackend, "_ensure_pool", no_pool)
    monkeypatch.setattr(ParenthesizationProblem, "cached_f_table", no_table)


def _process_pool(form):
    return "process" if form == "name" else ProcessBackend(workers=2)


def _refused(call, backend):
    """``call(backend)`` must raise naming both tile backends, before a
    pool or a table exists."""
    try:
        with pytest.raises(BackendError) as err:
            call(backend)
        assert "'serial'" in str(err.value) and "'thread'" in str(err.value)
        if isinstance(backend, ProcessBackend):
            assert backend.health()["started"] is False
    finally:
        if isinstance(backend, ProcessBackend):
            backend.close()


FORMS = ["name", "instance"]


@pytest.mark.usefixtures("no_pool_no_table")
class TestProcessTilesRefused:
    """Sweep tiles run on serial or thread only: a process pool, by
    name or instance, is refused up front."""

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("method", METHODS)
    def test_solve(self, method, form):
        p = random_matrix_chain(6, seed=0)
        _refused(lambda be: solve(p, method=method, backend=be), _process_pool(form))

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("method", ITERATIVE_METHODS)
    def test_plan_for(self, method, form):
        p = random_matrix_chain(6, seed=0)
        _refused(lambda be: plan_for(p, method=method, backend=be), _process_pool(form))

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize(
        "cls",
        [HuangSolver, BandedSolver, CompactBandedSolver, RytterSolver, HybridSolver],
        ids=lambda cls: cls.__name__,
    )
    def test_solver(self, cls, form):
        p = random_matrix_chain(6, seed=0)
        _refused(lambda be: cls(p, backend=be), _process_pool(form))

    @pytest.mark.parametrize("form", FORMS)
    def test_engine(self, form):
        _refused(lambda be: KernelEngine(be), _process_pool(form))


class TestExecutionTable:
    """One table picks the tile backend and the batch pool; a backend
    the caller names always wins."""

    def test_every_iterative_method_and_n_gets_a_choice(self):
        """From n=1 to each solver's default memory guard ``max_n``."""
        import inspect

        from repro.core.api import _SOLVER_CLASSES
        from repro.core.plan import EXECUTION, choose_tile_backend
        from repro.parallel.backends import TILE_BACKENDS

        assert set(EXECUTION) == set(ITERATIVE_METHODS)
        for method, cls in _SOLVER_CLASSES.items():
            max_n = inspect.signature(cls).parameters["max_n"].default
            assert max_n >= 28, (method, max_n)
            for n in range(1, max_n + 1):
                assert choose_tile_backend(method, n) in TILE_BACKENDS, (method, n)
        for method in set(METHODS) - set(ITERATIVE_METHODS):
            with pytest.raises(KeyError):
                choose_tile_backend(method, 8, workers=2)

    def test_threads_run_from_one_size_per_method(self):
        from repro.core.kernels_fused import fused_backend
        from repro.core.plan import EXECUTION, choose_tile_backend

        if fused_backend() == "numba":
            pytest.skip("under numba every solve's tiles run serially")
        for method, threads_from in EXECUTION.items():
            assert choose_tile_backend(method, threads_from - 1, workers=2) == "serial"
            assert choose_tile_backend(method, threads_from, workers=2) == "thread"

    @pytest.mark.parametrize("method", ITERATIVE_METHODS)
    @pytest.mark.parametrize("n", [4, 16, 24])
    def test_solvers_and_plans_follow_the_table(self, method, n):
        from repro.core.plan import choose_tile_backend

        plan = plan_for(random_matrix_chain(n, seed=0), method=method)
        assert plan.backend == choose_tile_backend(method, n)

    def test_one_worker_never_picks_threads(self):
        from repro.core.plan import EXECUTION, choose_tile_backend

        for method, threads_from in EXECUTION.items():
            assert choose_tile_backend(method, threads_from, workers=1) == "serial"

    def test_a_named_backend_wins(self, monkeypatch):
        """By string or instance, the caller's backend runs the tiles
        even where the table picks another."""
        from repro.core.plan import choose_tile_backend
        from repro.parallel.backends import SerialBackend, ThreadBackend

        p = random_matrix_chain(24, seed=0)
        table = choose_tile_backend("huang", 24, workers=2)
        named = "serial" if table == "thread" else "thread"
        assert plan_for(p, method="huang", workers=2, backend=named).backend == named
        assert plan_for(p, method="huang", workers=2).backend == table
        built = []
        init = ThreadBackend.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ThreadBackend, "__init__", counting_init)
        with SerialBackend() as serial:
            out = solve(p, method="huang", backend=serial, workers=2)
        assert built == []
        assert out.value == solve(p, method="sequential").value

    @pytest.mark.parametrize("method", ["sequential", "knuth"])
    def test_sequential_methods_construct_no_backend(self, method, monkeypatch):
        from repro.parallel.backends import Backend

        built = []
        init = Backend.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Backend, "__init__", counting_init)
        from repro.problems.generators import random_bst

        solve(random_bst(40, seed=1), method=method)
        assert built == []


class TestPoolSizeFromAffinity:
    """A pool nobody sizes gets the CPUs this process may run on (capped
    at 8), not the machine's CPU count."""

    @pytest.fixture
    def one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def test_thread_backend_gets_one_worker(self, one_cpu):
        from repro.parallel.backends import ThreadBackend

        with ThreadBackend() as backend:
            assert backend.workers == 1

    def test_process_backend_gets_one_worker(self, one_cpu):
        with ProcessBackend() as backend:
            assert backend.workers == 1
            assert backend.health()["started"] is False

    def test_tiles_run_serially(self, one_cpu):
        from repro.core.plan import choose_tile_backend

        assert choose_tile_backend("huang", 32) == "serial"

    def test_a_batch_that_pays_for_two_workers_runs_serially(self, one_cpu):
        from repro.core.plan import choose_batch_pool

        items = [(random_matrix_chain(256, seed=s), "sequential", {}) for s in range(16)]
        assert choose_batch_pool(items, workers=2) == "process"
        assert choose_batch_pool(items) == "serial"

    def test_the_cap_and_the_fallback(self, monkeypatch):
        from repro.parallel.backends import default_workers

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert default_workers() == 8
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_workers() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_workers() == 1


class TestBatchPoolChoice:
    @staticmethod
    def _items(method, n, count):
        return [(random_matrix_chain(n, seed=s), method, {}) for s in range(count)]

    def test_a_one_item_batch_runs_serially(self):
        from repro.core.plan import choose_batch_pool

        assert choose_batch_pool(self._items("huang", 40, 1), workers=8) == "serial"

    def test_one_worker_runs_serially(self):
        from repro.core.plan import choose_batch_pool

        assert choose_batch_pool(self._items("huang", 24, 8), workers=1) == "serial"

    def test_the_choice_sums_the_items_work(self):
        """Few small chains stay serial; many larger ones pay for a
        fresh process pool."""
        from repro.core.plan import choose_batch_pool

        assert choose_batch_pool(self._items("sequential", 64, 8), workers=2) == "serial"
        assert choose_batch_pool(self._items("sequential", 128, 32), workers=2) == "process"
        assert choose_batch_pool(self._items("huang", 8, 8), workers=2) == "serial"
        assert choose_batch_pool(self._items("huang", 24, 8), workers=2) == "process"

    def test_one_dominant_item_keeps_the_batch_serial(self):
        from repro.core.plan import choose_batch_pool

        items = self._items("huang", 32, 1) + self._items("sequential", 8, 3)
        assert choose_batch_pool(items, workers=2) == "serial"
