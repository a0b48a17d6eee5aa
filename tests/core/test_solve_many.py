"""The batched solve_many service layer: ordering, heterogeneity,
per-item overrides, and error isolation on every pool backend."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import BatchItem, solve, solve_many
from repro.core.termination import WStable
from repro.errors import BackendError, InvalidProblemError
from repro.parallel.backends import START_METHODS, ProcessBackend
from repro.problems import (
    GenericProblem,
    MatrixChainProblem,
    OptimalBSTProblem,
    PolygonTriangulationProblem,
)
from repro.problems.generators import random_generic, random_matrix_chain

BACKENDS = ["serial", "thread", "process"]


def _heterogeneous_batch():
    return [
        MatrixChainProblem([30, 35, 15, 5, 10, 20, 25]),
        OptimalBSTProblem(
            [0.15, 0.10, 0.05, 0.10, 0.20], [0.05, 0.10, 0.05, 0.05, 0.05, 0.10]
        ),
        PolygonTriangulationProblem(
            [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], rule="perimeter"
        ),
        MatrixChainProblem([10, 20, 5, 30]),
    ]


class TestOrderingAndValues:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_in_submission_order(self, backend):
        batch = _heterogeneous_batch()
        results = solve_many(batch, method="huang", backend=backend, max_workers=3)
        expected = [solve(p, method="huang").value for p in batch]
        assert [r.value for r in results] == pytest.approx(expected)
        assert all(r.method == "huang" for r in results)

    def test_order_preserved_with_skewed_sizes(self):
        """Small problems finish long before the big one submitted first;
        the result list must still follow submission order."""
        batch = [random_matrix_chain(16, seed=0)] + [
            random_matrix_chain(4, seed=s) for s in range(1, 6)
        ]
        results = solve_many(batch, method="huang-banded", backend="thread")
        for problem, result in zip(batch, results):
            assert result.n == problem.n
            assert result.value == pytest.approx(
                solve(problem, method="sequential").value
            )

    def test_per_item_method_overrides(self):
        batch = [
            (MatrixChainProblem([30, 35, 15, 5, 10, 20, 25]), "huang"),
            (MatrixChainProblem([10, 20, 5, 30]), "rytter"),
            MatrixChainProblem([3, 7, 2]),  # inherits the batch default
        ]
        results = solve_many(batch, method="sequential", backend="serial")
        assert [r.method for r in results] == ["huang", "rytter", "sequential"]
        assert results[0].value == 15125.0

    def test_batch_item_kwargs(self):
        p = random_matrix_chain(10, seed=3)
        item = BatchItem(p, method="huang-banded", solve_kwargs={"policy": WStable()})
        (result,) = solve_many([item], backend="serial")
        assert result.value == pytest.approx(solve(p, method="sequential").value)

    def test_batchwide_kwargs_forwarded(self):
        (result,) = solve_many(
            [MatrixChainProblem([2, 3, 4, 5])],
            method="huang",
            backend="serial",
            reconstruct=True,
        )
        assert result.tree is not None

    def test_empty_batch(self):
        assert solve_many([], backend="serial") == []


class TestErrorIsolation:
    def _bad_batch(self):
        return [
            MatrixChainProblem([2, 3, 4]),
            (random_generic(10, seed=0), "huang", {"max_n": 4}),  # exceeds guard
            (random_generic(8, seed=1), "huang"),
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_on_error_return_keeps_slots(self, backend):
        results = solve_many(self._bad_batch(), backend=backend, on_error="return")
        assert results[0].value == pytest.approx(
            solve(MatrixChainProblem([2, 3, 4]), method="sequential").value
        )
        assert isinstance(results[1], InvalidProblemError)
        assert results[2].method == "huang"

    def test_on_error_raise_default(self):
        with pytest.raises(InvalidProblemError, match="max_n"):
            solve_many(self._bad_batch(), backend="serial")

    def test_unknown_method_rejected_before_execution(self):
        with pytest.raises(InvalidProblemError, match="unknown method"):
            solve_many([(MatrixChainProblem([2, 3, 4]), "magic")], backend="serial")

    def test_bad_on_error_value(self):
        with pytest.raises(InvalidProblemError, match="on_error"):
            solve_many([], on_error="explode")

    def test_non_problem_item_rejected(self):
        with pytest.raises(InvalidProblemError, match="ParenthesizationProblem"):
            solve_many(["not a problem"], backend="serial")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bad_algebra_name_mid_batch_is_isolated(self, backend):
        """A bad ``algebra=`` on one item is resolved inside the worker,
        so the other items still succeed and the failed slot carries
        the error (same isolation contract as any per-item failure)."""
        batch = [
            MatrixChainProblem([2, 3, 4]),
            BatchItem(
                MatrixChainProblem([5, 6, 7]),
                method="huang",
                solve_kwargs={"algebra": "tropical-typo"},
            ),
            BatchItem(
                MatrixChainProblem([2, 9, 4, 3]),
                method="huang",
                solve_kwargs={"algebra": "minimax"},
            ),
        ]
        results = solve_many(batch, backend=backend, on_error="return")
        assert results[0].value == 24.0  # 2*3*4, the only split
        assert isinstance(results[1], InvalidProblemError)
        assert "unknown algebra" in str(results[1])
        assert results[2].algebra == "minimax" and results[2].method == "huang"

    def test_bad_algebra_raises_with_default_on_error(self):
        with pytest.raises(InvalidProblemError, match="unknown algebra"):
            solve_many(
                [MatrixChainProblem([2, 3, 4])],
                backend="serial",
                algebra="tropical-typo",
            )

    def test_batchwide_algebra_forwarded(self):
        results = solve_many(
            [MatrixChainProblem([2, 3, 4]), (MatrixChainProblem([4, 1, 5]), "huang")],
            backend="serial",
            algebra="max_plus",
        )
        assert [r.algebra for r in results] == ["max_plus", "max_plus"]


class TestNestedProcessBackend:
    def test_nested_process_backend_errors_cleanly(self):
        """A per-item backend="process" inside a process pool is refused
        (sweep tiles run on serial or thread); it must come back as an
        error record, not deadlock the batch."""
        batch = [
            (
                MatrixChainProblem([30, 35, 15, 5, 10, 20, 25]),
                "huang",
                {"backend": "process"},
            ),
            MatrixChainProblem([10, 20, 5, 30]),
        ]
        results = solve_many(batch, backend="process", on_error="return")
        assert isinstance(results[0], BackendError)
        assert results[1].value == 2500.0


def _closure_batch():
    """Problems whose cost callables are closures: no pickle can carry
    them to a worker process."""
    scale = 3.0
    return [
        GenericProblem(4, lambda i: 0.0, lambda i, k, j: scale * (j - i) + k),
        (
            GenericProblem(5, lambda i: float(i), lambda i, k, j: scale * k * (j - i)),
            "huang",
        ),
    ]


class TestUnpicklableBatch:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_closure_batch_on_process_backend(self, start_method):
        """A closure-carrying batch on backend="process" runs in the
        calling process under either start method and gives the serial
        values; it starts no pool."""
        expected = [r.value for r in solve_many(_closure_batch(), backend="serial")]
        results = solve_many(
            _closure_batch(),
            backend="process",
            max_workers=2,
            start_method=start_method,
        )
        assert [r.value for r in results] == expected
        with ProcessBackend(2, start_method=start_method) as be:
            results = solve_many(_closure_batch(), backend=be)
            assert be.health()["started"] is False
        assert [r.value for r in results] == expected


#: (method, n) per iterative method and the sequential baseline; small
#: enough that rytter's Θ(n⁶) squares stay quick
_POOL_CASES = [
    ("sequential", 12),
    ("huang", 8),
    ("huang-banded", 9),
    ("huang-compact", 10),
    ("rytter", 7),
]


@pytest.fixture(scope="module", params=START_METHODS)
def warm_pool(request):
    """One warm two-worker process pool per start method."""
    with ProcessBackend(2, start_method=request.param) as be:
        yield be


class TestProcessPoolBatches:
    @pytest.mark.parametrize("method,n", _POOL_CASES, ids=[c[0] for c in _POOL_CASES])
    def test_bitwise_equal_to_serial(self, warm_pool, method, n):
        """Whole problems on pool workers, each pickled once, commit
        the serial tables bit for bit under fork and under spawn."""
        batch = [random_matrix_chain(n, seed=s) for s in range(3)]
        serial = solve_many(batch, method=method, backend="serial")
        pooled = solve_many(batch, method=method, backend=warm_pool)
        assert warm_pool.health()["started"]
        for want, got in zip(serial, pooled):
            assert np.array_equal(
                np.nan_to_num(got.w, posinf=-1.0), np.nan_to_num(want.w, posinf=-1.0)
            )
            assert got.iterations == want.iterations and got.value == want.value

    def test_pool_stays_warm_across_batches(self, warm_pool):
        batch = [random_matrix_chain(6, seed=s) for s in range(4)]
        solve_many(batch, backend=warm_pool)
        pids = warm_pool.worker_pids()
        solve_many(batch, method="huang", backend=warm_pool)
        assert warm_pool.worker_pids() == pids

    def test_fresh_interpreter_batch_exits_clean(self):
        """A process batch in a fresh interpreter exits 0 with nothing
        on stderr: no resource-tracker warnings, no tracebacks."""
        code = (
            "from repro.core import solve_many\n"
            "from repro.problems.generators import random_matrix_chain\n"
            "if __name__ == '__main__':\n"
            "    batch = [random_matrix_chain(8, seed=s) for s in range(4)]\n"
            "    rs = solve_many(batch, method='huang', backend='process',\n"
            "                    max_workers=2, start_method='spawn')\n"
            "    print(sum(r.value for r in rs))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


class TestPoolsNeverNest:
    @pytest.mark.skipif("fork" not in START_METHODS, reason="needs fork")
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_items_sweep_on_serial_tiles(self, backend, monkeypatch):
        """Where a lone solve would tile over threads (huang at n=24),
        a batch item sweeps serially on whatever pool runs it: the
        only thread pool built is the batch's own."""
        from repro.core.plan import choose_tile_backend
        from repro.parallel.backends import ThreadBackend

        if choose_tile_backend("huang", 24, workers=2) != "thread":
            pytest.skip("the table tiles huang n=24 serially under numba")
        parent = os.getpid()
        built = []
        init = ThreadBackend.__init__

        def counting_init(self, *args, **kwargs):
            if os.getpid() != parent:
                raise AssertionError("a batch item built a thread pool")
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ThreadBackend, "__init__", counting_init)
        batch = [random_matrix_chain(24, seed=s) for s in range(2)]
        extra = {"start_method": "fork"} if backend == "process" else {}
        results = solve_many(
            batch, method="huang", backend=backend, max_workers=2, **extra
        )
        assert len(built) == (1 if backend == "thread" else 0)
        for problem, result in zip(batch, results):
            assert result.value == solve(problem, method="sequential").value


class TestTheTablePicksThePool:
    @staticmethod
    def _record_pools(monkeypatch):
        import repro.core.api as api

        names = []
        make = api.make_backend

        def recording_make(name, *args, **kwargs):
            names.append(name)
            return make(name, *args, **kwargs)

        monkeypatch.setattr(api, "make_backend", recording_make)
        return names

    def test_unnamed_pool_follows_the_table(self, monkeypatch):
        from repro.core.plan import choose_batch_pool

        names = self._record_pools(monkeypatch)
        small = [random_matrix_chain(6, seed=s) for s in range(3)]
        large = [random_matrix_chain(128, seed=s) for s in range(32)]
        solve_many(small, max_workers=2)
        solve_many(large, max_workers=2)
        assert names == [
            choose_batch_pool([(p, "sequential", {}) for p in small], 2),
            choose_batch_pool([(p, "sequential", {}) for p in large], 2),
        ]
        assert names == ["serial", "process"]

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_a_named_pool_wins(self, backend, monkeypatch):
        names = self._record_pools(monkeypatch)
        large = [random_matrix_chain(128, seed=s) for s in range(32)]
        solve_many(large, backend=backend, max_workers=2)
        assert names == [backend]

    def test_a_pool_instance_wins(self, monkeypatch):
        names = self._record_pools(monkeypatch)
        with ProcessBackend(2) as be:
            (result,) = solve_many([MatrixChainProblem([10, 20, 5, 30])], backend=be)
            assert be.health()["started"]
        assert names == [] and result.value == 2500.0

    @pytest.mark.parametrize("backend", [None, "serial", "thread"])
    def test_start_method_without_a_process_pool_raises(self, backend):
        with pytest.raises(InvalidProblemError, match="start_method applies only"):
            solve_many(
                [MatrixChainProblem([2, 3, 4])], backend=backend, start_method="fork"
            )
