"""SolveService end to end: LocalClient, the unix-socket server, and
shutdown hygiene (no /dev/shm residue, no orphan workers)."""

import asyncio
import os
import threading
import time

import numpy as np
import pytest

from repro.core import solve
from repro.errors import ReproError
from repro.problems import BottleneckChainProblem, MatrixChainProblem
from repro.problems.generators import random_matrix_chain
from repro.service import LocalClient, ServiceClient, SolveService, serve_unix

DIMS = [30, 35, 15, 5, 10, 20, 25]


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - still alive, other user
        return True
    return True


class TestLocalClient:
    def test_results_match_direct_solve(self):
        with LocalClient(backend="thread", workers=2, method="huang") as client:
            got = client.solve(MatrixChainProblem(DIMS))
            want = solve(MatrixChainProblem(DIMS), method="huang")
            assert got.value == want.value
            assert np.array_equal(got.w, want.w)

    def test_batch_coalesces_and_caches(self):
        with LocalClient(backend="thread", workers=2, method="huang",
                         max_batch=16) as client:
            requests = [MatrixChainProblem(DIMS) for _ in range(4)] + [
                MatrixChainProblem([10, 20, 5, 30]),
                {"weights": [3, 9, 2, 7], "algebra": "minimax"},
            ]
            out = client.solve_batch(requests, with_source=True)
            sources = [source for _, source in out]
            # The four identical requests share one solve.
            assert sources.count("coalesced") == 3
            assert {r.value for r, _ in out[:4]} == {15125.0}
            # A repeat arriving later is a pure cache hit.
            _, source = client.solve(MatrixChainProblem(DIMS), with_source=True)
            assert source == "cache"
            stats = client.status()
            assert stats["scheduler"]["coalesced"] == 3
            assert stats["cache"]["hits"] == 1

    def test_spec_tuple_and_dict_requests(self):
        with LocalClient(backend="serial", method="sequential") as client:
            r1 = client.solve({"dims": [10, 20, 5, 30], "method": "huang-banded"})
            r2 = client.solve((BottleneckChainProblem([3, 9, 2, 7]), "huang"))
            assert r1.method == "huang-banded" and r1.value == 2500.0
            assert r2.algebra == "minimax"

    def test_per_item_failure_isolated(self):
        with LocalClient(backend="thread", workers=2, method="huang") as client:
            out = client.solve_batch([
                MatrixChainProblem([10, 20, 5, 30]),
                {"dims": [3, 7, 2], "algebra": "no_such_algebra"},
                MatrixChainProblem([3, 7, 2]),
            ])
            assert out[0].value == 2500.0
            assert isinstance(out[1], Exception)
            assert out[2].value == 42.0

    def test_solve_batch_is_one_scheduler_batch(self):
        """The whole sequence reaches the service loop in one callback,
        so k distinct requests run as one batch, every round; a failing
        item keeps its position."""
        with LocalClient(backend="serial", method="sequential") as client:
            for round_no in range(3):
                first = 12 * round_no
                requests = [
                    MatrixChainProblem([10 + i, 20, 5, 30])
                    for i in range(first, first + 12)
                ]
                requests[5] = {"dims": [3, 7, 2], "algebra": "no_such_algebra"}
                out = client.solve_batch(requests)
                stats = client.status()["scheduler"]
                assert stats["batches"] == round_no + 1
                assert stats["largest_batch"] == 12
                assert isinstance(out[5], Exception)
                want = [2500.0 + 250 * i for i in range(first, first + 12)]
                assert [r.value for r in out[:5] + out[6:]] == want[:5] + want[6:]

    def test_solve_batch_rejects_before_submitting(self):
        """A request that cannot be interpreted fails the call before
        any request of the sequence reaches the service."""
        with LocalClient(backend="serial", method="sequential") as client:
            with pytest.raises(ReproError, match="cannot interpret"):
                client.solve_batch([MatrixChainProblem([10, 20, 5, 30]), 42])
            assert client.status()["requests"] == 0

    def test_uncacheable_policy_requests_still_solve(self):
        from repro.core.termination import WStable

        with LocalClient(backend="serial", method="huang") as client:
            result, source = client.solve(
                (MatrixChainProblem([10, 20, 5, 30]), "huang", {"policy": WStable()}),
                with_source=True,
            )
            assert result.value == 2500.0 and source == "batch"
            assert client.status()["cache"]["entries"] == 0


class TestSingletonExecution:
    """A lone request tiles its sweeps on a serial or thread service
    backend, and runs whole on one pool worker on a process pool."""

    @staticmethod
    def _record_calls(monkeypatch):
        import repro.service.server as server

        calls = []
        solve_, solve_many_ = server.solve, server.solve_many

        def recorded_solve(*args, **kwargs):
            calls.append(("solve", kwargs))
            return solve_(*args, **kwargs)

        def recorded_solve_many(items, **kwargs):
            calls.append(("solve_many", kwargs))
            return solve_many_(items, **kwargs)

        monkeypatch.setattr(server, "solve", recorded_solve)
        monkeypatch.setattr(server, "solve_many", recorded_solve_many)
        return calls

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_iterative_singleton_tiles_on_the_service_backend(
        self, monkeypatch, backend
    ):
        calls = self._record_calls(monkeypatch)
        with LocalClient(backend=backend, workers=2, method="huang") as client:
            got = client.solve(MatrixChainProblem(DIMS))
            [(name, kwargs)] = calls
            assert name == "solve" and kwargs["backend"] is client.service.backend
        assert got.value == 15125.0

    def test_iterative_singleton_on_a_process_pool_runs_on_a_worker(self, monkeypatch):
        calls = self._record_calls(monkeypatch)
        with LocalClient(backend="process", workers=2, method="huang") as client:
            got = client.solve(MatrixChainProblem(DIMS))
            [(name, kwargs)] = calls
            assert name == "solve_many" and kwargs["backend"] is client.service.backend
            assert client.status()["backend"]["started"]
        want = solve(MatrixChainProblem(DIMS), method="huang")
        assert got.value == want.value and np.array_equal(got.w, want.w)

    def test_sequential_singleton_on_a_process_pool_runs_in_the_service(
        self, monkeypatch
    ):
        calls = self._record_calls(monkeypatch)
        with LocalClient(backend="process", workers=2, method="sequential") as client:
            assert client.solve(MatrixChainProblem(DIMS)).value == 15125.0
            [(name, kwargs)] = calls
            assert name == "solve" and "backend" not in kwargs
            assert client.status()["backend"]["started"] is False


class TestShutdownHygiene:
    def test_process_backend_workers_die_and_shm_is_clean(self):
        """A lone huang request on a process-backed service runs whole
        on one pool worker and equals a direct solve; closing stops
        every worker and leaves no new /dev/shm entry."""
        shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
        client = LocalClient(backend="process", workers=2, method="huang")
        try:
            got = client.solve(MatrixChainProblem(DIMS))
            pids = client.service.backend.worker_pids()
            assert pids and all(pid_alive(p) for p in pids)
            assert client.status()["backend"]["started"]
        finally:
            client.close()
        want = solve(MatrixChainProblem(DIMS), method="huang")
        assert got.value == want.value and np.array_equal(got.w, want.w)
        deadline = time.monotonic() + 5.0
        while any(pid_alive(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(pid_alive(p) for p in pids), "orphan pool workers"
        if os.path.isdir("/dev/shm"):
            assert not set(os.listdir("/dev/shm")) - shm_before, "/dev/shm residue"

    def test_close_is_idempotent(self):
        client = LocalClient(backend="serial")
        client.close()
        client.close()


def _running(pid: int) -> bool:
    """Whether ``pid`` is on a CPU (state R): a pool worker mid-task."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "R"
    except OSError:
        return False


class TestWorkerDeath:
    @pytest.mark.skipif(
        not os.path.exists(f"/proc/{os.getpid()}/stat"), reason="needs /proc"
    )
    def test_a_worker_killed_mid_batch_fails_that_batch_only(self, within):
        """Each request of the batch a dead worker broke gets one error,
        and the next request is answered on a fresh pool."""
        client = LocalClient(backend="process", workers=2, method="huang")
        be = client.service.backend

        def scenario():
            batch = [random_matrix_chain(32, seed=s) for s in range(2)]
            outcome = {}
            submitter = threading.Thread(
                target=lambda: outcome.update(out=client.solve_batch(batch)),
                daemon=True,
            )
            submitter.start()
            deadline = time.monotonic() + 10.0
            victim = None
            while victim is None:
                assert time.monotonic() < deadline, "no worker ran the batch"
                if be.health()["started"]:
                    victim = next(filter(_running, be.worker_pids()), None)
                time.sleep(0.005)
            os.kill(victim, 9)
            submitter.join(10)
            assert not submitter.is_alive(), "the batch waited on a dead worker"
            assert [type(r).__name__ for r in outcome["out"]] == ["BackendError"] * 2
            assert client.solve(MatrixChainProblem(DIMS)).value == 15125.0
            assert victim not in be.worker_pids()

        try:
            within(60, scenario)
        finally:
            within(10, client.close)


class TestUnixSocketServer:
    @pytest.fixture()
    def server(self, tmp_path, wait_until_listening):
        socket_path = str(tmp_path / "repro.sock")
        service = SolveService(method="huang", backend="thread", workers=2)
        done = {}

        def _run():
            done["served"] = asyncio.run(serve_unix(service, socket_path))

        thread = threading.Thread(target=_run, daemon=True)
        thread.start()
        wait_until_listening(socket_path, time.monotonic() + 10.0)
        yield socket_path, service
        if thread.is_alive():
            try:
                with ServiceClient(socket_path) as client:
                    client.shutdown()
            except OSError:
                pass
            thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_roundtrip_status_and_shutdown(self, server):
        socket_path, service = server
        with ServiceClient(socket_path) as client:
            records = client.request_many([
                {"dims": DIMS, "id_ignored": None},
                {"dims": DIMS},
                {"weights": [3, 9, 2, 7], "algebra": "minimax"},
                {"bogus": 1},
            ])
            assert [r["ok"] for r in records] == [True, True, True, False]
            assert records[0]["value"] == 15125.0
            assert records[1]["source"] in ("coalesced", "cache")
            assert "spec must contain" in records[3]["error"]
            status = client.status()
            assert status["requests"] == 4
            assert status["backend"]["backend"] == "thread"
            assert status["scheduler"]["requests"] == 3
        with ServiceClient(socket_path) as client:
            client.shutdown()
        deadline = time.monotonic() + 10.0
        while os.path.exists(socket_path) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not os.path.exists(socket_path), "socket not unlinked on shutdown"
        assert service._closed

    def test_request_many_is_one_batch(self, server):
        """k <= max_batch distinct specs pipelined by one request_many
        go out in one write, so every round is exactly one scheduler
        batch of k."""
        socket_path, service = server
        k = service.scheduler.max_batch
        with ServiceClient(socket_path) as client:
            for repeat in range(10):
                specs = [
                    {"family": "chain", "n": 10, "seed": k * repeat + i}
                    for i in range(k)
                ]
                records = client.request_many(specs)
                assert all(r["ok"] and r["source"] == "batch" for r in records)
                sched = client.status()["scheduler"]
                assert sched["batches"] == repeat + 1
                assert sched["largest_batch"] == k

    def test_max_requests_stops_server(self, tmp_path, wait_until_listening):
        socket_path = str(tmp_path / "capped.sock")
        service = SolveService(method="sequential", backend="serial")
        result = {}

        def _run():
            result["served"] = asyncio.run(
                serve_unix(service, socket_path, max_requests=2)
            )

        thread = threading.Thread(target=_run, daemon=True)
        thread.start()
        wait_until_listening(socket_path, time.monotonic() + 10.0)
        with ServiceClient(socket_path) as client:
            records = client.request_many([{"dims": [10, 20, 5, 30]},
                                           {"dims": [3, 7, 2]}])
        assert all(r["ok"] for r in records)
        thread.join(timeout=10.0)
        assert not thread.is_alive() and result["served"] == 2


class TestRefusals:
    def test_knuth_on_an_undeclared_family_is_refused_before_any_table(
        self, monkeypatch
    ):
        from repro.problems.base import ParenthesizationProblem

        def refuse(self):
            raise AssertionError("built the dense f table")

        monkeypatch.setattr(ParenthesizationProblem, "cached_f_table", refuse)

        async def main():
            service = SolveService(method="sequential", backend="serial")
            try:
                return await service.handle_spec(
                    {"id": 7, "family": "chain", "n": 40, "method": "knuth"}
                )
            finally:
                await service.aclose()

        record = asyncio.run(main())
        assert record["id"] == 7 and record["ok"] is False
        assert "InvalidProblemError" in record["error"]
        assert "quadrangle" in record["error"]


class TestConnectionDispatcher:
    """A connection's dispatcher holds only the tasks still in flight:
    a router keeps one connection open for a shard's whole life."""

    def test_finished_tasks_are_not_held(self):
        from repro.service.server import _TaskPerSpec

        async def main():
            service = SolveService(method="sequential", backend="serial")
            dispatcher = _TaskPerSpec(service)
            answered = []

            def respond(record):
                answered.append(record)

            try:
                for i in range(300):
                    dispatcher.submit({"id": i, "dims": [10, 20, 5, 30 + i % 3]},
                                      respond)
                    if i % 50 == 0:
                        await asyncio.sleep(0.01)
                while len(answered) < 300:
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0)
                return answered, len(dispatcher._tasks)
            finally:
                await service.aclose()

        answered, held = asyncio.run(main())
        assert sorted(r["id"] for r in answered) == list(range(300))
        assert all(r["ok"] for r in answered)
        assert held == 0

    def test_drain_answers_every_request_in_flight(self):
        from repro.service.server import _TaskPerSpec

        class GatedService:
            def __init__(self):
                self.gate = asyncio.Event()

            async def handle_spec(self, msg):
                await self.gate.wait()
                return {"id": msg["id"], "ok": True}

        async def main():
            service = GatedService()
            dispatcher = _TaskPerSpec(service)
            answered = []

            def respond(record):
                answered.append(record["id"])

            for i in range(5):
                dispatcher.submit({"id": i}, respond)
            drain = asyncio.ensure_future(dispatcher.drain())
            await asyncio.sleep(0.01)
            assert not drain.done() and answered == []
            service.gate.set()
            await asyncio.wait_for(drain, timeout=10)
            return answered, len(dispatcher._tasks)

        answered, held = asyncio.run(main())
        assert sorted(answered) == list(range(5)) and held == 0

