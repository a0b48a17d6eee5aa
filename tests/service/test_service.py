"""SolveService end to end: LocalClient, the unix-socket server, and
shutdown hygiene (no /dev/shm residue, no orphan workers)."""

import asyncio
import os
import threading
import time

import numpy as np
import pytest

from repro.core import solve
from repro.problems import BottleneckChainProblem, MatrixChainProblem
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
        with LocalClient(backend="thread", workers=2, method="huang",
                         batch_window=0.01) as client:
            got = client.solve(MatrixChainProblem(DIMS))
            want = solve(MatrixChainProblem(DIMS), method="huang")
            assert got.value == want.value
            assert np.array_equal(got.w, want.w)

    def test_batch_coalesces_and_caches(self):
        with LocalClient(backend="thread", workers=2, method="huang",
                         batch_window=0.05, max_batch=16) as client:
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
        with LocalClient(backend="serial", method="sequential",
                         batch_window=0.0) as client:
            r1 = client.solve({"dims": [10, 20, 5, 30], "method": "huang-banded"})
            r2 = client.solve((BottleneckChainProblem([3, 9, 2, 7]), "huang"))
            assert r1.method == "huang-banded" and r1.value == 2500.0
            assert r2.algebra == "minimax"

    def test_per_item_failure_isolated(self):
        with LocalClient(backend="thread", workers=2, method="huang",
                         batch_window=0.02) as client:
            out = client.solve_batch([
                MatrixChainProblem([10, 20, 5, 30]),
                {"dims": [3, 7, 2], "algebra": "no_such_algebra"},
                MatrixChainProblem([3, 7, 2]),
            ])
            assert out[0].value == 2500.0
            assert isinstance(out[1], Exception)
            assert out[2].value == 42.0

    def test_uncacheable_policy_requests_still_solve(self):
        from repro.core.termination import WStable

        with LocalClient(backend="serial", method="huang",
                         batch_window=0.0) as client:
            result, source = client.solve(
                (MatrixChainProblem([10, 20, 5, 30]), "huang", {"policy": WStable()}),
                with_source=True,
            )
            assert result.value == 2500.0 and source == "batch"
            assert client.status()["cache"]["entries"] == 0


class TestShutdownHygiene:
    def test_process_backend_workers_die_and_shm_is_clean(self):
        client = LocalClient(backend="process", workers=2, method="huang",
                             batch_window=0.02)
        try:
            client.solve(MatrixChainProblem(DIMS))
            pids = client.service.backend.worker_pids()
            assert pids and all(pid_alive(p) for p in pids)
            segments = client.service.store.segment_names()
        finally:
            client.close()
        deadline = time.monotonic() + 5.0
        while any(pid_alive(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(pid_alive(p) for p in pids), "orphan pool workers"
        for name in segments:
            assert not os.path.exists(f"/dev/shm/{name}"), f"shm residue {name}"
        assert client.service.store.stats()["closed"]

    def test_close_is_idempotent(self):
        client = LocalClient(backend="serial", batch_window=0.0)
        client.close()
        client.close()


class TestUnixSocketServer:
    @pytest.fixture()
    def server(self, tmp_path):
        socket_path = str(tmp_path / "repro.sock")
        service = SolveService(
            method="huang", backend="thread", workers=2, batch_window=0.02
        )
        done = {}

        def _run():
            done["served"] = asyncio.run(serve_unix(service, socket_path))

        thread = threading.Thread(target=_run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10.0
        while not os.path.exists(socket_path):
            assert time.monotonic() < deadline, "server did not come up"
            time.sleep(0.02)
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
        assert service.store.stats()["closed"]

    def test_max_requests_stops_server(self, tmp_path):
        socket_path = str(tmp_path / "capped.sock")
        service = SolveService(method="sequential", backend="serial",
                               batch_window=0.0)
        result = {}

        def _run():
            result["served"] = asyncio.run(
                serve_unix(service, socket_path, max_requests=2)
            )

        thread = threading.Thread(target=_run, daemon=True)
        thread.start()
        while not os.path.exists(socket_path):
            time.sleep(0.02)
        with ServiceClient(socket_path) as client:
            records = client.request_many([{"dims": [10, 20, 5, 30]},
                                           {"dims": [3, 7, 2]}])
        assert all(r["ok"] for r in records)
        thread.join(timeout=10.0)
        assert not thread.is_alive() and result["served"] == 2


class TestConnectionDispatcher:
    """A connection's dispatcher holds only the tasks still in flight:
    a router keeps one connection open for a shard's whole life."""

    def test_finished_tasks_are_not_held(self):
        from repro.service.server import _TaskPerSpec

        async def main():
            service = SolveService(method="sequential", backend="serial",
                                   batch_window=0.0)
            dispatcher = _TaskPerSpec(service)
            answered = []

            async def respond(record):
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

            async def respond(record):
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

