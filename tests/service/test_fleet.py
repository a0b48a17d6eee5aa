"""The sharded solve fleet: routing, aggregation, shard-death recovery
and shutdown hygiene.

These tests spawn real shard processes (each a full ``repro serve``),
so the fleet is kept small (2 shards) and the shards cheap (serial
backend, sequential default method): what is under test is the router,
not the solvers.
"""

import asyncio
import json
import math
import os
import signal
import socket
import sys
import tempfile
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import solve
from repro.errors import ReproError
from repro.problems import MatrixChainProblem
from repro.problems.specs import batch_item_from_spec, route_key_from_spec, spec_key
from repro.service import ServiceClient
from repro.service.fleet import FleetRouter, HashRing, serve_fleet
from repro.service.transport import Address

FLEET_KWARGS = dict(backend="serial", method="sequential")

#: the name of the thread running a router's event loop
ROUTER_THREAD = "repro-fleet-router"


def router_threads() -> list:
    return [t for t in threading.enumerate() if t.name == ROUTER_THREAD]


def specs_on(router: FleetRouter, shard: int, count: int, n: int = 8) -> list:
    """``count`` distinct chain specs whose ring owner is ``shard``."""
    found = []
    seed = 0
    while len(found) < count:
        spec = {"family": "chain", "n": n, "seed": seed}
        if router.route(dict(spec)) == shard:
            found.append(spec)
        seed += 1
    return found


def kill_while_busy(router: FleetRouter, shard: int, timeout: float = 60.0) -> bool:
    """SIGKILL ``shard`` once the router has routed it requests, after
    a grace that lets the router write them; returns whether the shard
    still held unanswered requests at the kill."""
    deadline = time.monotonic() + timeout
    while not router.inflight().get(shard) and time.monotonic() < deadline:
        time.sleep(0.001)
    time.sleep(0.05)
    busy = router.inflight().get(shard, 0) > 0
    os.kill(router.shard_pids()[shard], signal.SIGKILL)
    return busy


class CountingWriter:
    """A shard connection's writer that counts its writes."""

    def __init__(self, writer):
        self._writer = writer
        self.writes = 0

    def write(self, data):
        self.writes += 1
        return self._writer.write(data)

    def __getattr__(self, name):
        return getattr(self._writer, name)


def count_writes(router: FleetRouter, shard: int) -> CountingWriter:
    """Connect ``shard`` and count the writes on its connection from now
    on (the wrapper stays on that connection; it only counts). A status
    query opens every live shard's connection that is not open yet."""
    if router._shards[shard]._writer is None:
        assert router.status()["per_shard"][shard]["alive"]
    counter = CountingWriter(router._shards[shard]._writer)
    router._shards[shard]._writer = counter
    return counter


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.fixture(scope="module")
def fleet():
    """One two-shard fleet shared by the read-only tests (spawning
    shards costs ~1s each; the destructive tests build their own)."""
    with FleetRouter(2, **FLEET_KWARGS) as router:
        yield router


class TestHashRing:
    def test_deterministic_across_instances(self):
        keys = [bytes([i, 2 * i % 251]) for i in range(64)]
        a, b = HashRing(range(4)), HashRing(range(4))
        assert [a.route(k) for k in keys] == [b.route(k) for k in keys]

    def test_spreads_keys_over_all_shards(self):
        ring = HashRing(range(4))
        owners = {ring.route(os.urandom(16)) for _ in range(256)}
        assert owners == {0, 1, 2, 3}

    def test_consistency_under_shard_set_growth(self):
        """Growing the fleet only moves keys *to* the new shard — keys
        that stay on old shards keep their placement (the consistent-
        hashing property that makes resharding incremental)."""
        keys = [os.urandom(16) for _ in range(512)]
        small, big = HashRing(range(3)), HashRing(range(4))
        moved = 0
        for key in keys:
            before, after = small.route(key), big.route(key)
            if after != before:
                assert after == 3, "key moved between two surviving shards"
                moved += 1
        assert 0 < moved < len(keys) // 2

    def test_empty_ring_rejected(self):
        with pytest.raises(ReproError):
            HashRing([])


class TestRouting:
    def test_same_request_always_routes_to_same_shard(self, fleet):
        spec = {"dims": [10, 20, 5, 30], "method": "huang"}
        shards = {fleet.route(dict(spec)) for _ in range(10)}
        assert len(shards) == 1

    def test_route_ignores_the_client_id(self, fleet):
        spec = {"dims": [10, 20, 5, 30]}
        assert fleet.route({**spec, "id": 1}) == fleet.route({**spec, "id": 999})

    def test_distinct_requests_use_both_shards(self, fleet):
        shards = {
            fleet.route({"family": "chain", "n": 12, "seed": s}) for s in range(32)
        }
        assert shards == {0, 1}

    def test_route_key_prefers_instance_key(self):
        """Two spec spellings of the same request route identically
        (instance key, not JSON text)."""
        a = route_key_from_spec({"dims": [10, 20, 5, 30]})
        b = route_key_from_spec({"dims": [10.0, 20.0, 5.0, 30.0]})
        assert a == b

    def test_malformed_spec_still_routes_deterministically(self):
        a = route_key_from_spec({"bogus": 1})
        b = route_key_from_spec({"bogus": 1})
        assert a == b


class TestFleetRequests:
    def test_results_match_direct_solve(self, fleet):
        records = fleet.request_many([
            {"dims": [30, 35, 15, 5, 10, 20, 25], "method": "huang-banded"},
            {"dims": [3, 7, 2]},
            {"weights": [3, 9, 2, 7], "algebra": "minimax"},
        ])
        want = solve(
            MatrixChainProblem([30, 35, 15, 5, 10, 20, 25]), method="huang-banded"
        )
        assert [r["ok"] for r in records] == [True, True, True]
        assert records[0]["value"] == want.value == 15125.0
        assert records[1]["value"] == 42.0
        assert records[2]["value"] == 14.0
        assert records[2]["algebra"] == "minimax"

    def test_records_in_submission_order_with_ids(self, fleet):
        specs = [
            {"family": "chain", "n": 8, "seed": s, "id": f"req-{s}"}
            for s in range(8)
        ]
        records = fleet.request_many(specs)
        assert [r["id"] for r in records] == [f"req-{s}" for s in range(8)]

    def test_bad_specs_error_in_place(self, fleet):
        records = fleet.request_many([
            {"dims": [10, 20, 5, 30]},
            {"bogus": 1},
            {"dims": [3, 7, 2]},
        ])
        assert [r["ok"] for r in records] == [True, False, True]
        assert "spec must contain" in records[1]["error"]

    def test_duplicates_hit_the_same_shards_cache(self, fleet):
        spec = {"dims": [12, 34, 56, 7], "method": "huang"}
        first = fleet.request(dict(spec))
        second = fleet.request(dict(spec))
        assert first["ok"] and second["ok"]
        assert second["source"] == "cache"

    def test_status_aggregates_across_shards(self, fleet):
        status = fleet.status()
        assert status["shards"] == 2 and status["alive"] == 2
        # Front answers never reach a shard.
        assert (
            status["totals"]["requests"] + status["router"]["front_answers"]
            >= status["router"]["requests"] - 1
        )
        assert len(status["per_shard"]) == 2
        assert all(s["alive"] for s in status["per_shard"])
        assert 0.0 <= status["totals"]["cache_hit_rate"] <= 1.0

    def test_records_stamp_their_answering_shard(self, fleet):
        """Every response carries the shard that answered it, matching
        the router's own placement — the attribution the load harness
        records without re-deriving routes client-side."""
        specs = [{"family": "chain", "n": 10, "seed": s} for s in range(8)]
        records = fleet.request_many([dict(s) for s in specs])
        assert all(r["ok"] for r in records)
        for spec, record in zip(specs, records):
            assert record["shard"] == fleet.route(dict(spec))
        assert {r["shard"] for r in records} == {0, 1}

    def test_status_reports_cpu_time(self, fleet):
        """The router's and every shard's process CPU time, and a fleet
        total that is their sum; none of them runs backwards."""
        first, second = fleet.status(), fleet.status()
        for status in (first, second):
            shard_cpu = [s["status"]["cpu_s"] for s in status["per_shard"]]
            assert status["router"]["cpu_s"] > 0 and all(c > 0 for c in shard_cpu)
            assert status["totals"]["cpu_s"] == pytest.approx(
                status["router"]["cpu_s"] + sum(shard_cpu), abs=1e-5
            )
        assert second["router"]["cpu_s"] >= first["router"]["cpu_s"]
        assert second["totals"]["cpu_s"] >= first["totals"]["cpu_s"]
        for before, after in zip(first["per_shard"], second["per_shard"]):
            assert after["status"]["cpu_s"] >= before["status"]["cpu_s"]

    def test_spec_too_large_once_re_encoded_is_refused(self, fleet):
        """A spec whose re-encoded line passes the shards' line limit is
        answered by the router instead of stalling the shard's
        connection, and the next request on that shard is served."""
        records = fleet.request_many([{"dims": [1] * 30000}, {"dims": [3, 7, 2]}])
        assert not records[0]["ok"]
        assert records[0]["error"].startswith("request too large")
        assert records[1]["ok"] and records[1]["value"] == 42.0
        assert fleet.inflight() == {0: 0, 1: 0}

    def test_status_totals_include_queue_depth(self, fleet):
        """The aggregate backlog gauge: per-shard scheduler queue
        depths sum into the fleet totals, and an idle fleet reads 0."""
        status = fleet.status()
        assert status["totals"]["queue_depth"] == 0
        for shard in status["per_shard"]:
            assert shard["status"]["scheduler"]["queue_depth"] == 0


class TestGroupWrites:
    """Each shard's group of a round goes out in one write, so the
    shard's scheduler takes the whole group as one batch."""

    def test_a_shard_group_is_one_write(self, fleet):
        counter = count_writes(fleet, 0)
        records = fleet.request_many(specs_on(fleet, 0, 6, n=11))
        assert all(r["ok"] for r in records)
        assert counter.writes == 1

    def test_over_limit_spec_is_refused_and_its_siblings_answered(self, fleet):
        big = next(
            spec
            for spec in ({"dims": [1] * 30000 + [k]} for k in range(2, 200))
            if fleet.route(spec) == 0
        )
        small = specs_on(fleet, 0, 2, n=12)
        counter = count_writes(fleet, 0)
        records = fleet.request_many([small[0], big, small[1]])
        assert not records[1]["ok"]
        assert records[1]["error"].startswith("request too large")
        for spec, record in zip(small, records[::2]):
            problem, _, _ = batch_item_from_spec(dict(spec))
            assert record["ok"] and record["shard"] == 0
            assert record["value"] == solve(problem, method="sequential").value
        assert counter.writes == 1
        assert fleet.inflight() == {0: 0, 1: 0}

    def test_one_shard_round_is_one_batch(self):
        """k <= max_batch distinct specs for a one-shard fleet: every
        round is exactly one scheduler batch of k."""
        k = 16
        with FleetRouter(1, **FLEET_KWARGS, max_batch=k) as router:
            for repeat in range(10):
                specs = [
                    {"family": "chain", "n": 10, "seed": k * repeat + i}
                    for i in range(k)
                ]
                records = router.request_many(specs)
                assert all(r["ok"] and r["source"] == "batch" for r in records)
                sched = router.status()["per_shard"][0]["status"]["scheduler"]
                assert sched["batches"] == repeat + 1
                assert sched["largest_batch"] == k


class TestDispatchers:
    """Rounds on the router's one event loop: the synchronous facade
    starts no thread per round, concurrent callers interleave on the
    loop, and rounds racing close() still get their records."""

    def test_rounds_start_no_thread(self, fleet, monkeypatch):
        pair = specs_on(fleet, 0, 1) + specs_on(fleet, 1, 1)
        fleet.request_many(pair)  # warm-up: opens both shard connections
        started = []
        original = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            return original(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        for i in range(20):
            batch = pair if i % 2 else [pair[i % 4 // 2]]
            records = fleet.request_many([dict(spec) for spec in batch])
            assert all(r["ok"] for r in records)
        assert started == []

    def test_concurrent_mixed_rounds(self, fleet):
        """8 threads x 25 rounds of two-shard batches through one
        router: every record present, in order, and equal to a
        sequential solve; no live-load claim left behind."""
        pool = specs_on(fleet, 0, 4, n=10) + specs_on(fleet, 1, 4, n=10)
        want = []
        for spec in pool:
            problem, _, _ = batch_item_from_spec(dict(spec))
            want.append(solve(problem, method="sequential").value)
        failures = []

        def _client(worker: int) -> None:
            for round_no in range(25):
                picks = [(worker + round_no + k) % len(pool) for k in (0, 3, 5)]
                batch = [
                    {**pool[i], "id": f"{worker}-{round_no}-{j}"}
                    for j, i in enumerate(picks)
                ]
                records = fleet.request_many(batch)
                for j, (i, record) in enumerate(zip(picks, records)):
                    if (
                        record is None
                        or record.get("id") != f"{worker}-{round_no}-{j}"
                        or not record.get("ok")
                        or record.get("value") != want[i]
                    ):
                        failures.append((worker, round_no, j, record))
                if len(records) != len(batch):
                    failures.append((worker, round_no, "length", len(records)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=_client, args=(w,)) for w in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers), "a round hung"
        assert failures == []
        assert fleet.inflight() == {0: 0, 1: 0}

    def test_round_overtaken_by_close_gets_error_records(self, monkeypatch):
        """close() lands after a round's entry check and before its
        dispatch: the round finds every shard stopped and still returns
        one record per spec, an error for each."""
        router = FleetRouter(2, **FLEET_KWARGS).start()
        batch = specs_on(router, 0, 1) + specs_on(router, 1, 1)
        closing = threading.Thread(target=router.close)

        async def close_first(incoming):
            closing.start()
            while any(shard.alive() for shard in router._shards.values()):
                await asyncio.sleep(0.01)

        monkeypatch.setattr(router, "_maybe_scale", close_first)
        records = router.request_many(batch)
        closing.join(timeout=60.0)
        assert not closing.is_alive()
        assert [r["ok"] for r in records] == [False, False]

    def test_rounds_racing_close_get_records_and_threads_stop(self):
        before = router_threads()
        router = FleetRouter(2, **FLEET_KWARGS).start()
        batch = specs_on(router, 0, 2) + specs_on(router, 1, 2)
        outcomes: list = []

        def _rounds() -> None:
            while True:
                try:
                    records = router.request_many([dict(s) for s in batch])
                except ReproError as exc:  # a round begun after close()
                    outcomes.append(str(exc))
                    return
                outcomes.append(records)

        clients = [threading.Thread(target=_rounds) for _ in range(4)]
        for client in clients:
            client.start()
        try:
            deadline = time.monotonic() + 30.0
            while len(outcomes) < 8 and time.monotonic() < deadline:
                time.sleep(0.005)
        finally:
            router.close()
        for client in clients:
            client.join(timeout=60.0)
        assert not any(c.is_alive() for c in clients), "a round hung across close()"
        closed = [o for o in outcomes if isinstance(o, str)]
        rounds = [o for o in outcomes if not isinstance(o, str)]
        assert closed == ["fleet is closed"] * len(clients)
        assert len(rounds) >= 8
        for records in rounds:
            assert len(records) == len(batch)
            assert all(r["ok"] or r["error"] for r in records)
        assert [t for t in router_threads() if t not in before] == []
        assert all(shard._writer is None for shard in router._shards.values())


class TestRouterLoop:
    """The router's own event loop: wire ids unique across shards, a
    facade that refuses to block its own loop, and a stalled shard
    timed out per read."""

    def test_one_round_over_both_shards_uses_distinct_wire_ids(self, monkeypatch):
        from repro.service import fleet as fleet_module

        sent = []
        encode = fleet_module.encode_record

        def recording(record):
            sent.append(record.get("id"))
            return encode(record)

        with FleetRouter(2, **FLEET_KWARGS) as router:
            batch = specs_on(router, 0, 2) + specs_on(router, 1, 2)
            monkeypatch.setattr(fleet_module, "encode_record", recording)
            records = router.request_many(batch)
            wire_ids = list(sent)
        assert all(r["ok"] for r in records)
        assert len(wire_ids) == len(batch)
        assert len(set(wire_ids)) == len(wire_ids), f"wire ids repeat: {wire_ids}"

    def test_sync_calls_on_the_loop_thread_raise(self, fleet):
        calls = {
            "request": lambda: fleet.request({"dims": [3, 7, 2]}),
            "request_many": lambda: fleet.request_many([{"dims": [3, 7, 2]}]),
            "status": fleet.status,
            "inflight": fleet.inflight,
            "shard_pids": fleet.shard_pids,
            "route": lambda: fleet.route({"dims": [3, 7, 2]}),
            "close": fleet.close,
        }

        async def on_loop():
            errors = {}
            for name, call in calls.items():
                try:
                    call()
                except ReproError as exc:
                    errors[name] = str(exc)
            return errors

        errors = asyncio.run_coroutine_threadsafe(on_loop(), fleet._loop).result(30)
        assert sorted(errors) == sorted(calls)
        assert all("deadlock" in text for text in errors.values())
        assert fleet.request({"dims": [3, 7, 2]})["value"] == 42.0

    def test_stopped_shard_times_out_per_read_and_gives_up(self, monkeypatch):
        """A SIGSTOPped shard answers nothing: each of its requests is
        re-dispatched once after one read timeout and given up after
        the second, while the other shard's requests are answered, and
        the round ends in about two timeouts."""
        monkeypatch.setattr("repro.service.fleet._REQUEST_TIMEOUT_S", 1.0)
        with FleetRouter(2, **FLEET_KWARGS) as router:
            stalled, live = specs_on(router, 0, 2), specs_on(router, 1, 2)
            pid = router.shard_pids()[0]
            os.kill(pid, signal.SIGSTOP)
            try:
                t0 = time.monotonic()
                records = router.request_many(stalled + live)
                elapsed = time.monotonic() - t0
            finally:
                os.kill(pid, signal.SIGCONT)
            assert [r["ok"] for r in records] == [False, False, True, True]
            assert all("giving up" in r["error"] for r in records[:2])
            assert all(r["shard"] == 0 for r in records[:2])
            assert 1.9 <= elapsed < 10.0
            router_status = router.status()["router"]
            assert router_status["redispatched"] == 2
            assert router_status["gave_up"] == 2
            assert router.inflight() == {0: 0, 1: 0}


class TestServedFront:
    """serve_fleet on the router's loop: served rounds never leave it,
    and every exit closes the listener and unlinks the socket."""

    @staticmethod
    def _serve(router, path, **kwargs):
        """Run a front end on ``path`` on its own thread; returns once it
        listens (the socket file appears at the bind, before that)."""
        outcome: dict = {}
        listening = threading.Event()

        def _run():
            try:
                outcome["served"] = asyncio.run(
                    serve_fleet(
                        router,
                        Address.unix(path),
                        on_bound=lambda _: listening.set(),
                        **kwargs,
                    )
                )
            except BaseException as exc:  # noqa: BLE001 - checked by the test
                outcome["error"] = exc

        thread = threading.Thread(target=_run)
        thread.start()
        assert listening.wait(10.0), "front end did not come up"
        return thread, outcome

    def test_served_hit_rounds_leave_the_loop_for_no_thread(
        self, fleet, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "front.sock")
        thread, outcome = self._serve(fleet, path)
        pair = specs_on(fleet, 0, 1) + specs_on(fleet, 1, 1)
        hops, started = [], []
        with ServiceClient(path) as client:
            assert all(r["ok"] for r in client.request_many(pair))  # warm-up
            original_start = threading.Thread.start
            original_executor = asyncio.BaseEventLoop.run_in_executor
            original_to_thread = asyncio.to_thread

            def counting_start(thread):
                started.append(thread.name)
                return original_start(thread)

            def counting_executor(loop, *args):
                hops.append("run_in_executor")
                return original_executor(loop, *args)

            def counting_to_thread(*args, **kwargs):
                hops.append("to_thread")
                return original_to_thread(*args, **kwargs)

            monkeypatch.setattr(threading.Thread, "start", counting_start)
            monkeypatch.setattr(
                asyncio.BaseEventLoop, "run_in_executor", counting_executor
            )
            monkeypatch.setattr(asyncio, "to_thread", counting_to_thread)
            for i in range(20):
                batch = pair if i % 2 else [pair[i % 4 // 2]]
                records = client.request_many([dict(spec) for spec in batch])
                assert [r["source"] for r in records] == ["cache"] * len(batch)
            monkeypatch.undo()
            client.shutdown()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert outcome == {"served": 32}
        assert hops == [] and started == []

    def test_close_while_a_front_end_runs(self, tmp_path):
        router = FleetRouter(1, **FLEET_KWARGS).start()
        path = str(tmp_path / "front.sock")
        thread, outcome = self._serve(router, path)
        with ServiceClient(path) as client:
            assert client.request({"dims": [3, 7, 2]})["value"] == 42.0
        router.close()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert isinstance(outcome.get("error"), ReproError)
        assert not os.path.exists(path), "front socket left behind"

    def test_cancelling_the_caller_unlinks_the_socket(self, tmp_path):
        path = str(tmp_path / "front.sock")
        with FleetRouter(1, **FLEET_KWARGS) as router:

            async def main():
                ready = asyncio.Event()
                front = asyncio.ensure_future(
                    serve_fleet(router, Address.unix(path), ready=ready)
                )
                await asyncio.wait_for(ready.wait(), 30.0)
                assert os.path.exists(path)
                front.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await front

            asyncio.run(main())
            assert not os.path.exists(path), "front socket left behind"
            assert router._fronts == set()
            assert router.request({"dims": [3, 7, 2]})["ok"]


class TestConnBatcher:
    """The front end's per-connection batcher holds only the rounds
    still in flight: a client connection can live as long as the fleet.
    A line with a front answer is answered inside ``submit``."""

    class _Router:
        """Answers specs with ``"front": True`` at the front; rounds
        wait for ``gate``."""

        def __init__(self):
            self.gate = asyncio.Event()
            self.gate.set()

        def _answer_at_front(self, msg):
            if msg.get("front"):
                return {"id": msg["id"], "ok": True, "route": "front"}
            return None

        async def _request_many(self, specs):
            await asyncio.wait_for(self.gate.wait(), 30)
            return [{"ok": True, "n": spec["n"]} for spec in specs]

    def test_finished_rounds_are_not_held(self):
        from repro.service.fleet import _ConnBatcher

        async def main():
            batcher = _ConnBatcher(self._Router())
            answered = []

            def respond(record):
                answered.append(record)

            for i in range(200):
                batcher.submit({"id": i, "n": i}, respond)
                if i % 7 == 0:
                    await asyncio.sleep(0.002)
            while len(answered) < 200:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0)
            return answered, len(batcher._rounds)

        answered, held = asyncio.run(main())
        assert sorted(r["id"] for r in answered) == list(range(200))
        assert all(r["n"] == r["id"] for r in answered)
        assert held == 0

    def test_drain_answers_every_request_in_flight(self):
        from repro.service.fleet import _ConnBatcher

        async def main():
            router = self._Router()
            router.gate.clear()
            batcher = _ConnBatcher(router)
            answered = []

            def respond(record):
                answered.append(record["id"])

            for i in range(3):
                batcher.submit({"id": i, "n": i}, respond)
            drain = asyncio.ensure_future(batcher.drain())
            await asyncio.sleep(0.02)
            assert not drain.done() and answered == []
            router.gate.set()
            await asyncio.wait_for(drain, timeout=30)
            return answered, len(batcher._rounds)

        answered, held = asyncio.run(main())
        assert sorted(answered) == [0, 1, 2] and held == 0

    def test_a_front_answer_is_written_while_a_round_is_in_flight(self):
        from repro.service.fleet import _ConnBatcher

        async def main():
            router = self._Router()
            router.gate.clear()
            batcher = _ConnBatcher(router)
            answered = []
            batcher.submit({"id": 0, "n": 0}, answered.append)
            await asyncio.sleep(0.01)  # the round is in flight, at the gate
            batcher.submit({"id": 1, "n": 1, "front": True}, answered.append)
            batcher.submit({"id": 2, "n": 2}, answered.append)
            front_first = [r["id"] for r in answered]
            router.gate.set()
            await asyncio.wait_for(batcher.drain(), timeout=30)
            return front_first, [r["id"] for r in answered]

        front_first, order = asyncio.run(main())
        assert front_first == [1]
        assert order == [1, 0, 2]

    def test_failed_round_answers_each_request_with_its_own_record(self):
        """A round that raises answers every request with an error
        record of its own, so a ``respond`` that keeps the records sees
        each request's own id."""
        from repro.service.fleet import _ConnBatcher

        class _Failing:
            def _answer_at_front(self, msg):
                return None

            async def _request_many(self, specs):
                raise ReproError("fleet is closed")

        async def main():
            batcher = _ConnBatcher(_Failing())
            kept = []

            def respond(record):
                kept.append(record)

            for i in range(3):
                batcher.submit({"id": i, "n": i}, respond)
            await asyncio.wait_for(batcher.drain(), timeout=30)
            return kept

        kept = asyncio.run(main())
        assert [r["id"] for r in kept] == [0, 1, 2]
        assert all(not r["ok"] and "fleet is closed" in r["error"] for r in kept)


def send_lines(path: str, lines: list) -> list:
    """Pipeline raw ``lines`` on one connection to the front end at
    ``path``; returns one record per line, in arrival order."""
    with socket.socket(socket.AF_UNIX) as sock:
        sock.settimeout(60.0)
        sock.connect(path)
        sock.sendall("".join(line + "\n" for line in lines).encode())
        with sock.makefile("r") as answers:
            return [json.loads(answers.readline()) for _ in lines]


def front_keys(specs) -> list:
    """The instance key of each spec, or ``None`` for a malformed one."""
    keys = []
    for spec in specs:
        try:
            keys.append(spec_key(dict(spec))[0])
        except Exception:  # noqa: BLE001 - malformed on purpose
            keys.append(None)
    return keys


class TestFrontAnswers:
    """The front end's answer table: a repeat of an instance a shard
    answered ok is answered by the router and never reaches a shard."""

    SHARD_FIELDS = ("value", "method", "algebra", "iterations")

    def _assert_front(self, first: dict, repeat: dict) -> None:
        assert first["ok"] and first["shard"] in (0, 1)
        assert repeat["ok"]
        assert (repeat["route"], repeat["source"], repeat["shard"]) == (
            "front",
            "cache",
            None,
        )
        for field in self.SHARD_FIELDS:
            assert repeat[field] == first[field], field
        assert repeat["elapsed_ms"] >= 0.0

    def test_repeat_through_request_many_is_answered_at_the_front(self, fleet):
        spec = {"dims": [11, 3, 17, 5], "method": "huang"}
        first = fleet.request(dict(spec))
        fleet.status()  # opens both shard connections
        counters = [count_writes(fleet, 0), count_writes(fleet, 1)]
        repeat = fleet.request(dict(spec))
        self._assert_front(first, repeat)
        assert [c.writes for c in counters] == [0, 0]

    def test_repeat_through_serve_fleet_is_answered_at_the_front(
        self, fleet, tmp_path
    ):
        path = str(tmp_path / "front.sock")
        thread, outcome = TestServedFront._serve(fleet, path)
        spec = {"family": "bst", "n": 9, "seed": 41}
        with ServiceClient(path) as client:
            first = client.request(dict(spec))
            fleet.status()  # opens both shard connections
            counters = [count_writes(fleet, 0), count_writes(fleet, 1)]
            repeat = client.request(dict(spec))
            client.shutdown()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert outcome == {"served": 2}
        self._assert_front(first, repeat)
        assert [c.writes for c in counters] == [0, 0]

    def test_another_spelling_of_the_instance_is_answered_at_the_front(
        self, fleet
    ):
        first = fleet.request({"dims": [3, 13, 2, 8]})
        repeat = fleet.request({"dims": [3.0, 13, 2.0, 8]})
        self._assert_front(first, repeat)

    def test_the_client_id_is_echoed(self, fleet, tmp_path):
        spec = {"family": "chain", "n": 7, "seed": 77}
        assert fleet.request(dict(spec))["ok"]
        records = fleet.request_many([dict(spec), {**spec, "id": "mine"}])
        assert [(r["route"], r["id"]) for r in records] == [
            ("front", 1),
            ("front", "mine"),
        ]
        path = str(tmp_path / "front.sock")
        thread, _ = TestServedFront._serve(fleet, path)
        served = send_lines(path, [json.dumps(spec), json.dumps({**spec, "id": [7, "x"]})])
        with ServiceClient(path) as client:
            client.shutdown()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert [(r["route"], r["id"]) for r in served] == [
            ("front", None),
            ("front", [7, "x"]),
        ]

    def test_a_malformed_spec_reaches_a_shard_every_time(self, fleet):
        spec = {"bogus": 11}
        owner = fleet.route(dict(spec))
        before = fleet.status()["router"]["front_answers"]
        for _ in range(2):
            counter = count_writes(fleet, owner)
            record = fleet.request(dict(spec))
            assert not record["ok"] and "spec must contain" in record["error"]
            assert (record["shard"], record["route"]) == (owner, "ring")
            assert counter.writes == 1
        assert fleet.status()["router"]["front_answers"] == before

    def test_oldest_entries_are_evicted_past_the_bound(self, monkeypatch):
        monkeypatch.setattr("repro.service.fleet._FRONT_ENTRIES", 2)
        specs = [{"family": "chain", "n": 8, "seed": 300 + i} for i in range(3)]
        with FleetRouter(2, **FLEET_KWARGS) as router:
            assert all(r["ok"] for r in router.request_many(specs))
            assert router.status()["router"]["front_entries"] == 2
            evicted, kept = router.request_many([specs[0]]), router.request(specs[2])
            assert evicted[0]["route"] == "ring" and evicted[0]["shard"] is not None
            assert evicted[0]["source"] == "cache"  # the shard's own L1
            assert kept["route"] == "front"
            # the evicted spec was stored again and pushed out specs[1]
            assert router.request(specs[1])["route"] == "ring"
            assert router.status()["router"]["front_entries"] == 2

    def test_the_table_is_bounded_in_entries_and_bytes(self, monkeypatch):
        """Past its bound the table replaces entries instead of growing:
        every field has a fixed size, so its memory stays near what one
        full table holds however many answers pass through it."""
        monkeypatch.setattr("repro.service.fleet._FRONT_ENTRIES", 256)
        answer = {"method": "sequential", "algebra": "min_plus",
                  "value": 2500.0, "iterations": None}
        router = FleetRouter(1, **FLEET_KWARGS)  # never started: no shards
        try:
            tracemalloc.start()
            empty = tracemalloc.get_traced_memory()[0]
            for i in range(256):
                router._remember(i.to_bytes(16, "big"), json.loads(json.dumps(answer)))
            full = tracemalloc.get_traced_memory()[0]
            for i in range(256, 256 * 9):
                router._remember(i.to_bytes(16, "big"), json.loads(json.dumps(answer)))
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            router.close()
        assert len(router._answers) == 256
        assert list(router._answers)[0] == (256 * 8).to_bytes(16, "big")
        # eight bounds' worth of new answers grew it less than half a table
        assert after - full < (full - empty) / 2

    def test_a_fleet_without_cache_answers_nothing_at_the_front(self):
        spec = {"dims": [3, 7, 2]}
        with FleetRouter(1, **FLEET_KWARGS, cache_bytes=0) as router:
            records = [router.request(dict(spec)) for _ in range(3)]
            assert [r["route"] for r in records] == ["ring"] * 3
            assert all(r["ok"] and r["value"] == 42.0 for r in records)
            router_status = router.status()["router"]
        assert router_status["front_answers"] == 0
        assert router_status["front_entries"] == 0

    def test_a_round_answered_at_the_front_adds_no_demand(self):
        specs = [{"family": "chain", "n": 8, "seed": 400 + i} for i in range(6)]
        with FleetRouter(
            1, **FLEET_KWARGS, min_shards=1, max_shards=2, scale_up_depth=100.0
        ) as router:
            assert all(r["ok"] for r in router.request_many(specs))
            before = router.status()["router"]["demand_ewma"]
            assert before > 0
            records = router.request_many(specs * 5)
            assert {r["route"] for r in records} == {"front"}
            after = router.status()["router"]["demand_ewma"]
        assert after == pytest.approx(before / 2, abs=1e-3)

    def test_status_counts_front_answers_as_cache_hits(self):
        spec = {"family": "bst", "n": 6, "seed": 3}
        with FleetRouter(2, **FLEET_KWARGS) as router:
            router.request(dict(spec))
            router.request_many([dict(spec)] * 3)
            status = router.status()
        shard_caches = [s["status"]["cache"] for s in status["per_shard"]]
        assert status["router"]["front_answers"] == 3
        assert status["router"]["front_entries"] == 1
        assert status["router"]["requests"] == 4
        assert status["router"]["route_tags"] == {"ring": 1}
        hits = sum(c["hits"] for c in shard_caches)
        misses = sum(c["misses"] for c in shard_caches)
        assert status["totals"]["cache_hits"] == hits + 3
        assert status["totals"]["cache_hit_rate"] == round(
            (hits + 3) / (hits + 3 + misses), 4
        )


class TestServedFrontAnswers:
    """A served repeat is answered from the front end's read callback:
    without a round, before the misses that arrived ahead of it on its
    connection, and still counted."""

    def test_a_repeat_overtakes_a_slow_miss_on_its_connection(self, fleet, tmp_path):
        repeat = {"family": "chain", "n": 8, "seed": 621}
        slow = {"family": "chain", "n": 500, "seed": 622}  # about 0.2 s to solve
        path = str(tmp_path / "front.sock")
        thread, outcome = TestServedFront._serve(fleet, path)
        try:
            assert fleet.request(dict(repeat))["ok"]
            records = send_lines(
                path, [json.dumps({**slow, "id": "slow"}), json.dumps({**repeat, "id": "repeat"})]
            )
        finally:
            with ServiceClient(path) as client:
                client.shutdown()
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert [(r["id"], r["route"]) for r in records] == [
            ("repeat", "front"),
            ("slow", "ring"),
        ]
        assert all(r["ok"] for r in records)

    def test_a_repeat_is_answered_without_a_round(self, fleet, tmp_path, monkeypatch):
        spec = {"family": "bst", "n": 7, "seed": 623}
        assert fleet.request(dict(spec))["ok"]
        before = fleet.status()

        async def no_rounds(specs):
            raise AssertionError("a round ran")

        monkeypatch.setattr(fleet, "_request_many", no_rounds)
        path = str(tmp_path / "front.sock")
        thread, outcome = TestServedFront._serve(fleet, path)
        with ServiceClient(path) as client:
            records = client.request_many([dict(spec)] * 3)
            client.shutdown()
        thread.join(timeout=30.0)
        monkeypatch.undo()
        after = fleet.status()
        assert not thread.is_alive() and outcome == {"served": 3}
        assert [(r["ok"], r["route"]) for r in records] == [(True, "front")] * 3
        grew = {
            name: after["router"][name] - before["router"][name]
            for name in ("requests", "front_answers")
        }
        assert grew == {"requests": 3, "front_answers": 3}
        shard_hits = [
            (a["status"]["cache"]["hits"], b["status"]["cache"]["hits"])
            for a, b in zip(after["per_shard"], before["per_shard"])
        ]
        assert all(a == b for a, b in shard_hits), "a repeat reached a shard"
        assert after["totals"]["cache_hits"] - before["totals"]["cache_hits"] == 3

    def test_twenty_thousand_repeats_on_one_connection(self, fleet, tmp_path):
        """The client writes every line before it reads an answer, so
        the answers pile up in the server's write buffer meanwhile: the
        server must keep reading."""
        spec = {"dims": [4, 9, 2, 6]}
        assert fleet.request(dict(spec))["ok"]
        path = str(tmp_path / "front.sock")
        thread, outcome = TestServedFront._serve(fleet, path)
        with ServiceClient(path, timeout=120.0) as client:
            records = client.request_many([dict(spec)] * 20000)
            client.shutdown()
        thread.join(timeout=30.0)
        assert not thread.is_alive() and outcome == {"served": 20000}
        assert len(records) == 20000
        assert all(r["route"] == "front" and r["value"] == 120.0 for r in records)

    def test_a_fleet_serving_only_repeats_still_shrinks(self, tmp_path):
        specs = [{"family": "chain", "n": 8, "seed": 630 + i} for i in range(8)]
        with FleetRouter(
            2,
            **FLEET_KWARGS,
            min_shards=1,
            max_shards=2,
            scale_up_depth=100.0,
            scale_down_depth=1.0,
        ) as router:
            # one round of 8 over 2 shards: demand 4, smoothed to 2.0
            assert all(r["ok"] for r in router.request_many(specs))
            assert router.status()["shards"] == 2
            path = str(tmp_path / "front.sock")
            thread, outcome = TestServedFront._serve(router, path)
            with ServiceClient(path) as client:
                # each front answer halves the smoothed demand: 1.0, 0.5
                records = [client.request(dict(spec)) for spec in specs[:3]]
                client.shutdown()
            thread.join(timeout=30.0)
            deadline = time.monotonic() + 30.0
            while router.status()["shards"] != 1:
                assert time.monotonic() < deadline, "the fleet did not shrink"
                time.sleep(0.05)
            status = router.status()
        assert not thread.is_alive() and outcome == {"served": 3}
        assert {r["route"] for r in records} == {"front"}
        assert status["router"]["scale_downs"] == 1
        assert status["router"]["demand_ewma"] < 1.0


#: the served property test's spec pool: valid specs (one instance in
#: two spellings), specs that fail to parse, and lines that are not JSON
_POOL_SPECS = [
    {"dims": [3, 7, 2, 9]},
    {"dims": [3.0, 7.0, 2.0, 9.0]},
    {"family": "chain", "n": 6, "seed": 901},
    {"family": "bst", "n": 5, "seed": 902},
    {"weights": [3, 9, 2, 7], "algebra": "minimax"},
    {"family": "chain", "n": 7, "seed": 903, "method": "huang"},
    {"bogus": 1},
    {"family": "chain", "n": -2},
    {"dims": [4, 5], "algebra": "no-such-algebra"},
]
_POOL_LINES = [json.dumps(s) for s in _POOL_SPECS] + ["not json", "[1, 2]"]


@pytest.fixture(scope="module")
def served_fleet(tmp_path_factory):
    """A two-shard fleet behind its own front end, with the keys its
    front end has seen answered ok so far (the table outlives one
    hypothesis example)."""
    path = str(tmp_path_factory.mktemp("front") / "front.sock")
    with FleetRouter(2, **FLEET_KWARGS) as router:
        thread, _ = TestServedFront._serve(router, path)
        try:
            yield path, set()
        finally:
            with ServiceClient(path) as client:
                client.shutdown()
            thread.join(timeout=30.0)


def _sequential_value(spec: dict) -> float:
    problem, _, kwargs = batch_item_from_spec(dict(spec))
    kwargs.pop("max_n", None)
    return solve(problem, method="sequential", **kwargs).value


class TestServedFrontProperty:
    @settings(max_examples=30)
    @given(picks=st.lists(st.integers(0, len(_POOL_LINES) - 1), min_size=1, max_size=12))
    def test_every_line_one_record_and_front_answers_only_repeat_ok(
        self, served_fleet, picks
    ):
        path, answered_ok = served_fleet
        keys = front_keys(_POOL_SPECS)
        lines = []
        for i, pick in enumerate(picks):
            if pick < len(_POOL_SPECS):
                lines.append(json.dumps({**_POOL_SPECS[pick], "id": i}))
            else:
                lines.append(_POOL_LINES[pick])
        records = send_lines(path, lines)
        by_id = {}
        unframed = 0
        for record in records:  # in arrival order
            if record.get("id") is None:
                assert not record["ok"] and record["error"].startswith("bad request")
                unframed += 1
                continue
            assert record["id"] not in by_id, "two records for one line"
            by_id[record["id"]] = record
            spec_index = picks[record["id"]]
            key = keys[spec_index]
            if record.get("route") == "front":
                assert key is not None and key in answered_ok
                assert record["source"] == "cache" and record["shard"] is None
            if record["ok"]:
                want = _sequential_value(_POOL_SPECS[spec_index])
                assert record["value"] == want
                answered_ok.add(key)
        spec_lines = [i for i, pick in enumerate(picks) if pick < len(_POOL_SPECS)]
        assert sorted(by_id) == spec_lines
        assert unframed == len(lines) - len(spec_lines)


class TestShardDeathRecovery:
    """The PR 5 satellite: kill a shard mid-batch; the router must
    respawn it, re-dispatch at most once, and drop nothing."""

    def test_kill_mid_batch_no_request_dropped(self):
        # n >= 300: each shard's share of the batch takes hundreds of ms,
        # far longer than writing it, so the kill lands while it works
        specs = [
            {"family": "chain", "n": 300 + (i % 4) * 20, "seed": i} for i in range(24)
        ]
        with FleetRouter(2, **FLEET_KWARGS) as router:
            out = {}

            def _run():
                out["records"] = router.request_many(specs)

            worker = threading.Thread(target=_run)
            worker.start()
            assert kill_while_busy(router, 0), "shard 0 answered before the kill"
            worker.join(timeout=120.0)
            assert not worker.is_alive(), "request_many hung after the kill"

            records = out["records"]
            # Zero silent drops: every accepted request has a record,
            # in order, each either solved or an explicit error.
            assert len(records) == len(specs)
            assert all(r is not None for r in records)
            for record in records:
                assert record.get("ok") or record.get("error")

            status = router.status()
            assert status["router"]["respawns"] >= 1, "dead shard not respawned"
            assert status["alive"] == 2
            # At-most-once re-dispatch: the router never sends one
            # request more than twice, so the re-dispatch count is
            # bounded by the batch size.
            assert 1 <= status["router"]["redispatched"] <= len(specs)

            # The respawned shard serves fresh requests.
            healed = router.request({"dims": [10, 20, 5, 30]})
            assert healed["ok"] and healed["value"] == 2500.0

    @pytest.mark.parametrize("load_factor", [math.inf, 1.25])
    def test_kill_between_batches_respawns_on_next_use(self, load_factor):
        """A shard killed while idle heals on its next request under
        every load factor: the policy places on the dead shard like any
        other and the dispatch path respawns it. The second batch is
        new to the fleet, so the front end cannot answer it."""
        with FleetRouter(2, **FLEET_KWARGS, load_factor=load_factor) as router:
            warm = router.request_many(
                [{"family": "chain", "n": 10, "seed": s} for s in range(6)]
            )
            assert all(r["ok"] for r in warm)
            victim = router.shard_pids()[1]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while pid_alive(victim) and time.monotonic() < deadline:
                time.sleep(0.02)
            records = router.request_many(
                [{"family": "chain", "n": 10, "seed": s} for s in range(6, 12)]
            )
            assert all(r["ok"] for r in records)
            assert 1 in {r["shard"] for r in records}
            assert router.status()["router"]["respawns"] == 1
            new_pid = router.shard_pids()[1]
            assert new_pid != victim and pid_alive(new_pid)

    def test_request_whose_owner_died_is_answered_by_its_respawn(self):
        """Under a finite factor the policy does not route around a dead
        shard: the request waits for its owner's respawn and is answered
        there, tagged ``ring``, instead of spilling to the live shard."""
        with FleetRouter(2, **FLEET_KWARGS, load_factor=1.25) as router:
            spec = specs_on(router, 1, 1)[0]
            os.kill(router.shard_pids()[1], signal.SIGKILL)
            router._shards[1].proc.wait(timeout=10.0)
            record = router.request(spec)
            assert record["ok"]
            assert (record["shard"], record["route"]) == (1, "ring")
            assert router.status()["router"]["respawns"] == 1


class TestShutdownHygiene:
    def test_close_kills_shards_and_removes_state(self):
        shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
        router = FleetRouter(2, **FLEET_KWARGS)
        router.start()
        pids = router.shard_pids()
        state_dir = router.state_dir
        sockets = [shard.socket_path for shard in router._shards.values()]
        assert all(pid_alive(p) for p in pids)
        assert all(os.path.exists(s) for s in sockets)
        assert all(r["ok"] for r in router.request_many(specs_on(router, 0, 1)))
        loop_thread = router._thread
        assert loop_thread.name == ROUTER_THREAD and loop_thread.is_alive()
        router.close()
        assert not loop_thread.is_alive(), "the router's loop thread survived"
        assert router._loop.is_closed()
        assert all(s._writer is None for s in router._shards.values())
        deadline = time.monotonic() + 10.0
        while any(pid_alive(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(pid_alive(p) for p in pids), "orphan shard processes"
        assert not any(os.path.exists(s) for s in sockets), "leaked sockets"
        assert not os.path.exists(state_dir), "state dir left behind"
        if os.path.isdir("/dev/shm"):
            shm_after = set(os.listdir("/dev/shm"))
            assert not (shm_after - shm_before), "/dev/shm residue"

    def test_close_is_idempotent_and_blocks_further_requests(self):
        router = FleetRouter(1, **FLEET_KWARGS)
        router.start()
        router.close()
        router.close()
        with pytest.raises(ReproError, match="closed"):
            router.request({"dims": [3, 7, 2]})

    def test_caller_owned_state_dir_is_kept(self, tmp_path):
        state = tmp_path / "fleet-state"
        router = FleetRouter(1, state_dir=str(state), **FLEET_KWARGS)
        router.start()
        assert router.request({"dims": [3, 7, 2]})["ok"]
        router.close()
        assert state.exists(), "caller-owned state dir must survive close"


class TestLoadAwareRouting:
    """Load-aware routing, live: route tags on the wire, and status
    carrying the routing telemetry."""

    def test_bounded_fleet_answers_and_tags_routes(self):
        specs = [{"family": "chain", "n": 10, "seed": s % 4} for s in range(16)]
        with FleetRouter(2, **FLEET_KWARGS, load_factor=1.25) as router:
            records = router.request_many(specs)
            assert all(r["ok"] for r in records)
            assert {r["route"] for r in records} <= {"ring", "affinity", "spill"}
            status = router.status()
            assert status["router"]["load_factor"] == 1.25
            tags = status["router"]["route_tags"]
            assert sum(tags.values()) == len(specs)
            for shard in status["per_shard"]:
                load = shard["load"]
                assert load["inflight"] == 0
                assert load["assigned"] >= 0

    def test_ring_policy_tags_every_record_ring(self):
        specs = [{"family": "chain", "n": 10, "seed": s} for s in range(6)]
        with FleetRouter(2, **FLEET_KWARGS) as router:
            records = router.request_many(specs)
            assert {r["route"] for r in records} == {"ring"}
            assert [r["shard"] for r in records] == [router.route(s) for s in specs]
            # the default factor is inf, reported as JSON null
            assert router.status()["router"]["load_factor"] is None


class TestDynamicScaling:
    """Elastic shard set between batches: grow under pressure, shrink
    when idle, never drop an accepted request across either handoff."""

    def test_scale_up_and_down_cycle_drops_nothing(self):
        # Each hot pass is new to the fleet: repeats are answered in the
        # front end and add no demand.
        hot = [
            [{"family": "chain", "n": 16, "seed": 100 + 16 * p + i} for i in range(16)]
            for p in range(2)
        ]
        cold = [{"family": "chain", "n": 8, "seed": 0}]
        with FleetRouter(
            2,
            **FLEET_KWARGS,
            load_factor=1.25,
            min_shards=2,
            max_shards=3,
            scale_up_depth=4.0,
            scale_down_depth=1.0,
        ) as router:
            failures = 0
            for batch in hot:
                records = router.request_many(batch)
                failures += sum(1 for r in records if not r.get("ok"))
            grown = router.status()
            assert grown["shards"] == 3, "fleet never grew under pressure"
            retired = router._shards[2]
            assert retired._writer is not None, "shard 2 never answered a request"
            assert grown["alive"] == 3
            # the new shard is on the ring and the old sockets survived
            assert sorted(router.ring.shard_ids()) == [0, 1, 2]
            for _ in range(8):
                records = router.request_many(cold)
                failures += sum(1 for r in records if not r.get("ok"))
            settled = router.status()
            assert settled["shards"] == 2, "fleet never shrank when idle"
            assert 2 not in router._shards and retired.proc.poll() is not None
            assert retired._writer is None, "retired shard's connection left open"
            assert failures == 0
            assert settled["router"]["gave_up"] == 0
            assert settled["router"]["scale_ups"] >= 1
            assert settled["router"]["scale_downs"] >= 1
            # a retired index's socket file is gone (no stale corpse)
            retired = router.state_dir / "shard-2.sock"
            assert not retired.exists()

    def test_scale_up_reuses_the_retired_shards_socket(self):
        """A grow -> shrink -> grow cycle respawns the same index on
        the same socket path — the ring-segment handoff contract."""
        with FleetRouter(
            1,
            **FLEET_KWARGS,
            load_factor=1.25,
            min_shards=1,
            max_shards=2,
            scale_up_depth=2.0,
            # strictly above the cold-stream fixed point (a 1-request
            # batch at width 2 holds the demand EWMA at 0.5)
            scale_down_depth=0.75,
        ) as router:
            # Each hot pass is new to the fleet: repeats are answered in
            # the front end and add no demand.
            hot = [
                [{"family": "chain", "n": 12, "seed": 8 * p + i} for i in range(8)]
                for p in range(3)
            ]
            router.request_many(hot[0])
            assert len(router._shards) == 2
            first_socket = router._shards[1].socket_path
            for _ in range(8):
                router.request_many([{"family": "chain", "n": 8, "seed": 0}])
            assert len(router._shards) == 1
            router.request_many(hot[1])
            router.request_many(hot[2])
            assert len(router._shards) == 2
            assert router._shards[1].socket_path == first_socket

    def test_default_fleet_places_on_ring_owners_across_a_scale_cycle(self):
        """At the default ``load_factor=inf`` every request lands on its
        ring owner at every width: the new shard takes exactly its ring
        segment and hands it back on retirement. Every batch is new to
        the fleet, so every request is placed."""
        hot = [
            [{"family": "chain", "n": 16, "seed": 100 + 16 * p + i} for i in range(16)]
            for p in range(2)
        ]
        cold = [[{"family": "chain", "n": 8, "seed": p}] for p in range(8)]
        with FleetRouter(
            2,
            **FLEET_KWARGS,
            min_shards=2,
            max_shards=3,
            scale_up_depth=4.0,
            scale_down_depth=1.0,
        ) as router:
            widths = set()
            for batch in hot + cold:
                records = router.request_many(batch)
                widths.add(len(router.ring))
                assert all(r["ok"] for r in records)
                assert [(r["shard"], r["route"]) for r in records] == [
                    (router.route(spec), "ring") for spec in batch
                ]
            assert widths == {2, 3}
            assert router.status()["router"]["route_tags"] == {"ring": 2 * 16 + 8}

    def test_autoscaling_off_by_default(self):
        with FleetRouter(2, **FLEET_KWARGS) as router:
            hot = [{"family": "chain", "n": 12, "seed": i} for i in range(32)]
            router.request_many(hot)
            status = router.status()
            assert status["shards"] == 2
            assert status["router"]["scale_ups"] == 0

    def test_invalid_scale_range_rejected(self):
        with pytest.raises(ReproError, match="min_shards"):
            FleetRouter(2, min_shards=3)
        with pytest.raises(ReproError, match="min_shards"):
            FleetRouter(2, max_shards=1)


class TestValidation:
    def test_zero_shards_rejected(self):
        with pytest.raises(ReproError):
            FleetRouter(0)

    def test_sub_one_load_factor_rejected_before_any_state(self):
        def state_dirs():
            return {
                name
                for name in os.listdir(tempfile.gettempdir())
                if name.startswith("repro-fleet-")
            }

        before = state_dirs()
        with pytest.raises(ReproError, match="load_factor"):
            FleetRouter(2, load_factor=0.5)
        assert state_dirs() == before, "a rejected fleet left a state dir behind"
