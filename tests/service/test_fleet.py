"""The sharded solve fleet: routing, aggregation, shard-death recovery
and shutdown hygiene.

These tests spawn real shard processes (each a full ``repro serve``),
so the fleet is kept small (2 shards) and the shards cheap (serial
backend, sequential default method): what is under test is the router,
not the solvers.
"""

import asyncio
import math
import os
import signal
import sys
import tempfile
import threading
import time

import pytest

from repro.core import solve
from repro.errors import ReproError
from repro.problems import MatrixChainProblem
from repro.problems.specs import batch_item_from_spec, route_key_from_spec
from repro.service.fleet import FleetRouter, HashRing

FLEET_KWARGS = dict(backend="serial", method="sequential", batch_window=0.002)

#: the name prefix of every shard dispatcher thread
DISPATCHER = "repro-fleet-shard-"


def dispatcher_threads(prefix: str = DISPATCHER, exclude=()) -> list:
    return [
        t
        for t in threading.enumerate()
        if t.name.startswith(prefix) and t not in exclude
    ]


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
        assert status["totals"]["requests"] >= status["router"]["requests"] - 1
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


class TestDispatchers:
    """Each shard's one long-lived dispatcher thread, and the caller
    driving one shard group of every round itself."""

    def test_rounds_start_no_thread(self, fleet, monkeypatch):
        pair = specs_on(fleet, 0, 1) + specs_on(fleet, 1, 1)
        fleet.request_many(pair)  # warm-up: starts the dispatcher it needs
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
        dispatch: the round finds every dispatcher shut down and still
        returns one record per spec, an error for each."""
        router = FleetRouter(2, **FLEET_KWARGS).start()
        batch = specs_on(router, 0, 1) + specs_on(router, 1, 1)
        monkeypatch.setattr(router, "_maybe_scale", lambda incoming: router.close())
        records = router.request_many(batch)
        assert [r["ok"] for r in records] == [False, False]

    def test_rounds_racing_close_get_records_and_threads_stop(self):
        before = dispatcher_threads()
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
        assert dispatcher_threads(exclude=before) == []


class TestConnBatcher:
    """The front end's per-connection batcher holds only the rounds
    still in flight: a client connection can live as long as the fleet."""

    class _Router:
        def __init__(self):
            self.gate = threading.Event()
            self.gate.set()

        def request_many(self, bodies):
            assert self.gate.wait(timeout=30)
            return [{"ok": True, "n": body["n"]} for body in bodies]

    def test_finished_rounds_are_not_held(self):
        from repro.service.fleet import _ConnBatcher

        async def main():
            batcher = _ConnBatcher(self._Router())
            answered = []

            async def respond(record):
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

            async def respond(record):
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
        other and the dispatch path respawns it."""
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
                [{"family": "chain", "n": 10, "seed": s} for s in range(6)]
            )
            assert all(r["ok"] for r in records)
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
        router.close()
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
        hot = [{"family": "chain", "n": 16, "seed": 100 + i} for i in range(16)]
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
            for _ in range(2):
                records = router.request_many(hot)
                failures += sum(1 for r in records if not r.get("ok"))
            grown = router.status()
            assert grown["shards"] == 3, "fleet never grew under pressure"
            # Holding the shard keeps its executor from being collected,
            # so only an explicit shutdown on retirement stops the thread.
            retired = router._shards[2]
            retired_dispatchers = dispatcher_threads(f"{DISPATCHER}2")
            assert retired_dispatchers, "shard 2 never ran on its dispatcher"
            assert grown["alive"] == 3
            # the new shard is on the ring and the old sockets survived
            assert sorted(router.ring.shard_ids()) == [0, 1, 2]
            for _ in range(8):
                records = router.request_many(cold)
                failures += sum(1 for r in records if not r.get("ok"))
            settled = router.status()
            assert settled["shards"] == 2, "fleet never shrank when idle"
            assert 2 not in router._shards and retired.proc.poll() is not None
            assert not any(t.is_alive() for t in retired_dispatchers)
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
            hot = [{"family": "chain", "n": 12, "seed": i} for i in range(8)]
            router.request_many(hot)
            assert len(router._shards) == 2
            first_socket = router._shards[1].socket_path
            for _ in range(8):
                router.request_many([{"family": "chain", "n": 8, "seed": 0}])
            assert len(router._shards) == 1
            router.request_many(hot)
            router.request_many(hot)
            assert len(router._shards) == 2
            assert router._shards[1].socket_path == first_socket

    def test_default_fleet_places_on_ring_owners_across_a_scale_cycle(self):
        """At the default ``load_factor=inf`` every request lands on its
        ring owner at every width: the new shard takes exactly its ring
        segment and hands it back on retirement."""
        hot = [{"family": "chain", "n": 16, "seed": 100 + i} for i in range(16)]
        cold = [{"family": "chain", "n": 8, "seed": 0}]
        with FleetRouter(
            2,
            **FLEET_KWARGS,
            min_shards=2,
            max_shards=3,
            scale_up_depth=4.0,
            scale_down_depth=1.0,
        ) as router:
            widths = set()
            for batch in [hot, hot] + [cold] * 8:
                records = router.request_many(batch)
                widths.add(len(router.ring))
                assert all(r["ok"] for r in records)
                assert [(r["shard"], r["route"]) for r in records] == [
                    (router.route(spec), "ring") for spec in batch
                ]
            assert widths == {2, 3}
            assert router.status()["router"]["route_tags"] == {
                "ring": 2 * len(hot) + 8 * len(cold)
            }

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
