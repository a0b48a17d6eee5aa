"""The load harness: closed/open replay, record shape, determinism of
closed replays, and the ephemeral targets' lifecycle hygiene.

Targets stay cheap (serial backend, sequential method, tiny instances):
what is under test is the replayer, not the solvers.
"""

import pytest

from repro.errors import ReproError
from repro.loadgen import TraceConfig, TraceEvent, generate_trace, run_loadtest

SERVICE_KWARGS = dict(backend="serial", method="sequential")

CLOSED = TraceConfig(
    arrival="closed", count=16, pool=4, popularity="zipf",
    family="chain", n=10, seed=3,
)


class TestClosedReplay:
    def test_all_answered_with_full_records(self):
        result = run_loadtest(CLOSED, target="local", target_kwargs=SERVICE_KWARGS)
        assert result.mode == "closed" and result.target == "local"
        assert len(result.records) == CLOSED.count
        for record in result.records:
            assert record["ok"] is True
            assert record["recv_s"] >= record["sent_s"] >= 0.0
            assert record["latency_ms"] >= 0.0
            assert record["source"] in ("batch", "cache", "coalesced", "delta")
            assert record["value"] is not None

    def test_closed_replay_is_deterministic(self):
        """The E13 determinism gate in miniature: the same closed trace
        against two fresh targets yields identical per-request source
        attributions and values — no wall-clock race can change which
        request finds which cache state."""
        a = run_loadtest(CLOSED, target="local", target_kwargs=SERVICE_KWARGS)
        b = run_loadtest(CLOSED, target="local", target_kwargs=SERVICE_KWARGS)
        assert a.sources() == b.sources()
        assert [r["value"] for r in a.records] == [r["value"] for r in b.records]

    def test_duplicates_hit_the_cache(self):
        result = run_loadtest(CLOSED, target="local", target_kwargs=SERVICE_KWARGS)
        sources = result.sources()
        # 16 zipf draws over a 4-pool: the head instance repeats, and
        # every repeat of an already-solved instance is a cache hit.
        assert sources.count("cache") >= 4
        summary = result.summary()
        assert summary["by_source"]["cache"]["count"] == sources.count("cache")


class TestOpenReplay:
    def test_zero_dropped_at_modest_rate(self):
        config = TraceConfig(
            arrival="uniform", rate=200.0, count=30, pool=5,
            family="chain", n=10, seed=1,
        )
        result = run_loadtest(config, target="local", target_kwargs=SERVICE_KWARGS)
        summary = result.summary(slo_ms=250.0)
        assert result.mode == "open"
        assert summary["dropped"] == 0 and summary["failed"] == 0
        assert summary["slo"]["attained"] == 30

    def test_latency_measured_from_scheduled_arrival(self):
        """Coordinated-omission correction: open-mode latency spans
        scheduled-arrival -> receive, so it can never be smaller than
        the send -> receive service time."""
        config = TraceConfig(arrival="uniform", rate=500.0, count=20, pool=3, n=8)
        result = run_loadtest(config, target="local", target_kwargs=SERVICE_KWARGS)
        for record in result.records:
            assert record["sent_s"] >= record["at_s"] - 1e-6
            service_ms = (record["recv_s"] - record["sent_s"]) * 1e3
            assert record["latency_ms"] >= service_ms - 1e-3

    def test_speed_rescales_the_schedule(self):
        config = TraceConfig(arrival="uniform", rate=10.0, count=4, pool=2, n=8)
        result = run_loadtest(
            config, target="local", target_kwargs=SERVICE_KWARGS, speed=100.0
        )
        # 4 events at 10 rps would take 0.4s; at 100x they fit in ~4ms.
        assert result.records[-1]["at_s"] == pytest.approx(0.004)
        assert result.summary()["dropped"] == 0

    def test_timeout_converts_to_dropped(self):
        # Three distinct instances: a repeat of one whose solve has
        # already finished is a cache hit, answered within the submit
        # call, before any timer can fire.
        events = [
            TraceEvent(index=i, at_s=(i + 1) * 1e-3, spec={"family": "chain", "n": 12, "seed": i})
            for i in range(3)
        ]
        result = run_loadtest(
            events=events, target="local", target_kwargs=SERVICE_KWARGS, timeout=1e-6
        )
        summary = result.summary()
        assert summary["dropped"] == 3
        assert all("timed out" in r["error"] for r in result.records)


class TestFleetTarget:
    def test_open_replay_against_live_fleet(self):
        """End to end over real shard processes: every request
        answered, every record stamped with the answering shard or
        answered in the front end, and the imbalance coefficient
        computed over the true fleet width from the shard-bound
        records."""
        config = TraceConfig(
            arrival="poisson", rate=150.0, count=24, pool=6,
            popularity="zipf", family="chain", n=10, seed=5,
        )
        result = run_loadtest(
            config, target="fleet", shards=2,
            target_kwargs=SERVICE_KWARGS, with_status=True,
        )
        summary = result.summary(slo_ms=500.0)
        assert summary["dropped"] == 0 and summary["failed"] == 0
        assert result.shards == 2 and result.target == "fleet:2"
        front = [r for r in result.records if r["route"] == "front"]
        assert all(r["shard"] is None for r in front)
        placed = [r for r in result.records if r["route"] != "front"]
        assert all(r["shard"] in (0, 1) for r in placed)
        assert len(summary["imbalance"]["counts"]) == 2
        assert sum(summary["imbalance"]["counts"]) == len(placed)
        # the post-replay status snapshot came from the router
        assert result.status["shards"] == 2
        assert result.status["totals"]["queue_depth"] == 0


class TestValidation:
    def test_needs_config_or_events(self):
        with pytest.raises(ReproError, match="TraceConfig or explicit events"):
            run_loadtest()

    def test_empty_events_rejected(self):
        with pytest.raises(ReproError, match="empty trace"):
            run_loadtest(CLOSED, events=[])

    def test_bad_mode_rejected(self):
        with pytest.raises(ReproError, match="mode"):
            run_loadtest(CLOSED, mode="sideways")

    def test_bad_speed_rejected(self):
        with pytest.raises(ReproError, match="speed"):
            run_loadtest(CLOSED, speed=0.0)

    def test_target_kwargs_refused_for_address_targets(self):
        with pytest.raises(ReproError, match="target_kwargs"):
            run_loadtest(
                CLOSED, target="/tmp/nonexistent.sock",
                target_kwargs={"backend": "serial"},
            )

    def test_explicit_events_replayed_verbatim(self):
        events = generate_trace(CLOSED)[:5]
        result = run_loadtest(
            CLOSED, events=events, target="local", target_kwargs=SERVICE_KWARGS
        )
        assert len(result.records) == 5
        assert [r["i"] for r in result.records] == [0, 1, 2, 3, 4]
