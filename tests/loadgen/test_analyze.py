"""The analyzer: ok/failed/dropped accounting, per-source and per-shard
breakdowns, SLO goodput and the shard-imbalance coefficient."""

import pytest

from repro.loadgen import analyze, latency_summary
from repro.loadgen.analyze import imbalance


def rec(i, latency_ms, *, ok=True, source="batch", shard=None, route=None, recv=1.0):
    return {
        "i": i,
        "ok": ok,
        "source": source,
        "shard": shard,
        "route": route,
        "recv_s": recv,
        "latency_ms": latency_ms,
    }


class TestAccounting:
    def test_ok_failed_dropped_partition(self):
        records = [
            rec(0, 5.0),
            rec(1, 9.0, ok=False),  # responded, ok: false
            {"i": 2, "ok": False, "recv_s": None, "latency_ms": None},  # dropped
        ]
        out = analyze(records)
        assert (out["requests"], out["ok"], out["failed"], out["dropped"]) == (
            3, 1, 1, 1,
        )

    def test_empty_input(self):
        out = analyze([])
        assert out["requests"] == 0 and out["latency_ms"] is None
        assert out["by_source"] == {} and out["imbalance"] is None
        assert out["by_route"] == {}

    def test_throughput_over_horizon(self):
        records = [rec(i, 1.0, recv=2.0) for i in range(10)]
        out = analyze(records)
        assert out["duration_s"] == 2.0 and out["throughput_rps"] == 5.0


class TestBreakdowns:
    def test_by_source_partitions_ok_requests(self):
        records = [
            rec(0, 10.0, source="batch"),
            rec(1, 1.0, source="cache"),
            rec(2, 1.5, source="cache"),
            rec(3, 2.0, source="delta"),
        ]
        out = analyze(records)
        assert set(out["by_source"]) == {"batch", "cache", "delta"}
        assert out["by_source"]["cache"]["count"] == 2
        assert out["by_source"]["batch"]["max_ms"] == 10.0

    def test_by_shard_and_imbalance(self):
        records = [rec(i, 1.0, shard=i % 2) for i in range(8)]
        out = analyze(records)
        assert out["by_shard"]["0"]["count"] == 4
        assert out["imbalance"]["counts"] == [4, 4]
        assert out["imbalance"]["cv"] == 0.0
        assert out["imbalance"]["peak_to_mean"] == 1.0

    def test_by_route_partitions_ok_requests(self):
        records = [
            rec(0, 1.0, route="ring"),
            rec(1, 2.0, route="ring"),
            rec(2, 8.0, route="spill"),
            rec(3, 3.0, route="affinity"),
            rec(4, 9.0, route="spill", ok=False),  # failed: not counted
        ]
        out = analyze(records)
        assert set(out["by_route"]) == {"ring", "spill", "affinity"}
        assert out["by_route"]["ring"]["count"] == 2
        assert out["by_route"]["spill"]["max_ms"] == 8.0

    def test_front_answers_count_by_route_but_not_by_shard(self):
        """A repeat answered in the fleet's front end carries route
        ``front`` and no shard, so it shows in the route split and
        leaves the per-shard counts to the ring-placed requests."""
        records = [
            rec(0, 6.0, shard=0, route="ring"),
            rec(1, 7.0, shard=1, route="ring"),
            rec(2, 0.2, source="cache", route="front"),
            rec(3, 0.3, source="cache", route="front"),
            rec(4, 0.1, source="cache", route="front"),
        ]
        out = analyze(records)
        assert {r: s["count"] for r, s in out["by_route"].items()} == {
            "front": 3,
            "ring": 2,
        }
        assert out["imbalance"]["counts"] == [1, 1]
        assert set(out["by_shard"]) == {"0", "1"}

    def test_non_fleet_records_have_no_route_breakdown(self):
        records = [rec(i, 1.0) for i in range(4)]  # route is None
        assert analyze(records)["by_route"] == {}

    def test_starved_shard_zero_filled(self):
        """A shard that absorbed nothing still shows up in the
        imbalance coefficient when the fleet width is known — the E12
        [72, 72, 0, 48] shape must not flatter itself."""
        records = [rec(i, 1.0, shard=0) for i in range(6)]
        out = analyze(records, shards=3)
        assert out["imbalance"]["counts"] == [6, 0, 0]
        assert out["imbalance"]["peak_to_mean"] == 3.0


class TestSlo:
    def test_goodput_counts_ok_and_fast(self):
        records = [
            rec(0, 5.0),
            rec(1, 50.0),
            rec(2, 500.0),  # too slow
            rec(3, 5.0, ok=False),  # failed: never goodput
        ]
        out = analyze(records, slo_ms=100.0)
        assert out["slo"]["threshold_ms"] == 100.0
        assert out["slo"]["attained"] == 2
        assert out["slo"]["goodput_fraction"] == 0.5

    def test_no_slo_requested(self):
        assert analyze([rec(0, 1.0)])["slo"] is None


class TestHelpers:
    def test_latency_summary_empty_is_none(self):
        assert latency_summary([]) is None

    def test_latency_summary_fields(self):
        out = latency_summary([2.0, 4.0, 6.0, 8.0])
        assert out["count"] == 4 and out["mean_ms"] == 5.0
        assert out["p50_ms"] == 5.0 and out["max_ms"] == 8.0

    def test_imbalance_total_hotspot(self):
        out = imbalance([12, 0, 0, 0])
        assert out["peak_to_mean"] == 4.0
        assert out["cv"] == pytest.approx(1.7321, abs=1e-4)

    def test_imbalance_empty_counts(self):
        assert imbalance([])["cv"] == 0.0
        assert imbalance([0, 0])["peak_to_mean"] == 0.0
