"""E13 — trace-driven workload replay: tail-latency SLOs on a live fleet.

Every earlier benchmark gates *throughput* (how fast a batch drains) or
*correctness*; none of them says what a user at the end of a socket
actually experiences. This benchmark replays a seeded, versioned
workload trace (:mod:`repro.loadgen`) against a live 4-shard fleet and
gates the **latency distribution**:

* **tail-latency SLO** — a 200-request open-loop trace (Poisson
  arrivals at 60 req/s, Zipf-popular instances over a 12-entry pool)
  replayed at its recorded timestamps through one pipelined connection.
  Latency is measured from the *scheduled* arrival (coordinated-
  omission-corrected: a client that falls behind cannot hide queueing
  delay). Acceptance bars: **p99 cache-hit latency** under the bar in
  ``BENCH_e13_latency.json``, and **zero** dropped or failed requests;
* **replay determinism** — the same seeded *closed* trace (sequential
  replay: next request leaves only after the previous response lands)
  driven twice against two fresh 2-shard fleets must yield identical
  per-request ``(ok, value, source)`` attributions, and serialising the
  trace twice must yield byte-identical files. Closed mode is the
  deterministic baseline on purpose: open-loop duplicate attributions
  ("coalesced" vs "cache") legitimately depend on whether the twin was
  still in flight, so the determinism gate replays the race-free
  discipline. Violations fail unconditionally — no bar to loosen;
* **shard balance under Zipf** (reported, not gated) — the per-shard
  request counts and imbalance coefficient the replay throws off; the
  measured CV is the consistent-hashing baseline ROADMAP item 4's
  load-aware routing must beat (pinned in
  ``tests/loadgen/test_hashring_imbalance.py``).

``--smoke`` runs both gated axes (thresholds read from
``BENCH_e13_latency.json``, measurement recorded back into it) and
exits non-zero on violation — the CI hook.
"""

from __future__ import annotations

import sys

from repro.loadgen import TraceConfig, run_loadtest, trace_lines
from repro.util.bench import load_bars, record
from repro.util.tables import format_table

BENCH_NAME = "e13_latency"

#: fallback gate thresholds; the authoritative copy lives in
#: BENCH_e13_latency.json at the repo root (see repro.util.bench).
#: The p99 bar is deliberately generous for shared CI runners — the
#: trajectory, not the bar, is what shows improvements.
DEFAULT_BARS = {
    "p99_cache_hit_ms": 250.0,  # p99 latency of cache-hit responses
    "max_dropped": 0,  # requests that never got a response
    "max_failed": 0,  # responses with ok: false
}

#: per-shard configuration: serial in-shard execution so the measured
#: latencies are attributable to queueing + routing, not nested pools
SHARD_KWARGS = dict(backend="serial", method="sequential")

#: the canonical E13 open-loop workload: Zipf-popular chain instances
#: under Poisson arrivals — enough requests for a meaningful p99 (the
#: 99th percentile of 200 samples interpolates between ranks 198/199)
OPEN_TRACE = TraceConfig(
    arrival="poisson",
    rate=60.0,
    count=200,
    popularity="zipf",
    pool=12,
    zipf_s=1.1,
    family="chain",
    n=24,
    seed=13,
)

#: the determinism workload: closed-loop (sequential) replay of a
#: Zipf stream, small enough to drive twice against fresh fleets
CLOSED_TRACE = TraceConfig(
    arrival="closed",
    count=60,
    popularity="zipf",
    pool=8,
    zipf_s=1.1,
    family="chain",
    n=20,
    seed=21,
)


def latency_stats(slo_ms: float = DEFAULT_BARS["p99_cache_hit_ms"]) -> dict:
    """Axis 1: the open-loop replay against a live 4-shard fleet."""
    result = run_loadtest(
        OPEN_TRACE,
        target="fleet",
        shards=4,
        target_kwargs=dict(SHARD_KWARGS),
        with_status=True,
    )
    summary = result.summary(slo_ms=slo_ms)
    return {
        "trace": OPEN_TRACE.to_dict(),
        "shards": 4,
        "summary": summary,
        "p99_cache_hit_ms": (summary["by_source"].get("cache") or {}).get("p99_ms"),
        "queue_depth_after": (result.status or {})
        .get("totals", {})
        .get("queue_depth"),
    }


def latency_table(stats: dict | None = None):
    s = stats if stats is not None else latency_stats()
    summary = s["summary"]
    rows = []
    overall = summary["latency_ms"]
    rows.append(
        (
            "all",
            overall["count"],
            f"{overall['p50_ms']:.2f}",
            f"{overall['p95_ms']:.2f}",
            f"{overall['p99_ms']:.2f}",
            f"{overall['max_ms']:.2f}",
        )
    )
    for source, dist in summary["by_source"].items():
        rows.append(
            (
                source,
                dist["count"],
                f"{dist['p50_ms']:.2f}",
                f"{dist['p95_ms']:.2f}",
                f"{dist['p99_ms']:.2f}",
                f"{dist['max_ms']:.2f}",
            )
        )
    imb = summary["imbalance"] or {}
    rows.append(
        (
            "shard counts",
            "/".join(str(c) for c in imb.get("counts", [])),
            "-",
            "-",
            f"cv={imb.get('cv', 0.0):.3f}",
            f"peak={imb.get('peak_to_mean', 0.0):.2f}x",
        )
    )
    return format_table(
        ["population", "n", "p50 ms", "p95 ms", "p99 ms", "max ms"],
        rows,
        title=(
            f"E13a: {summary['requests']}-request Zipf+Poisson trace, "
            f"open-loop at {OPEN_TRACE.rate:.0f} req/s against a live "
            f"{s['shards']}-shard fleet. Latency from *scheduled* arrival "
            "(coordinated omission corrected); per-source split shows what "
            "the cache tiers buy the tail. The shard-count row is the "
            "consistent-hashing imbalance ROADMAP item 4 must beat."
        ),
    )


def determinism_stats() -> dict:
    """Axis 2: byte-identical serialisation + attribution-identical
    closed replays against two fresh fleets."""
    lines_match = trace_lines(CLOSED_TRACE) == trace_lines(CLOSED_TRACE)

    def _replay():
        result = run_loadtest(
            CLOSED_TRACE,
            target="fleet",
            shards=2,
            target_kwargs=dict(SHARD_KWARGS),
        )
        return [(r["i"], r["ok"], r["value"], r["source"]) for r in result.records]

    first = _replay()
    second = _replay()
    mismatches = [
        {"i": a[0], "first": a[1:], "second": b[1:]}
        for a, b in zip(first, second)
        if a != b
    ]
    sources = [row[3] for row in first]
    return {
        "trace": CLOSED_TRACE.to_dict(),
        "requests": len(first),
        "lines_match": lines_match,
        "replays_match": not mismatches,
        "mismatches": mismatches[:10],
        "source_histogram": {
            source: sources.count(source) for source in sorted(set(sources))
        },
    }


def determinism_table(stats: dict | None = None):
    s = stats if stats is not None else determinism_stats()
    histogram = ", ".join(f"{k}: {v}" for k, v in s["source_histogram"].items())
    rows = [
        ("trace serialises byte-identically", "yes" if s["lines_match"] else "NO"),
        (
            "two replays, identical (ok, value, source)",
            "yes" if s["replays_match"] else f"NO ({len(s['mismatches'])} differ)",
        ),
        ("requests per replay", s["requests"]),
        ("source attribution histogram", histogram),
    ]
    return format_table(
        ["fact", "value"],
        rows,
        title=(
            "E13b: the same seeded closed trace replayed twice against two "
            "fresh 2-shard fleets. Sequential replay makes cache evolution "
            "race-free, so the per-request source attributions must match "
            "exactly — replayability is what makes a latency regression "
            "reproducible months later."
        ),
    )


def smoke_stats(bars: dict | None = None) -> dict:
    """The smoke measurement, JSON-ready (what the trajectory records)."""
    bars = bars if bars is not None else load_bars(BENCH_NAME, DEFAULT_BARS)
    return {
        "latency": latency_stats(slo_ms=bars["p99_cache_hit_ms"]),
        "determinism": determinism_stats(),
    }


def smoke_failures(stats: dict, bars: dict) -> list[str]:
    """Gate violations for one measurement against one bar set."""
    failed = []
    summary = stats["latency"]["summary"]
    p99_hit = stats["latency"]["p99_cache_hit_ms"]
    if p99_hit is None:
        failed.append(
            "no cache-hit responses in the open-loop replay (the Zipf head "
            "should repeat within a 12-entry pool) — p99 gate is vacuous"
        )
    elif p99_hit > bars["p99_cache_hit_ms"]:
        failed.append(
            f"p99 cache-hit latency {p99_hit:.2f} ms above the "
            f"{bars['p99_cache_hit_ms']:.0f} ms bar"
        )
    if summary["dropped"] > bars["max_dropped"]:
        failed.append(f"{summary['dropped']} requests dropped (no response)")
    if summary["failed"] > bars["max_failed"]:
        failed.append(f"{summary['failed']} requests answered ok: false")
    det = stats["determinism"]
    if not det["lines_match"]:
        failed.append("trace serialisation is not byte-deterministic")
    if not det["replays_match"]:
        failed.append(
            f"closed replays diverged on {len(det['mismatches'])} requests "
            f"(first few: {det['mismatches'][:3]})"
        )
    return failed


def smoke() -> int:
    """CI guard for the E13 acceptance bars. Bars come from
    BENCH_e13_latency.json; the measurement is recorded back into it
    (the perf trajectory CI uploads)."""
    bars = load_bars(BENCH_NAME, DEFAULT_BARS)
    stats = smoke_stats(bars)
    print(latency_table(stats=stats["latency"]))
    print()
    print(determinism_table(stats=stats["determinism"]))
    summary = stats["latency"]["summary"]
    p99_hit = stats["latency"]["p99_cache_hit_ms"]
    print(
        f"\np99 cache-hit {p99_hit if p99_hit is not None else float('nan'):.2f} ms "
        f"(bar {bars['p99_cache_hit_ms']:.0f} ms) | dropped {summary['dropped']} "
        f"(bar {bars['max_dropped']}) | failed {summary['failed']} "
        f"(bar {bars['max_failed']}) | goodput "
        f"{summary['slo']['goodput_fraction']:.3f}"
    )
    record(BENCH_NAME, stats, bars=bars)
    failed = smoke_failures(stats, bars)
    for reason in failed:
        print(f"FAIL: {reason}")
    if failed:
        return 1
    print("OK: latency SLO bars met")
    return 0


def test_e13_latency(report, benchmark):
    report("e13_latency", benchmark.pedantic(latency_table, rounds=1, iterations=1))


def test_e13_determinism(report, benchmark):
    report(
        "e13_latency", benchmark.pedantic(determinism_table, rounds=1, iterations=1)
    )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--smoke" in argv:
        return smoke()
    print(latency_table())
    print()
    print(determinism_table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
