"""E14 — ring routing: every shard-bound request on its ring owner.

The fleet places every request the front end cannot answer on the ring
owner of its instance key (:class:`~repro.service.routing.HashRing`),
and answers every repeat of an answered instance from its own table.
Under a Zipf-popular workload the ring alone is uneven — it would place
the canonical 400-request trace ``[8, 199, 97, 96]`` on 4 shards, CV
0.6762 (``tests/loadgen/test_hashring_imbalance.py``) — but the front
end answers most of those requests itself. This benchmark gates what the
ring guarantees:

* **live placement (the E13 harness)** — the pinned trace replayed
  open-loop through a real 4-shard fleet: no instance key may be
  answered by two shards. The table reports the front end's share, the
  per-shard counts of the requests placed on shards and their CV, and
  p50/p99 latency. The counts are reported, not gated: repeats that
  arrive while their key's first solve is in flight coalesce onto its
  owner, so the CV follows the arrival timing, not the placement;
* **cache hit-rate parity** — the E12 duplicate-heavy stream through a
  4-shard fleet vs a single shard: the fleet-wide hit rate (which
  counts the front end's answers as hits) stays within the E12 delta
  bar;
* **scale cycle, zero drops** — an elastic fleet (2..4 shards) driven
  hot until it grows and idle until it shrinks: at least one scale-up
  and one scale-down must happen, and **every** accepted request must
  come back ``ok`` — no drops, no give-ups, across both handoffs.

``--smoke`` runs all three with the acceptance gates (thresholds read
from ``BENCH_e14_routing.json``, measurement recorded back into it)
and exits non-zero on violation — the CI hook.
"""

from __future__ import annotations

import sys

from repro.loadgen import TraceConfig, generate_trace, run_loadtest
from repro.problems.specs import route_key_from_spec
from repro.service.fleet import FleetRouter
from repro.util.bench import load_bars, record
from repro.util.tables import format_table

BENCH_NAME = "e14_routing"

#: fallback gate thresholds; the authoritative copy lives in
#: BENCH_e14_routing.json at the repo root (see repro.util.bench).
DEFAULT_BARS = {
    "max_split_keys": 0,  # instance keys answered by more than one shard
    "hit_rate_delta": 0.05,  # E12 parity bar: |fleet - single| hit rate
    "max_dropped": 0,  # accepted requests lost across the scale cycle
}

#: the canonical Zipf workload the baseline was pinned on (E13)
BASELINE_TRACE = TraceConfig(
    count=400, pool=16, popularity="zipf", zipf_s=1.1,
    family="chain", n=24, seed=7,
)
SHARDS = 4

#: per-shard configuration shared by every live axis: serial in-shard
#: execution so measured effects are attributable to routing, not pools
SHARD_KWARGS = dict(backend="serial", method="sequential")


# -- axis B: live placement under the E13 harness -----------------------------


def live_placement_stats(speed: float = 25.0) -> dict:
    """The pinned trace replayed open-loop through a real 4-shard
    fleet. Each shard-answered record's ``shard`` is grouped by its
    instance key: a key answered by two shards is a split key."""
    events = generate_trace(BASELINE_TRACE)
    result = run_loadtest(
        BASELINE_TRACE,
        events=events,
        target="fleet",
        shards=SHARDS,
        speed=speed,
        target_kwargs=SHARD_KWARGS,
        with_status=True,
    )
    summary = result.summary()
    status = result.status or {}
    shards_of: dict[bytes, set] = {}
    for r in result.records:
        if r["shard"] is not None:
            key = route_key_from_spec(events[r["i"]].spec)
            shards_of.setdefault(key, set()).add(r["shard"])
    imb = summary["imbalance"] or {}
    latency = summary["latency_ms"] or {}
    return {
        "trace": BASELINE_TRACE.to_dict(),
        "shards": SHARDS,
        "speed": speed,
        "requests": summary["requests"],
        "ok": summary["ok"],
        "failed": summary["failed"],
        "dropped": summary["dropped"],
        "front_answers": (summary["by_route"].get("front") or {}).get("count", 0),
        "placed": sum(imb.get("counts", [])),
        "imbalance": summary["imbalance"],
        "keys": len(shards_of),
        "split_keys": sum(1 for owners in shards_of.values() if len(owners) > 1),
        "solves": (summary["by_source"].get("batch") or {}).get("count", 0),
        "p50_ms": latency.get("p50_ms"),
        "p99_ms": latency.get("p99_ms"),
        "cache_hit_rate": (status.get("totals") or {}).get("cache_hit_rate"),
        "wall_s": summary["wall_s"],
    }


def live_placement_table(stats: dict | None = None):
    s = stats if stats is not None else live_placement_stats()
    imb = s["imbalance"] or {}
    rows = [
        ("requests (ok/failed/dropped)", f"{s['ok']} / {s['failed']} / {s['dropped']}"),
        ("answered in the front end / placed on shards", f"{s['front_answers']} / {s['placed']}"),
        ("keys placed / answered by two shards", f"{s['keys']} / {s['split_keys']}"),
        ("cold solves", s["solves"]),
        ("per-shard counts", "/".join(str(c) for c in imb.get("counts", []))),
        ("cv / peak-to-mean", f"{imb.get('cv', 0.0):.4f} / {imb.get('peak_to_mean', 0.0):.2f}"),
        ("latency p50 / p99 ms", f"{s['p50_ms']} / {s['p99_ms']}"),
        ("fleet cache hit rate", s["cache_hit_rate"]),
        ("wall s", f"{s['wall_s']:.2f}"),
    ]
    return format_table(
        ["fact", "value"],
        rows,
        title=(
            f"E14b: the pinned Zipf-400 trace replayed live ({SHARDS}-shard "
            "fleet, E13 open-loop harness). The front end answers repeats "
            "itself; every other request goes to its ring owner, so no key "
            "is answered by two shards. The per-shard counts are the "
            "requests placed on shards, reported, not gated."
        ),
    )


# -- axis C: cache hit-rate parity --------------------------------------------


def _duplicate_workload(uniques: int = 8, repeats: int = 12) -> list[dict]:
    """The E12 duplicate-heavy stream: ``uniques`` distinct instances
    interleaved ``repeats`` times — what per-shard caches exist for."""
    families = ("chain", "bst", "bottleneck")
    methods = ("sequential", "huang", "huang-banded")
    base = []
    for i in range(uniques):
        family = families[i % len(families)]
        method = methods[(i // 3) % len(methods)]
        n = (28, 36, 44)[i % 3] if method == "sequential" else (16, 20, 24)[i % 3]
        base.append({"family": family, "n": n, "seed": i, "method": method})
    return [base[i % uniques] for i in range(uniques * repeats)]


def _run_fleet(shards: int, specs: list[dict], passes: int = 1, **kwargs) -> dict:
    """Drive ``specs`` through a fresh fleet ``passes`` times."""
    router = FleetRouter(shards, **SHARD_KWARGS, **kwargs)
    try:
        router.start()
        failures = 0
        for _ in range(passes):
            records = router.request_many(specs)
            failures += sum(1 for r in records if not r.get("ok"))
        status = router.status()
    finally:
        router.close()
    return {
        "shards": shards,
        "requests": len(specs) * passes,
        "failures": failures,
        "cache_hit_rate": status["totals"]["cache_hit_rate"],
    }


def hit_rate_stats(uniques: int = 8, repeats: int = 12) -> dict:
    """Fleet hit rate vs the single service on the duplicate stream
    (two passes; the second is where the caches answer)."""
    specs = _duplicate_workload(uniques, repeats)
    single = _run_fleet(1, specs, passes=2)
    fleet = _run_fleet(SHARDS, specs, passes=2)
    return {
        "uniques": uniques,
        "requests": len(specs) * 2,
        "single_hit_rate": single["cache_hit_rate"],
        "fleet_hit_rate": fleet["cache_hit_rate"],
        "delta": abs(single["cache_hit_rate"] - fleet["cache_hit_rate"]),
        "single": single,
        "fleet": fleet,
    }


def hit_rate_table(stats: dict | None = None):
    s = stats if stats is not None else hit_rate_stats()
    rows = [
        ("single service (1 shard)", f"{s['single_hit_rate']:.3f}", "-"),
        (
            f"fleet ({SHARDS} shards)",
            f"{s['fleet_hit_rate']:.3f}",
            f"{s['delta']:.3f}",
        ),
    ]
    return format_table(
        ["path", "cache hit rate", "delta"],
        rows,
        title=(
            f"E14c: duplicate-heavy stream ({s['uniques']} uniques, "
            f"{s['requests']} requests over two passes) over the ring. "
            "Every repeat meets its key's owner or the front end's table, "
            "so the fleet keeps the single service's hit rate. The hit "
            "rate counts the repeats the front end answers as hits."
        ),
    )


# -- axis D: elastic scale cycle, zero drops -----------------------------------


def scale_cycle_stats(count: int = 24) -> dict:
    """Grow 2 -> 3+ shards under pressure, shrink back when idle; every
    accepted request must come back ``ok`` across both handoffs. Each
    hot pass is new to the fleet: the front end answers repeats, which
    add no demand."""
    hot = [
        [{"family": "chain", "n": 24, "seed": 2000 + count * p + i} for i in range(count)]
        for p in range(3)
    ]
    cold = [{"family": "chain", "n": 8, "seed": 0}]
    failures = 0
    widths = []
    with FleetRouter(
        2,
        **SHARD_KWARGS,
        min_shards=2,
        max_shards=SHARDS,
        scale_up_depth=6.0,
        scale_down_depth=1.0,
    ) as router:
        for batch in hot:  # sustained pressure: the demand EWMA must climb
            records = router.request_many(batch)
            failures += sum(1 for r in records if not r.get("ok"))
            widths.append(len(router._shards))
        grown = max(widths)
        for _ in range(10):  # sustained idleness: let the EWMA decay
            records = router.request_many(cold)
            failures += sum(1 for r in records if not r.get("ok"))
            widths.append(len(router._shards))
        status = router.status()
    return {
        "requests": 3 * count + 10,
        "failures": failures,
        "widths": widths,
        "grown_to": grown,
        "settled_at": widths[-1],
        "scale_ups": status["router"]["scale_ups"],
        "scale_downs": status["router"]["scale_downs"],
        "gave_up": status["router"]["gave_up"],
        "redispatched": status["router"]["redispatched"],
    }


def scale_cycle_table(stats: dict | None = None):
    s = stats if stats is not None else scale_cycle_stats()
    rows = [
        ("requests through the cycle", s["requests"]),
        ("failed / gave up", f"{s['failures']} / {s['gave_up']}"),
        ("width trajectory", " -> ".join(str(w) for w in s["widths"])),
        ("scale-ups / scale-downs", f"{s['scale_ups']} / {s['scale_downs']}"),
        ("re-dispatched", s["redispatched"]),
    ]
    return format_table(
        ["fact", "value"],
        rows,
        title=(
            "E14d: elastic fleet (2..4 shards), driven hot then idle. "
            "Scale-up respawns retired indices on the same sockets (same "
            "ring segment); scale-down only retires a shard with zero "
            "requests in flight — so the cycle drops nothing."
        ),
    )


# -- the smoke gate -------------------------------------------------------------


def smoke_stats(bars: dict | None = None) -> dict:
    """The smoke measurement, JSON-ready (what the trajectory records)."""
    return {
        "live": live_placement_stats(),
        "hit_rate": hit_rate_stats(),
        "scale": scale_cycle_stats(),
    }


def smoke_failures(stats: dict, bars: dict) -> list[str]:
    """Gate violations for one measurement against one bar set."""
    failed = []
    live, hr, scale = stats["live"], stats["hit_rate"], stats["scale"]
    if live["split_keys"] > bars["max_split_keys"]:
        failed.append(
            f"{live['split_keys']} of {live['keys']} instance keys were answered "
            f"by more than one shard (bar {bars['max_split_keys']})"
        )
    if live["failed"] or live["dropped"] > bars["max_dropped"]:
        failed.append(
            f"live replay lost requests: {live['failed']} failed, "
            f"{live['dropped']} dropped"
        )
    if hr["delta"] > bars["hit_rate_delta"]:
        failed.append(
            f"fleet cache hit rate {hr['fleet_hit_rate']:.3f} drifted "
            f"{hr['delta']:.3f} from the single service's "
            f"{hr['single_hit_rate']:.3f} (bar {bars['hit_rate_delta']:.2f})"
        )
    if not scale["scale_ups"]:
        failed.append("the fleet never scaled up under sustained pressure")
    if not scale["scale_downs"]:
        failed.append("the fleet never scaled back down when idle")
    if scale["failures"] or scale["gave_up"] > bars["max_dropped"]:
        failed.append(
            f"requests lost across the scale cycle: {scale['failures']} failed, "
            f"{scale['gave_up']} gave up (bar {bars['max_dropped']})"
        )
    return failed


def smoke() -> int:
    """CI guard for the routing acceptance bars. Bars come from
    BENCH_e14_routing.json; the measurement is recorded back into it
    (the perf trajectory CI uploads)."""
    bars = load_bars(BENCH_NAME, DEFAULT_BARS)
    stats = smoke_stats(bars)
    print(live_placement_table(stats=stats["live"]))
    print()
    print(hit_rate_table(stats=stats["hit_rate"]))
    print()
    print(scale_cycle_table(stats=stats["scale"]))
    live = stats["live"]
    print(
        f"\nsplit keys {live['split_keys']}/{live['keys']} (bar <= "
        f"{bars['max_split_keys']}) | live cv {live['imbalance']['cv']:.4f} "
        f"(reported) | hit-rate delta {stats['hit_rate']['delta']:.3f} (bar "
        f"{bars['hit_rate_delta']:.2f}) | scale ups/downs "
        f"{stats['scale']['scale_ups']}/{stats['scale']['scale_downs']} | lost "
        f"{stats['scale']['failures'] + stats['scale']['gave_up']} (bar "
        f"{bars['max_dropped']})"
    )
    record(BENCH_NAME, stats, bars=bars)
    failed = smoke_failures(stats, bars)
    for reason in failed:
        print(f"FAIL: {reason}")
    if failed:
        return 1
    print("OK: routing acceptance bars met")
    return 0


def test_e14_live_placement(report, benchmark):
    report("e14_routing", benchmark.pedantic(live_placement_table, rounds=1, iterations=1))


def test_e14_hit_rate(report, benchmark):
    report("e14_routing", benchmark.pedantic(hit_rate_table, rounds=1, iterations=1))


def test_e14_scale_cycle(report, benchmark):
    report("e14_routing", benchmark.pedantic(scale_cycle_table, rounds=1, iterations=1))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--smoke" in argv:
        return smoke()
    print(live_placement_table())
    print()
    print(hit_rate_table())
    print()
    print(scale_cycle_table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
