"""E14 — load-aware routing: bounded-load hashing vs the Zipf baseline.

E13 pinned what pure consistent hashing costs under a Zipf-popular
workload: per-shard counts ``[8, 199, 97, 96]`` on the canonical
400-request trace — CV 0.6762, peak-to-mean 1.99, one shard absorbing
2x its fair share (``tests/loadgen/test_hashring_imbalance.py``). This
benchmark gates the ROADMAP item 4 answer (``repro.service.routing``):

* **load-factor sweep (offline)** — the exact deterministic placements
  of bounded-load routing at ``load_factor`` 1.25 and ``inf`` over the
  pinned Zipf-400 trace via
  :func:`repro.service.routing.simulate_routing`: 1.25 must land
  **strictly below** the pinned CV/peak baseline, and ``inf`` (the
  default, and so the baseline row) must reproduce a direct
  :class:`~repro.service.routing.HashRing` tally exactly;
* **live imbalance (the E13 harness)** — the same trace replayed
  open-loop through a real 4-shard fleet at ``load_factor=1.25``;
  the per-shard record counts the analyzer measures must also beat the
  baseline (the live router adds in-flight pressure to the load signal,
  so this is the end-to-end check, not a re-run of the simulation).
  The front end answers a repeat of an instance a shard has already
  answered, so only the requests bound for shards are placed and
  counted; the table reports both numbers;
* **cache hit-rate parity** — the E12 duplicate-heavy stream through a
  bounded 4-shard fleet vs a single shard: spills move keys, but the
  affinity hint keeps repeats together and moved keys re-materialise
  from the shared L2, so the fleet-wide hit rate (which counts the
  front end's answers as hits) stays within the E12 delta bar;
* **scale cycle, zero drops** — an elastic fleet (2..4 shards) driven
  hot until it grows and idle until it shrinks: at least one scale-up
  and one scale-down must happen, and **every** accepted request must
  come back ``ok`` — no drops, no give-ups, across both handoffs.

``--smoke`` runs all four with the acceptance gates (thresholds read
from ``BENCH_e14_routing.json``, measurement recorded back into it)
and exits non-zero on violation — the CI hook.
"""

from __future__ import annotations

import math
import sys
from collections import Counter

from repro.loadgen import TraceConfig, generate_trace, run_loadtest
from repro.loadgen.analyze import imbalance
from repro.problems.specs import route_key_from_spec
from repro.service.fleet import FleetRouter
from repro.service.routing import HashRing, simulate_routing
from repro.util.bench import load_bars, record
from repro.util.tables import format_table

BENCH_NAME = "e14_routing"

#: fallback gate thresholds; the authoritative copy lives in
#: BENCH_e14_routing.json at the repo root (see repro.util.bench).
#: max_cv / max_peak_to_mean ARE the pinned ring baseline — the bounded
#: router passes by beating them strictly.
DEFAULT_BARS = {
    "max_cv": 0.6762,  # pinned Zipf-400 ring CV the bounded router must beat
    "max_peak_to_mean": 1.99,  # pinned ring peak-to-mean, same trace
    "hit_rate_delta": 0.05,  # E12 parity bar: |bounded fleet - single| hit rate
    "max_dropped": 0,  # accepted requests lost across the scale cycle
}

#: the canonical Zipf workload the baseline was pinned on (E13)
BASELINE_TRACE = TraceConfig(
    count=400, pool=16, popularity="zipf", zipf_s=1.1,
    family="chain", n=24, seed=7,
)
SHARDS = 4
LOAD_FACTOR = 1.25

#: per-shard configuration shared by every live axis: serial in-shard
#: execution so measured effects are attributable to routing, not pools
SHARD_KWARGS = dict(backend="serial", method="sequential")


def _trace_keys(config: TraceConfig = BASELINE_TRACE) -> list[bytes]:
    """The pinned trace's route keys, in arrival order."""
    return [route_key_from_spec(ev.spec) for ev in generate_trace(config)]


# -- axis A: offline load-factor sweep -----------------------------------------


def policy_sweep_stats() -> dict:
    """Deterministic placements over the pinned trace at the default
    factor (``inf``, the ring baseline) and at :data:`LOAD_FACTOR`."""
    keys = _trace_keys()
    runs = []
    for factor in (math.inf, LOAD_FACTOR):
        sim = simulate_routing(keys, range(SHARDS), load_factor=factor)
        sim.update(imbalance(sim["counts"]))
        runs.append(sim)
    ring, bounded = runs
    owners = Counter(HashRing(range(SHARDS)).route(key) for key in keys)
    return {
        "trace": BASELINE_TRACE.to_dict(),
        "shards": SHARDS,
        "ring": ring,
        "bounded": bounded,
        "inf_degenerates_to_ring": (
            ring["counts"] == [owners.get(s, 0) for s in range(SHARDS)]
            and ring["tags"] == {"ring": len(keys)}
        ),
    }


def policy_sweep_table(stats: dict | None = None):
    s = stats if stats is not None else policy_sweep_stats()
    rows = []
    for label, key in (
        ("c=inf (ring baseline)", "ring"),
        (f"c={LOAD_FACTOR}", "bounded"),
    ):
        run = s[key]
        rows.append(
            (
                label,
                "/".join(str(c) for c in run["counts"]),
                f"{run['cv']:.4f}",
                f"{run['peak_to_mean']:.2f}",
                ", ".join(f"{t}:{n}" for t, n in run["tags"].items()),
            )
        )
    return format_table(
        ["load factor", "per-shard counts", "cv", "peak/mean", "route tags"],
        rows,
        title=(
            f"E14a: bounded-load routing over the pinned Zipf-400 trace, "
            f"{SHARDS} shards (offline simulation — deterministic). The "
            "c=inf row IS the pinned ring baseline; c=1.25 must beat it."
        ),
    )


# -- axis B: live imbalance under the E13 harness ------------------------------


def live_imbalance_stats(speed: float = 25.0) -> dict:
    """The pinned trace replayed open-loop through a real bounded-load
    fleet; imbalance measured from the answering-shard attribution of
    the records that came back."""
    result = run_loadtest(
        BASELINE_TRACE,
        target="fleet",
        shards=SHARDS,
        speed=speed,
        target_kwargs={**SHARD_KWARGS, "load_factor": LOAD_FACTOR},
        with_status=True,
    )
    summary = result.summary()
    status = result.status or {}
    imb = summary["imbalance"] or {}
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
        "by_route": {
            route: (stats_ or {}).get("count", 0)
            for route, stats_ in (summary.get("by_route") or {}).items()
        },
        "route_tags": (status.get("router") or {}).get("route_tags"),
        "cache_hit_rate": (status.get("totals") or {}).get("cache_hit_rate"),
        "wall_s": summary["wall_s"],
    }


def live_imbalance_table(stats: dict | None = None):
    s = stats if stats is not None else live_imbalance_stats()
    imb = s["imbalance"] or {}
    rows = [
        ("requests (ok/failed/dropped)", f"{s['ok']} / {s['failed']} / {s['dropped']}"),
        ("answered in the front end / placed on shards", f"{s['front_answers']} / {s['placed']}"),
        ("per-shard counts", "/".join(str(c) for c in imb.get("counts", []))),
        ("cv (pinned ring baseline 0.6762)", f"{imb.get('cv', 0.0):.4f}"),
        ("peak-to-mean (baseline 1.99)", f"{imb.get('peak_to_mean', 0.0):.2f}"),
        ("route decisions", ", ".join(f"{t}:{n}" for t, n in (s["by_route"] or {}).items())),
        ("fleet cache hit rate", s["cache_hit_rate"]),
        ("wall s", f"{s['wall_s']:.2f}"),
    ]
    return format_table(
        ["fact", "value"],
        rows,
        title=(
            f"E14b: the same Zipf-400 trace replayed live ({SHARDS}-shard "
            f"fleet, load_factor={LOAD_FACTOR}, E13 open-loop "
            "harness). The live load signal adds in-flight pressure to "
            "the placement counts, so this is the end-to-end gate. The "
            "front end answers repeats itself, so the CV and peak gates "
            "count only the requests placed on shards."
        ),
    )


# -- axis C: cache hit-rate parity under spills --------------------------------


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
        "route_tags": status["router"]["route_tags"],
    }


def hit_rate_stats(uniques: int = 8, repeats: int = 12) -> dict:
    """Bounded-fleet hit rate vs the single service on the duplicate
    stream (two passes; the second is where the caches answer)."""
    specs = _duplicate_workload(uniques, repeats)
    single = _run_fleet(1, specs, passes=2)
    fleet = _run_fleet(SHARDS, specs, passes=2, load_factor=LOAD_FACTOR)
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
            f"bounded fleet ({SHARDS} shards)",
            f"{s['fleet_hit_rate']:.3f}",
            f"{s['delta']:.3f}",
        ),
    ]
    return format_table(
        ["path", "cache hit rate", "delta"],
        rows,
        title=(
            f"E14c: duplicate-heavy stream ({s['uniques']} uniques, "
            f"{s['requests']} requests over two passes) under bounded-load "
            "routing. The affinity hint keeps a spilled key's repeats "
            "together; keys that do move re-materialise from the shared "
            "L2 — so spilling costs (almost) no hit rate. The hit rate "
            "counts the repeats the front end answers as hits."
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
        load_factor=LOAD_FACTOR,
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
        "sweep": policy_sweep_stats(),
        "live": live_imbalance_stats(),
        "hit_rate": hit_rate_stats(),
        "scale": scale_cycle_stats(),
    }


def smoke_failures(stats: dict, bars: dict) -> list[str]:
    """Gate violations for one measurement against one bar set."""
    failed = []
    sweep, live = stats["sweep"], stats["live"]
    hr, scale = stats["hit_rate"], stats["scale"]
    for label, run in (("offline", sweep["bounded"]), ("live", live["imbalance"])):
        if run["cv"] >= bars["max_cv"]:
            failed.append(
                f"{label} bounded-router CV {run['cv']:.4f} does not beat the "
                f"pinned ring baseline {bars['max_cv']}"
            )
        if run["peak_to_mean"] >= bars["max_peak_to_mean"]:
            failed.append(
                f"{label} bounded-router peak-to-mean {run['peak_to_mean']:.2f} "
                f"does not beat the pinned ring baseline {bars['max_peak_to_mean']}"
            )
    if not sweep["inf_degenerates_to_ring"]:
        failed.append("bounded with load_factor=inf diverged from pure ring routing")
    if live["failed"] or live["dropped"] > bars["max_dropped"]:
        failed.append(
            f"live replay lost requests: {live['failed']} failed, "
            f"{live['dropped']} dropped"
        )
    if hr["delta"] > bars["hit_rate_delta"]:
        failed.append(
            f"bounded fleet cache hit rate {hr['fleet_hit_rate']:.3f} drifted "
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
    """CI guard for the ISSUE 10 acceptance bars. Bars come from
    BENCH_e14_routing.json; the measurement is recorded back into it
    (the perf trajectory CI uploads)."""
    bars = load_bars(BENCH_NAME, DEFAULT_BARS)
    stats = smoke_stats(bars)
    print(policy_sweep_table(stats=stats["sweep"]))
    print()
    print(live_imbalance_table(stats=stats["live"]))
    print()
    print(hit_rate_table(stats=stats["hit_rate"]))
    print()
    print(scale_cycle_table(stats=stats["scale"]))
    live_imb = stats["live"]["imbalance"]
    print(
        f"\noffline bounded cv {stats['sweep']['bounded']['cv']:.4f} / live cv "
        f"{live_imb['cv']:.4f} (bar < {bars['max_cv']}) | peak "
        f"{live_imb['peak_to_mean']:.2f} (bar < {bars['max_peak_to_mean']}) | "
        f"hit-rate delta {stats['hit_rate']['delta']:.3f} (bar "
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


def test_e14_policy_sweep(report, benchmark):
    report("e14_routing", benchmark.pedantic(policy_sweep_table, rounds=1, iterations=1))


def test_e14_live_imbalance(report, benchmark):
    report("e14_routing", benchmark.pedantic(live_imbalance_table, rounds=1, iterations=1))


def test_e14_hit_rate(report, benchmark):
    report("e14_routing", benchmark.pedantic(hit_rate_table, rounds=1, iterations=1))


def test_e14_scale_cycle(report, benchmark):
    report("e14_routing", benchmark.pedantic(scale_cycle_table, rounds=1, iterations=1))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--smoke" in argv:
        return smoke()
    print(policy_sweep_table())
    print()
    print(live_imbalance_table())
    print()
    print(hit_rate_table())
    print()
    print(scale_cycle_table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
