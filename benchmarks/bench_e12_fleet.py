"""E12 — the sharded solve fleet: scaling, cache parity, failure recovery.

PR 4's single solve service tops out on one event loop, one pool and
one cache; the fleet layer (``repro.service.fleet``) partitions the
request space across N shard processes behind a consistent-hash router.
This benchmark records what sharding buys and what it must not cost:

* **cache-miss throughput scaling** — a 64-request all-unique mixed
  workload (three families, three methods: nothing coalesces, nothing
  caches) through a 1-shard fleet vs a 4-shard fleet with identical
  per-shard configuration. Acceptance bar: **≥ 1.8x** requests/s at 4
  shards (pro-rated on machines with fewer than 4 cores — a 1-core
  runner cannot exhibit process parallelism, and the gate says so
  loudly rather than failing vacuously);
* **cache hit-rate parity** — a duplicate-heavy workload (8 uniques ×
  12 repeats) driven twice through a 4-shard fleet and through a
  1-shard fleet. Routing by instance key must keep every duplicate on
  the shard that already cached it, so the fleet-wide hit rate stays
  within **5%** (absolute) of the single service's. Both fleets answer
  a repeat of an already-answered instance in the front end, and the
  hit rate counts those answers as hits;
* **shard-death recovery** — SIGKILL one shard mid-batch: the router
  must respawn it, re-dispatch the accepted-but-unanswered requests at
  most once, and return one record per request — **zero** silently
  dropped;
* **shutdown hygiene** — after ``close()``: no shard processes, no
  ``/dev/shm`` residue, no leftover sockets or state directory.

``--smoke`` runs all four with the acceptance gates (thresholds read
from ``BENCH_e12_fleet.json``, measurement recorded back into it) and
exits non-zero on violation — the CI hook.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

from repro.service.fleet import FleetRouter
from repro.util.bench import load_bars, record
from repro.util.tables import format_table

BENCH_NAME = "e12_fleet"

#: fallback gate thresholds; the authoritative copy lives in
#: BENCH_e12_fleet.json at the repo root (see repro.util.bench)
DEFAULT_BARS = {
    "scaling_x": 1.8,  # 4-shard vs 1-shard cache-miss throughput
    "hit_rate_delta": 0.05,  # |fleet hit rate - single-service hit rate|
    "max_dropped": 0,  # silently dropped requests after a shard kill
}

#: per-shard configuration shared by every axis: serial in-shard
#: execution so measured scaling is attributable to the shard count,
#: not to nested pools
SHARD_KWARGS = dict(backend="serial", method="sequential")


def _unique_workload(count: int = 64) -> list[dict]:
    """All-distinct specs (the cache-miss stream): three families and
    three methods, sizes picked so one request costs a few ms of real
    solver work — enough that routing/transport overhead is amortised,
    small enough that the whole axis stays CI-friendly."""
    specs = []
    families = ("chain", "bst", "bottleneck")
    methods = ("sequential", "huang", "huang-banded")
    for i in range(count):
        family = families[i % len(families)]
        method = methods[(i // 3) % len(methods)]
        n = (28, 36, 44)[i % 3] if method == "sequential" else (16, 20, 24)[i % 3]
        specs.append({"family": family, "n": n, "seed": i, "method": method})
    return specs


def _duplicate_workload(uniques: int = 8, repeats: int = 12) -> list[dict]:
    """The duplicate-heavy stream: ``uniques`` distinct instances, each
    appearing ``repeats`` times, interleaved (the shape a production
    request stream has, and exactly what per-shard caches exist for)."""
    base = _unique_workload(uniques)
    return [base[i % uniques] for i in range(uniques * repeats)]


def _pids_alive(pids) -> list[int]:
    alive = []
    for pid in pids:
        if pid is None:
            continue
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        alive.append(pid)
    return alive


def _run_fleet(shards: int, specs: list[dict], passes: int = 1) -> dict:
    """Drive ``specs`` through a fresh fleet ``passes`` times and
    return wall-clock plus the aggregate status and hygiene facts."""
    shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    router = FleetRouter(shards, **SHARD_KWARGS)
    try:
        router.start()
        pids = list(router.shard_pids())
        t0 = time.perf_counter()
        failures = 0
        for _ in range(passes):
            records = router.request_many(specs)
            failures += sum(1 for r in records if not r.get("ok"))
        elapsed = time.perf_counter() - t0
        status = router.status()
        state_dir = router.state_dir
    finally:
        router.close()
    deadline = time.monotonic() + 5.0
    while _pids_alive(pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    shm_after = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    return {
        "shards": shards,
        "requests": len(specs) * passes,
        "elapsed_s": elapsed,
        "rps": len(specs) * passes / elapsed,
        "failures": failures,
        "cache_hit_rate": status["totals"]["cache_hit_rate"],
        "per_shard_requests": [
            (s.get("status") or {}).get("requests", 0) for s in status["per_shard"]
        ],
        "orphan_shards": _pids_alive(pids),
        "shm_residue": sorted(shm_after - shm_before),
        "state_dir_residue": os.path.exists(state_dir),
    }


def scaling_stats(count: int = 64) -> dict:
    """Axis 1+4: cache-miss throughput at 1 vs 4 shards (plus the
    hygiene facts both runs throw off for free)."""
    specs = _unique_workload(count)
    one = _run_fleet(1, specs)
    four = _run_fleet(4, specs)
    return {
        "count": count,
        "cpus": os.cpu_count() or 1,
        "one": one,
        "four": four,
        "scaling_x": one["elapsed_s"] / four["elapsed_s"],
    }


def scaling_table(stats: dict | None = None):
    s = stats if stats is not None else scaling_stats()
    rows = []
    for run in (s["one"], s["four"]):
        rows.append(
            (
                run["shards"],
                f"{run['elapsed_s']:.2f}",
                f"{run['rps']:.1f}",
                "/".join(str(r) for r in run["per_shard_requests"]),
                run["failures"],
            )
        )
    rows.append(("scaling", "-", f"{s['scaling_x']:.2f}x", "-", "-"))
    return format_table(
        ["shards", "wall s", "req/s", "per-shard reqs", "failed"],
        rows,
        title=(
            f"E12a: {s['count']}-request all-unique workload (pure cache "
            "misses), identical per-shard config. Each shard is an "
            "independent process with its own pool, store and cache; the "
            "router's consistent hash spreads distinct keys across them."
        ),
    )


def hit_rate_stats(uniques: int = 8, repeats: int = 12) -> dict:
    """Axis 2: fleet-wide cache hit rate vs the single-service hit rate
    on the same duplicate-heavy stream, driven twice (second pass is
    where the caches answer)."""
    specs = _duplicate_workload(uniques, repeats)
    single = _run_fleet(1, specs, passes=2)
    fleet = _run_fleet(4, specs, passes=2)
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
        ("fleet (4 shards)", f"{s['fleet_hit_rate']:.3f}", f"{s['delta']:.3f}"),
    ]
    return format_table(
        ["path", "cache hit rate", "delta"],
        rows,
        title=(
            f"E12b: duplicate-heavy stream ({s['uniques']} uniques, "
            f"{s['requests']} requests over two passes). Instance-key "
            "routing pins every duplicate to the shard that already "
            "cached it, so sharding costs (almost) no hit rate. The hit "
            "rate counts the repeats the front end answers as hits."
        ),
    )


def _kill_while_busy(router: FleetRouter, shard: int, timeout: float = 60.0) -> bool:
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


def kill_recovery_stats(count: int = 24) -> dict:
    """Axis 3: SIGKILL a shard while it works on its share of a batch;
    every accepted request must still produce a record (solved after
    re-dispatch, or an explicit error — never a silent drop). The
    chains are large (n >= 300) so that share takes far longer than
    the router takes to write it, whatever the solver's speed."""
    specs = [
        {"family": "chain", "n": 300 + (i % 4) * 20, "seed": 1000 + i}
        for i in range(count)
    ]
    out: dict = {}
    with FleetRouter(2, **SHARD_KWARGS) as router:

        def _run():
            out["records"] = router.request_many(specs)

        worker = threading.Thread(target=_run)
        worker.start()
        busy_at_kill = _kill_while_busy(router, 0)
        worker.join(timeout=120.0)
        hung = worker.is_alive()
        records = out.get("records") or []
        status = router.status()
        healed = router.request({"dims": [10, 20, 5, 30]})
    answered = [r for r in records if r is not None]
    return {
        "count": count,
        "busy_at_kill": busy_at_kill,
        "hung": hung,
        "answered": len(answered),
        "ok": sum(1 for r in answered if r.get("ok")),
        "errors": sum(1 for r in answered if not r.get("ok")),
        "dropped": count - len(answered) if not hung else count,
        "respawns": status["router"]["respawns"],
        "redispatched": status["router"]["redispatched"],
        "healed_shard_answers": bool(healed.get("ok")),
    }


def kill_recovery_table(stats: dict | None = None):
    s = stats if stats is not None else kill_recovery_stats()
    rows = [
        ("requests in flight", s["count"]),
        ("killed shard held unanswered requests", "yes" if s["busy_at_kill"] else "NO"),
        ("answered (ok / error)", f"{s['answered']} ({s['ok']} / {s['errors']})"),
        ("silently dropped", s["dropped"]),
        ("re-dispatched (at most once each)", s["redispatched"]),
        ("shard respawns", s["respawns"]),
        ("respawned shard answers", "yes" if s["healed_shard_answers"] else "NO"),
    ]
    return format_table(
        ["fact", "value"],
        rows,
        title=(
            "E12c: SIGKILL one of two shards mid-batch. The router detects "
            "the broken pipe, respawns the shard on the same ring position, "
            "and re-dispatches accepted-but-unanswered requests exactly once."
        ),
    )


def effective_scaling_bar(bar: float, cpus: int) -> float:
    """Pro-rate the scaling bar to the machine: the full bar at >= 4
    cores, linearly less in between, and 0.7x on a single core — where
    process parallelism is physically impossible, so the only
    meaningful check left is that the router's fan-out overhead stays
    bounded (generously, because a loaded single-core box timeslices
    four shard processes noisily). CI runners have >= 4 cores, so the
    CI gate always applies the full bar."""
    if cpus >= 4:
        return bar
    if cpus <= 1:
        return 0.7
    return 1.0 + (bar - 1.0) * (cpus - 1) / 3.0


def smoke_stats(bars: dict | None = None) -> dict:
    """The smoke measurement, JSON-ready (what the trajectory records).

    The scaling block carries the cpu-pro-rated *effective* bar next to
    the raw ``scaling_x`` it is gated against, so a trajectory entry
    from a small runner (where 0.7x can pass) is self-explaining
    without re-deriving :func:`effective_scaling_bar` by hand."""
    bars = bars if bars is not None else load_bars(BENCH_NAME, DEFAULT_BARS)
    scaling = scaling_stats()
    scaling["scaling_bar"] = bars["scaling_x"]
    scaling["scaling_bar_effective"] = effective_scaling_bar(
        bars["scaling_x"], scaling["cpus"]
    )
    return {
        "scaling": scaling,
        "hit_rate": hit_rate_stats(),
        "kill": kill_recovery_stats(),
    }


def smoke_failures(stats: dict, bars: dict) -> list[str]:
    """Gate violations for one measurement against one bar set."""
    failed = []
    sc, hr, kill = stats["scaling"], stats["hit_rate"], stats["kill"]
    bar = effective_scaling_bar(bars["scaling_x"], sc["cpus"])
    if sc["scaling_x"] < bar:
        failed.append(
            f"cache-miss throughput scaling {sc['scaling_x']:.2f}x below the "
            f"{bar:.2f}x bar ({sc['cpus']} cores)"
        )
    if hr["delta"] > bars["hit_rate_delta"]:
        failed.append(
            f"fleet cache hit rate {hr['fleet_hit_rate']:.3f} drifted "
            f"{hr['delta']:.3f} from the single service's "
            f"{hr['single_hit_rate']:.3f} (bar {bars['hit_rate_delta']:.2f})"
        )
    if not kill["busy_at_kill"]:
        failed.append("the shard had answered its share before the kill")
    if kill["hung"]:
        failed.append("request_many hung after the shard kill")
    if kill["dropped"] > bars["max_dropped"]:
        failed.append(
            f"{kill['dropped']} accepted requests silently dropped after the "
            "shard kill"
        )
    if not kill["respawns"]:
        failed.append("the killed shard was never respawned")
    if not kill["healed_shard_answers"]:
        failed.append("the respawned shard does not answer requests")
    for run_name in ("scaling.one", "scaling.four", "hit_rate.single", "hit_rate.fleet"):
        axis, key = run_name.split(".")
        run = stats[axis][key]
        if run["failures"]:
            failed.append(f"{run['failures']} requests failed in {run_name}")
        if run["orphan_shards"]:
            failed.append(f"orphan shard processes after {run_name}: {run['orphan_shards']}")
        if run["shm_residue"]:
            failed.append(f"/dev/shm residue after {run_name}: {run['shm_residue']}")
        if run["state_dir_residue"]:
            failed.append(f"state dir (sockets/logs) left behind after {run_name}")
    return failed


def smoke() -> int:
    """CI guard for the ISSUE 5 acceptance bars. Bars come from
    BENCH_e12_fleet.json; the measurement is recorded back into it
    (the perf trajectory CI uploads)."""
    bars = load_bars(BENCH_NAME, DEFAULT_BARS)
    stats = smoke_stats(bars)
    sc, hr, kill = stats["scaling"], stats["hit_rate"], stats["kill"]
    print(scaling_table(stats=sc))
    print()
    print(hit_rate_table(stats=hr))
    print()
    print(kill_recovery_table(stats=kill))
    bar = effective_scaling_bar(bars["scaling_x"], sc["cpus"])
    note = (
        ""
        if bar == bars["scaling_x"]
        else f" [bar pro-rated from {bars['scaling_x']:.2f}x: {sc['cpus']} cores]"
    )
    print(
        f"\nscaling {sc['scaling_x']:.2f}x (bar {bar:.2f}x{note}) | hit-rate "
        f"delta {hr['delta']:.3f} (bar {bars['hit_rate_delta']:.2f}) | dropped "
        f"{kill['dropped']} (bar {bars['max_dropped']}) | respawns "
        f"{kill['respawns']}"
    )
    record(BENCH_NAME, stats, bars=bars)
    failed = smoke_failures(stats, bars)
    for reason in failed:
        print(f"FAIL: {reason}")
    if failed:
        return 1
    print("OK: fleet acceptance bars met")
    return 0


def test_e12_scaling(report, benchmark):
    report("e12_fleet", benchmark.pedantic(scaling_table, rounds=1, iterations=1))


def test_e12_hit_rate(report, benchmark):
    report("e12_fleet", benchmark.pedantic(hit_rate_table, rounds=1, iterations=1))


def test_e12_kill_recovery(report, benchmark):
    report("e12_fleet", benchmark.pedantic(kill_recovery_table, rounds=1, iterations=1))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--smoke" in argv:
        return smoke()
    print(scaling_table())
    print()
    print(hit_rate_table())
    print()
    print(kill_recovery_table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
