"""E11 — the solve service: coalesced throughput and cache-hit latency.

PRs 1–3 built the substrate (batched ``solve_many``, compiled plans,
persistent pools); the service layer is what finally keeps all of it
*warm* across requests. This benchmark records what that
buys over the library-style alternative, one cold ``solve()`` per
request:

* **coalesced throughput** — a 32-request mixed workload (several
  problem families and methods, with the duplicate rate a real request
  stream has) driven through an in-process
  :class:`~repro.service.LocalClient` submitting everything
  concurrently, against the same workload as sequential cold solves.
  Acceptance bar: **≥ 2.2x** requests/s, cpu-pro-rated like the E12
  scaling gate (a single-core box cannot overlap the batch's distinct
  solves, so only coalescing's work reduction is measurable there);
* **cache-hit latency** — per-request latency of a repeated instance
  (pure instance-hash cache hit: no plan compilation, no backend, no
  tables) against a cold solve of the same instance. Acceptance bar:
  **≥ 100x** lower;
* **delta re-solve** — a single-suffix weight update of an n=256 chain
  re-swept incrementally from the cached parent
  (:func:`repro.core.delta.try_delta`) against a cold solve of the
  updated instance, with the tables pinned bitwise-identical.
  Acceptance bar: **≥ 5x** faster. Both paths run the same sweep,
  which evaluates one diagonal per numpy pass: the cold solve makes 255
  passes over 32640 cells, and the edit re-sweeps 255 one-cell
  diagonals, so the ratio measures how cheaply the sweep handles a
  one-cell diagonal (about 8x here; about 3x if it built strided views
  for one cell);
* **cold sequential solve** — one cold ``solve(method="sequential")``
  of an n=256 chain, best of three, and its ``tracemalloc`` peak.
  Acceptance bars: **≤ 100 ms** and **≤ 4 MiB** — the O(n²) tables and
  one diagonal's candidate block, never the dense (n+1)³ ``f`` table
  (about 130 MiB at this size);
* **L2 crash survival** — a one-shard fleet solves a request, the
  shard is SIGKILLed, and the respawned shard must answer the repeat
  from the shared on-disk L2 tier (``source == "cache"``) without
  re-solving. Gate: the respawn hit happens and values match;
* **L2 publish growth** — mean CPU of one ``L2DiskCache.put`` of an
  n=100 chain result into an empty directory, and into one holding
  3000 entries before the cache opens; each mean spans a full rescan
  interval of the cache's byte ledger, so its periodic directory scan
  is counted. Acceptance bar: the 3000-entry figure **≤ 1.5x** the
  empty one (10-12x when every put scanned the directory);
* **shutdown hygiene** — after the client closes, the benchmark
  asserts the pool workers are gone and ``/dev/shm`` holds no entry
  that was not there before the client started.

``--smoke`` runs all of them with the acceptance gates and exits
non-zero on violation (the CI hook). Correctness is not at stake —
the service returns the same bitwise tables as ``solve()`` (the test
suite pins that); this is the operational record for running ``repro
serve`` instead of importing the library.
"""

from __future__ import annotations

import os
import shutil
import signal
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core import solve
from repro.core.delta import try_delta
from repro.problems.generators import (
    random_bottleneck_chain,
    random_bst,
    random_matrix_chain,
)
from repro.problems.matrix_chain import MatrixChainProblem
from repro.service import FleetRouter, L2DiskCache, LocalClient
from repro.service.cache import _RESCAN_EVERY, ResultCache
from repro.util.bench import load_bars, record
from repro.util.tables import format_table

BENCH_NAME = "e11_service"

#: fallback gate thresholds; the authoritative copy lives in
#: BENCH_e11_service.json at the repo root (see repro.util.bench)
DEFAULT_BARS = {
    # coalesced service vs sequential cold solves, at >= 4 cores (see
    # effective_throughput_bar for the small-machine pro-rating)
    "throughput_x": 2.2,
    "cache_latency_x": 100.0,  # cold solve vs cache-hit latency
    "delta_speedup_x": 5.0,  # cold re-solve vs delta re-sweep, n=256 suffix edit
    "cold_sequential_ms": 100.0,  # cold sequential solve of an n=256 chain
    "cold_sequential_peak_mib": 4.0,  # its tracemalloc peak
    # L2 put CPU with 3000 entries on disk vs into an empty directory
    "l2_put_growth_x": 1.5,
}


def effective_throughput_bar(bar: float, cpus: int) -> float:
    """Pro-rate the coalesced-throughput bar to the machine, the same
    way the E12 scaling gate does: the full bar at >= 4 cores (the CI
    shape), linearly less in between, and 1.5x on a single core. With
    one core the worker pool cannot overlap the batch's distinct
    solves, so the only measurable win is coalescing's work reduction
    (capped by the duplicate rate at count/uniques, minus dispatch) —
    the floor checks coalescing is genuinely winning while tolerating
    a timesliced box's noise."""
    if cpus >= 4:
        return bar
    if cpus <= 1:
        return min(bar, 1.5)
    return min(bar, 1.5 + (bar - 1.5) * (cpus - 1) / 3.0)


def _mixed_workload(count: int = 32) -> list[tuple]:
    """A mixed request stream: three families, three methods, and the
    duplicate rate (~60%) a production request stream has — duplicates
    are exactly what coalescing and the result cache exist for. Sizes
    are picked so one unique request costs a few ms of real solver
    work (re-scaled when the banded/activate reduce-as-you-compose
    kernels landed: cheaper cold solves had
    shrunk per-request work to where the service's fixed dispatch
    overhead, not coalescing, dominated the measured ratio)."""
    uniques = [
        (random_matrix_chain(28, seed=0), "huang", {}),
        (random_matrix_chain(28, seed=1), "huang-banded", {}),
        (random_matrix_chain(24, seed=2), "huang", {}),
        (random_bst(20, seed=3), "huang-banded", {}),
        (random_bst(12, seed=4), "sequential", {}),
        (random_bottleneck_chain(24, seed=5), "huang", {}),
        (random_matrix_chain(32, seed=6), "huang", {}),
        (random_matrix_chain(12, seed=7), "sequential", {}),
        (random_bst(24, seed=8), "huang", {}),
        (random_bottleneck_chain(18, seed=9), "huang-banded", {}),
        (random_matrix_chain(26, seed=10), "rytter", {}),
        (random_matrix_chain(20, seed=11), "huang-compact", {}),
    ]
    return [uniques[i % len(uniques)] for i in range(count)]


def _sequential_cold_seconds(workload: list[tuple]) -> float:
    """The library-style baseline: one cold solve() per request, in
    order — every call pays plan compilation and table allocation, and
    nothing is shared between calls."""
    t0 = time.perf_counter()
    for problem, method, kwargs in workload:
        solve(problem, method=method, **kwargs)
    return time.perf_counter() - t0


def _service_stats(
    workload: list[tuple], *, backend: str = "process", workers: int = 4
) -> dict:
    """Drive the workload through an in-process service (concurrent
    submission → coalesced batches, instance-hash cache in front) and
    record wall-clock plus the shutdown-hygiene facts. The default
    backend is ``process`` so the hygiene gates are real: live worker
    pids are captured before close, and ``/dev/shm`` is listed before
    the client starts and after it closes."""
    shm_before = _shm_entries()
    client = LocalClient(
        backend=backend,
        workers=workers,
        max_batch=len(workload),
    )
    try:
        t0 = time.perf_counter()
        out = client.solve_batch(workload, with_source=True)
        elapsed = time.perf_counter() - t0
        failures = [r for r in out if isinstance(r, Exception)]
        sources = [source for r, source in (o for o in out if not isinstance(o, Exception))]
        stats = client.status()
        # A lone iterative request runs whole on one pool worker.
        client.solve((random_matrix_chain(18, seed=99), "huang", {}))
        if backend == "process":
            pids = client.service.backend.worker_pids()
        else:
            pids = []
    finally:
        client.close()
    deadline = time.monotonic() + 5.0
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    return {
        "elapsed_s": elapsed,
        "failures": len(failures),
        "solved": sources.count("batch"),
        "coalesced": sources.count("coalesced"),
        "cache_hits": sources.count("cache"),
        "batches": stats["scheduler"]["batches"],
        "largest_batch": stats["scheduler"]["largest_batch"],
        "orphan_workers": [p for p in pids if _alive(p)],
        "shm_residue": sorted(_shm_entries() - shm_before),
    }


def _shm_entries() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def throughput_stats(count: int = 32, workers: int = 4) -> dict:
    workload = _mixed_workload(count)
    cold = _sequential_cold_seconds(workload)
    service = _service_stats(workload, workers=workers)
    return {
        "count": count,
        "workers": workers,
        "cpus": os.cpu_count() or 1,
        "cold_s": cold,
        "service": service,
        "speedup": cold / service["elapsed_s"],
    }


def throughput_table(count: int = 32, workers: int = 4, stats: dict | None = None):
    s = stats if stats is not None else throughput_stats(count, workers)
    svc = s["service"]
    rows = [
        (
            "sequential cold solve()",
            f"{s['cold_s']:.2f}",
            f"{s['count'] / s['cold_s']:.1f}",
            "-",
            "-",
            "-",
        ),
        (
            "service (coalesce+cache)",
            f"{svc['elapsed_s']:.2f}",
            f"{s['count'] / svc['elapsed_s']:.1f}",
            svc["batches"],
            f"{svc['solved']}/{svc['coalesced']}/{svc['cache_hits']}",
            f"{s['speedup']:.1f}x",
        ),
    ]
    return format_table(
        ["path", "wall s", "req/s", "batches", "solved/coalesced/cached", "speedup"],
        rows,
        title=(
            f"E11a: {s['count']}-request mixed workload, {s['workers']} workers. "
            "The service submits everything concurrently; duplicates join "
            "in-flight entries, repeats hit the instance-hash cache, distinct "
            "requests share solve_many batches on the warm pool."
        ),
    )


def latency_stats(hits: int = 50) -> dict:
    problem_factory = lambda: random_matrix_chain(24, seed=42)  # noqa: E731
    cold_best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        solve(problem_factory(), method="huang")
        cold_best = min(cold_best, time.perf_counter() - t0)
    with LocalClient(backend="serial") as client:
        client.solve((problem_factory(), "huang"))  # warm the cache
        t0 = time.perf_counter()
        for _ in range(hits):
            result, source = client.solve(
                (problem_factory(), "huang"), with_source=True
            )
            assert source == "cache", f"expected a cache hit, got {source!r}"
        hit_mean = (time.perf_counter() - t0) / hits
    return {
        "hits": hits,
        "cold_s": cold_best,
        "hit_s": hit_mean,
        "ratio": cold_best / hit_mean,
    }


def latency_table(hits: int = 50, stats: dict | None = None):
    s = stats if stats is not None else latency_stats(hits)
    rows = [
        ("cold solve() (best of 3)", f"{s['cold_s'] * 1e3:.2f}"),
        (f"cache hit (mean of {s['hits']})", f"{s['hit_s'] * 1e3:.3f}"),
        ("cold / hit", f"{s['ratio']:.0f}x"),
    ]
    return format_table(
        ["path", "latency ms"],
        rows,
        title=(
            "E11b: per-request latency, huang at n=24. A hit re-hashes the "
            "instance (a few hundred bytes through blake2b) and copies "
            "nothing — no plan, no solver, no tables."
        ),
    )


def delta_stats(n: int = 256) -> dict:
    """E11c: incremental re-solve of a single-suffix weight update.

    Solves an n-dim chain cold into a delta-indexed cache, bumps the
    last dimension, and measures ``try_delta`` (which re-sweeps only
    the dirty right-edge window) against a cold solve of the updated
    instance. The tables must be bitwise-identical — the delta path is
    an optimisation, never an approximation."""
    parent = random_matrix_chain(n, seed=21)
    cache = ResultCache()
    solve(parent, method="sequential", cache=cache)
    dims = parent.delta_weights()
    dims[-1] += 5
    child = MatrixChainProblem(dims)
    t0 = time.perf_counter()
    cold = solve(child, method="sequential")
    cold_s = time.perf_counter() - t0
    delta_best = float("inf")
    result = None
    for _ in range(3):
        t0 = time.perf_counter()
        result = try_delta(cache, child, method="sequential")
        delta_best = min(delta_best, time.perf_counter() - t0)
    assert result is not None, "delta probe declined a single-suffix sibling"
    bitwise = result.value == cold.value and np.array_equal(result.w, cold.w)
    assert bitwise, "delta re-solve is not bitwise-identical to a cold solve"
    return {
        "n": n,
        "cold_s": cold_s,
        "delta_s": delta_best,
        "speedup": cold_s / delta_best,
        "bitwise_identical": bitwise,
    }


def delta_table(n: int = 256, stats: dict | None = None):
    s = stats if stats is not None else delta_stats(n)
    rows = [
        ("cold solve() of the edit", f"{s['cold_s'] * 1e3:.1f}"),
        ("delta re-sweep (best of 3)", f"{s['delta_s'] * 1e3:.2f}"),
        ("cold / delta", f"{s['speedup']:.0f}x"),
    ]
    return format_table(
        ["path", "latency ms"],
        rows,
        title=(
            f"E11c: n={s['n']} chain, last dimension changed. The delta path "
            "reuses the clean DP subtriangle from the cached parent and "
            "re-sweeps only cells whose window touches the edit; tables are "
            "bitwise-identical to a cold solve."
        ),
    )


def cold_sequential_stats(n: int = 256) -> dict:
    """E11e: a cold sequential solve of an n-dim chain, the service's
    default method on a miss: best-of-three wall time, and the peak of
    memory traced by ``tracemalloc`` over one more solve."""
    dims = random_matrix_chain(n, seed=41).delta_weights()
    best = float("inf")
    for _ in range(3):
        problem = MatrixChainProblem(dims)
        t0 = time.perf_counter()
        solve(problem, method="sequential")
        best = min(best, time.perf_counter() - t0)
    problem = MatrixChainProblem(dims)
    tracemalloc.start()
    try:
        solve(problem, method="sequential")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"n": n, "cold_ms": best * 1e3, "peak_mib": peak / 2**20}


def cold_sequential_table(n: int = 256, stats: dict | None = None):
    s = stats if stats is not None else cold_sequential_stats(n)
    return format_table(
        ["measure", "value"],
        [
            ("cold solve (best of 3)", f"{s['cold_ms']:.1f} ms"),
            ("tracemalloc peak", f"{s['peak_mib']:.2f} MiB"),
        ],
        title=(
            f"E11e: cold sequential solve() of an n={s['n']} chain, one "
            "diagonal of the DP triangle per numpy pass, in O(n^2) memory."
        ),
    )


def l2_stats(n: int = 64) -> dict:
    """E11d: the shared L2 tier surviving a shard SIGKILL.

    A one-shard fleet (which mounts an ``l2-cache`` directory under its
    state dir by default) answers a request, loses the shard to
    SIGKILL, and must answer the repeat from disk after the respawn —
    ``source == "cache"`` with no re-solve."""
    spec = {
        "dims": [int(x) for x in random_matrix_chain(n, seed=33).delta_weights()],
        "method": "sequential",
    }
    with FleetRouter(shards=1, method="sequential", backend="serial") as router:
        first = router.request(dict(spec))
        assert first.get("ok"), f"first request failed: {first}"
        pid = router.shard_pids()[0]
        os.kill(pid, signal.SIGKILL)
        router._shards[0].proc.wait(timeout=10.0)
        t0 = time.perf_counter()
        second = router.request(dict(spec))
        hit_s = time.perf_counter() - t0
        assert second.get("ok"), f"post-respawn request failed: {second}"
        respawns = router.status()["router"]["respawns"]
    return {
        "n": n,
        "first_source": first.get("source"),
        "first_ms": first.get("elapsed_ms"),
        "respawn_source": second.get("source"),
        "respawn_hit": second.get("source") == "cache",
        "values_match": first.get("value") == second.get("value"),
        "respawn_roundtrip_ms": hit_s * 1e3,
        "respawns": respawns,
    }


def l2_table(n: int = 64, stats: dict | None = None):
    s = stats if stats is not None else l2_stats(n)
    rows = [
        ("cold (fresh shard)", s["first_source"], f"{s['first_ms']:.1f}"),
        (
            "repeat after SIGKILL+respawn",
            s["respawn_source"],
            f"{s['respawn_roundtrip_ms']:.1f}",
        ),
    ]
    return format_table(
        ["request", "source", "ms"],
        rows,
        title=(
            f"E11d: n={s['n']} chain through a 1-shard fleet. The shard is "
            "SIGKILLed after the first answer; its respawn serves the repeat "
            "from the shared on-disk L2 tier "
            f"(respawns={s['respawns']}, values match: {s['values_match']}). "
            "Roundtrip includes respawn detection; the L2 read itself is "
            "one file read and one digest check."
        ),
    )


def l2_publish_stats(n: int = 100, entries: int = 3000) -> dict:
    """E11f: mean CPU of one ``L2DiskCache.put`` of an n-dim chain
    result, into an empty directory and into a directory that holds
    ``entries`` entries before the cache opens (one small published
    entry copied under that many keys, so set-up is fast and small).
    Each mean covers one full rescan interval of the cache's byte
    ledger — ``_RESCAN_EVERY`` puts of fresh keys — so the periodic
    directory scan is counted; a median would hide it."""
    result = solve(random_matrix_chain(n, seed=43), method="sequential")
    small = solve(MatrixChainProblem([10, 20, 5, 30]), method="sequential")
    puts = _RESCAN_EVERY
    mean_ms = {}
    for filled in (0, entries):
        with tempfile.TemporaryDirectory() as directory:
            if filled:
                L2DiskCache(directory).put("seed", small)
                (published,) = [p for p in Path(directory).iterdir() if p.is_file()]
                for i in range(1, filled):
                    copy = published.with_name(f"old{i:05d}{published.suffix}")
                    shutil.copyfile(published, copy)
            cache = L2DiskCache(directory)
            t0 = time.process_time()
            for i in range(puts):
                cache.put(f"new{i:05d}", result)
            mean_ms[filled] = (time.process_time() - t0) / puts * 1e3
            assert cache.stats()["entries"] == filled + puts
    return {
        "n": n,
        "entries": entries,
        "puts": puts,
        "empty_ms": mean_ms[0],
        "full_ms": mean_ms[entries],
        "growth_x": mean_ms[entries] / mean_ms[0],
    }


def l2_publish_table(n: int = 100, entries: int = 3000, stats: dict | None = None):
    s = stats if stats is not None else l2_publish_stats(n, entries)
    return format_table(
        ["directory", "mean put CPU"],
        [
            ("empty", f"{s['empty_ms']:.2f} ms"),
            (f"{s['entries']} entries", f"{s['full_ms']:.2f} ms"),
            ("growth", f"{s['growth_x']:.2f}x"),
        ],
        title=(
            f"E11f: L2DiskCache.put of an n={s['n']} chain result, CPU per "
            f"put over {s['puts']} puts (one rescan interval of the byte "
            "ledger, whose scan is counted)."
        ),
    )


def smoke_stats(count: int = 32, workers: int = 4, bars: dict | None = None) -> dict:
    """The smoke measurement, JSON-ready (what the trajectory records).

    Like the E12 scaling block, the throughput block carries the
    cpu-pro-rated *effective* bar next to the raw speedup it is gated
    against, so a trajectory entry from a small runner is
    self-explaining."""
    bars = bars if bars is not None else load_bars(BENCH_NAME, DEFAULT_BARS)
    t = throughput_stats(count, workers)
    t["throughput_bar"] = bars["throughput_x"]
    t["throughput_bar_effective"] = effective_throughput_bar(
        bars["throughput_x"], t["cpus"]
    )
    lat = latency_stats()
    delta = delta_stats()
    cold = cold_sequential_stats()
    l2 = l2_stats()
    publish = l2_publish_stats()
    return {
        "throughput": t,
        "latency": lat,
        "delta": delta,
        "cold_sequential": cold,
        "l2": l2,
        "l2_publish": publish,
    }


def smoke_failures(stats: dict, bars: dict) -> list[str]:
    """Gate violations for one measurement against one bar set."""
    t, lat = stats["throughput"], stats["latency"]
    svc = t["service"]
    failed = []
    t_bar = effective_throughput_bar(bars["throughput_x"], t.get("cpus", 4))
    if t["speedup"] < t_bar:
        failed.append(
            f"coalesced throughput below {t_bar:.1f}x sequential cold "
            f"solves (measured {t['speedup']:.1f}x, raw bar "
            f"{bars['throughput_x']:.1f}x at {t.get('cpus', 4)} cpus)"
        )
    if lat["ratio"] < bars["cache_latency_x"]:
        failed.append(
            f"cache-hit latency not {bars['cache_latency_x']:.0f}x below "
            f"a cold solve (measured {lat['ratio']:.0f}x)"
        )
    delta = stats.get("delta")
    if delta is not None:
        if delta["speedup"] < bars.get("delta_speedup_x", 0.0):
            failed.append(
                f"delta re-solve not {bars['delta_speedup_x']:.0f}x faster than "
                f"a cold solve (measured {delta['speedup']:.1f}x)"
            )
        if not delta["bitwise_identical"]:
            failed.append("delta re-solve tables differ from a cold solve")
    cold = stats.get("cold_sequential")
    if cold is not None:
        if cold["cold_ms"] > bars["cold_sequential_ms"]:
            failed.append(
                f"cold sequential solve at n={cold['n']} took "
                f"{cold['cold_ms']:.0f} ms (bar {bars['cold_sequential_ms']:.0f} ms)"
            )
        if cold["peak_mib"] > bars["cold_sequential_peak_mib"]:
            failed.append(
                f"cold sequential solve at n={cold['n']} peaked at "
                f"{cold['peak_mib']:.1f} MiB traced (bar "
                f"{bars['cold_sequential_peak_mib']:.0f} MiB)"
            )
    l2 = stats.get("l2")
    if l2 is not None:
        if not l2["respawn_hit"]:
            failed.append(
                "repeat after SIGKILL+respawn was not served from the L2 tier "
                f"(source {l2['respawn_source']!r})"
            )
        if not l2["values_match"]:
            failed.append("L2-served value differs from the original solve")
    publish = stats.get("l2_publish")
    if publish is not None and publish["growth_x"] > bars["l2_put_growth_x"]:
        failed.append(
            f"L2 put CPU with {publish['entries']} entries on disk is "
            f"{publish['growth_x']:.2f}x the empty-directory figure (bar "
            f"{bars['l2_put_growth_x']:.1f}x)"
        )
    if svc["failures"]:
        failed.append(f"{svc['failures']} requests failed")
    if svc["orphan_workers"]:
        failed.append(f"orphan workers: {svc['orphan_workers']}")
    if svc["shm_residue"]:
        failed.append(f"/dev/shm residue: {svc['shm_residue']}")
    return failed


def smoke(count: int = 32, workers: int = 4) -> int:
    """CI guard for the ISSUE 4 acceptance bars: coalesced throughput
    over sequential cold solves, cache-hit latency far below a cold
    solve, and a hygienic shutdown (no orphan workers, no /dev/shm
    residue). Table and gate render from one measurement; bars come
    from BENCH_e11_service.json and the measurement is recorded back
    into it (the perf trajectory)."""
    bars = load_bars(BENCH_NAME, DEFAULT_BARS)
    stats = smoke_stats(count, workers, bars=bars)
    t, lat = stats["throughput"], stats["latency"]
    delta, cold, l2 = stats["delta"], stats["cold_sequential"], stats["l2"]
    publish = stats["l2_publish"]
    print(throughput_table(stats=t))
    print()
    print(latency_table(stats=lat))
    print()
    print(delta_table(stats=delta))
    print()
    print(cold_sequential_table(stats=cold))
    print()
    print(l2_table(stats=l2))
    print()
    print(l2_publish_table(stats=publish))
    svc = t["service"]
    print(
        f"\nthroughput {t['speedup']:.1f}x (bar "
        f"{t['throughput_bar_effective']:.1f}x, raw "
        f"{bars['throughput_x']:.1f}x at {t['cpus']} cpus) | "
        f"cache hit {lat['ratio']:.0f}x faster (bar "
        f"{bars['cache_latency_x']:.0f}x) | delta {delta['speedup']:.0f}x "
        f"(bar {bars['delta_speedup_x']:.0f}x) | cold sequential "
        f"{cold['cold_ms']:.0f} ms, {cold['peak_mib']:.1f} MiB (bars "
        f"{bars['cold_sequential_ms']:.0f} ms, "
        f"{bars['cold_sequential_peak_mib']:.0f} MiB) | L2 respawn hit "
        f"{l2['respawn_hit']} | L2 put growth {publish['growth_x']:.2f}x at "
        f"{publish['entries']} entries (bar {bars['l2_put_growth_x']:.1f}x) | "
        f"failures {svc['failures']} | "
        f"orphans {svc['orphan_workers']} | shm residue {svc['shm_residue']}"
    )
    record(BENCH_NAME, stats, bars=bars)
    failed = smoke_failures(stats, bars)
    for reason in failed:
        print(f"FAIL: {reason}")
    if failed:
        return 1
    print("OK: service acceptance bars met")
    return 0


def test_e11_throughput(report, benchmark):
    report(
        "e11_service",
        benchmark.pedantic(throughput_table, rounds=1, iterations=1),
    )


def test_e11_cache_latency(report, benchmark):
    report(
        "e11_service",
        benchmark.pedantic(latency_table, rounds=1, iterations=1),
    )


def test_e11_delta(report, benchmark):
    report(
        "e11_service",
        benchmark.pedantic(lambda: delta_table(n=96), rounds=1, iterations=1),
    )


def test_e11_cold_sequential(report, benchmark):
    report(
        "e11_service",
        benchmark.pedantic(cold_sequential_table, rounds=1, iterations=1),
    )


def test_e11_l2_survival(report, benchmark):
    report(
        "e11_service",
        benchmark.pedantic(l2_table, rounds=1, iterations=1),
    )


def test_e11_l2_publish(report, benchmark):
    report(
        "e11_service",
        benchmark.pedantic(l2_publish_table, rounds=1, iterations=1),
    )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--smoke" in argv:
        return smoke()
    print(throughput_table())
    print()
    print(latency_table())
    print()
    print(delta_table())
    print()
    print(cold_sequential_table())
    print()
    print(l2_table())
    print()
    print(l2_publish_table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
