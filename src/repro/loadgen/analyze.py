"""The load-test output analyzer: tail latencies, SLOs, shard balance.

Consumes the per-request records the harness emits
(:mod:`repro.loadgen.harness`) and produces the JSON-able summary the
``BENCH_e13_latency.json`` trajectory records:

* **latency distribution** — p50/p95/p99/max/mean over the
  coordinated-omission-corrected latency (receive minus *scheduled*
  arrival for open-loop replays, so a client that falls behind cannot
  hide queueing delay);
* **per-source breakdown** — the same distribution split by how the
  service answered (``batch`` = cold solve, ``cache``/``coalesced``/
  ``delta`` = the hit tiers), which is what an SLO on cache-hit
  latency gates;
* **per-route breakdown** — the same split by where the fleet router
  sent a request (``ring`` for a shard, ``front`` for a repeat the
  router answered from its own table), showing what the table saved
  (empty for non-fleet targets);
* **per-shard breakdown + imbalance coefficient** — request counts and
  latencies by shard attribution, summarised as the coefficient of
  variation (std/mean of per-shard counts) and the peak-to-mean ratio.
  Front answers reach no shard, so only shard-bound requests count.
  ``cv = 0`` is a perfectly even split;
* **goodput under an SLO** — the fraction (and rate) of requests that
  both succeeded and met the latency threshold.

The percentile definition is pinned here (exact linear interpolation
on sorted order statistics, the "type 7" / numpy-``linear`` rule) and
unit-tested against a from-first-principles reference, so the p99
numbers in the trajectory never silently shift with a numpy upgrade.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

__all__ = ["analyze", "imbalance", "latency_summary", "percentile"]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` by exact linear
    interpolation between closest order statistics.

    With ``xs = sorted(values)`` and ``h = (len(xs) - 1) * q / 100``,
    returns ``xs[floor(h)] + (h - floor(h)) * (xs[ceil(h)] -
    xs[floor(h)])`` — the "type 7" definition (numpy's ``linear``
    method, the default of R and spreadsheets). A singleton returns its
    value for every ``q``; ties are handled by the order statistics
    themselves; an empty sequence raises (there is no percentile to
    report, and returning a sentinel would poison downstream SLO math).
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must lie in [0, 100], got {q}")
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile of an empty sequence")
    if len(xs) == 1:
        return xs[0]
    rank = (len(xs) - 1) * (q / 100.0)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return xs[lo]
    frac = rank - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


def latency_summary(latencies_ms: Sequence[float]) -> Optional[dict]:
    """count/mean/p50/p95/p99/max over one latency population (ms),
    or ``None`` for an empty population (a breakdown bucket nothing
    landed in)."""
    xs = [float(v) for v in latencies_ms]
    if not xs:
        return None
    return {
        "count": len(xs),
        "mean_ms": round(sum(xs) / len(xs), 3),
        "p50_ms": round(percentile(xs, 50.0), 3),
        "p95_ms": round(percentile(xs, 95.0), 3),
        "p99_ms": round(percentile(xs, 99.0), 3),
        "max_ms": round(max(xs), 3),
    }


def imbalance(counts: Sequence[int]) -> dict:
    """Shard-imbalance summary of per-shard request counts.

    ``cv`` is the coefficient of variation (population std / mean) —
    0 for a perfectly even split, 1.0 when e.g. one of four shards
    absorbs everything except an even remainder; ``peak_to_mean`` is
    ``max / mean`` — 1.0 even, ``shards`` for a total hotspot. Both are
    scale-free, so a baseline measured on a 200-request trace stays
    comparable as traces grow.
    """
    counts = [int(c) for c in counts]
    if not counts or sum(counts) == 0:
        return {"counts": counts, "cv": 0.0, "peak_to_mean": 0.0}
    mean = sum(counts) / len(counts)
    var = sum((c - mean) ** 2 for c in counts) / len(counts)
    return {
        "counts": counts,
        "cv": round(math.sqrt(var) / mean, 4),
        "peak_to_mean": round(max(counts) / mean, 4),
    }


def analyze(
    records: Iterable[dict],
    *,
    slo_ms: Optional[float] = None,
    shards: Optional[int] = None,
) -> dict:
    """The full analyzer pass over harness records.

    ``records`` are the dicts :func:`repro.loadgen.harness.run_loadtest`
    emits (``ok``, ``latency_ms``, ``source``, ``shard``, ``recv_s``,
    ...). ``shards``, when given, zero-fills the per-shard counts so an
    entirely starved shard still shows up in the imbalance coefficient
    (the E12 ``[72, 72, 0, 48]`` shape must not flatter itself by
    dropping its zero).
    """
    records = list(records)
    ok = [r for r in records if r.get("ok")]
    failed = [r for r in records if not r.get("ok") and r.get("recv_s") is not None]
    dropped = [r for r in records if r.get("recv_s") is None]
    out: dict = {
        "requests": len(records),
        "ok": len(ok),
        "failed": len(failed),
        "dropped": len(dropped),
    }
    if records:
        horizon = max((r["recv_s"] for r in records if r.get("recv_s")), default=0.0)
        out["duration_s"] = round(float(horizon), 4)
        out["throughput_rps"] = (
            round(len(ok) / horizon, 2) if horizon > 0 else 0.0
        )
    latencies = [r["latency_ms"] for r in ok]
    out["latency_ms"] = latency_summary(latencies)

    by_source: dict[str, list[float]] = {}
    for r in ok:
        by_source.setdefault(r.get("source") or "unknown", []).append(r["latency_ms"])
    out["by_source"] = {
        source: latency_summary(vals) for source, vals in sorted(by_source.items())
    }

    # Route split (ring, or front for a repeat answered in the router,
    # stamped by the fleet router): what each path carried and cost.
    # Absent entirely for non-fleet targets (no record carries a route).
    by_route: dict[str, list[float]] = {}
    for r in ok:
        if r.get("route") is not None:
            by_route.setdefault(str(r["route"]), []).append(r["latency_ms"])
    out["by_route"] = {
        route: latency_summary(vals) for route, vals in sorted(by_route.items())
    }

    shard_latencies: dict[int, list[float]] = {}
    for r in ok:
        if r.get("shard") is not None:
            shard_latencies.setdefault(int(r["shard"]), []).append(r["latency_ms"])
    if shard_latencies or shards:
        width = max(
            shards or 0, (max(shard_latencies) + 1) if shard_latencies else 0
        )
        counts = [len(shard_latencies.get(s, ())) for s in range(width)]
        out["by_shard"] = {
            str(s): latency_summary(vals)
            for s, vals in sorted(shard_latencies.items())
        }
        out["imbalance"] = imbalance(counts)
    else:
        out["by_shard"] = {}
        out["imbalance"] = None

    if slo_ms is not None:
        attained = [r for r in ok if r["latency_ms"] <= slo_ms]
        duration = out.get("duration_s") or 0.0
        out["slo"] = {
            "threshold_ms": float(slo_ms),
            "attained": len(attained),
            "goodput_fraction": (
                round(len(attained) / len(records), 4) if records else 0.0
            ),
            "goodput_rps": (
                round(len(attained) / duration, 2) if duration > 0 else 0.0
            ),
        }
    else:
        out["slo"] = None
    return out
