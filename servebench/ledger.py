"""The per-layer ledger: metrics and self times from a traced run's spans.

Two views of the same spans:

* **per-call metrics** — mean duration of each layer's calls inside the
  timed window, plus the ratios and counts the layer's status counters
  give (hit ratios, batch sizes, evictions);
* **per-request conservation** — for each request, the spans tagged with
  its id are nested by time containment (spans from every process share
  one clock), each span's self time is its duration minus what its
  nested spans cover, and the self times are summed by layer. What the
  spans do not cover of the request's end-to-end latency (measured from
  its scheduled arrival) is reported as ``trace.unattributed_ms``, so a
  layer without a wrapper cannot hide.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import fmean

#: span-name prefix -> ledger layer (self times are summed per layer)
LAYERS = {
    "specs.": "specs",
    "api.key": "key",
    "api.solve": "api",
    "cache.": "cache",
    "delta.": "delta",
    "scheduler.": "scheduler",
    "problems.": "ftable",
    "sequential.": "sequential",
    "transport.": "transport",
    "fleet.": "fleet",
    "routing.": "routing",
    "server.": "server",
}

#: the request envelope: its span is the end-to-end time, not a layer
ROOT = "client.submit"


def layer_of(name: str) -> str | None:
    for prefix, layer in LAYERS.items():
        if name.startswith(prefix):
            return layer
    return None


def _mean(values) -> float:
    values = list(values)
    return fmean(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _self_times(spans: list[tuple]) -> list[tuple[str, float]]:
    """``(name, self_ns)`` for spans of one request, nested by time
    containment; a span partly outside its would-be parent is clipped."""
    order = sorted(spans, key=lambda s: (s[1], -s[2]))
    out = []
    stack: list[list] = []  # [name, start, end, covered_ns, child_frontier]
    def _pop():
        name, start, end, covered, _ = stack.pop()
        out.append((name, (end - start) - covered))

    for name, start, end in order:
        while stack and start >= stack[-1][2]:
            _pop()
        if stack:
            parent = stack[-1]
            end = min(end, parent[2])
            lo = max(start, parent[4])
            if end > lo:
                parent[3] += end - lo
                parent[4] = end
        stack.append([name, start, end, 0, start])
    while stack:
        _pop()
    return out


def _status_delta(before: dict, after: dict) -> dict:
    """Counter growth across the timed window, fleet-wide."""

    def counters(status: dict) -> dict:
        out: dict = defaultdict(float)
        for shard in status.get("per_shard", []):
            st = shard.get("status") or {}
            cache = st.get("cache") or {}
            l1 = cache.get("l1") or cache
            l2 = cache.get("l2") or {}
            sched = st.get("scheduler") or {}
            out["l1_hits"] += l1.get("hits", 0)
            out["l1_misses"] += l1.get("misses", 0)
            out["l2_hits"] += l2.get("hits", 0)
            out["l2_misses"] += l2.get("misses", 0)
            out["evictions"] += l1.get("evictions", 0)
            for key in ("requests", "coalesced", "batches", "batch_items"):
                out[key] += sched.get(key, 0)
        router = status.get("router") or {}
        out["routed"] += router.get("requests", 0)
        out["spills"] += (router.get("route_tags") or {}).get("spill", 0)
        return out

    a, b = counters(before), counters(after)
    return {k: b[k] - a.get(k, 0) for k in b}


def per_layer(
    spans: list[tuple],
    records: list[dict],
    status_before: dict,
    status_after: dict,
    window: tuple[int, int],
) -> dict[str, float]:
    """Every per-layer metric of one traced run (see ``BENCHMARK.json``)."""
    t0, t1 = window
    spans = [s for s in spans if t0 <= s[1] <= t1]
    timed = {r["i"] for r in records}
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[0]].append(span)

    def durations(name, scale=1e-6):
        return [(s[2] - s[1]) * scale for s in by_name[name]]

    counts = _status_delta(status_before, status_after)
    m: dict[str, float] = {}

    m["specs.parse_us"] = _mean(durations("specs.parse", 1e-3))
    parses = sum(1 for s in by_name["specs.parse"] if set(s[3]) & timed)
    m["specs.parses_per_request"] = _ratio(parses, len(timed))
    m["api.key_us"] = _mean(durations("api.key", 1e-3))

    m["cache.get_us"] = _mean(durations("cache.get", 1e-3))
    l1_lookups = counts["l1_hits"] + counts["l1_misses"]
    m["cache.hit_ratio"] = _ratio(counts["l1_hits"] + counts["l2_hits"], l1_lookups)
    m["cache.put_ms"] = _mean(durations("cache.put"))
    m["cache.l2_put_ms"] = _mean(durations("cache.l2_put"))
    m["cache.l2_get_ms"] = _mean(durations("cache.l2_get"))
    m["cache.l2_hit_ratio"] = _ratio(
        counts["l2_hits"], counts["l2_hits"] + counts["l2_misses"]
    )
    m["cache.evictions"] = counts["evictions"]

    probes = by_name["delta.probe"]
    m["delta.probe_ms"] = _mean(durations("delta.probe"))
    m["delta.candidates_per_probe"] = _mean(s[4]["candidates"] for s in probes)
    m["delta.hit_ratio"] = _mean(1.0 if s[4]["hit"] else 0.0 for s in probes)
    resolved = [s for s in by_name["delta.resolve"] if s[4]["ok"]]
    m["delta.resolve_ms"] = _mean((s[2] - s[1]) * 1e-6 for s in resolved)
    m["delta.dirty_fraction"] = _mean(s[4]["dirty"] for s in resolved)

    # Queue wait: from a request's last cache lookup (the moment it
    # joined the pending batch) to the start of the batch that ran it.
    enqueued: dict[int, int] = {}
    for s in by_name["cache.get"]:
        for rid in s[3]:
            enqueued[rid] = max(enqueued.get(rid, 0), s[2])
    waits = []
    for s in sorted(by_name["scheduler.batch"], key=lambda s: s[1]):
        for rid in s[3]:
            if rid in enqueued and enqueued[rid] <= s[1]:
                waits.append((s[1] - enqueued.pop(rid)) * 1e-6)
    m["scheduler.queue_wait_ms"] = _mean(waits)
    m["scheduler.batch_ms"] = _mean(durations("scheduler.batch"))
    m["scheduler.mean_batch"] = _ratio(counts["batch_items"], counts["batches"])
    m["scheduler.coalesced_ratio"] = _ratio(counts["coalesced"], counts["requests"])

    m["problems.ftable_ms"] = _mean(durations("problems.ftable"))
    m["problems.ftable_mb"] = _mean(
        (s[4]["n"] + 1) ** 3 * 8 / 2**20 for s in by_name["problems.ftable"]
    )
    ftables = defaultdict(list)
    for s in by_name["problems.ftable"]:
        for rid in s[3]:
            ftables[rid].append(s)
    dp = []
    for s in by_name["sequential.dp"]:
        inner = sum(
            f[2] - f[1]
            for rid in s[3]
            for f in ftables.get(rid, ())
            if s[1] <= f[1] and f[2] <= s[2]
        )
        dp.append((s[2] - s[1] - inner) * 1e-6)
    m["sequential.dp_ms"] = _mean(dp)

    m["transport.encode_us"] = _mean(durations("transport.encode", 1e-3))
    m["transport.decode_us"] = _mean(durations("transport.decode", 1e-3))

    submits = {s[3][0]: s for s in by_name[ROOT] if s[3]}
    first_round: dict[int, int] = {}
    for s in by_name["fleet.round"]:
        for rid in s[3]:
            first_round[rid] = min(first_round.get(rid, s[1]), s[1])
    m["fleet.front_wait_ms"] = _mean(
        (first_round[rid] - submits[rid][1]) * 1e-6
        for rid in first_round
        if rid in submits
    )
    m["fleet.round_ms"] = _mean(durations("fleet.round"))
    m["fleet.round_size"] = _mean(s[4]["size"] for s in by_name["fleet.round"])
    rtts = [s for s in by_name["fleet.rtt"] if s[4].get("server_ms") is not None]
    m["fleet.shard_rtt_ms"] = _mean((s[2] - s[1]) * 1e-6 for s in rtts)
    m["fleet.server_ms"] = _mean(s[4]["server_ms"] for s in rtts)
    m["fleet.wire_ms"] = _mean((s[2] - s[1]) * 1e-6 - s[4]["server_ms"] for s in rtts)

    m["routing.choose_us"] = _mean(durations("routing.choose", 1e-3))
    m["routing.spill_ratio"] = _ratio(counts["spills"], counts["routed"])

    m.update(conservation(spans, records))
    return m


def conservation(spans: list[tuple], records: list[dict]) -> dict[str, float]:
    """Mean per-request self time by layer, attributed and unattributed."""
    latency = {r["i"]: r["latency_ms"] for r in records if r.get("latency_ms") is not None}
    envelope: dict[int, tuple[int, int]] = {}
    for s in spans:
        if s[0] == ROOT and s[3]:
            envelope[s[3][0]] = (s[1], s[2])
    tagged: dict[int, list[tuple]] = defaultdict(list)
    for name, start, end, rids, _ in spans:
        if name == ROOT:
            continue
        for rid in rids:
            env = envelope.get(rid)
            if env is None:
                continue
            lo, hi = max(start, env[0]), min(end, env[1])
            if hi > lo:
                tagged[rid].append((name, lo, hi))
    totals: dict[str, float] = defaultdict(float)
    attributed_all, remainder_all = [], []
    for rid in latency:
        if rid not in envelope:
            continue
        attributed = 0.0
        for name, self_ns in _self_times(tagged.get(rid, [])):
            layer = layer_of(name)
            if layer is not None:
                totals[layer] += self_ns * 1e-6
                attributed += self_ns * 1e-6
        attributed_all.append(attributed)
        remainder_all.append(latency[rid] - attributed)
    n = len(attributed_all)
    out = {f"self.{layer}_ms": totals[layer] / n if n else 0.0 for layer in sorted(set(LAYERS.values()))}
    out["trace.attributed_ms"] = _mean(attributed_all)
    out["trace.unattributed_ms"] = _mean(remainder_all)
    return out
