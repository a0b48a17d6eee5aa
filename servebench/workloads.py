"""Seeded workload generation: the benchmark's three traffic mixes.

Every workload is a pure function of ``(seed, seconds)``: the same pair
always yields the same specs at the same scheduled offsets. The program
under test receives only the generated problem specs (plain
``repro.problems.specs`` JSON), never the seed.

Open-loop arrivals are a Poisson process conditioned on its count: the
``rate * seconds`` arrival times are sorted uniform draws over
``[0, seconds)``, which is exactly how a Poisson process places a known
number of arrivals in a window. Fixing the count keeps the amount of
work identical across seeds, so seeds vary *which* requests arrive
*when*, not how many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.loadgen import TraceEvent
from repro.loadgen.popularity import build_pool, choose_indices

#: hit-path and the warm-up: Zipf-popular chain instances
HIT_POOL = 16
HIT_N = 24
ZIPF_S = 1.1

#: hit-path offered load (req/s): low enough that the front end keeps
#: headroom when the host slows the machine down
HIT_RATE = 100.0
#: latency limit a hit-path answer must meet to count as goodput (ms)
HIT_LIMIT_MS = 20.0

#: cold-path instances per second of run, sized so that sending them
#: one at a time takes about the run length on a 2-CPU machine
COLD_PER_SECOND = 10.0
COLD_BST_RANGE = (48, 112)
COLD_CHAIN_RANGE = (48, 160)
#: one cold solve must answer within this limit to count as goodput
COLD_LIMIT_MS = 1_000.0

#: edit-mix offered load (req/s), base sizes and mix
EDIT_RATE = 20.0
EDIT_BASE_SIZES = tuple(range(56, 64))
EDIT_FRESH_SHARE = 0.7
#: edits touch dims positions in the right fifth of a base
EDIT_WINDOW = 0.2
EDIT_LIMIT_MS = 250.0

#: seconds and rate (req/s) of hits on the hit-path pool replayed after
#: set-up, before the timed window: the fleet's request path and the
#: machine are warm when timing starts
WARMUP_S = 3.0
WARMUP_RATE = 100.0

#: chain dimension range for explicit-data instances
DIM_RANGE = (5, 100)


@dataclass
class Workload:
    """One generated workload: what setup pre-solves, what the timed
    window replays, and how the timed requests are classified."""

    name: str
    seed: int
    events: list[TraceEvent]
    #: specs pre-solved during setup (the warm state the workload assumes)
    warm_specs: list[dict]
    #: latency limit (ms) for goodput
    limit_ms: float
    #: per-request kind: "hit", "cold", "edit" or "repeat"
    kinds: list[str]
    #: untimed hits on the pre-solved pool, replayed before the timed window
    warmup: list[TraceEvent]
    #: ``"open"``: each request leaves at its ``at_s``; ``"closed"``: the
    #: next leaves when the previous answer lands
    mode: str = "open"


def _arrivals(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    count = max(1, int(round(rate * seconds)))
    return np.sort(rng.uniform(0.0, seconds, size=count))


def _hit_pool(seed: int) -> list[dict]:
    return build_pool("chain", HIT_N, HIT_POOL, seed=seed)


def _zipf_hits(rng: np.random.Generator, pool: list[dict], rate: float, seconds: float, kind: str):
    times = _arrivals(rng, rate, seconds)
    picks = choose_indices("zipf", len(pool), len(times), seed=rng, zipf_s=ZIPF_S)
    return [(float(t), dict(pool[int(p)]), kind) for t, p in zip(times, picks)]


def _workload(name, seed, requests, warm_specs, limit_ms, mode="open") -> Workload:
    """A workload from due-ordered ``(at_s, spec, kind)`` requests;
    ``warm_specs`` must include the hit-path pool the warm-up hits."""
    warm_rng = np.random.default_rng([seed, 0])
    warmup = _zipf_hits(warm_rng, _hit_pool(seed), WARMUP_RATE, WARMUP_S, "warm")
    return Workload(
        name=name,
        seed=seed,
        events=[TraceEvent(index=i, at_s=at, spec=spec) for i, (at, spec, _) in enumerate(requests)],
        warm_specs=warm_specs,
        limit_ms=limit_ms,
        kinds=[r[2] for r in requests],
        warmup=[TraceEvent(index=i, at_s=at, spec=spec) for i, (at, spec, _) in enumerate(warmup)],
        mode=mode,
    )


def hit_path(seed: int, seconds: float) -> Workload:
    """Open-loop Poisson hits over a pre-solved Zipf pool."""
    rng = np.random.default_rng([seed, 1])
    pool = _hit_pool(seed)
    requests = _zipf_hits(rng, pool, HIT_RATE, seconds, "hit")
    return _workload("hit-path", seed, requests, pool, HIT_LIMIT_MS)


def cold_path(seed: int, seconds: float) -> Workload:
    """Distinct never-seen instances, sent one at a time: BSTs, then
    chains, each family in rising size."""
    per_family = max(1, int(round(COLD_PER_SECOND * seconds / 2)))
    # Every seed solves the same sizes (the seed picks the instances), so
    # every seed does the same amount of work. The order keeps the memory
    # peak steady: once a large freed table has raised the C allocator's
    # mapping threshold, a smaller one comes from the heap, which keeps
    # it, so sizes that fall after a large solve pile up. Alternating
    # chain and BST at each size peaked at 205-237 MB in one shard-like
    # process; this order, with the BSTs below the largest chains, at
    # 180-186 MB.
    requests = []
    for family, (lo, hi) in (("bst", COLD_BST_RANGE), ("chain", COLD_CHAIN_RANGE)):
        for n in np.linspace(lo, hi, per_family).round().astype(int):
            spec = {"family": family, "n": int(n), "seed": seed * 100_000 + len(requests)}
            requests.append((0.0, spec, "cold"))
    # Warm-up instances outside the timed sizes: they pay first-request
    # costs (lazy imports, L2 directory creation) before the timed window.
    warm = [{"family": fam, "n": 8, "seed": seed} for fam in ("chain", "bst")]
    return _workload("cold-path", seed, requests, warm + _hit_pool(seed), COLD_LIMIT_MS, mode="closed")


def _dims(rng: np.random.Generator, n: int) -> list[int]:
    low, high = DIM_RANGE
    return [int(x) for x in rng.integers(low, high + 1, size=n + 1)]


def _edit(rng: np.random.Generator, base: list[int]) -> list[int]:
    """A copy of ``base`` with one or two dims in its right fifth changed."""
    n = len(base) - 1
    first = math.ceil((1.0 - EDIT_WINDOW) * n)
    dims = list(base)
    for pos in rng.choice(np.arange(first, n + 1), size=int(rng.integers(1, 3)), replace=False):
        old = dims[int(pos)]
        while dims[int(pos)] == old:
            dims[int(pos)] = int(rng.integers(DIM_RANGE[0], DIM_RANGE[1] + 1))
    return dims


def edit_mix(seed: int, seconds: float) -> Workload:
    """Open-loop Poisson mix of fresh right-fifth edits of pre-solved
    bases (delta re-solves) and repeats of earlier bases or edits (exact
    hits)."""
    rng = np.random.default_rng([seed, 3])
    sizes = [int(n) for n in rng.permutation(np.array(EDIT_BASE_SIZES))]
    bases = [_dims(rng, n) for n in sizes]
    history = [list(b) for b in bases]
    seen = {tuple(b) for b in bases}
    times = _arrivals(rng, EDIT_RATE, seconds)
    # An exact share of fresh edits, in seeded order: every seed does the
    # same amount of delta work.
    fresh = np.zeros(len(times), dtype=bool)
    fresh[: int(round(EDIT_FRESH_SHARE * len(times)))] = True
    fresh = rng.permutation(fresh)
    requests = []
    for t, is_fresh in zip(times, fresh):
        if is_fresh:
            dims = _edit(rng, bases[int(rng.integers(len(bases)))])
            while tuple(dims) in seen:
                dims = _edit(rng, bases[int(rng.integers(len(bases)))])
            seen.add(tuple(dims))
            history.append(dims)
            kind = "edit"
        else:
            dims = list(history[int(rng.integers(len(history)))])
            kind = "repeat"
        requests.append((float(t), {"dims": dims}, kind))
    warm = [{"dims": b} for b in bases] + _hit_pool(seed)
    return _workload("edit-mix", seed, requests, warm, EDIT_LIMIT_MS)


WORKLOADS = {"hit-path": hit_path, "cold-path": cold_path, "edit-mix": edit_mix}
