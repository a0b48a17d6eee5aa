"""Regression baseline: consistent-hash load imbalance under Zipf.

The fleet's :class:`~repro.service.fleet.HashRing` places *keys*
evenly-ish, but a Zipf-popular workload concentrates *requests*: the
hot head of the popularity law all hashes to whichever shards happen to
own those few keys. This file pins the measured imbalance of the
canonical E13 Zipf trace (400 requests, 16-instance pool, s = 1.1,
seed 7) over a 4-shard ring:

    per-shard request counts  [8, 199, 97, 96]
    coefficient of variation  0.6762
    peak-to-mean              1.99

— i.e. the busiest shard would absorb ~2x its fair share while
another nearly starves, if every request reached a shard. In a fleet
the front end answers the repeats of answered instances itself, so
these counts bound what the ring alone does with a Zipf head.
Everything here is seeded and deterministic, so the numbers are exact
equalities, not bands.
"""

from collections import Counter

from repro.loadgen import TraceConfig, generate_trace
from repro.loadgen.analyze import imbalance
from repro.problems.specs import route_key_from_spec
from repro.service.fleet import HashRing

BASELINE_TRACE = TraceConfig(
    count=400, pool=16, popularity="zipf", zipf_s=1.1,
    family="chain", n=24, seed=7,
)
SHARDS = 4


def shard_counts(config: TraceConfig, shards: int) -> list[int]:
    ring = HashRing(range(shards))
    owners = Counter(
        ring.route(route_key_from_spec(ev.spec)) for ev in generate_trace(config)
    )
    return [owners.get(s, 0) for s in range(shards)]


class TestZipfImbalanceBaseline:
    def test_measured_baseline_is_pinned(self):
        counts = shard_counts(BASELINE_TRACE, SHARDS)
        assert counts == [8, 199, 97, 96]
        measured = imbalance(counts)
        assert measured["cv"] == 0.6762
        assert measured["peak_to_mean"] == 1.99

    def test_skew_is_a_popularity_effect_not_a_ring_defect(self):
        """The same pool routed uniformly is markedly more even — the
        ring itself is fine; it is the Zipf head that concentrates.
        (Still not perfectly even: 16 keys over 4 shards is a small
        sample.)"""
        uniform = TraceConfig(**{**BASELINE_TRACE.to_dict(), "popularity": "uniform"})
        cv_zipf = imbalance(shard_counts(BASELINE_TRACE, SHARDS))["cv"]
        cv_uniform = imbalance(shard_counts(uniform, SHARDS))["cv"]
        assert cv_uniform < cv_zipf

    def test_every_request_routes_inside_the_fleet(self):
        counts = shard_counts(BASELINE_TRACE, SHARDS)
        assert sum(counts) == BASELINE_TRACE.count


class TestFirstRequestPlacement:
    """What a fleet with a front table places when no repeat is in
    flight: each distinct key once, on its ring owner."""

    def test_first_requests_are_pinned(self):
        ring = HashRing(range(SHARDS))
        first = {}
        for ev in generate_trace(BASELINE_TRACE):
            key = route_key_from_spec(ev.spec)
            first.setdefault(key, ring.route(key))
        assert len(first) == BASELINE_TRACE.pool
        owners = Counter(first.values())
        counts = [owners.get(s, 0) for s in range(SHARDS)]
        assert counts == [1, 5, 4, 6]
        assert imbalance(counts) == {"counts": counts, "cv": 0.4677, "peak_to_mean": 1.5}

    def test_the_hot_keys_owner_is_the_busiest_shard(self):
        """The raw skew is the Zipf head's: the most popular key alone
        sends 145 of the 400 requests to shard 1, the shard that carries
        199."""
        ring = HashRing(range(SHARDS))
        popularity = Counter(
            route_key_from_spec(ev.spec) for ev in generate_trace(BASELINE_TRACE)
        )
        hot, hits = popularity.most_common(1)[0]
        assert (hits, ring.route(hot)) == (145, 1)
        counts = shard_counts(BASELINE_TRACE, SHARDS)
        assert counts.index(max(counts)) == 1
