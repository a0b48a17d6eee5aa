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

— i.e. the busiest shard absorbs ~2x its fair share while another
nearly starves. **This is the baseline ROADMAP item 4 (bounded-load /
load-aware routing) must beat**: whatever replaces plain consistent
hashing should cut the CV well below this pinned value on exactly this
trace. Everything here is seeded and deterministic, so the numbers are
exact equalities, not bands — including the bounded-load router's
placement over the very same trace, pinned below the baseline (the
offline twin of the ``bench_e14_routing.py --smoke`` CI gate).
"""

from collections import Counter

from repro.loadgen import TraceConfig, generate_trace
from repro.loadgen.analyze import imbalance
from repro.problems.specs import route_key_from_spec
from repro.service.fleet import HashRing
from repro.service.routing import simulate_routing

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
        sample, which is exactly why bounded-load routing is on the
        roadmap rather than more vnodes.)"""
        uniform = TraceConfig(**{**BASELINE_TRACE.to_dict(), "popularity": "uniform"})
        cv_zipf = imbalance(shard_counts(BASELINE_TRACE, SHARDS))["cv"]
        cv_uniform = imbalance(shard_counts(uniform, SHARDS))["cv"]
        assert cv_uniform < cv_zipf

    def test_default_router_places_exactly_the_baseline(self):
        """The fleet's default policy (``load_factor=inf``) is the ring:
        the offline simulation reproduces the pinned counts, all tagged
        ``ring``."""
        keys = [route_key_from_spec(ev.spec) for ev in generate_trace(BASELINE_TRACE)]
        sim = simulate_routing(keys, range(SHARDS))
        assert sim["counts"] == [8, 199, 97, 96]
        assert sim["tags"] == {"ring": BASELINE_TRACE.count}

    def test_every_request_routes_inside_the_fleet(self):
        counts = shard_counts(BASELINE_TRACE, SHARDS)
        assert sum(counts) == BASELINE_TRACE.count


class TestBoundedLoadBeatsTheBaseline:
    """ROADMAP item 4, landed: the bounded-load router over exactly the
    baseline trace. Deterministic (offline placement simulation), so
    the improvement is pinned as exact numbers the same way the
    baseline is."""

    def trace_keys(self):
        return [route_key_from_spec(ev.spec) for ev in generate_trace(BASELINE_TRACE)]

    def test_bounded_router_beats_the_pinned_baseline(self):
        sim = simulate_routing(
            self.trace_keys(), range(SHARDS), load_factor=1.25
        )
        measured = imbalance(sim["counts"])
        # the pinned ring numbers above are 0.6762 / 1.99; the margin
        # here is deliberately generous so reasonable routing-policy
        # tuning doesn't churn this regression test
        assert measured["cv"] < 0.3
        assert measured["peak_to_mean"] < 1.5
        assert sum(sim["counts"]) == BASELINE_TRACE.count

    def test_bounded_placements_are_pinned(self):
        """The exact placements behind the E14 ``bounded`` row."""
        sim = simulate_routing(self.trace_keys(), range(SHARDS), load_factor=1.25)
        assert sim["counts"] == [104, 89, 93, 114]
        assert sim["tags"] == {"affinity": 267, "ring": 116, "spill": 17}

    def test_hot_head_spills_but_cold_tail_keeps_affinity(self):
        """Zipf concentrates a few hot keys; bounding moves some of
        their repeats (spill/affinity tags) while the cold tail still
        routes to its ring owner — locality is preserved where load
        allows."""
        sim = simulate_routing(
            self.trace_keys(), range(SHARDS), load_factor=1.25
        )
        assert sim["tags"]["spill"] > 0
        assert sim["tags"]["affinity"] > 0
        assert sim["tags"]["ring"] > 0
