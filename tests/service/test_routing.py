"""Load-aware routing: ring memoization, bounded-load spill semantics,
and the property that ``load_factor=inf`` is the ring.

Everything here is offline (no shard processes): the policy is a pure
function of ``(key, ring, loads)`` and its own affinity map, and
:func:`~repro.service.routing.simulate_routing` replays key sequences
deterministically — which is exactly why these invariants can be exact
assertions instead of bands.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.loadgen.analyze import imbalance
from repro.service import routing
from repro.service.routing import (
    BoundedLoadPolicy,
    HashRing,
    ShardLoad,
    simulate_routing,
)

#: a reusable batch of distinct keys (deterministic, no RNG needed)
KEYS = [f"key-{i}".encode() for i in range(256)]


class TestHashRingMemoization:
    """The satellite fix: the sorted vnode arrays are merged once per
    burst of mutations, not once per call that follows one."""

    def test_routing_rebuilds_exactly_once(self):
        ring = HashRing(range(4))
        assert ring.rebuilds == 0  # construction only invalidates
        for key in KEYS:
            ring.route(key)
        assert ring.rebuilds == 1, "steady-state routing must not rebuild"

    def test_mutation_burst_costs_one_rebuild(self):
        ring = HashRing(range(2))
        ring.route(b"warm")
        assert ring.rebuilds == 1
        ring.add_shard(2)
        ring.add_shard(3)
        ring.remove_shard(0)
        for key in KEYS:
            ring.route(key)
        assert ring.rebuilds == 2, "N mutations then M routes is one merge"

    def test_successors_shares_the_memoized_arrays(self):
        ring = HashRing(range(4))
        list(ring.successors(b"a"))
        for key in KEYS:
            ring.route(key)
            list(ring.successors(key))
        assert ring.rebuilds == 1

    def test_mutated_ring_matches_fresh_construction(self):
        """add/remove must land on exactly the placement a fresh ring
        over the same shard set computes — the re-added index reclaims
        its old segment (the scale-up handoff contract)."""
        ring = HashRing(range(4))
        ring.remove_shard(2)
        assert [ring.route(k) for k in KEYS] == [
            HashRing([0, 1, 3]).route(k) for k in KEYS
        ]
        ring.add_shard(2)
        assert [ring.route(k) for k in KEYS] == [
            HashRing(range(4)).route(k) for k in KEYS
        ]

    def test_readd_reuses_cached_vnode_points(self):
        ring = HashRing(range(4))
        points_before = ring._point_cache[2]
        ring.remove_shard(2)
        ring.add_shard(2)
        assert ring._point_cache[2] is points_before

    def test_idempotent_add_does_not_invalidate(self):
        ring = HashRing(range(4))
        ring.route(b"warm")
        ring.add_shard(1)  # already present
        ring.route(b"again")
        assert ring.rebuilds == 1

    def test_membership_protocol(self):
        ring = HashRing(range(3))
        assert len(ring) == 3 and 2 in ring and 7 not in ring
        assert ring.shard_ids() == (0, 1, 2)

    def test_cannot_remove_last_or_unknown_shard(self):
        ring = HashRing([5])
        with pytest.raises(ReproError, match="last shard"):
            ring.remove_shard(5)
        with pytest.raises(ReproError, match="not on the ring"):
            ring.remove_shard(0)

    def test_successors_walk_is_complete_and_starts_at_the_owner(self):
        ring = HashRing(range(4))
        for key in KEYS[:32]:
            walk = list(ring.successors(key))
            assert walk[0] == ring.route(key)
            assert sorted(walk) == [0, 1, 2, 3]


class TestShardLoad:
    def test_value_blends_placements_and_inflight(self):
        load = ShardLoad(assigned=10)
        load.inflight = 3
        assert load.value() == 13

    def test_snapshot_is_json_shaped(self):
        snap = ShardLoad(assigned=2).snapshot()
        assert snap == {"assigned": 2, "inflight": 0}


class TestBoundedDegeneratesToRing:
    """``load_factor=inf`` makes the capacity test vacuous and records no
    affinity hint, so bounded routing IS ring routing, placement for
    placement — through scale events and whatever the load gauges
    read."""

    @given(
        events=st.lists(
            st.one_of(
                st.tuples(st.just("key"), st.sampled_from(KEYS[:16])),
                st.tuples(st.sampled_from(["add", "remove"]), st.integers(0, 5)),
            ),
            min_size=1,
            max_size=80,
        ),
        gauges=st.lists(
            st.tuples(st.integers(0, 1000), st.integers(0, 64)),
            min_size=6,
            max_size=6,
        ),
    )
    @settings(max_examples=80)
    def test_every_placement_is_the_ring_owner(self, events, gauges):
        ring = HashRing(range(2))
        loads = {}
        for sid, (assigned, inflight) in enumerate(gauges):
            loads[sid] = ShardLoad(assigned)
            loads[sid].inflight = inflight
        policy = BoundedLoadPolicy(math.inf)
        for kind, value in events:
            if kind == "add":
                ring.add_shard(value)
            elif kind == "remove":
                if value in ring and len(ring) > 1:
                    ring.remove_shard(value)
            else:
                sid, tag = policy.choose(value, ring, loads)
                assert (sid, tag) == (ring.route(value), "ring")
                loads[sid].assigned += 1
        assert not policy._affinity

    @given(keys=st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=64))
    @settings(max_examples=40)
    def test_inf_factor_reproduces_ring_exactly(self, keys):
        """The default factor over a fixed fleet: the simulated counts
        are a direct tally of ring owners, every tag ``ring``."""
        ring = HashRing(range(4))
        owners = Counter(ring.route(key) for key in keys)
        sim = simulate_routing(keys, range(4))
        assert sim["counts"] == [owners.get(sid, 0) for sid in range(4)]
        assert sim["tags"] == {"ring": len(keys)}
        assert sim["load_factor"] is None  # JSON-able inf

    def test_finite_factor_beats_ring_on_a_hot_key(self):
        """One totally hot key: ring piles everything on the owner;
        bounded caps the owner at ~load_factor times the mean."""
        keys = [b"hot"] * 100
        ring = imbalance(simulate_routing(keys, range(4))["counts"])
        bounded = imbalance(
            simulate_routing(keys, range(4), load_factor=1.25)["counts"]
        )
        assert ring["peak_to_mean"] == 4.0
        assert bounded["peak_to_mean"] <= 1.25 * 1.1  # capacity slack margin
        assert bounded["cv"] < ring["cv"]


class TestBoundedPolicySemantics:
    def test_overloaded_owner_spills_to_the_ring_successor(self):
        ring = HashRing(range(4))
        loads = {sid: ShardLoad() for sid in range(4)}
        key = b"spillme"
        owner = ring.route(key)
        successor = list(ring.successors(key))[1]
        loads[owner].assigned = 100  # far over any capacity
        policy = BoundedLoadPolicy(load_factor=1.25)
        sid, tag = policy.choose(key, ring, loads)
        assert sid == successor and tag == "spill"

    def test_repeats_of_a_spilled_key_keep_their_affinity(self):
        ring = HashRing(range(4))
        loads = {sid: ShardLoad() for sid in range(4)}
        key = b"hotkey"
        owner = ring.route(key)
        loads[owner].assigned = 100
        policy = BoundedLoadPolicy(load_factor=1.25)
        first, tag1 = policy.choose(key, ring, loads)
        loads[first].assigned += 1
        second, tag2 = policy.choose(key, ring, loads)
        assert tag1 == "spill" and tag2 == "affinity"
        assert second == first, "the repeat must follow its L1 entry"
        # Once the hint is over capacity and the owner is not, the key
        # goes home and its hint is dropped.
        loads[owner].assigned = 0
        loads[first].assigned = 100
        assert policy.choose(key, ring, loads) == (owner, "ring")
        assert key not in policy._affinity

    def test_spill_walks_the_ring_in_order(self):
        """With the owner and its first successor both overloaded the
        key spills to the second successor, not to any shard with room."""
        ring = HashRing(range(4))
        loads = {sid: ShardLoad() for sid in range(4)}
        key = b"spillme"
        owner, first, second, _ = ring.successors(key)
        loads[owner].assigned = loads[first].assigned = 100
        policy = BoundedLoadPolicy(load_factor=1.25)
        assert policy.choose(key, ring, loads) == (second, "spill")

    def test_hint_wins_over_a_recovered_owner(self):
        """A spilled key's repeats follow its hint, where its L1 entry
        lives, even once the owner has headroom again."""
        ring = HashRing(range(4))
        loads = {sid: ShardLoad() for sid in range(4)}
        key = b"hotkey"
        owner = ring.route(key)
        loads[owner].assigned = 100
        policy = BoundedLoadPolicy(load_factor=1.25)
        first, tag = policy.choose(key, ring, loads)
        assert tag == "spill"
        loads[owner].assigned = 0
        assert policy.choose(key, ring, loads) == (first, "affinity")

    def test_hint_on_a_scaled_away_shard_is_ignored(self):
        """A hint whose shard left the ring is not a candidate: the key
        goes back to its owner and the stale hint is dropped."""
        ring = HashRing(range(4))
        loads = {sid: ShardLoad() for sid in range(4)}
        key = b"hotkey"
        owner = ring.route(key)
        loads[owner].assigned = 100
        policy = BoundedLoadPolicy(load_factor=1.25)
        first, _ = policy.choose(key, ring, loads)
        ring.remove_shard(first)
        loads[owner].assigned = 0
        assert policy.choose(key, ring, loads) == (owner, "ring")
        assert key not in policy._affinity

    def test_affinity_map_is_bounded(self, monkeypatch):
        monkeypatch.setattr(routing, "_AFFINITY_LIMIT", 8)
        policy = BoundedLoadPolicy(load_factor=1.25)
        ring = HashRing(range(4))
        # Shards 0-2 are far over capacity, so every key they own
        # spills to shard 3 and records a hint.
        loads = {sid: ShardLoad(assigned=100) for sid in range(3)}
        loads[3] = ShardLoad()
        tags = [policy.choose(f"k{i}".encode(), ring, loads)[1] for i in range(64)]
        assert tags.count("spill") > 8
        assert len(policy._affinity) == 8

    def test_sub_one_load_factor_rejected(self):
        with pytest.raises(ReproError, match="load_factor"):
            BoundedLoadPolicy(load_factor=0.9)
        with pytest.raises(ReproError, match="load_factor"):
            BoundedLoadPolicy(load_factor=float("nan"))


class TestSimulateRouting:
    def test_simulation_conserves_requests(self):
        out = simulate_routing(KEYS, range(4), load_factor=1.25)
        assert sum(out["counts"]) == len(KEYS)
        assert sum(out["tags"].values()) == len(KEYS)
        assert out["load_factor"] == 1.25
        assert simulate_routing(KEYS, range(4))["load_factor"] is None  # JSON-able inf
