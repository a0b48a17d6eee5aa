"""The consistent-hash ring: memoized lookups and the placement a
mutated ring shares with a fresh one.

Everything here is offline (no shard processes): the ring is a pure
function of its shard set, which is why these invariants can be exact
assertions instead of bands (the near-even shares of uniform keys are
the bands).
"""

import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.service.routing import HashRing, _hash_point

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


class TestRingPlacement:
    """What the fleet relies on now that the ring alone places every
    shard-bound request: a placement that is a pure function of the key
    and the shard set, moves as little as possible when the set changes,
    and splits uniform keys near evenly."""

    def test_placement_ignores_construction_order_and_duplicate_ids(self):
        ring = HashRing([3, 1, 1, 0, 2])
        assert len(ring) == 4 and ring.shard_ids() == (0, 1, 2, 3)
        fresh = HashRing(range(4))
        assert [ring.route(k) for k in KEYS] == [fresh.route(k) for k in KEYS]

    def test_a_one_shard_ring_owns_every_key(self):
        ring = HashRing([7])
        assert {ring.route(k) for k in KEYS} == {7}

    @pytest.mark.parametrize("shards", [[5, 9], [0, 2, 4, 6, 8], list(range(7))])
    def test_every_key_routes_to_a_member(self, shards):
        ring = HashRing(shards)
        assert {ring.route(k) for k in KEYS} == set(shards)

    def test_shard_ids_are_plain_ints(self):
        """Records carry the owner as JSON, so a numpy id from the
        caller must come back out as a plain int."""
        ring = HashRing(np.arange(3))
        assert all(type(s) is int for s in ring.shard_ids())
        owners = {ring.route(k) for k in KEYS}
        assert all(type(s) is int for s in owners)
        json.dumps(sorted(owners))

    @given(key=st.binary(max_size=64))
    def test_any_byte_key_routes_to_a_member(self, key):
        assert HashRing([2, 3, 5]).route(key) in (2, 3, 5)

    @pytest.mark.parametrize("width", [3, 7])
    def test_a_new_shard_takes_about_its_fair_share(self, width):
        """Growing from ``width`` to ``width + 1`` shards moves close to
        1/(width + 1) of the keys, all onto the new shard (measured
        1.03x and 0.97x of that share on 4096 keys)."""
        small, big = HashRing(range(width)), HashRing(range(width + 1))
        keys = [f"key-{i}".encode() for i in range(4096)]
        moved = [big.route(k) for k in keys if big.route(k) != small.route(k)]
        assert set(moved) == {width}
        share = len(moved) / len(keys) * (width + 1)
        assert 0.9 < share < 1.1, share

    def test_removal_moves_only_the_removed_shards_keys(self):
        """Retiring a shard hands its keys to the survivors and leaves
        every other key where it was; the vnodes spread the handed-over
        keys over every survivor, not onto one neighbour."""
        before, after = HashRing(range(4)), HashRing([0, 1, 3])
        taken_over = Counter()
        for key in KEYS:
            owner = before.route(key)
            if owner == 2:
                taken_over[after.route(key)] += 1
            else:
                assert after.route(key) == owner, "a surviving shard's key moved"
        assert set(taken_over) == {0, 1, 3}

    def test_route_wraps_past_the_last_point(self):
        """A key hashing past the ring's last point belongs to the
        owner of its first point."""
        ring = HashRing(range(4))
        points = sorted(
            (point, sid) for sid in range(4) for point in ring._point_cache[sid]
        )
        key = next(
            k
            for k in (f"wrap-{i}".encode() for i in range(1 << 16))
            if _hash_point(k) > points[-1][0]
        )
        assert ring.route(key) == points[0][1]

    def test_uniform_keys_split_near_evenly(self):
        """256 points per shard put each of 4 shards within 10% of its
        fair share of 16384 distinct keys (measured 0.925-1.058)."""
        ring = HashRing(range(4))
        counts = Counter(ring.route(f"key-{i}".encode()) for i in range(16384))
        shares = [counts[s] / 4096 for s in range(4)]
        assert all(0.9 < share < 1.1 for share in shares), shares

    def test_placement_does_not_depend_on_the_hash_seed(self):
        """Every process places a key alike: the points come from
        blake2b, not from Python's per-process string hash."""
        code = (
            "import json\n"
            "from repro.service.routing import HashRing\n"
            "ring = HashRing(range(4))\n"
            "print(json.dumps([ring.route(f'key-{i}'.encode()) for i in range(256)]))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        ring = HashRing(range(4))
        expected = [ring.route(k) for k in KEYS]
        for seed in ("0", "4242"):
            out = subprocess.run(
                [sys.executable, "-c", code],
                env=dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED=seed),
                capture_output=True,
                text=True,
                timeout=60,
                check=True,
            ).stdout
            assert json.loads(out) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(0, 7), st.booleans()), max_size=24
        )
    )
    def test_any_mutation_sequence_matches_a_fresh_ring(self, ops):
        """Adds, removes and routes in any order leave the ring placing
        exactly as a fresh ring over its final shard set, and each
        route after a burst of mutations merges the arrays once."""
        ring = HashRing(range(3))
        members = {0, 1, 2}
        routes_after_mutation = 0
        dirty = True
        for add, sid, route in ops:
            if add:
                ring.add_shard(sid)
                dirty = dirty or sid not in members
                members.add(sid)
            elif sid in members and len(members) > 1:
                ring.remove_shard(sid)
                members.remove(sid)
                dirty = True
            if route:
                ring.route(b"probe")
                routes_after_mutation += dirty
                dirty = False
        assert ring.shard_ids() == tuple(sorted(members))
        fresh = HashRing(members)
        assert [ring.route(k) for k in KEYS[:64]] == [fresh.route(k) for k in KEYS[:64]]
        assert ring.rebuilds == routes_after_mutation + dirty

    def test_membership_queries_do_not_rebuild(self):
        ring = HashRing(range(3))
        ring.add_shard(3)
        assert ring.shard_ids() == (0, 1, 2, 3) and len(ring) == 4 and 3 in ring
        assert ring.rebuilds == 0
        ring.route(b"first")
        assert ring.rebuilds == 1

    def test_a_refused_removal_leaves_the_ring_as_it_was(self):
        ring = HashRing([4])
        before = [ring.route(k) for k in KEYS[:32]]
        for sid in (4, 5):
            with pytest.raises(ReproError):
                ring.remove_shard(sid)
        assert ring.shard_ids() == (4,)
        assert [ring.route(k) for k in KEYS[:32]] == before
        assert ring.rebuilds == 1
