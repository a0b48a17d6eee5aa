"""Load-aware placement over the consistent-hash ring.

Pure consistent hashing gives perfect cache affinity (equal keys always
land on the shard that already cached them) but no regard for load.
Under a Zipf-popular workload the hot head of the popularity law all
hashes to whichever shards own those few keys, and the measured
imbalance is severe: the canonical 400-request Zipf trace over a
4-shard ring places ``[8, 199, 97, 96]``, CV 0.6762, peak-to-mean 1.99
(``tests/loadgen/test_hashring_imbalance.py``). One shard absorbs 2x
its fair share while another starves.

:class:`BoundedLoadPolicy` is the fleet's one placement policy:
**bounded-load consistent hashing**. A request prefers its ring owner,
but when the owner's load exceeds ``load_factor`` times the fleet mean
it *spills* to the next shard along the ring (then the next, ...), so
the peak-to-mean ratio is bounded by ``load_factor`` by construction
while cold keys keep perfect affinity. A **cache-affinity hint**
remembers where a spilled key landed, so its repeats keep hitting the
shard that now holds its L1 entry instead of re-spilling somewhere new;
a spill lands on a shard mounting the same shared L2, so the move costs
one disk hit, not a re-solve. The default ``load_factor=inf`` never
spills and so never records a hint: every request goes to its ring
owner in every fleet state, scale events included (pinned by a property
test).

The policy knows nothing of shard liveness. A dead shard is chosen like
any other, and the fleet's dispatch path respawns it under that shard's
lock before sending, so a killed shard heals on its next request
whatever the load factor.

The **load signal** blends two components per shard, both maintained
by the router on its dispatch path (:class:`ShardLoad`): cumulative
placements (``assigned`` — the long-run balance the E14 count-CV gate
measures) and live in-flight requests (``inflight`` — accepted but
unanswered, the router-side view of queue depth). Neither depends on
whether anyone polls shard status.

Everything here is synchronous, allocation-light and deterministic
given the request order — :func:`simulate_routing` replays a key
sequence through the policy offline, which is how the placements in
``bench_e14_routing.py`` and the regression tests are produced without
spawning a single shard process.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from collections import Counter, OrderedDict
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import ReproError

__all__ = ["HashRing", "ShardLoad", "BoundedLoadPolicy", "simulate_routing"]

#: ring points per shard — enough that a 4-shard ring is within a few
#: percent of a perfectly even split, cheap enough to rebuild at will
_RING_REPLICAS = 256

#: bound on the affinity map: remembers where the most recent distinct
#: keys landed; old keys simply fall back to their ring owner
_AFFINITY_LIMIT = 4096


def _hash_point(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


class HashRing:
    """Consistent hashing of byte keys onto shard indices.

    Each shard owns :data:`_RING_REPLICAS` pseudo-random points on a
    64-bit ring; a key routes to the first shard point at or after its
    own hash. The placement depends only on ``(shard index, replica)``
    strings through blake2b, so every process — router, client, or an
    operator's script — computes the identical mapping, and a respawned
    shard reclaims exactly the keyspace its predecessor owned.

    The ring is **mutable** (:meth:`add_shard` / :meth:`remove_shard`
    are what dynamic fleet scaling calls between batches) and
    **memoized**: each shard's vnode points are computed once and
    cached forever, and the merged sorted lookup arrays are rebuilt
    lazily — exactly once per burst of mutations, not once per call
    that follows one (:attr:`rebuilds` counts them; the regression
    test pins the invariant). Routing therefore stays O(log v) during
    scale events instead of degrading to O(v log v) per lookup.
    """

    def __init__(self, shard_ids: Iterable[int]) -> None:
        self._shards: Set[int] = set()
        #: per-shard vnode points, cached across remove/re-add cycles
        self._point_cache: Dict[int, list] = {}
        self._points: list = []
        self._owners: list = []
        self._dirty = True
        #: how many times the sorted lookup arrays were actually merged
        #: — the memoization regression counter
        self.rebuilds = 0
        for sid in shard_ids:
            self.add_shard(sid)
        if not self._shards:
            raise ReproError("a hash ring needs at least one shard")

    # -- mutation --------------------------------------------------------

    def add_shard(self, sid: int) -> None:
        """Add ``sid``'s vnodes to the ring (idempotent). The sorted
        lookup arrays are only invalidated, not rebuilt — the next
        :meth:`route` pays one merge for any number of mutations."""
        sid = int(sid)
        if sid in self._shards:
            return
        self._shards.add(sid)
        if sid not in self._point_cache:
            self._point_cache[sid] = [
                _hash_point(f"shard-{sid}:{replica}".encode())
                for replica in range(_RING_REPLICAS)
            ]
        self._dirty = True

    def remove_shard(self, sid: int) -> None:
        """Remove ``sid`` from the ring. Its cached vnode points are
        kept, so a later re-add (scale-down followed by scale-up on the
        same socket) costs an invalidation, not a re-hash."""
        sid = int(sid)
        if sid not in self._shards:
            raise ReproError(f"shard {sid} is not on the ring")
        if len(self._shards) == 1:
            raise ReproError("cannot remove the last shard from the ring")
        self._shards.remove(sid)
        self._dirty = True

    def shard_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._shards))

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, sid: int) -> bool:
        return sid in self._shards

    # -- lookup ----------------------------------------------------------

    def _rebuild(self) -> None:
        points = []
        for sid in self._shards:
            points.extend((p, sid) for p in self._point_cache[sid])
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [sid for _, sid in points]
        self._dirty = False
        self.rebuilds += 1

    def route(self, key: bytes) -> int:
        """The shard index owning ``key``."""
        if self._dirty:
            self._rebuild()
        where = bisect.bisect(self._points, _hash_point(key))
        if where == len(self._points):
            where = 0
        return self._owners[where]

    def successors(self, key: bytes) -> Iterator[int]:
        """Distinct shard ids in ring order starting at ``key``'s owner
        — the spill walk of bounded-load routing. Yields every shard on
        the ring exactly once; lazy, so an accepted first candidate
        costs O(log v)."""
        if self._dirty:
            self._rebuild()
        start = bisect.bisect(self._points, _hash_point(key))
        seen: Set[int] = set()
        n = len(self._owners)
        for step in range(n):
            sid = self._owners[(start + step) % n]
            if sid not in seen:
                seen.add(sid)
                yield sid
                if len(seen) == len(self._shards):
                    return


class ShardLoad:
    """One shard's load gauge, maintained by the router.

    ``assigned``
        Cumulative requests placed on the shard — the long-run balance
        component (what the E14 count-CV gate measures).
    ``inflight``
        Accepted-but-unanswered requests — the router-side live queue
        depth, incremented at routing time and decremented when the
        record lands (so a 400-request batch spreads as it is routed).
    """

    __slots__ = ("assigned", "inflight")

    def __init__(self, assigned: int = 0) -> None:
        self.assigned = int(assigned)
        self.inflight = 0

    def value(self) -> float:
        """The blended load the policy compares: cumulative placements
        plus the live in-flight requests."""
        return self.assigned + self.inflight

    def snapshot(self) -> dict:
        return {"assigned": self.assigned, "inflight": self.inflight}


def _mean_load(loads: Mapping[int, ShardLoad], members: Sequence[int]) -> float:
    if not members:
        return 0.0
    return sum(loads[s].value() for s in members) / len(members)


class BoundedLoadPolicy:
    """Bounded-load consistent hashing with a cache-affinity hint.

    A request's candidate order is: the shard its key last spilled to
    (the affinity hint, while that shard is on the ring), then the ring
    walk starting at the key's owner. The first candidate whose blended
    load is under ``load_factor * mean`` (mean taken over the ring's
    shards, including the request being placed) wins; if every
    candidate is over, the least-loaded one does — the bound is a
    preference ordering, never a reason to refuse a request. A hint is
    recorded only for a key placed off its owner and dropped when the
    key lands on its owner again.

    ``load_factor=inf`` (the default) makes the capacity test vacuous,
    so the owner always wins and no hint is ever recorded: the policy
    is pure ring routing, placement for placement, before and after
    any change to the ring (pinned by a property test).
    """

    def __init__(self, load_factor: float = math.inf) -> None:
        factor = float(load_factor)
        if not factor >= 1.0:
            raise ReproError(
                f"load_factor must be >= 1.0 (or inf to disable), got {load_factor}"
            )
        self.load_factor = factor
        self._affinity: "OrderedDict[bytes, int]" = OrderedDict()

    @staticmethod
    def _candidates(
        key: bytes, ring: HashRing, owner: int, hint: Optional[int]
    ) -> Iterator[int]:
        """The hint, the owner, then the rest of the ring walk — which
        is only computed once both are over capacity."""
        if hint is not None and hint != owner:
            yield hint
        yield owner
        for sid in ring.successors(key):
            if sid != owner and sid != hint:
                yield sid

    def choose(
        self, key: bytes, ring: HashRing, loads: Mapping[int, ShardLoad]
    ) -> Tuple[int, str]:
        """Place ``key``; returns ``(shard, tag)``, the tag ``ring``
        (the owner), ``affinity`` (the hint) or ``spill`` (a ring
        successor with headroom)."""
        owner = ring.route(key)
        hint = self._affinity.get(key)
        if hint not in ring:  # no hint, or its shard was scaled away
            hint = None
        members = ring.shard_ids()
        capacity = max(
            self.load_factor * (_mean_load(loads, members) + 1.0 / len(members)),
            1.0,
        )
        # The first candidate under capacity wins; failing that, the
        # least loaded one (the first of equals).
        chosen: Optional[int] = None
        for sid in self._candidates(key, ring, owner, hint):
            load = loads[sid].value()
            if load < capacity:
                chosen = sid
                break
            if chosen is None or load < loads[chosen].value():
                chosen = sid
        if chosen == owner:
            self._affinity.pop(key, None)
            return owner, "ring"
        self._affinity[key] = chosen
        self._affinity.move_to_end(key)
        while len(self._affinity) > _AFFINITY_LIMIT:
            self._affinity.popitem(last=False)
        return chosen, ("affinity" if chosen == hint else "spill")


def simulate_routing(
    keys: Iterable[bytes],
    shard_ids: Sequence[int],
    *,
    load_factor: float = math.inf,
) -> dict:
    """Replay a key sequence through :class:`BoundedLoadPolicy`
    offline — no processes, no sockets, deterministic. Loads evolve by
    placement counting (every key increments its chosen shard's
    ``assigned``), which is the long-run component the live router
    maintains too; ``inflight`` stays zero, so this is the
    policy's steady-state placement. Returns per-shard counts (dense
    over ``shard_ids``) and the route-tag histogram — what the E14
    placement table and the imbalance regression tests are made of.
    """
    ring = HashRing(shard_ids)
    loads = {sid: ShardLoad() for sid in shard_ids}
    policy = BoundedLoadPolicy(load_factor)
    counts: Counter = Counter()
    tags: Counter = Counter()
    for key in keys:
        sid, tag = policy.choose(key, ring, loads)
        loads[sid].assigned += 1
        counts[sid] += 1
        tags[tag] += 1
    return {
        "load_factor": None if math.isinf(policy.load_factor) else policy.load_factor,
        "counts": [counts.get(int(s), 0) for s in shard_ids],
        "tags": dict(sorted(tags.items())),
    }
