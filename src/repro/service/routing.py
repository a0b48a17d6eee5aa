"""Consistent-hash placement: the fleet's one routing rule.

:class:`HashRing` maps a request's instance key
(:func:`repro.core.api.instance_key_bytes`, or the spec's fingerprint
when it has none) onto a shard index. Every process computes the same
mapping, so equal requests always land on the shard whose cache and
coalescer already hold them, and a respawned or re-added shard reclaims
exactly the keyspace its predecessor owned.

The ring knows nothing of load or liveness. The fleet's front end
answers every repeat of an answered instance from its own table
(:mod:`repro.service.fleet`), so only first requests and repeats still
in flight reach the ring, and placing them on their owner keeps each
instance solved on one shard. A dead owner is chosen like a live one:
the fleet respawns it under that shard's lock before sending.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, Set, Tuple

from repro.errors import ReproError

__all__ = ["HashRing"]

#: ring points per shard — enough that a 4-shard ring is within a few
#: percent of a perfectly even split, cheap enough to rebuild at will
_RING_REPLICAS = 256


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
