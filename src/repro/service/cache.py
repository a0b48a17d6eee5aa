"""Tiered instance-hash result caches: the service's fastest paths.

Three stores share one key space (:func:`repro.core.api.instance_key`
digests) and one currency (:class:`~repro.core.api.SolveResult`):

:class:`ResultCache` (**L1**)
    The in-memory byte-bounded LRU — per process, microsecond hits.
:class:`L2DiskCache` (**L2**)
    A directory of atomically-written ``.npz`` entries — shared by
    every fleet shard pointing at the same ``--cache-dir`` and
    surviving shard respawn. Consulted on L1 miss, populated
    write-through.
:class:`TieredResultCache`
    The L1-over-L2 façade the service wires when ``--cache-dir`` is
    set; L2 hits are promoted into L1 on the way out.

Keys are canonical over *what* is being solved (problem bytes, method,
algebra, result-determining kwargs) and blind to *how* (backend,
workers, tiles), so one cached solve answers for every execution
configuration — that is exactly the bitwise-identity guarantee the
engine already provides, turned into cache currency.

All tiers additionally keep a **delta-parent index**: entries stored
with a :class:`~repro.core.delta.DeltaMeta` are findable by their
family-structural parent key, which is how
:func:`repro.core.delta.try_delta` locates an already-solved sibling to
re-sweep incrementally instead of solving cold.

L1 details: entries are charged for their table bytes (``w``
dominates), and inserts evict from the cold end until the budget holds.
Stored results are defensively rebound to private, read-only copies of
their tables — a result computed in a shared-memory segment must not
keep that segment pinned (or writable) from the cache. A hit is handed
back with a fresh writable copy, indistinguishable from a cold solve's
table, unless the caller passes ``copy=False``: the solve server's wire
answers read only the stored result's scalars, so they take the
read-only stored result and copy nothing. (``tree`` and ``trace`` are
shared between hitters: they are built once and never mutated after a
solve returns.)

L2 details: one entry is one ``<key>.npz`` file written to a unique
temporary name, fsynced, then published with :func:`os.replace` — so a
reader sees either the complete entry or nothing, never a torn write,
even across a SIGKILL of the writer (the crash-consistency suite kills
writers mid-stream and asserts exactly this). Each entry carries a
blake2b checksum of its table bytes, verified on read; any load or
verification failure is a miss and the offending file is discarded.
Results carrying a ``tree`` are not written (parse trees do not
serialise to the array format) and ``trace`` is dropped — L2 serves
table-and-value answers, which is what the service layer needs.

Hit/miss/eviction counters are split **epoch vs lifetime**: ``clear()``
(and only it) resets the epoch counters, while lifetime counters keep
accumulating — so ``stats()["hit_rate"]`` always describes the cache
the operator is looking at, not a previous life.

Thread-safe: the event-loop thread and worker threads may touch every
tier concurrently.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from repro.core.api import SolveResult
from repro.core.delta import MAX_DIRTY_FRACTION, DeltaMeta

__all__ = ["ResultCache", "L2DiskCache", "TieredResultCache"]

#: fixed per-entry charge on top of table bytes: key, dataclass, trace
#: and tree skeletons — deliberately rough, it only has to keep the
#: byte bound honest for small-n entries
_ENTRY_OVERHEAD = 512

#: delta-parent probes stop after this many candidates by default — the
#: newest few siblings are overwhelmingly the useful ones, and each
#: candidate costs a window diff before any sweep work happens
_DELTA_CANDIDATES = 4

#: temp files older than this are write attempts that died mid-stream
#: (e.g. a SIGKILLed shard); swept on L2 construction
_STALE_TMP_SECONDS = 300.0

#: published L2 entries only: pathlib's glob matches dotfiles too, and
#: counting or evicting a writer's ``.tmp-*.npz`` file would make its
#: publish fail
_ENTRY_GLOB = "[!.]*.npz"


class ResultCache:
    """Byte-bounded LRU of solve results keyed by instance hash (L1).

    Parameters
    ----------
    max_bytes:
        Total table-byte budget (default 128 MiB). An entry larger than
        the whole budget is simply not stored.
    max_entries:
        Entry-count bound on top of the byte bound.

    >>> from repro.core import solve
    >>> from repro.core.api import instance_key
    >>> from repro.problems import MatrixChainProblem
    >>> cache = ResultCache(max_bytes=1 << 20)
    >>> p = MatrixChainProblem([10, 20, 5, 30])
    >>> r1 = solve(p, method="huang", cache=cache)   # cold: solves, fills
    >>> r2 = solve(p, method="huang", cache=cache)   # hit: no solver runs
    >>> r2.value == r1.value and cache.stats()["hits"] == 1
    True
    """

    #: opted in to the delta protocol of :mod:`repro.core.delta` —
    #: ``put`` accepts ``delta=`` metadata and ``delta_candidates``
    #: serves the parent index
    supports_delta = True

    def __init__(self, max_bytes: int = 128 << 20, max_entries: int = 4096) -> None:
        if max_bytes < 0 or max_entries < 1:
            raise ValueError("max_bytes must be >= 0 and max_entries >= 1")
        self.max_bytes = int(max_bytes)
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, tuple[SolveResult, int]] = OrderedDict()
        self._delta: dict[str, DeltaMeta] = {}
        self._parents: dict[str, OrderedDict[str, None]] = {}
        self._bytes = 0
        # epoch counters (reset by clear) / lifetime counters (never reset)
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._life_hits = 0
        self._life_misses = 0
        self._life_evictions = 0

    # -- the cache protocol solve(cache=...) expects -------------------------

    def get(self, key: str, *, copy: bool = True) -> Optional[SolveResult]:
        """The cached result for ``key``, refreshed to most-recently
        used — or ``None``. A hit is rebound to a fresh *writable* copy
        of its table, so callers see exactly what a cold solve returns
        (private, mutable) and one hitter can never corrupt another —
        or the cache — through ``w``. With ``copy=False`` the stored
        result itself comes back, its table read-only."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                self._life_misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            self._life_hits += 1
            stored = entry[0]
        return replace(stored, w=stored.w.copy()) if copy else stored

    def put(
        self, key: str, result: SolveResult, delta: Optional[DeltaMeta] = None
    ) -> None:
        """Insert (or refresh) ``key``; evicts LRU entries until the
        byte and entry budgets hold. ``delta`` (when the solve layer
        supplies one) additionally indexes the entry under its
        delta-parent key for :meth:`delta_candidates`."""
        w = np.array(result.w, copy=True)
        w.setflags(write=False)
        stored = replace(result, w=w)
        nbytes = w.nbytes + _ENTRY_OVERHEAD
        if nbytes > self.max_bytes:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
                self._unindex_delta(key)
            self._entries[key] = (stored, nbytes)
            self._bytes += nbytes
            if delta is not None:
                self._delta[key] = delta
                self._parents.setdefault(delta.parent_key, OrderedDict())[key] = None
            while self._entries and (
                self._bytes > self.max_bytes or len(self._entries) > self.max_entries
            ):
                dropped_key, (_, dropped) = self._entries.popitem(last=False)
                self._bytes -= dropped
                self._unindex_delta(dropped_key)
                self._evictions += 1
                self._life_evictions += 1

    # -- the delta-parent index ----------------------------------------------

    def _unindex_delta(self, key: str) -> None:
        """Drop ``key`` from the delta-parent index (caller holds the
        lock)."""
        meta = self._delta.pop(key, None)
        if meta is None:
            return
        siblings = self._parents.get(meta.parent_key)
        if siblings is not None:
            siblings.pop(key, None)
            if not siblings:
                del self._parents[meta.parent_key]

    def delta_entries(
        self, parent_key: str, limit: int = _DELTA_CANDIDATES
    ) -> list[tuple[str, np.ndarray, SolveResult]]:
        """Snapshot of up to ``limit`` entries indexed under
        ``parent_key``, newest insertion first, as ``(key, weights,
        result)`` triples. Counter-neutral and LRU-neutral: probing for
        delta parents is not a lookup of those entries."""
        out: list[tuple[str, np.ndarray, SolveResult]] = []
        with self._lock:
            siblings = self._parents.get(parent_key)
            if not siblings:
                return out
            for key in reversed(siblings):
                entry = self._entries.get(key)
                meta = self._delta.get(key)
                if entry is None or meta is None:
                    continue
                out.append((key, meta.weights, entry[0]))
                if len(out) >= limit:
                    break
        return out

    def delta_candidates(
        self, parent_key: str, limit: int = _DELTA_CANDIDATES
    ) -> Iterator[tuple[np.ndarray, SolveResult]]:
        """The ``(weights, result)`` pairs
        :func:`repro.core.delta.try_delta` consumes."""
        for _, weights, result in self.delta_entries(parent_key, limit):
            yield weights, result

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._bytes

    def stats(self) -> dict:
        """Counters plus current occupancy — served verbatim on the
        service's status endpoint. Top-level counters are **epoch**
        values (reset by :meth:`clear`, so ``hit_rate`` always
        describes the cache as currently populated); the nested
        ``"lifetime"`` block never resets. The fleet router aggregates
        hit rates across shards from the raw counters."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "entries": len(self._entries),
                "nbytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": round(self._hits / lookups, 4) if lookups else 0.0,
                "evictions": self._evictions,
                "lifetime": {
                    "hits": self._life_hits,
                    "misses": self._life_misses,
                    "evictions": self._life_evictions,
                },
            }

    def clear(self) -> None:
        """Drop every entry and reset the epoch counters (lifetime
        counters keep accumulating) — post-clear ``hit_rate`` describes
        the empty cache, not its previous life."""
        with self._lock:
            self._entries.clear()
            self._delta.clear()
            self._parents.clear()
            self._bytes = 0
            self._hits = 0
            self._misses = 0
            self._evictions = 0


class L2DiskCache:
    """Directory-backed result store shared across processes (L2).

    One entry is one ``<key>.npz`` holding the table, the serialisable
    result fields (JSON), a blake2b table checksum, and — when the
    entry has delta metadata — its weight vector, with an empty marker
    file under ``by-parent/<parent_key>/`` as the parent index. Writes
    are atomic (unique temp file + ``os.replace``); reads verify the
    checksum and treat any failure as a miss, discarding the file.

    Parameters
    ----------
    directory:
        The shared cache directory (created if missing). Fleet shards
        pointing at the same directory share one L2.
    max_bytes:
        Approximate on-disk budget (default 1 GiB); exceeding it evicts
        oldest-mtime entries.
    """

    def __init__(self, directory: str | Path, max_bytes: int = 1 << 30) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.directory = Path(directory)
        self.max_bytes = int(max_bytes)
        self._parent_dir = self.directory / "by-parent"
        self.directory.mkdir(parents=True, exist_ok=True)
        self._parent_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._evictions = 0
        self._sweep_stale_tmp()

    # -- paths ----------------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    def _marker_path(self, parent_key: str, key: str) -> Path:
        return self._parent_dir / parent_key / key

    def _sweep_stale_tmp(self) -> None:
        """Remove temp files from writers that died mid-stream. Only
        files older than :data:`_STALE_TMP_SECONDS` go — a live writer
        in another shard may own a younger one."""
        cutoff = time.time() - _STALE_TMP_SECONDS
        for tmp in self.directory.glob(".tmp-*.npz"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
            except OSError:
                continue

    # -- the cache protocol ----------------------------------------------------

    def get(self, key: str) -> Optional[SolveResult]:
        """The stored result (fresh writable table) or ``None``."""
        loaded = self.get_with_meta(key)
        return None if loaded is None else loaded[0]

    def get_with_meta(
        self, key: str
    ) -> Optional[tuple[SolveResult, Optional[DeltaMeta]]]:
        """Like :meth:`get` but also returning the entry's
        :class:`~repro.core.delta.DeltaMeta` (if any) — what the tiered
        façade needs to promote an L2 hit into L1 without losing its
        delta-parent indexing."""
        loaded = self._load(self._entry_path(key))
        with self._lock:
            if loaded is None:
                self._misses += 1
            else:
                self._hits += 1
        return loaded

    def _load(
        self, path: Path
    ) -> Optional[tuple[SolveResult, Optional[DeltaMeta]]]:
        """Parse and verify one entry file; any failure is a miss and
        discards the file (a half-entry must never be served twice)."""
        try:
            with np.load(path, allow_pickle=False) as archive:
                meta = json.loads(str(archive["meta"][()]))
                w = np.array(archive["w"], dtype=np.float64)
                weights = (
                    np.array(archive["weights"]) if "weights" in archive else None
                )
            checksum = hashlib.blake2b(w.tobytes(), digest_size=16).hexdigest()
            if meta.get("checksum") != checksum:
                raise ValueError("table checksum mismatch")
            result = SolveResult(
                method=str(meta["method"]),
                value=float(meta["value"]),
                w=w,
                iterations=(
                    None if meta.get("iterations") is None else int(meta["iterations"])
                ),
                algebra=str(meta.get("algebra", "min_plus")),
            )
            parent = meta.get("parent")
            delta = (
                DeltaMeta(parent_key=str(parent), weights=weights)
                if parent is not None and weights is not None
                else None
            )
            return result, delta
        except FileNotFoundError:
            return None
        except Exception:
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(
        self, key: str, result: SolveResult, delta: Optional[DeltaMeta] = None
    ) -> None:
        """Publish an entry atomically: serialise to a unique temp file,
        fsync, ``os.replace`` into place, then drop the parent-index
        marker. Results carrying a ``tree`` are skipped (module
        docstring); ``trace`` is dropped."""
        if result.tree is not None:
            return
        w = np.asarray(result.w, dtype=np.float64)
        meta = {
            "version": 1,
            "method": result.method,
            "value": float(result.value),
            "iterations": result.iterations,
            "algebra": result.algebra,
            "checksum": hashlib.blake2b(w.tobytes(), digest_size=16).hexdigest(),
            "parent": None if delta is None else delta.parent_key,
        }
        arrays = {"w": w, "meta": np.array(json.dumps(meta))}
        if delta is not None:
            arrays["weights"] = np.asarray(delta.weights)
        tmp = self.directory / f".tmp-{key}-{os.getpid()}-{uuid.uuid4().hex}.npz"
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, **arrays)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._entry_path(key))
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        if delta is not None:
            try:
                marker = self._marker_path(delta.parent_key, key)
                marker.parent.mkdir(parents=True, exist_ok=True)
                marker.touch()
            except OSError:
                pass
        with self._lock:
            self._writes += 1
        self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        """Oldest-mtime eviction down to the byte budget (approximate:
        concurrent writers race benignly — everyone converges on the
        same survivors)."""
        entries = []
        total = 0
        for path in self.directory.glob(_ENTRY_GLOB):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= self.max_bytes:
            return
        for _, size, path in sorted(entries):
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            with self._lock:
                self._evictions += 1
            if total <= self.max_bytes:
                break

    # -- the delta-parent index ------------------------------------------------

    def delta_entries(
        self, parent_key: str, limit: int = _DELTA_CANDIDATES
    ) -> list[tuple[str, np.ndarray, SolveResult]]:
        """Up to ``limit`` entries indexed under ``parent_key``, newest
        mtime first; markers whose entry is gone are garbage-collected
        on the way."""
        marker_dir = self._parent_dir / parent_key
        try:
            markers = sorted(
                marker_dir.iterdir(),
                key=lambda p: p.stat().st_mtime,
                reverse=True,
            )
        except OSError:
            return []
        out: list[tuple[str, np.ndarray, SolveResult]] = []
        for marker in markers:
            key = marker.name
            loaded = self._load(self._entry_path(key))
            if loaded is None or loaded[1] is None:
                try:
                    marker.unlink()
                except OSError:
                    pass
                continue
            result, delta = loaded
            out.append((key, delta.weights, result))
            if len(out) >= limit:
                break
        return out

    def delta_candidates(
        self, parent_key: str, limit: int = _DELTA_CANDIDATES
    ) -> Iterator[tuple[np.ndarray, SolveResult]]:
        for _, weights, result in self.delta_entries(parent_key, limit):
            yield weights, result

    # -- introspection ---------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return self._entry_path(key).exists()

    def stats(self) -> dict:
        entries = 0
        nbytes = 0
        for path in self.directory.glob(_ENTRY_GLOB):
            try:
                nbytes += path.stat().st_size
            except OSError:
                continue
            entries += 1
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "entries": entries,
                "nbytes": nbytes,
                "max_bytes": self.max_bytes,
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": round(self._hits / lookups, 4) if lookups else 0.0,
                "writes": self._writes,
                "evictions": self._evictions,
            }


class TieredResultCache:
    """The L1-over-L2 façade: in-memory LRU in front of the shared disk
    store, presented through the exact cache protocol ``solve(cache=)``,
    the scheduler and the fleet status aggregation already speak.

    ``get`` consults L1 then L2 (promoting L2 hits, with their delta
    metadata, into L1); ``put`` writes through to both tiers;
    ``delta_candidates`` probes L1 first and tops up from L2.
    ``clear`` clears **L1 only** — the disk tier is shared state owned
    by the fleet, not by one shard's lifecycle.

    ``stats()`` keeps the flat L1-compatible shape (``hits`` counts
    both tiers' hits, ``misses`` counts requests missing both) and nests
    the per-tier breakdowns under ``"l1"`` / ``"l2"``.
    """

    supports_delta = True

    def __init__(
        self,
        cache_dir: str | Path,
        max_bytes: int = 128 << 20,
        max_entries: int = 4096,
        l2_max_bytes: int = 1 << 30,
        delta_max_dirty: float = MAX_DIRTY_FRACTION,
    ) -> None:
        self.l1 = ResultCache(max_bytes=max_bytes, max_entries=max_entries)
        self.l2 = L2DiskCache(cache_dir, max_bytes=l2_max_bytes)
        #: consumed by :func:`repro.core.delta.try_delta` as the dirty
        #: fraction above which delta probes decline
        self.delta_max_dirty = float(delta_max_dirty)

    @property
    def max_bytes(self) -> int:
        return self.l1.max_bytes

    def get(self, key: str, *, copy: bool = True) -> Optional[SolveResult]:
        hit = self.l1.get(key, copy=copy)
        if hit is not None:
            return hit
        loaded = self.l2.get_with_meta(key)
        if loaded is None:
            return None
        result, delta = loaded
        self.l1.put(key, result, delta=delta)
        return result

    def put(
        self, key: str, result: SolveResult, delta: Optional[DeltaMeta] = None
    ) -> None:
        self.l1.put(key, result, delta=delta)
        self.l2.put(key, result, delta=delta)

    def delta_candidates(
        self, parent_key: str, limit: int = _DELTA_CANDIDATES
    ) -> Iterator[tuple[np.ndarray, SolveResult]]:
        seen: set[str] = set()
        for key, weights, result in self.l1.delta_entries(parent_key, limit):
            seen.add(key)
            yield weights, result
        if len(seen) >= limit:
            return
        for key, weights, result in self.l2.delta_entries(parent_key, limit):
            if key in seen:
                continue
            seen.add(key)
            yield weights, result
            if len(seen) >= limit:
                return

    def __len__(self) -> int:
        return len(self.l1)

    def __contains__(self, key: str) -> bool:
        return key in self.l1 or key in self.l2

    @property
    def nbytes(self) -> int:
        return self.l1.nbytes

    def stats(self) -> dict:
        l1 = self.l1.stats()
        l2 = self.l2.stats()
        hits = l1["hits"] + l2["hits"]
        misses = l2["misses"]  # missed both tiers
        lookups = l1["hits"] + l1["misses"]  # every request enters via L1
        return {
            "entries": l1["entries"],
            "nbytes": l1["nbytes"],
            "max_bytes": self.l1.max_bytes,
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
            "evictions": l1["evictions"],
            "lifetime": l1["lifetime"],
            "l1": l1,
            "l2": l2,
        }

    def clear(self) -> None:
        self.l1.clear()
