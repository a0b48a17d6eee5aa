"""Tiered instance-hash result caches: the service's fastest paths.

Three stores share one key space (:func:`repro.core.api.instance_key`
digests) and one currency (:class:`~repro.core.api.SolveResult`):

:class:`ResultCache` (**L1**)
    The in-memory byte-bounded LRU — per process, microsecond hits.
:class:`L2DiskCache` (**L2**)
    A directory of atomically-written entry files — shared by every
    fleet shard pointing at the same ``--cache-dir`` and surviving
    shard respawn. Consulted on L1 miss, populated write-through.
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
their tables, so no caller can mutate a cached table through the array
it put or got. A hit is handed
back with a fresh writable copy, indistinguishable from a cold solve's
table, unless the caller passes ``copy=False``: the solve server's wire
answers read only the stored result's scalars, so they take the
read-only stored result and copy nothing. (``tree`` and ``trace`` are
shared between hitters: they are built once and never mutated after a
solve returns.)

L2 details: one entry is one ``<key>.l2`` file written to a unique
temporary name, fsynced, then published with :func:`os.replace` — so a
reader sees either the complete entry or nothing, never a torn write,
even across a SIGKILL of the writer (the crash-consistency suite kills
writers mid-stream and asserts exactly this). A blake2b digest in the
file's header covers everything after it — the meta (``value``
included), the table and the delta weights — and every read checks it
before parsing; any failure is a miss and the offending file is
discarded. Results carrying a ``tree`` are not written (parse trees do
not serialise to raw arrays) and ``trace`` is dropped — L2 serves
table-and-value answers, which is what the service layer needs.
:class:`L2DiskCache` documents the file layout and the byte ledger
that keeps writes from scanning the directory.

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
import math
import os
import struct
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import Collection, Iterator, Optional

import numpy as np

from repro.core.api import SolveResult
from repro.core.delta import DeltaMeta

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

#: an L2 entry is ``<key>`` plus this suffix; files named ``<key>.npz``
#: are the previous layout and are removed when a directory is opened
_SUFFIX = ".l2"
_OLD_SUFFIX = ".npz"

#: the first bytes of every L2 entry: magic, then the layout version
_MAGIC = b"reproL2\x01"
#: blake2b digest size; the digest follows the magic
_DIGEST_SIZE = 16
_DIGEST_END = len(_MAGIC) + _DIGEST_SIZE
#: the meta's byte length, the first field the digest covers
_META_LEN = struct.Struct("<Q")
#: the table's byte layout (float64, little-endian, C order)
_TABLE_DTYPE = np.dtype("<f8")

#: the L2 directory's default on-disk budget, the one every tiered
#: cache (and so every fleet shard) mounts with
_L2_MAX_BYTES = 1 << 30
#: each L2DiskCache rescans its directory after this many of its own
#: publishes, so that other processes' writes reach its byte ledger
_RESCAN_EVERY = 256
#: a rescan that finds the directory over its budget evicts down to
#: ``max_bytes - max_bytes // _LOW_WATER_DIVISOR``, so the next publishes
#: fit under the budget instead of each crossing it and rescanning
_LOW_WATER_DIVISOR = 8


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

    One entry is one ``<key>.l2`` file, and an entry with delta
    metadata also gets an empty marker file under
    ``by-parent/<parent_key>/`` as the parent index. The file holds, in
    order:

    * 8 bytes of magic and layout version;
    * a 16-byte blake2b digest of every byte after it;
    * the meta's length (8 bytes) and the JSON meta: method, value,
      iterations, algebra, parent, the table's shape and the weights'
      dtype and shape;
    * the table's bytes (float64, little-endian, C order), then the
      weights' bytes.

    Writes are atomic (unique temp file, fsync, ``os.replace``). A read
    takes the file whole into one buffer, checks the magic and the
    digest before parsing, and checks that the meta's shapes and dtype
    account for exactly the bytes present; any failure is a miss that
    discards the file. Nothing is unpickled, and no read allocates more
    than the file's size.

    Each instance keeps a byte ledger instead of scanning the directory
    on every write: one scan at open seeds it, each publish adds its
    size, and a rescan (which resets the total to the directory's real
    size and, when that is over ``max_bytes``, evicts oldest-mtime
    entries down to a low-water mark of 7/8 of ``max_bytes``, see
    :data:`_LOW_WATER_DIVISOR`) runs only when the total passes
    ``max_bytes`` or after every :data:`_RESCAN_EVERY` (K) of this
    instance's own publishes. Writes by other processes reach the
    ledger at those rescans, so a directory shared by P processes can
    run about P × K entries over ``max_bytes`` before one of them
    evicts. Opening a directory also removes entries of the previous
    layout (``<key>.npz``, only ever misses now) and temp files older
    than :data:`_STALE_TMP_SECONDS`.

    Parameters
    ----------
    directory:
        The shared cache directory (created if missing). Fleet shards
        pointing at the same directory share one L2.
    max_bytes:
        Approximate on-disk budget (default 1 GiB); exceeding it evicts
        oldest-mtime entries.
    """

    def __init__(self, directory: str | Path, max_bytes: int = _L2_MAX_BYTES) -> None:
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
        self._ledger = sum(size for _, size, _ in self._scan(sweep=True))
        self._since_scan = 0

    # -- paths ----------------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        return self.directory / f"{key}{_SUFFIX}"

    def _marker_path(self, parent_key: str, key: str) -> Path:
        return self._parent_dir / parent_key / key

    def _scan(self, sweep: bool = False) -> list[tuple[float, int, str]]:
        """``(mtime, size, path)`` of every published entry, from one
        ``os.scandir`` pass: dotfiles (writers' temp files) and the
        ``by-parent/`` index are not entries. With ``sweep`` (at open)
        the pass also removes previous-layout entries and temp files
        older than :data:`_STALE_TMP_SECONDS` — a live writer in another
        shard may own a younger one."""
        found = []
        cutoff = time.time() - _STALE_TMP_SECONDS
        try:
            with os.scandir(self.directory) as it:
                for entry in it:
                    name = entry.name
                    try:
                        if name.startswith("."):
                            if (
                                sweep
                                and name.startswith(".tmp-")
                                and entry.stat().st_mtime < cutoff
                            ):
                                os.unlink(entry.path)
                        elif name.endswith(_SUFFIX):
                            stat = entry.stat()
                            found.append((stat.st_mtime, stat.st_size, entry.path))
                        elif sweep and name.endswith(_OLD_SUFFIX):
                            os.unlink(entry.path)
                    except OSError:
                        continue
        except OSError:
            pass
        return found

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
        """Read and verify one entry file; any failure is a miss and
        discards the file (a half-entry must never be served twice)."""
        try:
            with open(path, "rb") as fh:
                buf = bytearray(os.fstat(fh.fileno()).st_size)
                if fh.readinto(buf) != len(buf):
                    raise ValueError("short read")
            return _decode(buf)
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
        """Publish an entry atomically: write it to a unique temp file,
        fsync, ``os.replace`` into place, then drop the parent-index
        marker. Results carrying a ``tree`` are skipped (module
        docstring); ``trace`` is dropped."""
        if result.tree is not None:
            return
        parts = _encode(result, delta)
        tmp = self.directory / f".tmp-{key}-{os.getpid()}-{uuid.uuid4().hex}{_SUFFIX}"
        try:
            with open(tmp, "wb") as fh:
                for part in parts:
                    fh.write(part)
                fh.flush()
                os.fsync(fh.fileno())
                size = fh.tell()
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
            self._ledger += size
            self._since_scan += 1
            rescan = (
                self._ledger > self.max_bytes or self._since_scan >= _RESCAN_EVERY
            )
            if rescan:
                self._since_scan = 0
        if rescan:
            self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        """Rescan: reset the ledger to the directory's real size and, if
        that is over the byte budget, evict oldest-mtime entries down to
        the low-water mark (approximate: concurrent writers race
        benignly — everyone converges on the same survivors)."""
        entries = self._scan()
        total = sum(size for _, size, _ in entries)
        evicted = 0
        if total > self.max_bytes:
            low_water = self.max_bytes - self.max_bytes // _LOW_WATER_DIVISOR
            for _, size, path in sorted(entries):
                try:
                    os.unlink(path)
                except OSError:
                    continue
                total -= size
                evicted += 1
                if total <= low_water:
                    break
        with self._lock:
            self._ledger = total
            self._evictions += evicted

    # -- the delta-parent index ------------------------------------------------

    def delta_entries(
        self,
        parent_key: str,
        limit: int = _DELTA_CANDIDATES,
        skip: Collection[str] = (),
    ) -> list[tuple[str, np.ndarray, SolveResult]]:
        """Up to ``limit`` entries indexed under ``parent_key``, newest
        marker mtime first, never reading the keys in ``skip`` (ones the
        caller already holds). Markers whose entry is gone are
        garbage-collected on the way; a marker that vanishes between
        listing and ``stat`` (another process collecting it) is passed
        over."""
        stamped = []
        try:
            with os.scandir(self._parent_dir / parent_key) as it:
                for marker in it:
                    if marker.name in skip:
                        continue
                    try:
                        stamped.append((marker.stat().st_mtime, marker.name))
                    except OSError:
                        continue
        except OSError:
            return []
        out: list[tuple[str, np.ndarray, SolveResult]] = []
        for _, key in sorted(stamped, reverse=True):
            loaded = self._load(self._entry_path(key))
            if loaded is None or loaded[1] is None:
                try:
                    self._marker_path(parent_key, key).unlink()
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
        entries = self._scan()
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "entries": len(entries),
                "nbytes": sum(size for _, size, _ in entries),
                "max_bytes": self.max_bytes,
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": round(self._hits / lookups, 4) if lookups else 0.0,
                "writes": self._writes,
                "evictions": self._evictions,
            }


def _encode(result: SolveResult, delta: Optional[DeltaMeta]) -> list:
    """An entry's byte parts in file order (layout in
    :class:`L2DiskCache`), the arrays as their own memory."""
    w = np.ascontiguousarray(result.w, dtype=_TABLE_DTYPE)
    weights = None if delta is None else np.ascontiguousarray(delta.weights)
    meta = {
        "method": result.method,
        "value": float(result.value),
        "iterations": result.iterations,
        "algebra": result.algebra,
        "parent": None if delta is None else delta.parent_key,
        "shape": w.shape,
        "weights_dtype": None if weights is None else weights.dtype.str,
        "weights_shape": None if weights is None else weights.shape,
    }
    text = json.dumps(meta).encode()
    # pad so the table starts 8-byte aligned (JSON ignores the spaces)
    text += b" " * (-len(text) % 8)
    body = [_META_LEN.pack(len(text)) + text, w]
    if weights is not None:
        body.append(weights)
    digest = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    for part in body:
        digest.update(part)
    return [_MAGIC + digest.digest(), *body]


def _decode(buf: bytearray) -> tuple[SolveResult, Optional[DeltaMeta]]:
    """Verify and parse one entry read whole into ``buf``; raises on any
    inconsistency. The table comes back as a view of ``buf``, which no
    one else holds; the weights are copied out, so a cached
    :class:`~repro.core.delta.DeltaMeta` never pins the table's bytes."""
    if buf[: len(_MAGIC)] != _MAGIC:
        raise ValueError("not an L2 entry")
    digest = hashlib.blake2b(memoryview(buf)[_DIGEST_END:], digest_size=_DIGEST_SIZE)
    if digest.digest() != buf[len(_MAGIC) : _DIGEST_END]:
        raise ValueError("digest mismatch")
    (meta_len,) = _META_LEN.unpack_from(buf, _DIGEST_END)
    table_at = _DIGEST_END + _META_LEN.size + meta_len
    if table_at > len(buf):
        raise ValueError("meta runs past the end of the entry")
    meta = json.loads(buf[_DIGEST_END + _META_LEN.size : table_at])
    shape = _shape(meta["shape"], ndim=2)
    weights_at = table_at + math.prod(shape) * _TABLE_DTYPE.itemsize
    if meta["weights_dtype"] is None:
        weights_dtype, weights_shape = None, ()
        end = weights_at
    else:
        weights_dtype = np.dtype(meta["weights_dtype"])
        if weights_dtype.kind not in "biuf":
            raise ValueError(f"weights dtype {weights_dtype} is not plain numbers")
        weights_shape = _shape(meta["weights_shape"])
        end = weights_at + math.prod(weights_shape) * weights_dtype.itemsize
    if end != len(buf):
        raise ValueError("meta does not account for the entry's bytes")
    w = np.frombuffer(buf, _TABLE_DTYPE, math.prod(shape), table_at)
    result = SolveResult(
        method=str(meta["method"]),
        value=float(meta["value"]),
        w=w.reshape(shape),
        iterations=None if meta["iterations"] is None else int(meta["iterations"]),
        algebra=str(meta["algebra"]),
    )
    if meta["parent"] is None or weights_dtype is None:
        return result, None
    weights = np.frombuffer(buf, weights_dtype, math.prod(weights_shape), weights_at)
    weights = weights.reshape(weights_shape).copy()
    return result, DeltaMeta(parent_key=str(meta["parent"]), weights=weights)


def _shape(dims: object, ndim: Optional[int] = None) -> tuple[int, ...]:
    """A JSON shape as a tuple of non-negative ints, or ValueError."""
    if (
        not isinstance(dims, list)
        or (ndim is not None and len(dims) != ndim)
        or not all(type(d) is int and d >= 0 for d in dims)
    ):
        raise ValueError(f"bad shape {dims!r}")
    return tuple(dims)


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

    def __init__(self, cache_dir: str | Path, max_bytes: int = 128 << 20) -> None:
        self.l1 = ResultCache(max_bytes=max_bytes)
        self.l2 = L2DiskCache(cache_dir)

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
        for _, weights, result in self.l2.delta_entries(
            parent_key, limit - len(seen), skip=seen
        ):
            yield weights, result

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
