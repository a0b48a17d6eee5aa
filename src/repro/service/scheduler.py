"""Deadline/size-bounded request coalescing over ``solve_many``.

The scheduler turns a stream of independent solve requests into the
shape the batched service layer is fastest at: one
:func:`repro.core.solve_many` call per *batch*. Coalescing happens at
two levels:

* **Duplicate coalescing** — a request whose instance hash matches an
  entry already waiting in the current batch — *or already detached
  into the currently-executing batch* — does not add work; its future
  joins the entry and all joiners share the one solve. (Executing
  entries stay joinable until their results land: a duplicate arriving
  moments after ``_take_pending()`` detaches its twin must not re-solve
  from scratch.)
* **Batch coalescing** — distinct requests accumulate until either the
  batch window (the deadline: how long the *first* request in a batch
  may wait before execution starts) expires or the batch reaches
  ``max_batch`` entries, whichever comes first; the batch then executes
  as a unit on the service's warm backend.

The cache sits in front of both: each request gets exactly one lookup
(:meth:`CoalescingScheduler.lookup`), and a hit resolves without
entering a batch at all. A caller that already holds the request's key
— the solve server derives it from the spec before building anything —
makes that lookup itself and, on a miss, hands ``submit`` the key, so
nothing is hashed or probed twice. On a delta-capable cache
(:class:`~repro.service.cache.ResultCache` and the tiered store), a
miss gets one more chance *inside* the batch: each batch entry is first
probed via :func:`repro.core.delta.try_delta` for an already-solved
sibling to re-sweep incrementally — delta candidates resolve like hits
but ride a batch — and only the remainder goes to the cold runner.
Batches execute one at a time (a later batch fills while the current
one runs), so the warm backend and the shared table store are never
used from two threads at once.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.api import SolveResult, instance_key
from repro.core.delta import delta_meta_for, try_delta
from repro.errors import ReproError

__all__ = ["CoalescingScheduler", "ServiceClosedError"]


class ServiceClosedError(ReproError):
    """Submit after close: the service is draining or gone."""


#: ``submit``'s ``key`` default: hash the problem and look it up there
_UNKEYED: Any = object()


@dataclass
class _Entry:
    """One unit of pending work and every future waiting on it."""

    key: Optional[str]
    problem: Any
    method: str
    kwargs: dict
    futures: list = field(default_factory=list)


class CoalescingScheduler:
    """Coalesce concurrent solve requests into bounded batches.

    Parameters
    ----------
    runner:
        ``runner(items) -> list[SolveResult | Exception]`` for
        ``items = [(problem, method, kwargs), ...]`` — the synchronous
        batch executor (the service runs ``solve_many`` on its warm
        backend here). Called from a worker thread, one batch at a time.
    batch_window:
        Seconds the first request of a batch may wait for company
        before the batch executes (the deadline bound).
    max_batch:
        Entry bound — a full batch executes immediately.
    cache:
        Optional :class:`~repro.service.cache.ResultCache`; consulted
        at submit, populated after each batch.
    """

    def __init__(
        self,
        runner: Callable[[list], list],
        *,
        batch_window: float = 0.005,
        max_batch: int = 16,
        cache=None,
    ) -> None:
        if batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._runner = runner
        self.batch_window = float(batch_window)
        self.max_batch = int(max_batch)
        self.cache = cache
        self._pending: list[_Entry] = []
        self._by_key: dict[str, _Entry] = {}
        self._executing: dict[str, _Entry] = {}
        self._executing_count = 0
        self._full = asyncio.Event()
        self._run_lock = asyncio.Lock()
        self._closed = False
        self._flushers: set[asyncio.Task] = set()
        # -- counters (served on the status endpoint) --
        self._requests = 0
        self._cache_hits = 0
        self._delta_hits = 0
        self._coalesced = 0
        self._batches = 0
        self._batch_items = 0
        self._largest_batch = 0
        # EWMA of the queue_depth gauge, sampled at the two moments the
        # backlog changes shape (a request entering, a batch resolving):
        # the smoothed signal load-aware fleet routing consumes, served
        # next to the raw gauge so pollers need no client-side state.
        self._queue_ewma = 0.0

    #: smoothing factor for the queue-depth EWMA gauge
    _QUEUE_EWMA_ALPHA = 0.2

    def _observe_queue(self) -> None:
        depth = len(self._pending) + self._executing_count
        self._queue_ewma += self._QUEUE_EWMA_ALPHA * (depth - self._queue_ewma)

    # -- submission ----------------------------------------------------------

    def lookup(self, key: Optional[str], *, copy: bool = True) -> Optional[SolveResult]:
        """One request's cache lookup: counts the request, and a hit.
        Returns the cached result (``copy`` as for
        :meth:`~repro.service.cache.ResultCache.get`) or ``None`` — on a
        miss, and for an uncacheable ``key=None`` — after which the
        request goes to :meth:`submit` with this ``key``."""
        if self._closed:
            raise ServiceClosedError("scheduler is closed")
        self._requests += 1
        if self.cache is None or key is None:
            return None
        hit = self.cache.get(key, copy=copy)
        if hit is not None:
            self._cache_hits += 1
        return hit

    async def submit(
        self, problem, method: str, kwargs: dict | None = None, *, key=_UNKEYED
    ) -> tuple[SolveResult, str]:
        """Schedule one solve; returns ``(result, source)`` where
        ``source`` is ``"cache"`` (hit, no work entered a batch),
        ``"coalesced"`` (joined an identical request that was pending
        or already executing), ``"delta"`` (an incremental re-solve
        from a cached sibling rode the batch) or ``"batch"`` (solved
        cold in the batch this request rode). Raises whatever the solve
        raised.

        Without ``key``, submit hashes the problem and makes the
        request's :meth:`lookup` itself. A caller that already made it
        passes the key it looked up (``None`` when uncacheable), and
        submit neither re-hashes nor re-probes."""
        if self._closed:
            raise ServiceClosedError("scheduler is closed")
        kwargs = dict(kwargs or {})
        if key is _UNKEYED:
            key = instance_key(problem, method=method, **kwargs)
            hit = self.lookup(key)
            if hit is not None:
                return hit, "cache"

        future: asyncio.Future = asyncio.get_running_loop().create_future()
        joined = False
        entry = None
        if key is not None:
            # Pending twin first, then one already detached into the
            # in-flight batch — late duplicates join the running solve.
            entry = self._by_key.get(key) or self._executing.get(key)
        if entry is not None:
            entry.futures.append(future)
            self._coalesced += 1
            joined = True
        else:
            entry = _Entry(key, problem, method, kwargs, [future])
            self._pending.append(entry)
            if key is not None:
                self._by_key[key] = entry
            if len(self._pending) == 1:
                self._spawn_flusher()
            if len(self._pending) >= self.max_batch:
                self._full.set()
        self._observe_queue()
        result, tag = await future
        return result, ("coalesced" if joined else tag)

    # -- the flush machinery -------------------------------------------------

    def _spawn_flusher(self) -> None:
        task = asyncio.get_running_loop().create_task(self._flush_when_due())
        self._flushers.add(task)
        task.add_done_callback(self._flushers.discard)

    def _take_pending(self) -> list[_Entry]:
        """Detach (at most) one batch; anything beyond ``max_batch``
        stays pending with a fresh flusher, so the size bound is a hard
        cap on batch size, not just a flush trigger. Detached keyed
        entries move to the executing index, where late duplicates can
        still join them until their results land."""
        batch = self._pending[: self.max_batch]
        self._pending = self._pending[self.max_batch :]
        for entry in batch:
            if entry.key is not None:
                self._by_key.pop(entry.key, None)
                self._executing[entry.key] = entry
        self._full.clear()
        if self._pending:
            if len(self._pending) >= self.max_batch or self._closed:
                self._full.set()
            self._spawn_flusher()
        return batch

    async def _flush_when_due(self) -> None:
        try:
            await asyncio.wait_for(self._full.wait(), timeout=self.batch_window)
        except asyncio.TimeoutError:
            pass  # deadline reached with a partial batch — run it anyway
        async with self._run_lock:
            await self._run_batch(self._take_pending())

    def _solve_batch(self, batch: list[_Entry]) -> list[tuple[str, Any]]:
        """Worker-thread body of one batch: probe each entry for a delta
        re-solve first (delta candidates resolve like hits but ride the
        batch), then run only the cold remainder through the runner —
        whose ``(problem, method, kwargs)`` item contract is unchanged.
        Returns ``(tag, outcome)`` per entry, submission order."""
        tagged: list[tuple[str, Any]] = [("batch", None)] * len(batch)
        cold: list[tuple] = []
        cold_idx: list[int] = []
        for idx, entry in enumerate(batch):
            hit = None
            if self.cache is not None and entry.key is not None:
                try:
                    hit = try_delta(
                        self.cache, entry.problem,
                        method=entry.method, **entry.kwargs,
                    )
                except Exception:  # noqa: BLE001 - a probe must never fail a solve
                    hit = None
            if hit is not None:
                tagged[idx] = ("delta", hit)
            else:
                cold.append((entry.problem, entry.method, entry.kwargs))
                cold_idx.append(idx)
        if cold:
            results = self._runner(cold)
            if len(results) != len(cold):  # pragma: no cover - runner bug
                raise ReproError(
                    f"runner returned {len(results)} results for {len(cold)} items"
                )
            for idx, outcome in zip(cold_idx, results):
                tagged[idx] = ("batch", outcome)
        return tagged

    def _put(self, entry: _Entry, outcome: SolveResult) -> None:
        if self.cache is None or entry.key is None:
            return
        if getattr(self.cache, "supports_delta", False):
            self.cache.put(
                entry.key,
                outcome,
                delta=delta_meta_for(entry.problem, method=entry.method, **entry.kwargs),
            )
        else:
            self.cache.put(entry.key, outcome)

    async def _run_batch(self, batch: list[_Entry]) -> None:
        if not batch:
            return
        self._batches += 1
        self._batch_items += len(batch)
        self._largest_batch = max(self._largest_batch, len(batch))
        self._executing_count = len(batch)
        try:
            tagged = await asyncio.to_thread(self._solve_batch, batch)
        except Exception as exc:  # noqa: BLE001 - fail every waiter, not the loop
            tagged = [("batch", exc)] * len(batch)
        # Unindex before resolving: both happen in this same event-loop
        # step, so no submit can slip between them and join a dead entry.
        self._executing_count = 0
        self._observe_queue()
        for entry in batch:
            if entry.key is not None:
                self._executing.pop(entry.key, None)
        for entry, (tag, outcome) in zip(batch, tagged):
            if isinstance(outcome, Exception):
                for fut in entry.futures:
                    if not fut.done():
                        fut.set_exception(outcome)
            else:
                if tag == "delta":
                    self._delta_hits += 1
                self._put(entry, outcome)
                for fut in entry.futures:
                    if not fut.done():
                        fut.set_result((outcome, tag))

    # -- lifecycle -----------------------------------------------------------

    async def close(self) -> None:
        """Stop accepting work, run whatever is pending, then return."""
        self._closed = True
        while self._flushers:
            # Release flushers still waiting out their window; oversize
            # backlogs respawn flushers, hence the loop.
            self._full.set()
            try:
                await asyncio.gather(*list(self._flushers), return_exceptions=True)
            except RuntimeError:  # pragma: no cover - cross-loop close
                # close() running on a different loop than the flushers
                # (a synchronous owner after its loop died): the tasks
                # can never complete, so don't wedge — the owner's
                # finally still releases pools and segments.
                break

    def stats(self) -> dict:
        mean = self._batch_items / self._batches if self._batches else 0.0
        return {
            "requests": self._requests,
            "cache_hits": self._cache_hits,
            "delta_hits": self._delta_hits,
            "coalesced": self._coalesced,
            "batches": self._batches,
            "batch_items": self._batch_items,
            "mean_batch": round(mean, 2),
            "largest_batch": self._largest_batch,
            "pending": len(self._pending),
            # entries detached into the in-flight batch: previously
            # folded into neither number, under-reporting in-flight
            # work exactly while a batch runs
            "executing": self._executing_count,
            # the one-number backlog gauge load monitors poll: every
            # entry accepted but not yet resolved, wherever it sits
            "queue_depth": len(self._pending) + self._executing_count,
            # its EWMA (sampled on submit and batch completion) — the
            # smoothed backlog signal load-aware routing reads
            "queue_depth_ewma": round(self._queue_ewma, 3),
        }
