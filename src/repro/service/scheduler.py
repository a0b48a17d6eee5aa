"""Group-commit request coalescing over ``solve_many``.

The scheduler turns a stream of independent solve requests into the
shape the batched service layer is fastest at: one
:func:`repro.core.solve_many` call per *batch*. Coalescing happens at
two levels:

* **Duplicate coalescing** — a request whose instance hash matches an
  entry already waiting in the next batch — *or already detached into
  the currently-executing batch* — does not add work; its future joins
  the entry and all joiners share the one solve. (Executing entries
  stay joinable until their results land: a duplicate arriving moments
  after ``_take_pending()`` detaches its twin must not re-solve from
  scratch.)
* **Batch coalescing (group commit)** — a request that finds the
  scheduler idle starts a batch, together with whatever arrived in the
  same event-loop turn; requests that arrive while that batch runs
  form the next one, up to ``max_batch`` entries. On a one-worker
  runner the batch starts at once: a batch buys it no parallelism, so
  waiting for company would only delay the request. On a pool, a
  batch that starts from idle short of ``max_batch`` first waits 5 ms
  for company: a burst from independent threads trickles in over a
  few ms, and its stragglers would otherwise wait a whole batch while
  pool workers could have solved them side by side.

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
Batches execute one at a time on one drain task, so the warm backend
is never used from two threads at once.
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

#: on a pool, how long a batch starting from idle waits for company; a
#: burst of 32 threads each submitting one request was measured to land
#: within about 4 ms on 2 vCPUs
_GATHER_S = 0.005


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
    max_batch:
        At most this many entries per batch; the rest of a backlog
        waits for the next one.
    workers:
        How many entries the runner solves side by side (the service
        passes its backend's worker count). Above 1, a batch starting
        from idle short of ``max_batch`` waits 5 ms for company.
    cache:
        Optional :class:`~repro.service.cache.ResultCache`; consulted
        at submit, populated after each batch.
    """

    def __init__(
        self,
        runner: Callable[[list], list],
        *,
        max_batch: int = 16,
        workers: int = 1,
        cache=None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._runner = runner
        self.max_batch = int(max_batch)
        self.workers = int(workers)
        self.cache = cache
        self._pending: list[_Entry] = []
        self._by_key: dict[str, _Entry] = {}
        self._executing: dict[str, _Entry] = {}
        self._executing_count = 0
        self._closed = False
        #: the one task running batches, while there is work pending
        self._drain: Optional[asyncio.Task] = None
        # -- counters (served on the status endpoint) --
        self._requests = 0
        self._cache_hits = 0
        self._delta_hits = 0
        self._coalesced = 0
        self._batches = 0
        self._batch_items = 0
        self._largest_batch = 0

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

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
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
            if self._drain is None:
                self._drain = loop.create_task(self._drain_pending())
        result, tag = await future
        return result, ("coalesced" if joined else tag)

    # -- the drain task ------------------------------------------------------

    def _take_pending(self) -> list[_Entry]:
        """Detach the next batch: the oldest ``max_batch`` pending
        entries, so the size bound is a hard cap. Detached keyed entries
        move to the executing index, where late duplicates can still
        join them until their results land."""
        batch = self._pending[: self.max_batch]
        del self._pending[: self.max_batch]
        for entry in batch:
            if entry.key is not None:
                self._by_key.pop(entry.key, None)
                self._executing[entry.key] = entry
        return batch

    async def _drain_pending(self) -> None:
        """Run batches until nothing is pending, then clear the slot a
        ``submit`` checks. No ``await`` lies between the last empty
        check and the exit, so a request is either taken by this loop
        or finds the slot clear and starts a new drain. Only the first
        batch may wait for company: later ones gathered while the
        previous batch ran."""
        try:
            if self.workers > 1 and len(self._pending) < self.max_batch:
                await asyncio.sleep(_GATHER_S)
            while self._pending:
                await self._run_batch(self._take_pending())
        finally:
            self._drain = None

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
        if self._drain is not None:
            try:
                await asyncio.gather(self._drain, return_exceptions=True)
            except RuntimeError:  # pragma: no cover - cross-loop close
                # close() running on a different loop than the drain
                # task (a synchronous owner after its loop died): the
                # task can never complete, so don't wedge — the owner's
                # finally still releases the pool.
                pass

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
        }
