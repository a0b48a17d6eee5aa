"""The solve server: warm pools + shared store behind a JSONL socket.

:class:`SolveService` is the long-lived object the ``repro serve``
subcommand (and the in-process :class:`~repro.service.client.LocalClient`)
runs: it owns a worker-pool :class:`~repro.parallel.backends.Backend`
(leased per batch, revived if workers die), a shared
:class:`~repro.parallel.shm.TableStore` whose segments stay warm across
single-request solves, a :class:`~repro.service.cache.ResultCache`, and
the :class:`~repro.service.scheduler.CoalescingScheduler` that feeds
:func:`repro.core.solve_many`.

Wire protocol (``repro serve`` / ``repro request``): one JSON object
per line (framing in :mod:`repro.service.transport`). A request is
either a problem spec (the exact ``repro batch`` format, see
:mod:`repro.problems.specs`) with an optional ``"id"``, or an op:
``{"op": "status"}``, ``{"op": "shutdown"}``. Responses echo the ``id``
and carry ``ok``, ``value``, ``iterations``, ``method``, ``algebra``,
``source`` (``cache``/``coalesced``/``batch``) and ``elapsed_ms`` — or
``ok: false`` with ``error``. Requests on one connection may be
pipelined; responses come back as they finish, so concurrent lines
coalesce into shared batches.

A spec request is key first (:meth:`SolveService.handle_spec`): the
process's spec-key memo (:func:`repro.problems.specs.spec_key`) names
the instance key of a spec seen before, one cache lookup by that key
follows, and a hit is answered from the stored result's scalars — no
problem is built and no table copied. Only a memo miss builds and
hashes the problem. Every key is derived here from the spec; no key
crosses the wire, so a forged field cannot select another instance's
answer.

The same server runs on either transport: :func:`serve_unix` binds a
unix socket (kernel-local, the default), :func:`serve_tcp` a TCP
host/port (for crossing machine or container boundaries), and
:func:`serve` takes an :class:`~repro.service.transport.Address` and
covers both.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional

from repro.core.api import ITERATIVE_METHODS, solve, solve_many
from repro.parallel.backends import Backend, make_backend
from repro.parallel.shm import TableStore
from repro.problems.specs import batch_item_from_spec, spec_key
from repro.core.delta import MAX_DIRTY_FRACTION
from repro.service.cache import ResultCache, TieredResultCache
from repro.service.scheduler import CoalescingScheduler
from repro.service.transport import Address, serve_jsonl

__all__ = ["SolveService", "serve", "serve_unix", "serve_tcp"]


class SolveService:
    """Everything a solve server owns, independent of any transport.

    Parameters
    ----------
    method:
        Default method for requests that do not name one.
    backend, workers, start_method:
        The warm pool every batch leases — a backend name (owned and
        closed by the service) or a live
        :class:`~repro.parallel.backends.Backend` instance (caller
        keeps ownership).
    batch_window, max_batch:
        Scheduler bounds — see
        :class:`~repro.service.scheduler.CoalescingScheduler`.
    cache_bytes, cache_entries:
        Result-cache budget; ``cache_bytes=0`` disables caching.
    cache_dir:
        When set (and caching is enabled), the in-memory cache becomes
        the L1 of a :class:`~repro.service.cache.TieredResultCache`
        whose L2 lives in this directory — shared across every process
        pointing at it and surviving restarts (the fleet wires one
        common directory per fleet).
    delta_max_dirty:
        Dirty-fraction threshold above which delta re-solve probes
        decline (see :data:`repro.core.delta.MAX_DIRTY_FRACTION`).
    """

    def __init__(
        self,
        *,
        method: str = "sequential",
        backend: Backend | str = "process",
        workers: int | None = None,
        start_method: str | None = None,
        batch_window: float = 0.005,
        max_batch: int = 16,
        cache_bytes: int = 128 << 20,
        cache_entries: int = 4096,
        cache_dir: str | None = None,
        delta_max_dirty: float = MAX_DIRTY_FRACTION,
    ) -> None:
        self.default_method = method
        self._owns_backend = isinstance(backend, str)
        self.backend = (
            make_backend(backend, workers, start_method=start_method)
            if isinstance(backend, str)
            else backend
        )
        self.store = TableStore()
        if cache_bytes <= 0:
            self.cache = None
        elif cache_dir is not None:
            self.cache = TieredResultCache(
                cache_dir,
                max_bytes=cache_bytes,
                max_entries=cache_entries,
                delta_max_dirty=delta_max_dirty,
            )
        else:
            self.cache = ResultCache(max_bytes=cache_bytes, max_entries=cache_entries)
            self.cache.delta_max_dirty = delta_max_dirty
        self.scheduler = CoalescingScheduler(
            self._execute_batch,
            batch_window=batch_window,
            max_batch=max_batch,
            cache=self.cache,
        )
        self._started = time.monotonic()
        self._requests = 0
        self._closed = False

    # -- batch execution (scheduler runner; worker thread) -------------------

    def _execute_batch(self, items: list) -> list:
        """Run one coalesced batch on the leased warm backend.

        A singleton batch takes the warm-store fast path — ``solve``
        with the service's backend *and* table store, so plan commit
        buffers land in segments that persist across requests. Larger
        batches fan out through ``solve_many`` (whole problems per
        worker; per-item failures stay in place)."""
        with self.backend.lease():
            if len(items) == 1:
                problem, method, kwargs = items[0]
                run_kwargs = dict(kwargs)
                if method in ITERATIVE_METHODS:
                    run_kwargs.update(backend=self.backend, store=self.store)
                try:
                    return [solve(problem, method=method, **run_kwargs)]
                except Exception as exc:  # noqa: BLE001 - isolate like solve_many
                    return [exc]
            return solve_many(items, backend=self.backend, on_error="return")

    # -- request handling ----------------------------------------------------

    async def submit(
        self, problem, method: str | None = None, kwargs: dict | None = None
    ):
        """The in-process front door (what :class:`LocalClient` calls):
        counts the request and schedules it. Returns ``(result,
        source)`` like the scheduler."""
        self._requests += 1
        return await self.scheduler.submit(
            problem, method or self.default_method, kwargs
        )

    async def handle_spec(self, msg: dict) -> dict:
        """One spec request -> one JSON-able response record.

        Key first: the spec's instance key comes from the key memo when
        the spec was seen before, else from building and hashing it
        once. The request's one cache lookup uses that key, and a hit
        is answered from the stored read-only result. A miss builds the
        problem if the memo spared it, and hands the scheduler the key
        already looked up."""
        request_id = msg.get("id")
        t0 = time.perf_counter()
        self._requests += 1
        try:
            spec = {k: v for k, v in msg.items() if k != "id"}
            key, item = spec_key(spec, default_method=self.default_method)
            hex_key = None if key is None else key.hex()
            result = self.scheduler.lookup(hex_key, copy=False)
            source = "cache"
            if result is None:
                if item is None:
                    item = batch_item_from_spec(
                        spec, default_method=self.default_method
                    )
                result, source = await self.scheduler.submit(*item, key=hex_key)
        except Exception as exc:  # noqa: BLE001 - protocol errors go on the wire
            return {
                "id": request_id,
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
            }
        return {
            "id": request_id,
            "ok": True,
            "method": result.method,
            "algebra": result.algebra,
            "value": result.value,
            "iterations": result.iterations,
            "source": source,
            "elapsed_ms": round((time.perf_counter() - t0) * 1e3, 3),
        }

    def status(self) -> dict:
        """Health + counters: backend pool state, store occupancy,
        cache and scheduler statistics, and ``cpu_s``, the CPU time
        (user + system) this process has used. ``cpu_s`` does not
        include the worker processes of a process backend."""
        return {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "cpu_s": round(time.process_time(), 6),
            "requests": self._requests,
            "default_method": self.default_method,
            "backend": self.backend.health(),
            "store": self.store.stats(),
            "cache": self.cache.stats() if self.cache is not None else None,
            "scheduler": self.scheduler.stats(),
        }

    # -- lifecycle -----------------------------------------------------------

    async def aclose(self) -> None:
        """Drain the scheduler, then release pools and unlink every
        shared-memory segment — after this, no worker processes and no
        ``/dev/shm`` residue remain. Pool and store cleanup run even if
        the drain fails: hygiene is unconditional."""
        if self._closed:
            return
        self._closed = True
        try:
            await self.scheduler.close()
        finally:
            if self._owns_backend:
                self.backend.close()
            self.store.close()

    def close(self) -> None:
        """Synchronous :meth:`aclose` for non-async owners."""
        if self._closed:
            return
        asyncio.run(self.aclose())


class _TaskPerSpec:
    """Per-connection dispatcher for :func:`serve`: every spec line
    becomes its own task immediately, so pipelined lines overlap inside
    the service and coalesce into shared scheduler batches."""

    def __init__(self, service: SolveService) -> None:
        self._service = service
        # In-flight tasks only: a router holds one connection for a
        # shard's whole life, so finished tasks must not pile up here.
        self._tasks: set[asyncio.Task] = set()

    def submit(self, msg: dict, respond) -> None:
        async def _run() -> None:
            await respond(await self._service.handle_spec(msg))

        task = asyncio.ensure_future(_run())
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def drain(self) -> None:
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)


async def serve(
    service: SolveService,
    address: Address,
    *,
    max_requests: Optional[int] = None,
    ready: Optional[asyncio.Event] = None,
    on_bound: Optional[Callable[[Address], None]] = None,
    quiet: bool = True,
) -> int:
    """Serve JSONL requests on ``address`` (unix or TCP) until shutdown.

    Runs until a ``{"op": "shutdown"}`` request arrives or
    ``max_requests`` spec requests have been answered (the smoke-test
    and benchmark hook). Closes the service (pools stopped, segments
    unlinked) and — for unix addresses — removes the socket file before
    returning the number of spec requests served.

    ``on_bound`` is called with the actual bound endpoint once the
    listener is up (the way callers learn an ephemeral TCP port).
    Every exit path after the bind, including failures in ``on_bound``
    or ``ready`` themselves, still runs the full cleanup: no stale
    socket file, no leaked pool, no ``/dev/shm`` residue (the loop
    itself — framing, ops, teardown — is
    :func:`repro.service.transport.serve_jsonl`, shared with the fleet
    front end).
    """

    async def _status() -> dict:
        return service.status()

    return await serve_jsonl(
        address,
        make_dispatcher=lambda: _TaskPerSpec(service),
        status_fn=_status,
        banner=lambda bound: f"repro serve: listening on {bound.describe()}",
        cleanup=service.aclose,
        max_requests=max_requests,
        ready=ready,
        on_bound=on_bound,
        quiet=quiet,
    )


async def serve_unix(
    service: SolveService,
    socket_path: str,
    *,
    max_requests: Optional[int] = None,
    ready: Optional[asyncio.Event] = None,
    quiet: bool = True,
) -> int:
    """:func:`serve` on a unix socket path (the default transport)."""
    return await serve(
        service,
        Address.unix(socket_path),
        max_requests=max_requests,
        ready=ready,
        quiet=quiet,
    )


async def serve_tcp(
    service: SolveService,
    host: str,
    port: int,
    *,
    max_requests: Optional[int] = None,
    ready: Optional[asyncio.Event] = None,
    on_bound: Optional[Callable[[Address], None]] = None,
    quiet: bool = True,
) -> int:
    """:func:`serve` on a TCP endpoint. ``port=0`` binds an ephemeral
    port; pass ``on_bound`` to learn which one."""
    return await serve(
        service,
        Address.tcp(host, port),
        max_requests=max_requests,
        ready=ready,
        on_bound=on_bound,
        quiet=quiet,
    )
