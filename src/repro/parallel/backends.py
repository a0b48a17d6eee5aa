"""Execution backends: serial, thread pool, persistent process pool.

A backend maps a function over a list of items and returns the results
in item order. The kernel engine maps each sweep's tile compute over
its tiles on :data:`TILE_BACKENDS` (``serial`` or ``thread``: threads
share the solver's tables); :func:`repro.core.api.solve_many` maps
whole problems over any of the three. Which one runs when the caller
names none is the execution table's choice
(:mod:`repro.core.plan`), never a default of this module.

:class:`ProcessBackend` runs a **persistent** worker pool (created
lazily on first use, reused across batches when the caller owns the
instance) with either the ``fork`` or the ``spawn`` start method, on a
:class:`concurrent.futures.ProcessPoolExecutor`: a worker that dies
(an OOM kill, say) breaks the executor, so the map in flight raises
:class:`~repro.errors.BackendError` instead of waiting forever, and
the next lease starts a fresh pool. Its one transport is pickling:
each item is pickled once and the batch goes to the workers in one
``map``. A batch with an item that cannot be pickled at all
(``solve_many`` specs whose cost functions are closures) cannot reach
a worker under either start method, so it runs in the calling process
instead.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.errors import BackendError

__all__ = [
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "make_backend",
    "BACKEND_NAMES",
    "TILE_BACKENDS",
    "START_METHODS",
    "check_tile_backend",
    "default_start_method",
    "default_workers",
]

#: the valid ``backend=`` names, single source for every validation site
BACKEND_NAMES = ("serial", "thread", "process")

#: the backends a sweep's tiles run on: a process pool runs whole
#: problems (``solve_many``) only
TILE_BACKENDS = ("serial", "thread")

#: the supported process start methods (validated up front; work
#: travels pickled, so neither relies on fork)
START_METHODS = ("fork", "spawn")


def default_start_method() -> str:
    """``fork`` where the platform has it, else ``spawn``."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def default_workers() -> int:
    """The pool size when a caller names none: the CPUs this process
    may run on, capped at 8. The affinity mask counts where the platform
    has one (``os.cpu_count()`` counts the machine's CPUs, whatever the
    process may use)."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity is not None else os.cpu_count() or 1
    return max(1, min(8, cpus))


#: seconds between a pool worker's checks that its owner still runs
_OWNER_POLL_S = 0.5


def _init_worker(owner: int) -> None:  # pragma: no cover - worker-side
    """Pool initializer: each worker starts with SIGTERM's default action
    and no wakeup fd, and leaves when its owner (pid ``owner``) does.
    A fork-started worker inherits its parent's handlers, so a caller's
    SIGTERM handler (an asyncio server's, say) would let the worker miss
    the SIGTERM of :meth:`ProcessBackend.close` inside a blocking lock
    wait, and the close would then wait for it forever; the inherited
    wakeup fd would hand the signal to the parent's event loop instead.
    An owner that ends without its cleanup (SIGKILL, the OOM killer,
    ``os._exit``) leaves the workers waiting on the call queue for good,
    since every sibling holds its write end and none ever reads EOF: a
    daemon thread ends the worker once it has been re-parented."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    threading.Thread(
        target=_exit_with_owner, args=(owner,), name="repro-owner-watch", daemon=True
    ).start()


def _exit_with_owner(owner: int) -> None:  # pragma: no cover - worker-side
    while os.getppid() == owner:
        time.sleep(_OWNER_POLL_S)
    os._exit(0)


def _call_pickled(task: tuple[bytes, bytes]) -> Any:  # pragma: no cover - worker-side
    """Worker shim for one :meth:`ProcessBackend.map` item: the function
    and the item arrive pickled by the parent, each item once."""
    fn, item = task
    return pickle.loads(fn)(pickle.loads(item))


class Backend:
    """Interface: map a function over items, preserving order.

    Backends are context managers — ``with make_backend(...) as be:``
    guarantees :meth:`close` runs, which is how worker pools are
    released deterministically.
    """

    name = "abstract"

    def __init__(self) -> None:
        self._lease_lock = threading.Lock()
        self._leases = 0

    # -- lease / health (the solve service's scheduler contract) -------------

    @contextmanager
    def lease(self) -> Iterator["Backend"]:
        """Borrow the backend for a unit of work.

        Entering revives a dead worker pool (:meth:`ensure_alive`) and
        counts the lease; :meth:`health` reports the live count, which
        is how a long-running service can tell an idle pool from one
        mid-batch. Leases nest and are thread-safe; they do not lock —
        backends already serialise whatever needs serialising.
        """
        with self._lease_lock:
            self._leases += 1
        try:
            self.ensure_alive()
            yield self
        finally:
            with self._lease_lock:
                self._leases -= 1

    @property
    def active_leases(self) -> int:
        with self._lease_lock:
            return self._leases

    def ensure_alive(self) -> None:
        """Make the backend servable again after worker death (no-op
        where there are no workers to die)."""

    def health(self) -> dict:
        """A point-in-time health snapshot: backend name, configured
        worker count, live-worker count where that is meaningful, and
        outstanding leases. Cheap enough to serve on every status
        request."""
        return {
            "backend": self.name,
            "workers": getattr(self, "workers", 1),
            "alive": True,
            "leases": self.active_leases,
        }

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        """Run ``fn(item)`` for each item; results in item order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (no-op where there are none)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SerialBackend(Backend):
    """Run items one after another in the calling thread."""

    name = "serial"
    workers = 1

    def map(self, fn, items):
        return [fn(item) for item in items]


class ThreadBackend(Backend):
    """OS threads. Real concurrency only where numpy releases the GIL
    (large ufunc loops do), but always a correct CREW execution."""

    name = "thread"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__()
        if workers is not None and workers < 1:
            raise BackendError("workers must be >= 1")
        self.workers = workers if workers is not None else default_workers()
        self._pool = ThreadPoolExecutor(max_workers=self.workers)

    def map(self, fn, items):
        return list(self._pool.map(fn, items))

    def ensure_alive(self) -> None:
        # A lease taken after close() gets a fresh executor; a bare map
        # after close() still fails (the documented close contract).
        if self._pool._shutdown:  # noqa: SLF001 - no public probe exists
            self._pool = ThreadPoolExecutor(max_workers=self.workers)

    def close(self) -> None:
        self._pool.shutdown(wait=True)


class ProcessBackend(Backend):
    """Persistent worker-process pool for whole-problem batches.

    :meth:`map` pickles each item once and hands the batch to the pool
    in one ``map``. A batch with an item (or a function) that cannot be
    pickled runs ``fn(item)`` item by item on the caller's thread
    instead, under either start method, and starts no pool. Sweep
    tiles never run here (:data:`TILE_BACKENDS`).

    A worker that dies, idle or mid-task, breaks the pool: the map in
    flight raises :class:`~repro.errors.BackendError` and the next
    lease (:meth:`ensure_alive`) starts a fresh one.

    Parameters
    ----------
    workers:
        Pool size (default :func:`default_workers`). Workers are started
        lazily on the first map and then **reused**: across the items
        of a ``solve_many`` batch and — when the caller owns the
        backend instance — across batches.
    start_method:
        ``"fork"`` or ``"spawn"`` (default: fork where available, else
        spawn). Spawn works because nothing relies on inherited state:
        functions pickle by reference, algebras by name, and problems
        by value.
    """

    name = "process"

    def __init__(
        self,
        workers: int | None = None,
        *,
        start_method: str | None = None,
    ) -> None:
        super().__init__()
        if workers is not None and workers < 1:
            raise BackendError("workers must be >= 1")
        if start_method is None:
            start_method = default_start_method()
        if start_method not in START_METHODS:
            raise BackendError(
                f"unknown start method {start_method!r}; valid choices: "
                f"{', '.join(START_METHODS)}"
            )
        if start_method not in mp.get_all_start_methods():
            raise BackendError(
                f"start method {start_method!r} is unavailable on this platform"
            )
        self.workers = workers if workers is not None else default_workers()
        self.start_method = start_method
        self._ctx = mp.get_context(start_method)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()

    # -- the persistent pool -------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                pool = ProcessPoolExecutor(
                    self.workers,
                    mp_context=self._ctx,
                    initializer=_init_worker,
                    initargs=(os.getpid(),),
                )
                # The executor forks its workers at the first submit and
                # (Python 3.11+) spawns them one per submit; start them
                # all now, so that the pool is warm and worker_pids()
                # names it from the start.
                launch = getattr(pool, "_launch_processes", None)
                if launch is not None:
                    launch()
                else:  # pragma: no cover - Python 3.10
                    for _ in range(self.workers):
                        pool._adjust_process_count()  # noqa: SLF001
                self._pool = pool
            return self._pool

    @staticmethod
    def _processes(pool: ProcessPoolExecutor) -> list:
        return list((pool._processes or {}).values())  # noqa: SLF001 - no public probe

    @classmethod
    def _stop(cls, pool: ProcessPoolExecutor) -> None:
        """Stop ``pool`` without waiting for a running task. Workers are
        terminated and reaped first: the executor's manager thread then
        sees them dead, fails what was pending and exits, so the
        shutdown takes no lock a killed worker may hold."""
        procs = cls._processes(pool)
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
        pool.shutdown(wait=True, cancel_futures=True)

    @classmethod
    def _healthy(cls, pool: ProcessPoolExecutor) -> bool:
        return not pool._broken and all(  # noqa: SLF001 - no public probe
            proc.is_alive() for proc in cls._processes(pool)
        )

    def worker_pids(self) -> list[int]:
        """PIDs of the live pool (starting it if needed) — the
        persistence tests assert these stay constant across batches."""
        return sorted(proc.pid for proc in self._processes(self._ensure_pool()))

    def ensure_alive(self) -> None:
        """Discard the pool if any worker has died (OOM-kill, crash);
        the next map then starts a fresh one. The persistent-pool
        promise is *warmth*, not immortality — a service leasing this
        backend gets a working pool on every lease, and pays a restart
        only after an actual death."""
        with self._pool_lock:
            pool = self._pool
            if pool is None or self._healthy(pool):
                return
            self._pool = None
        self._stop(pool)

    def health(self) -> dict:
        """Backend health plus pool state: whether the persistent pool
        is started, how many of its workers are alive, and its start
        method."""
        info = super().health()
        with self._pool_lock:
            pool = self._pool
        procs = self._processes(pool) if pool is not None else []
        alive = sum(1 for proc in procs if proc.is_alive())
        info.update(
            started=pool is not None,
            alive=pool is None or self._healthy(pool),
            workers_alive=alive,
            start_method=self.start_method,
        )
        return info

    # -- mapping -------------------------------------------------------------

    def map(self, fn, items):
        if not items:
            return []
        try:
            blob = pickle.dumps(fn, protocol=pickle.HIGHEST_PROTOCOL)
            tasks = [
                (blob, pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))
                for item in items
            ]
        except (pickle.PicklingError, AttributeError, TypeError):
            # An unpicklable payload (e.g. closure-based problem specs):
            # no worker can receive it, so run it here.
            return [fn(item) for item in items]
        try:
            return list(self._ensure_pool().map(_call_pickled, tasks))
        except BrokenProcessPool as exc:
            raise BackendError(
                "a process-pool worker died before the batch finished; the "
                "next lease starts a fresh pool"
            ) from exc

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop the persistent pool (a later map revives it)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            self._stop(pool)


def check_tile_backend(backend: Backend | str) -> None:
    """Refuse a process pool, by name or instance, as a sweep's tile
    backend — before any pool or table exists. Tiles run on
    :data:`TILE_BACKENDS`; a process pool runs whole problems."""
    if backend == "process" or isinstance(backend, ProcessBackend):
        raise BackendError(
            "sweep tiles run on 'serial' or 'thread', not on a process pool; "
            "solve_many runs whole problems on one"
        )


def make_backend(
    name: str,
    workers: int | None = None,
    *,
    start_method: str | None = None,
) -> Backend:
    """Factory: ``"serial"``, ``"thread"`` or ``"process"``.

    Every name is validated here, up front, with the valid choices in
    the error — the one place ``solve()``, the CLI and the engine all
    route through.
    """
    if name not in BACKEND_NAMES:
        raise BackendError(
            f"unknown backend {name!r}; valid choices: {', '.join(BACKEND_NAMES)}"
        )
    if name != "process":
        if start_method is not None:
            raise BackendError(
                f"start_method applies only to the 'process' backend, not {name!r}"
            )
        return SerialBackend() if name == "serial" else ThreadBackend(workers)
    return ProcessBackend(workers, start_method=start_method)
