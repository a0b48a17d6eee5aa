"""The sharded solve fleet: N independent services behind one router.

A single :class:`~repro.service.server.SolveService` tops out on one
event loop, one worker pool and one cache. The fleet layer partitions
the *request space* instead: a :class:`FleetRouter` spawns ``shards``
shard processes — each a full ``repro serve`` with its own warm pool,
its own :class:`~repro.service.cache.ResultCache` and its own
coalescing scheduler — and routes every request by **consistent hash
of its instance key** (:func:`repro.core.api.instance_key_bytes`, which is
shard-stable by construction). Equal requests therefore always land on
the same shard, so duplicate-heavy traffic keeps hitting that shard's
cache and coalescer exactly as it would a single service's; distinct
requests spread across shards and scale with them.

Placement is the ring and nothing else (:mod:`repro.service.routing`):
every shard-bound request goes to the ring owner of its instance key,
or of its spec fingerprint when it has none, at every fleet width and
through scale events. :meth:`FleetRouter.route` is that placement. Each
request's key is computed once in the front end and carried to the
answer table and to the ring. A shard's response carries the answering
``shard`` and ``route: "ring"``.

Repeats are **answered in the front end**. A shard's answer is a
function of the request's instance key alone, and no wire op can
change it, so the router keeps a bounded table from instance key to
every ``ok`` answer a shard returned (``method``, ``algebra``,
``value``, ``iterations``). A spec whose key is in the table gets a
*front answer*, with ``source: "cache"``, ``shard: null`` and
``route: "front"``, and never reaches a shard; errors, refusals and
specs routed by fingerprint are never stored. A served line gets its
front answer from the connection's read callback, with no round, so
it can overtake the misses that arrived before it on its connection:
records carry their request's ``id`` and may arrive out of request
order, while ``request_many`` still returns submission order. The
table holds at most :data:`~repro.problems.specs.KEY_MEMO_ENTRIES`
entries of fixed size, least recently used evicted first, and a fleet
started with ``cache_bytes=0`` keeps none. ``status()`` counts the
front answers (``router.front_answers``, also in
``totals.cache_hits``) and the table's size (``router.front_entries``).

The shard set is **elastic** between batches: with ``min_shards`` /
``max_shards`` spanning a range, the router grows the fleet when the
EWMA-smoothed per-shard demand (the incoming round's shard-bound
requests plus live router-side queue depth) exceeds ``scale_up_depth``
and shrinks it when demand decays below ``scale_down_depth``. Scale
events are ring-segment handoffs: a new shard claims exactly the vnode
segment its index owns (respawning retired indices on the same
sockets), and a shard is only retired when it holds **zero**
accepted-but-unanswered requests — together with the at-most-once
re-dispatch machinery below, no accepted request is ever dropped
across a scale cycle (gated in CI by ``bench_e14_routing.py
--smoke``).

Failure semantics
-----------------
Shard death is detected at the transport (connection reset, EOF
mid-read, or no answer to a read within ``_REQUEST_TIMEOUT_S``), or
before a send when the shard's process has already exited. The router
then respawns the shard process on the same socket (reclaiming the
stale socket file) and re-dispatches the requests that were accepted
but not yet answered — **at most once** per request. A request whose
shard dies again after its re-dispatch is not retried a second time;
it completes with an explicit ``ok: false`` error record. No accepted
request is ever silently dropped: ``request_many`` always returns
exactly one record per spec, in submission order.

One event loop
--------------
The router owns one asyncio event loop, which :meth:`FleetRouter.start`
runs on a daemon thread named ``repro-fleet-router``. Routing, the
in-flight counts, the counters, the ring and every shard connection (one
asyncio stream per shard, opened on first use) are touched only on
that loop, so none of them takes a lock. A round sends each shard its
group in one write and reads the answers under that shard's
``asyncio.Lock``; a round bound for one shard awaits its group
directly, and a round over several shards gathers its groups.
:func:`serve_fleet` runs the JSONL front end on the same loop (one
``asyncio.Protocol`` per client connection, see
:func:`~repro.service.transport.serve_jsonl`), so a served round is
routed, written and answered without leaving it, and a front answer is
written from the read callback itself. The
synchronous methods (``request_many``, ``status``, ...) run the same
coroutines on the loop and wait for them. Only process work leaves the
loop, for a thread: spawning, respawning, stopping and scaling shards.

Use it in-process (``FleetRouter.request_many``), as a one-shot CLI
(``repro request --fleet N``), or as a long-lived front-end server
(``repro fleet --shards N``, which exposes the whole fleet behind one
unix-socket or TCP endpoint via :func:`serve_fleet`).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Awaitable, Callable, Coroutine, Optional, Sequence

from repro.errors import ReproError
from repro.problems.specs import KEY_MEMO_ENTRIES, spec_fingerprint, spec_key
from repro.service.routing import HashRing
from repro.service.transport import (
    MAX_LINE_BYTES,
    Address,
    decode_record,
    encode_record,
    serve_jsonl,
)
from repro.service import transport as _transport

__all__ = ["FleetRouter", "HashRing", "serve_fleet"]

#: total sends a single request may consume: the original dispatch plus
#: exactly one re-dispatch after a shard death
_MAX_DISPATCHES = 2

#: EWMA smoothing for the per-shard demand signal the autoscaler tracks
_SCALE_ALPHA = 0.5

#: seconds a new shard has to accept connections on its socket
_SPAWN_TIMEOUT_S = 30.0

#: seconds a read from a shard may wait for its next answer before the
#: shard counts as dead
_REQUEST_TIMEOUT_S = 120.0

#: most shard answers the front end keeps, least recently used evicted
#: first: the spec-key memo's bound, so the table can answer every key
#: the memo names
_FRONT_ENTRIES = KEY_MEMO_ENTRIES


@dataclass
class _Job:
    """One routed request and everything its recovery needs."""

    index: int
    spec: dict
    shard: int = -1  # placed after the round's scale check
    client_id: Any = None  # the caller's own "id", echoed back verbatim
    # instance key: an ok answer is stored under it and the ring places
    # by it; None (malformed or uncacheable) places by the fingerprint
    key: Optional[bytes] = None
    dispatches: int = 0
    record: Optional[dict] = None


class _Shard:
    """One shard process plus the router's connection to it: an asyncio
    stream opened on first use and touched only on the router's loop.
    ``io`` is held for a group's write and its answers, a status query,
    a respawn or a stop, so none of them interleaves with another on
    the connection."""

    def __init__(self, index: int, socket_path: str) -> None:
        self.index = index
        self.socket_path = socket_path
        self.proc: Optional[subprocess.Popen] = None
        self.io = asyncio.Lock()
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self.respawns = 0

    # -- connection ----------------------------------------------------------

    async def connect(self) -> None:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_unix_connection(
                self.socket_path, limit=MAX_LINE_BYTES
            )

    async def disconnect(self) -> None:
        """Drop the connection at once: unsent bytes are discarded, so
        a shard that stopped reading cannot hold the close up."""
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.transport.abort()
            try:
                await writer.wait_closed()
            except OSError:  # pragma: no cover - the connection broke first
                pass

    async def send(self, lines: list[bytes]) -> None:
        """Write a group's request lines in one write. The shard's read
        loop dispatches every complete line in its buffer before any of
        them runs, so a group that arrives in one socket read — small
        specs; not a group near ``MAX_LINE_BYTES`` per line — reaches
        the shard's scheduler whole, before its first batch starts."""
        assert self._writer is not None
        self._writer.write(b"".join(lines))
        await self._writer.drain()

    async def recv(self, timeout: float) -> dict:
        """The next answer. A shard that sends none within ``timeout``
        seconds has its connection dropped, which ends the read as if
        the shard had closed it (a timer, not a task per read)."""
        assert self._reader is not None and self._writer is not None
        watchdog = asyncio.get_running_loop().call_later(
            timeout, self._writer.transport.abort
        )
        try:
            line = await self._reader.readline()
        finally:
            watchdog.cancel()
        if not line.endswith(b"\n"):
            raise ReproError(
                f"shard {self.index} closed the connection or sent no answer "
                f"within {timeout:g}s"
            )
        return decode_record(line)

    # -- process -------------------------------------------------------------

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None


class FleetRouter:
    """Spawn, route over, heal and aggregate a fleet of solve shards.

    Parameters mirror :class:`~repro.service.server.SolveService` —
    every shard is started with the same configuration:

    ``shards``
        How many shard processes to run. Each one is a full solve
        service (own process, own warm pool, own cache).
    ``method, backend, workers, start_method, max_batch, cache_bytes``
        Forwarded to each shard's ``repro serve``. ``cache_bytes=0``
        also leaves the front end without its answer table.
    ``cache_dir``
        Directory for the shared L2 result cache every shard mounts
        (each shard's in-memory cache becomes the L1 of a
        :class:`~repro.service.cache.TieredResultCache`). Defaults to
        an ``l2-cache`` subdirectory of ``state_dir`` whenever caching
        is enabled, so a respawned shard finds its predecessor's
        results on disk; pass an empty string to disable the L2 tier.
    ``state_dir``
        Where shard sockets and log files live; a private temporary
        directory (removed on close) when not given.
    ``min_shards, max_shards``
        The elastic range for dynamic scaling; both default to
        ``shards`` (autoscaling off). With a real range, the router
        grows/shrinks the shard set *between batches* on the
        EWMA-smoothed per-shard demand signal.
    ``scale_up_depth, scale_down_depth``
        Demand thresholds (requests per shard) for growing and
        shrinking; growth needs the smoothed demand to exceed
        ``scale_up_depth``, shrink needs it to decay below
        ``scale_down_depth``.

    Thread-safe: every synchronous method runs its coroutine on the
    router's one event loop and waits for it, so calls from any number
    of threads interleave there, between awaits, and the router's state
    needs no lock. A shard's ``asyncio.Lock`` keeps one group's write
    and answers together; a respawn runs under the same lock, so a dying
    shard is healed exactly once however many rounds trip over it.
    Called on the loop's own thread, a synchronous method raises
    :class:`~repro.errors.ReproError` instead of deadlocking.
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        method: str = "sequential",
        backend: str = "process",
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        max_batch: int = 16,
        cache_bytes: int = 128 << 20,
        cache_dir: Optional[str] = None,
        state_dir: Optional[str] = None,
        min_shards: Optional[int] = None,
        max_shards: Optional[int] = None,
        scale_up_depth: float = 32.0,
        scale_down_depth: float = 2.0,
    ) -> None:
        if shards < 1:
            raise ReproError("a fleet needs at least one shard")
        self.min_shards = shards if min_shards is None else int(min_shards)
        self.max_shards = shards if max_shards is None else int(max_shards)
        if not 1 <= self.min_shards <= shards <= self.max_shards:
            raise ReproError(
                f"need 1 <= min_shards <= shards <= max_shards, got "
                f"{self.min_shards} / {shards} / {self.max_shards}"
            )
        if not scale_down_depth < scale_up_depth:
            raise ReproError(
                f"scale_down_depth ({scale_down_depth}) must be below "
                f"scale_up_depth ({scale_up_depth})"
            )
        self.scale_up_depth = float(scale_up_depth)
        self.scale_down_depth = float(scale_down_depth)
        self.default_method = method
        self.backend = backend
        self.workers = workers
        self.start_method = start_method
        self.max_batch = int(max_batch)
        self.cache_bytes = int(cache_bytes)
        self._owns_state_dir = state_dir is None
        self.state_dir = Path(
            tempfile.mkdtemp(prefix="repro-fleet-") if state_dir is None else state_dir
        )
        self.state_dir.mkdir(parents=True, exist_ok=True)
        # One L2 directory for the whole fleet: every shard writes
        # through to it, so a respawned shard (or a sibling that gets a
        # re-routed duplicate) serves from disk instead of re-solving.
        if cache_dir is None and self.cache_bytes > 0:
            cache_dir = str(self.state_dir / "l2-cache")
        self.cache_dir = cache_dir or None
        self._shards: dict[int, _Shard] = {
            i: _Shard(i, str(self.state_dir / f"shard-{i}.sock"))
            for i in range(shards)
        }
        self.ring = HashRing(range(shards))
        #: accepted-but-unanswered requests per shard: the autoscaler's
        #: demand, scale-down's idle test and inflight()
        self._inflight: dict[int, int] = {i: 0 for i in range(shards)}
        self._started = False
        self._closed = False
        # The router's event loop and the thread running it: from
        # start() to close(), everything below is touched only there.
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        # Orders synchronous calls against close(): a call reaches the
        # loop before close() begins, or it sees the fleet closed.
        self._gate = threading.Lock()
        #: the front ends running on the loop; close() stops them
        self._fronts: set[asyncio.Task] = set()
        #: wire ids, unique across every shard connection
        self._wire_ids = itertools.count(1)
        #: a scale event is under way (they run one at a time)
        self._scaling = False
        #: scale events that front answers started, until they finish
        self._scale_tasks: set[asyncio.Task] = set()
        self._demand_ewma = 0.0
        self._scale_ups = 0
        self._scale_downs = 0
        #: instance key -> (method, algebra, value, iterations) of a
        #: shard's ok answer, in LRU order; None when caching is off
        self._answers: Optional[OrderedDict[bytes, tuple]] = (
            OrderedDict() if self.cache_bytes > 0 else None
        )
        self._front_answers = 0
        #: respawn counts of retired shard objects, so the fleet-wide
        #: respawn total survives scale-downs
        self._retired_respawns = 0
        self._requests = 0
        self._redispatched = 0
        self._gave_up = 0
        self._t0 = time.monotonic()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "FleetRouter":
        """Start the router's event loop, then spawn every shard and
        wait until each accepts connections."""
        if self._closed:
            raise ReproError("fleet is closed")
        if self._started:
            return self
        self._started = True
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-fleet-router", daemon=True
        )
        self._thread.start()
        for shard in self._shards.values():
            self._spawn(shard)
        for shard in self._shards.values():
            self._await_ready(shard)
        return self

    def _spawn(self, shard: _Shard) -> None:
        """Launch one shard process on its socket (used for both the
        initial start and post-mortem respawn)."""
        if os.path.exists(shard.socket_path):
            # A SIGKILLed predecessor cannot unlink its own socket; the
            # fresh server would also reclaim it, but doing it here
            # keeps _await_ready from connecting to the corpse's file.
            try:
                os.unlink(shard.socket_path)
            except OSError:  # pragma: no cover - raced with the server
                pass
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            shard.socket_path,
            "--method",
            self.default_method,
            "--backend",
            self.backend,
            "--max-batch",
            str(self.max_batch),
            "--cache-mb",
            str(self.cache_bytes / (1 << 20)),
        ]
        if self.cache_dir is not None:
            cmd += ["--cache-dir", self.cache_dir]
        if self.workers is not None:
            cmd += ["--workers", str(self.workers)]
        if self.start_method is not None:
            cmd += ["--start-method", self.start_method]
        env = os.environ.copy()
        # The shard interpreter must be able to import this very
        # package even when it is not installed (PYTHONPATH=src runs).
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else "")
            )
        log_path = self.state_dir / f"shard-{shard.index}.log"
        with open(log_path, "ab") as log:
            shard.proc = subprocess.Popen(
                cmd,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
                cwd=str(self.state_dir),
            )

    def _await_ready(self, shard: _Shard) -> None:
        deadline = time.monotonic() + _SPAWN_TIMEOUT_S
        while time.monotonic() < deadline:
            if not shard.alive():
                raise ReproError(
                    f"shard {shard.index} exited during startup "
                    f"(rc={shard.proc.returncode}); see "
                    f"{self.state_dir / f'shard-{shard.index}.log'}"
                )
            try:
                probe = _transport.connect(
                    Address.unix(shard.socket_path), timeout=1.0
                )
            except OSError:
                time.sleep(0.02)
                continue
            probe.close()
            return
        raise ReproError(
            f"shard {shard.index} did not accept connections within "
            f"{_SPAWN_TIMEOUT_S:.0f}s"
        )

    async def _respawn(self, shard: _Shard) -> None:
        """Replace a dead shard in place (caller holds ``shard.io``)."""
        if self._closed:
            # A request racing close() must not resurrect a shard the
            # shutdown already stopped — that process would outlive the
            # router (orphan + /dev/shm residue). Its jobs become
            # explicit error records instead.
            raise ReproError("fleet is closed; not respawning shard")
        await shard.disconnect()
        await asyncio.to_thread(self._restart, shard)
        shard.respawns += 1

    def _restart(self, shard: _Shard) -> None:
        if shard.proc is not None and shard.proc.poll() is None:
            # The process is alive but its transport broke; restart it
            # cleanly rather than leaving a wedged server behind.
            shard.proc.terminate()
            try:
                shard.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - wedged hard
                shard.proc.kill()
                shard.proc.wait()
        self._spawn(shard)
        self._await_ready(shard)

    def close(self) -> None:
        """Stop the front ends running on the router's loop, then every
        shard once its in-flight group is answered (graceful shutdown op
        first, escalating to terminate/kill); let the rounds that raced
        the close finish, stop the loop and its thread, and remove
        sockets, logs and — if the router created it — the whole state
        directory. Idempotent."""
        self._check_thread()
        with self._gate:
            if self._closed:
                return
            self._closed = True
        if self._loop is not None:
            asyncio.run_coroutine_threadsafe(self._aclose(), self._loop).result()
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join()
            self._loop.close()
        for shard in self._shards.values():
            if os.path.exists(shard.socket_path):  # pragma: no cover - forced kill
                try:
                    os.unlink(shard.socket_path)
                except OSError:
                    pass
        if self._owns_state_dir:
            shutil.rmtree(self.state_dir, ignore_errors=True)

    async def _aclose(self) -> None:
        fronts = list(self._fronts)
        for front in fronts:
            front.cancel()
        await asyncio.gather(*fronts, return_exceptions=True)
        # Each stop queues behind its shard's in-flight group; the stops
        # themselves run in parallel.
        await asyncio.gather(*map(self._stop_shard, list(self._shards.values())))
        # Rounds that raced the close find their shards stopped and end
        # as error records; every caller waiting on one gets its answer.
        others = asyncio.all_tasks() - {asyncio.current_task()}
        await asyncio.gather(*others, return_exceptions=True)
        await asyncio.get_running_loop().shutdown_default_executor()

    async def _stop_shard(self, shard: _Shard) -> None:
        async with shard.io:
            await shard.disconnect()
            await asyncio.to_thread(self._stop_process, shard)

    def _stop_process(self, shard: _Shard) -> None:
        if shard.proc is None or shard.proc.poll() is not None:
            return
        try:
            sock = _transport.connect(Address.unix(shard.socket_path), timeout=5.0)
            try:
                sock.sendall(encode_record({"op": "shutdown"}))
                with sock.makefile("r") as answer:
                    answer.readline()
            finally:
                sock.close()
        except OSError:  # pragma: no cover - already going down
            pass
        try:
            shard.proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - wedged
            shard.proc.terminate()
            try:
                shard.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                shard.proc.kill()
                shard.proc.wait()

    def __enter__(self) -> "FleetRouter":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- the synchronous facade ------------------------------------------------

    def _check_thread(self) -> None:
        if self._thread is not None and threading.current_thread() is self._thread:
            raise ReproError(
                "a synchronous FleetRouter call on the router's own event "
                "loop would deadlock; await the router's coroutine instead"
            )

    def _call(self, coro_fn: Callable, *args: Any) -> Any:
        """Run ``coro_fn(*args)`` on the router's loop and wait for it."""
        self.start()
        self._check_thread()
        with self._gate:
            if self._closed:
                raise ReproError("fleet is closed")
            future = asyncio.run_coroutine_threadsafe(coro_fn(*args), self._loop)
        return future.result()

    def route(self, spec: dict) -> int:
        """The shard index a spec is placed on: the ring owner of its
        instance key, or of its fingerprint when it has none. It places
        nothing, so clients and tests can predict every placement."""
        return self._call(self._route, spec)

    def request(self, spec: dict) -> dict:
        """Route and answer one spec; always returns a record."""
        return self.request_many([spec])[0]

    def request_many(self, specs: Sequence[dict]) -> list[dict]:
        """Route a batch across the fleet; one record per spec, in
        submission order. Specs bound for the same shard go out in one
        write on that shard's connection (so, when they arrive in one
        read, its scheduler takes up to ``max_batch`` of them as one
        batch); the groups of different shards run concurrently on the
        router's loop. Shard deaths are healed as described in the
        module docstring — the returned list never has holes.
        """
        return self._call(self._request_many, list(specs))

    def shard_pids(self) -> list[Optional[int]]:
        return self._call(self._shard_pids)

    def inflight(self) -> dict[int, int]:
        """Accepted-but-unanswered requests per shard index, read from
        the router's own counts — unlike :meth:`status`, without
        waiting for a shard that is busy answering a batch."""
        return self._call(self._inflight_counts)

    def status(self) -> dict:
        """Aggregate health: per-shard status records (or ``alive:
        False`` for unreachable shards) plus fleet-wide sums — total
        requests, combined cache counters and hit rate (front answers
        count as hits), respawns, and the router's own dispatch
        accounting. ``router.cpu_s`` is this process's CPU time;
        ``totals.cpu_s`` adds every reachable shard's ``cpu_s`` to it."""
        return self._call(self._status)

    # -- routing -------------------------------------------------------------

    def _key(self, body: dict) -> Optional[bytes]:
        """The instance key of one spec (``body``, without its ``id``):
        the one key computation a request gets in this process. ``None``
        for a malformed spec, whose shard answers with the error, and
        for an uncacheable one."""
        try:
            key, _ = spec_key(body, default_method=self.default_method)
        except Exception:  # noqa: BLE001 - its shard answers with the error
            return None
        return key

    def _owner(self, body: dict, key: Optional[bytes]) -> int:
        """The ring owner of a spec whose instance key is ``key``. A dead
        owner is chosen like a live one: :meth:`_dispatch_to_shard`
        respawns it before sending."""
        return self.ring.route(key if key is not None else spec_fingerprint(body))

    async def _route(self, spec: dict) -> int:
        body = {k: v for k, v in spec.items() if k != "id"}
        return self._owner(body, self._key(body))

    def _finish_job(self, job: _Job) -> None:
        """Release a placed job's in-flight count (exactly once)."""
        if self._inflight.get(job.shard, 0) > 0:
            self._inflight[job.shard] -= 1

    # -- requests ------------------------------------------------------------

    async def _request_many(
        self,
        specs: Sequence[dict],
        keys: Optional[Sequence[Optional[bytes]]] = None,
    ) -> list[dict]:
        """The one dispatch path: :meth:`request_many` and the front
        end's rounds both await this on the router's loop. ``keys`` are
        the specs' instance keys when the caller has computed them (see
        :meth:`_key`). A spec whose key has an answer in the table is
        answered here; the rest are placed on their ring owners and sent
        to their shards, and every ``ok`` answer they get is stored."""
        if self._closed:
            raise ReproError("fleet is closed")
        records: list[Optional[dict]] = [None] * len(specs)
        jobs = []
        for index, spec in enumerate(specs):
            t0 = time.perf_counter()
            body = {k: v for k, v in spec.items() if k != "id"}
            key = self._key(body) if keys is None else keys[index]
            client_id = spec.get("id", index + 1)
            record = self._front_record(key, client_id, t0)
            if record is None:
                jobs.append(_Job(index, body, client_id=client_id, key=key))
            else:
                records[index] = record
        self._requests += len(specs)
        # Demand counts the shard-bound requests before placement adds
        # them to the in-flight counts; a round answered entirely here
        # still lets the smoothed demand decay.
        await self._maybe_scale(len(jobs))
        for job in jobs:
            job.shard = self._owner(job.spec, job.key)
            self._inflight[job.shard] += 1

        pending = jobs
        # Two passes suffice: requests a dead shard absorbed are
        # re-dispatched once to its respawn; a second death converts
        # them to error records rather than a third dispatch. Requests
        # that were never sent (the transport died before their write)
        # don't consume their re-dispatch, hence the small extra margin.
        for _ in range(_MAX_DISPATCHES + 1):
            if not pending:
                break
            by_shard: dict[int, list[_Job]] = {}
            for job in pending:
                by_shard.setdefault(job.shard, []).append(job)
            pending = []
            for job in await self._run_round(by_shard):
                if job.dispatches >= _MAX_DISPATCHES:
                    self._gave_up += 1
                    job.record = {
                        "id": job.client_id,
                        "ok": False,
                        "shard": job.shard,
                        "route": "ring",
                        "error": (
                            f"shard {job.shard} died again after the request "
                            "was re-dispatched once; giving up "
                            "(at-most-once re-dispatch)"
                        ),
                    }
                    self._finish_job(job)
                else:
                    pending.append(job)
        for job in pending:  # pragma: no cover - exhausted retry margin
            self._gave_up += 1
            job.record = {
                "id": job.client_id,
                "ok": False,
                "shard": job.shard,
                "route": "ring",
                "error": f"shard {job.shard} kept failing; request abandoned",
            }
            self._finish_job(job)
        for job in jobs:
            records[job.index] = job.record
            ok = job.record.get("ok") is True
            if ok and job.key is not None and self._answers is not None:
                self._remember(job.key, job.record)
        return records

    # -- answers in the front end ---------------------------------------------

    def _front_record(
        self, key: Optional[bytes], client_id: Any, t0: float
    ) -> Optional[dict]:
        """The *front answer* to a spec whose instance key is ``key`` —
        the table's answer, with no shard and no round — or ``None`` when
        the spec must go to a shard; a front answer is counted here.
        ``t0`` is the ``perf_counter`` reading its ``elapsed_ms`` starts
        from."""
        if key is None or self._answers is None:
            return None
        answer = self._answers.get(key)
        if answer is None:
            return None
        self._answers.move_to_end(key)
        self._front_answers += 1
        method, algebra, value, iterations = answer
        return {
            "id": client_id,
            "ok": True,
            "method": method,
            "algebra": algebra,
            "value": value,
            "iterations": iterations,
            "source": "cache",
            "elapsed_ms": round((time.perf_counter() - t0) * 1e3, 3),
            "shard": None,
            "route": "front",
        }

    def _answer_at_front(self, msg: dict) -> tuple[Optional[bytes], Optional[dict]]:
        """``(key, record)`` for one served spec line: its instance key
        (:meth:`_key`), which the line's round carries, and its front
        answer, or ``None`` when the line needs a round.
        :class:`_ConnBatcher` calls this from the read callback, so a
        repeat is answered before any round that is in flight on its
        connection. It counts like a round of one answered here: one
        request, one front answer and one demand sample with no
        shard-bound request, which may start a scale event (so a fleet
        that serves only repeats still shrinks)."""
        t0 = time.perf_counter()
        key = self._key({k: v for k, v in msg.items() if k != "id"})
        if self._closed:
            return key, None  # the round answers "fleet is closed"
        record = self._front_record(key, msg.get("id"), t0)
        if record is None:
            return key, None
        self._requests += 1
        scale = self._sample_demand(0)
        if scale is not None:
            task = asyncio.ensure_future(scale)
            self._scale_tasks.add(task)
            task.add_done_callback(self._scale_done)
        return key, record

    def _scale_done(self, task: asyncio.Task) -> None:
        self._scale_tasks.discard(task)
        if not task.cancelled():
            # A failed scale event leaves the shard set as it was and
            # no request waits on it; the next demand sample retries.
            task.exception()

    def _remember(self, key: bytes, record: dict) -> None:
        """Store a shard's ok answer, evicting the least recently used
        entry past :data:`_FRONT_ENTRIES`."""
        self._answers[key] = (
            record["method"],
            record["algebra"],
            record["value"],
            record["iterations"],
        )
        self._answers.move_to_end(key)
        if len(self._answers) > _FRONT_ENTRIES:
            self._answers.popitem(last=False)

    async def _run_round(self, by_shard: dict[int, list[_Job]]) -> list[_Job]:
        """Dispatch one round's per-shard groups; returns the jobs left
        unanswered. A one-shard round awaits its group directly; a
        round over several shards gathers its groups and returns only
        after every one of them has finished writing into its jobs."""
        groups = [(self._shards[sid], jobs) for sid, jobs in by_shard.items()]
        if len(groups) == 1:
            return await self._dispatch_to_shard(*groups[0])
        outcomes = await asyncio.gather(
            *(self._dispatch_to_shard(shard, jobs) for shard, jobs in groups),
            return_exceptions=True,
        )
        unanswered: list[_Job] = []
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
            unanswered += outcome
        return unanswered

    async def _dispatch_to_shard(self, shard: _Shard, jobs: list[_Job]) -> list[_Job]:
        """Send ``jobs`` to one shard in one write and read their
        answers; returns the jobs left unanswered (transport failure).
        Answered jobs get their record attached, with the caller's
        ``id`` restored."""
        async with shard.io:
            try:
                if not shard.alive():
                    await self._respawn(shard)
                await shard.connect()
            except (OSError, ReproError):
                # Couldn't even reach the shard: nothing was dispatched,
                # so no re-dispatch budget is consumed. The outer loop's
                # bounded round count still guarantees termination — a
                # shard that cannot be respawned at all (including after
                # close()) converts its jobs to abandoned-request error
                # records there.
                return jobs
            in_flight: dict[int, _Job] = {}
            lines: list[bytes] = []
            try:
                for job in jobs:
                    wire_id = next(self._wire_ids)
                    msg = dict(job.spec)
                    msg["id"] = wire_id
                    line = encode_record(msg)
                    job.dispatches += 1
                    if job.dispatches > 1:
                        # Counted at the actual re-send (not at requeue
                        # time): a round whose respawn failed requeues
                        # the job without it ever leaving the router.
                        self._redispatched += 1
                    if len(line) - 1 > MAX_LINE_BYTES:
                        # A spec the front end accepted can grow past
                        # the shards' limit when re-encoded; the shard
                        # would only answer it "request too large".
                        job.record = {
                            "id": job.client_id,
                            "ok": False,
                            "shard": shard.index,
                            "route": "ring",
                            "error": (
                                "request too large: over "
                                f"{MAX_LINE_BYTES} bytes once re-encoded"
                            ),
                        }
                        self._finish_job(job)
                        continue
                    in_flight[wire_id] = job
                    lines.append(line)
                await shard.send(lines)
                while in_flight:
                    record = await shard.recv(_REQUEST_TIMEOUT_S)
                    job = in_flight.pop(record.get("id"), None)
                    if job is None:
                        # A response for a request from a previous
                        # (failed) connection epoch; ignore it.
                        continue
                    record["id"] = job.client_id
                    # True attribution, stamped where the answer came
                    # from: survives re-dispatch (the respawned shard
                    # stamps itself) and rides through the front end,
                    # so a load harness needs no client-side re-route.
                    record["shard"] = shard.index
                    record["route"] = "ring"
                    job.record = record
                    self._finish_job(job)
                return []
            except (OSError, ValueError, ReproError, KeyError, asyncio.TimeoutError):
                await shard.disconnect()
                return [job for job in jobs if job.record is None]

    # -- dynamic scaling -------------------------------------------------------

    async def _maybe_scale(self, incoming: int) -> None:
        """Take one demand sample and run the scale event it calls for.
        Grows or shrinks the shard set *between batches*.

        The demand signal is the per-shard work the arriving round
        implies (its ``incoming`` shard-bound requests plus whatever is
        still in flight, divided by the current width), EWMA-smoothed
        so one spike doesn't thrash the fleet. Growth triggers above ``scale_up_depth``; shrink
        needs the smoothed demand to decay below ``scale_down_depth``
        *and* an idle shard to retire — a shard holding accepted
        requests is never touched, which (with the at-most-once
        re-dispatch machinery) is why no accepted request is ever
        dropped across a scale cycle. Scale events run one at a time:
        a round that arrives while one is under way updates the demand
        signal and goes on without waiting for it.
        """
        scale = self._sample_demand(incoming)
        if scale is not None:
            await scale

    def _sample_demand(self, incoming: int) -> Optional[Coroutine[Any, Any, None]]:
        """Fold one demand sample into the EWMA; returns the scale event
        it calls for, as a coroutine to await, or ``None``."""
        if self.min_shards == self.max_shards:
            return None
        width = len(self._shards)
        inflight = sum(self._inflight.values())
        demand = (incoming + inflight) / max(width, 1)
        self._demand_ewma += _SCALE_ALPHA * (demand - self._demand_ewma)
        if self._scaling:
            return None
        if self._demand_ewma > self.scale_up_depth and width < self.max_shards:
            event = self._scale_up
        elif self._demand_ewma < self.scale_down_depth and width > self.min_shards:
            event = self._scale_down
        else:
            return None
        self._scaling = True  # before any await: one event at a time
        return self._scale(event)

    async def _scale(self, event: Callable[[], Awaitable[None]]) -> None:
        try:
            await event()
        finally:
            self._scaling = False

    async def _scale_up(self) -> None:
        """Add one shard.

        The smallest free index is reused, so a previously retired
        shard respawns **on the same socket path** and — because ring
        points depend only on the index — reclaims exactly the vnode
        segment its predecessor owned. The process is spawned and
        readied *before* the ring learns about it, so no request routes
        to a socket that isn't accepting yet.
        """
        sid = 0
        while sid in self._shards:
            sid += 1
        shard = _Shard(sid, str(self.state_dir / f"shard-{sid}.sock"))
        await asyncio.to_thread(self._restart, shard)
        if self._closed:
            # close() stopped the shards it knew of while this one was
            # spawning; stop it too rather than leave an orphan.
            await self._stop_shard(shard)
            return
        self._shards[sid] = shard
        self._inflight[sid] = 0
        self.ring.add_shard(sid)
        self._scale_ups += 1

    async def _scale_down(self) -> None:
        """Retire one idle shard.

        Only a shard with **zero** in-flight requests is eligible —
        checked with no ``await`` between the check and its removal
        from the ring, so a placement either lands before (and blocks
        the retirement) or after (and cannot choose the retired shard).
        Its keyspace hands off to the next shards along the ring;
        duplicates of its hot keys re-materialise from the shared L2
        rather than re-solving.
        """
        victim: Optional[_Shard] = None
        for sid in sorted(self._shards, reverse=True):
            if len(self._shards) <= self.min_shards:
                break
            if self._inflight[sid] == 0:
                victim = self._shards.pop(sid)
                self._inflight.pop(sid)
                self.ring.remove_shard(sid)
                self._retired_respawns += victim.respawns
                self._scale_downs += 1
                break
        if victim is not None:
            await self._stop_shard(victim)
            if os.path.exists(victim.socket_path):  # pragma: no cover - forced kill
                try:
                    os.unlink(victim.socket_path)
                except OSError:
                    pass

    # -- introspection -------------------------------------------------------

    async def _shard_pids(self) -> list[Optional[int]]:
        return [shard.pid() for _, shard in sorted(self._shards.items())]

    async def _inflight_counts(self) -> dict[int, int]:
        return dict(self._inflight)

    async def _status(self) -> dict:
        shard_records = []
        totals = {
            "requests": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_l2_hits": 0,
            "delta_hits": 0,
            "batches": 0,
            "queue_depth": 0,
            "cpu_s": 0.0,
        }
        alive = 0
        for sid, shard in sorted(self._shards.items()):
            record: dict[str, Any] = {
                "shard": shard.index,
                "pid": shard.pid(),
                "respawns": shard.respawns,
            }
            status = await self._shard_status(shard)
            if status is None:
                record["alive"] = False
            else:
                record["alive"] = True
                record["status"] = status
                alive += 1
                totals["requests"] += status.get("requests", 0)
                cache = status.get("cache") or {}
                totals["cache_hits"] += cache.get("hits", 0)
                totals["cache_misses"] += cache.get("misses", 0)
                totals["cache_l2_hits"] += (cache.get("l2") or {}).get("hits", 0)
                scheduler = status.get("scheduler") or {}
                totals["batches"] += scheduler.get("batches", 0)
                totals["delta_hits"] += scheduler.get("delta_hits", 0)
                totals["queue_depth"] += scheduler.get("queue_depth", 0)
                totals["cpu_s"] += status.get("cpu_s", 0.0)
            # Read after the await: the shard may have retired meanwhile.
            if sid in self._inflight:
                record["load"] = {"inflight": self._inflight[sid]}
            shard_records.append(record)
        # A front answer is a cache hit the shards never saw.
        totals["cache_hits"] += self._front_answers
        lookups = totals["cache_hits"] + totals["cache_misses"]
        cpu_s = round(time.process_time(), 6)
        totals["cpu_s"] = round(totals["cpu_s"] + cpu_s, 6)
        return {
            "shards": len(self._shards),
            "min_shards": self.min_shards,
            "max_shards": self.max_shards,
            "alive": alive,
            "uptime_s": round(time.monotonic() - self._t0, 3),
            "router": {
                "requests": self._requests,
                "redispatched": self._redispatched,
                "gave_up": self._gave_up,
                "respawns": (
                    sum(s.respawns for s in self._shards.values())
                    + self._retired_respawns
                ),
                "scale_ups": self._scale_ups,
                "scale_downs": self._scale_downs,
                "demand_ewma": round(self._demand_ewma, 3),
                "front_answers": self._front_answers,
                "front_entries": 0 if self._answers is None else len(self._answers),
                "cpu_s": cpu_s,
            },
            "totals": {
                **totals,
                "cache_hit_rate": (
                    round(totals["cache_hits"] / lookups, 4) if lookups else 0.0
                ),
            },
            "per_shard": shard_records,
        }

    async def _shard_status(self, shard: _Shard) -> Optional[dict]:
        async with shard.io:
            if not shard.alive():
                return None
            try:
                await shard.connect()
                await shard.send([encode_record({"op": "status"})])
                while True:
                    record = await shard.recv(_REQUEST_TIMEOUT_S)
                    if "status" in record:
                        return record["status"]
            except (OSError, ValueError, ReproError, asyncio.TimeoutError):
                await shard.disconnect()
                return None


class _ConnBatcher:
    """Per-connection dispatcher for :func:`serve_fleet`.

    A spec line with a front answer is answered from the read callback,
    also while a round is in flight on the connection. The other lines
    accumulate while a round is in flight, and each round ships the
    whole accumulation through the router's dispatch coroutine on the
    router's own loop — so pipelined lines keep their per-shard
    pipelining (and the shards' schedulers keep coalescing) through the
    front end, instead of degrading to one blocking round-trip per
    line."""

    def __init__(self, router: FleetRouter) -> None:
        self._router = router
        #: lines waiting for a round, each with its instance key
        self._pending: list[tuple[dict, Optional[bytes], Any]] = []
        # Rounds in flight only: a connection can live as long as the
        # fleet, so finished rounds must not pile up here.
        self._rounds: set[asyncio.Task] = set()
        self._running = False

    def submit(self, msg: dict, respond: Callable[[dict], None]) -> None:
        key, record = self._router._answer_at_front(msg)
        if record is not None:
            respond(record)
            return
        self._pending.append((msg, key, respond))
        if not self._running:
            self._start_round()

    def _start_round(self) -> None:
        self._running = True
        task = asyncio.ensure_future(self._run_rounds())
        self._rounds.add(task)
        task.add_done_callback(self._rounds.discard)

    async def _run_rounds(self) -> None:
        try:
            while self._pending:
                batch, self._pending = self._pending, []
                try:
                    records = await self._router._request_many(
                        [msg for msg, _, _ in batch], [key for _, key, _ in batch]
                    )
                except Exception as exc:  # noqa: BLE001 - errors go on the wire
                    error = f"{type(exc).__name__}: {exc}"
                    records = [{"ok": False, "error": error} for _ in batch]
                for (msg, _, respond), record in zip(batch, records):
                    record["id"] = msg.get("id")
                    respond(record)
        finally:
            self._running = False

    async def drain(self) -> None:
        while self._rounds or self._pending:
            if self._rounds:
                await asyncio.gather(*list(self._rounds), return_exceptions=True)
            if self._pending and not self._running:  # pragma: no cover - race guard
                self._start_round()


async def serve_fleet(
    router: FleetRouter,
    address: Address,
    *,
    max_requests: Optional[int] = None,
    ready: Optional[asyncio.Event] = None,
    on_bound: Optional[Callable[[Address], None]] = None,
    quiet: bool = True,
) -> int:
    """Expose a whole fleet behind one JSONL endpoint (``repro fleet``).

    Speaks exactly the ``repro serve`` wire protocol — specs, ``status``
    (the router's aggregate record) and ``shutdown`` — so every
    existing client (``repro request``, :class:`ServiceClient`) works
    unchanged against a fleet; the connection loop itself is
    :func:`repro.service.transport.serve_jsonl`, shared with
    ``repro serve``. Pipelined spec lines are routed as batches
    (:class:`_ConnBatcher`), so shards still see concurrent streams
    they can coalesce.

    The connection loop runs on the router's own event loop (started
    here when the router was not), so a round is routed, written and
    answered without leaving it; the caller's loop awaits its outcome.
    ``ready`` and ``on_bound`` fire on the caller's loop. Every exit —
    a shutdown op, ``max_requests``, the caller's cancellation, a
    failing notification, or :meth:`FleetRouter.close` while the front
    end runs (which raises :class:`~repro.errors.ReproError` here) —
    closes the listener and unlinks a unix socket before this returns.

    Returns the number of spec requests served. The router itself is
    closed by the caller, not here — a front end is just one view onto
    the fleet.
    """
    if router._loop is None:
        await asyncio.to_thread(router.start)
    caller = asyncio.get_running_loop()
    bound: asyncio.Future = caller.create_future()
    outcome: concurrent.futures.Future = concurrent.futures.Future()
    front: list[asyncio.Task] = []

    def _bind(at: Address) -> None:  # on the router's loop
        caller.call_soon_threadsafe(lambda: bound.done() or bound.set_result(at))

    def _settle(task: asyncio.Task) -> None:  # on the router's loop
        router._fronts.discard(task)
        if task.cancelled():
            outcome.set_exception(ReproError("fleet is closed"))
        elif task.exception() is not None:
            outcome.set_exception(task.exception())
        else:
            outcome.set_result(task.result())

    def _begin() -> None:  # on the router's loop
        task = asyncio.ensure_future(
            serve_jsonl(
                address,
                make_dispatcher=lambda: _ConnBatcher(router),
                status_fn=router._status,
                banner=lambda at: (
                    f"repro fleet: {len(router._shards)} shards behind "
                    f"{at.describe()}"
                ),
                max_requests=max_requests,
                on_bound=_bind,
                quiet=quiet,
            )
        )
        front.append(task)
        router._fronts.add(task)
        task.add_done_callback(_settle)

    with router._gate:
        if router._closed:
            raise ReproError("fleet is closed")
        router._loop.call_soon_threadsafe(_begin)
    finished = asyncio.wrap_future(outcome)
    try:
        await asyncio.wait((bound, finished), return_when=asyncio.FIRST_COMPLETED)
        if bound.done():
            if on_bound is not None:
                on_bound(bound.result())
            if ready is not None:
                ready.set()
        return await asyncio.shield(finished)
    finally:
        if not finished.done():
            # The caller is leaving early: stop the front end and wait
            # until its listener is closed and its socket unlinked.
            router._loop.call_soon_threadsafe(lambda: [t.cancel() for t in front])
            await asyncio.wait((finished,))
        if finished.done() and not finished.cancelled():
            finished.exception()  # retrieved: the caller has its own outcome
