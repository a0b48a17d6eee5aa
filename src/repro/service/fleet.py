"""The sharded solve fleet: N independent services behind one router.

A single :class:`~repro.service.server.SolveService` tops out on one
event loop, one worker pool and one cache. The fleet layer partitions
the *request space* instead: a :class:`FleetRouter` spawns ``shards``
shard processes — each a full ``repro serve`` with its own warm
:class:`~repro.parallel.shm.TableStore`-backed pool, its own
:class:`~repro.service.cache.ResultCache` and its own coalescing
scheduler — and routes every request by **consistent hash of its
instance key** (:func:`repro.core.api.instance_key_bytes`, which is
shard-stable by construction). Equal requests therefore always land on
the same shard, so duplicate-heavy traffic keeps hitting that shard's
cache and coalescer exactly as it would a single service's; distinct
requests spread across shards and scale with them.

Routing is **load-aware** (:mod:`repro.service.routing`): one
bounded-load consistent-hashing policy spills a request off its ring
owner when the owner's load exceeds ``load_factor`` times the fleet
mean, with a cache-affinity hint so a spilled hot key's repeats keep
hitting the shard now holding its L1 entry, and the shared L2 catching
the keys that do move. The default ``load_factor=inf`` never spills:
every request goes to its ring owner, the placement above. Every
response carries the routing decision (``route: ring/affinity/spill``)
next to the answering ``shard``.

The shard set is **elastic** between batches: with ``min_shards`` /
``max_shards`` spanning a range, the router grows the fleet when the
EWMA-smoothed per-shard demand (incoming batch size plus live router-
side queue depth) exceeds ``scale_up_depth`` and shrinks it when
demand decays below ``scale_down_depth``. Scale events are ring-
segment handoffs: a new shard claims exactly the vnode segment its
index owns (respawning retired indices on the same sockets), and a
shard is only retired when it holds **zero** accepted-but-unanswered
requests — together with the at-most-once re-dispatch machinery below,
no accepted request is ever dropped across a scale cycle (gated in CI
by ``bench_e14_routing.py --smoke``).

Failure semantics
-----------------
Shard death is detected at the transport (broken pipe / connection
reset / EOF mid-read), or before a send when the shard's process has
already exited. The router then respawns the shard process on
the same socket (reclaiming the stale socket file) and re-dispatches
the requests that were accepted but not yet answered — **at most
once** per request. A request whose shard dies again after its
re-dispatch is not retried a second time; it completes with an explicit
``ok: false`` error record. No accepted request is ever silently
dropped: ``request_many`` always returns exactly one record per spec,
in submission order.

Use it in-process (``FleetRouter.request_many``), as a one-shot CLI
(``repro request --fleet N``), or as a long-lived front-end server
(``repro fleet --shards N``, which exposes the whole fleet behind one
unix-socket or TCP endpoint via :func:`serve_fleet`).
"""

from __future__ import annotations

import asyncio
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.errors import ReproError
from repro.problems.specs import route_key_from_spec
from repro.service.routing import BoundedLoadPolicy, HashRing, ShardLoad
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


@dataclass
class _Job:
    """One routed request and everything its recovery needs."""

    index: int
    spec: dict
    shard: int
    client_id: Any = None  # the caller's own "id", echoed back verbatim
    route: str = "ring"  # the policy's decision tag (ring/affinity/spill)
    dispatches: int = 0
    record: Optional[dict] = None


class _Shard:
    """One shard process plus its persistent router-side connection and
    its dispatcher: the one thread that runs this shard's groups of the
    rounds a caller does not drive itself. The dispatcher starts on
    first use, survives respawns (it belongs to the shard index, not
    the process) and stops when the shard is retired or the fleet
    closes."""

    def __init__(self, index: int, socket_path: str) -> None:
        self.index = index
        self.socket_path = socket_path
        self.proc: Optional[subprocess.Popen] = None
        self.lock = threading.Lock()
        self.dispatcher = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-fleet-shard-{index}"
        )
        self._sock = None
        self._rfile = None
        self.next_id = 0
        self.respawns = 0

    # -- connection ----------------------------------------------------------

    def connect(self, timeout: float) -> None:
        if self._sock is not None:
            return
        sock = _transport.connect(Address.unix(self.socket_path), timeout=timeout)
        self._sock = sock
        self._rfile = sock.makefile("r", encoding="utf-8")

    def disconnect(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            self._sock = None

    def send(self, lines: list[bytes]) -> None:
        """Write a group's request lines with one ``sendall``. The
        shard's read loop dispatches every complete line in its buffer
        before any of them runs, so a group that arrives in one socket
        read — small specs; not a group near ``MAX_LINE_BYTES`` per
        line — reaches the shard's scheduler whole, before its first
        batch starts."""
        assert self._sock is not None
        self._sock.sendall(b"".join(lines))

    def recv(self) -> dict:
        assert self._rfile is not None
        line = self._rfile.readline()
        if not line:
            raise ReproError(f"shard {self.index} closed the connection")
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
        service (own process, own warm pool, own store, own cache).
    ``method, backend, workers, start_method, max_batch, cache_bytes``
        Forwarded to each shard's ``repro serve``.
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
    ``spawn_timeout``
        Seconds to wait for a shard's socket to accept connections.
    ``load_factor``
        The routing policy's spill threshold (spill when a shard's load
        exceeds ``load_factor`` times the fleet mean, see
        :mod:`repro.service.routing`); the default ``inf`` never spills,
        so every request goes to its ring owner.
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

    Thread-safe: concurrent ``request_many`` calls interleave freely;
    access to any one shard's connection is serialised by a per-shard
    lock, and respawn happens under the same lock, so a dying shard is
    healed exactly once however many callers trip over it.
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
        spawn_timeout: float = 30.0,
        request_timeout: float = 120.0,
        load_factor: float = math.inf,
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
        self._policy = BoundedLoadPolicy(load_factor)  # validates before mkdtemp
        self.scale_up_depth = float(scale_up_depth)
        self.scale_down_depth = float(scale_down_depth)
        self.default_method = method
        self.backend = backend
        self.workers = workers
        self.start_method = start_method
        self.max_batch = int(max_batch)
        self.cache_bytes = int(cache_bytes)
        self.spawn_timeout = float(spawn_timeout)
        self.request_timeout = float(request_timeout)
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
        self._loads: dict[int, ShardLoad] = {i: ShardLoad() for i in range(shards)}
        self._started = False
        self._closed = False
        # -- router-level counters (served by status()); increments are
        # read-modify-writes from concurrent request threads, so they
        # take this lock (shard.lock only serialises shard transport) --
        self._stats_lock = threading.Lock()
        # Routing decisions and the load gauges they read are serialised
        # by their own lock: a placement must see the loads including
        # every placement before it, or two concurrent batches would
        # both pile onto the same momentarily-least-loaded shard.
        self._route_lock = threading.Lock()
        # Scale events (ring/shard-set mutation) take this on top of the
        # route lock, and are further serialised against each other so
        # only one spawn/retire sequence runs at a time.
        self._scale_lock = threading.Lock()
        self._demand_ewma = 0.0
        self._scale_ups = 0
        self._scale_downs = 0
        self._route_tags: dict[str, int] = {}
        #: respawn counts of retired shard objects, so the fleet-wide
        #: respawn total survives scale-downs
        self._retired_respawns = 0
        self._requests = 0
        self._redispatched = 0
        self._gave_up = 0
        self._t0 = time.monotonic()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "FleetRouter":
        """Spawn every shard and wait until each accepts connections."""
        if self._started:
            return self
        self._started = True
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
        deadline = time.monotonic() + self.spawn_timeout
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
            f"{self.spawn_timeout:.0f}s"
        )

    def _respawn(self, shard: _Shard) -> None:
        """Replace a dead shard in place (caller holds ``shard.lock``)."""
        if self._closed:
            # A request racing close() must not resurrect a shard the
            # shutdown already stopped — that process would outlive the
            # router (orphan + /dev/shm residue). Its jobs become
            # explicit error records instead.
            raise ReproError("fleet is closed; not respawning shard")
        shard.disconnect()
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
        shard.respawns += 1

    def close(self) -> None:
        """Stop every shard through its dispatcher (graceful shutdown op
        first, escalating to terminate/kill) and shut the dispatchers
        down, then remove sockets, logs and — if the router created it —
        the whole state directory. Idempotent."""
        if self._closed:
            return
        self._closed = True
        shards = list(self._shards.values())
        if self._started:
            # Each stop queues behind whatever its shard's dispatcher is
            # running; the stops themselves run in parallel.
            stops = []
            for shard in shards:
                try:
                    stops.append(shard.dispatcher.submit(self._stop_shard, shard))
                except RuntimeError:  # retired meanwhile; _scale_down stops it
                    pass
            for stop in stops:
                stop.result()
        for shard in shards:
            shard.dispatcher.shutdown()
        for shard in shards:
            if os.path.exists(shard.socket_path):  # pragma: no cover - forced kill
                try:
                    os.unlink(shard.socket_path)
                except OSError:
                    pass
        if self._owns_state_dir:
            shutil.rmtree(self.state_dir, ignore_errors=True)

    def _stop_shard(self, shard: _Shard) -> None:
        with shard.lock:
            shard.disconnect()
            if shard.proc is None:
                return
            if shard.proc.poll() is None:
                try:
                    sock = _transport.connect(
                        Address.unix(shard.socket_path), timeout=5.0
                    )
                    try:
                        sock.sendall(encode_record({"op": "shutdown"}))
                        sock.makefile("r").readline()
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

    # -- routing -------------------------------------------------------------

    def _route_key(self, body: dict) -> bytes:
        return route_key_from_spec(
            {k: v for k, v in body.items() if k != "id"},
            default_method=self.default_method,
        )

    def route(self, spec: dict) -> int:
        """The shard index of a spec's *ring owner* — the pure consistent-
        hash placement, independent of load and free of load-gauge side
        effects (so clients and tests can predict it)."""
        return self.ring.route(self._route_key(spec))

    def _route_spec(self, body: dict) -> tuple[int, str]:
        """One load-aware placement: ask the policy, then immediately
        account for it (``assigned`` forever, ``inflight`` until the
        record lands) so the next placement — same batch or a concurrent
        one — sees this request's weight. Returns ``(shard, tag)``. A
        dead shard may be chosen: :meth:`_dispatch_to_shard` respawns
        it before sending."""
        key = self._route_key(body)
        with self._route_lock:
            sid, tag = self._policy.choose(key, self.ring, self._loads)
            load = self._loads.get(sid)
            if load is not None:
                load.assigned += 1
                load.inflight += 1
            self._route_tags[tag] = self._route_tags.get(tag, 0) + 1
        return sid, tag

    def _finish_job(self, job: _Job) -> None:
        """Release a routed job's live-load claim (exactly once)."""
        with self._route_lock:
            load = self._loads.get(job.shard)
            if load is not None and load.inflight > 0:
                load.inflight -= 1

    # -- requests ------------------------------------------------------------

    def request(self, spec: dict) -> dict:
        """Route and answer one spec; always returns a record."""
        return self.request_many([spec])[0]

    def request_many(self, specs: Sequence[dict]) -> list[dict]:
        """Route a batch across the fleet; one record per spec, in
        submission order. Specs bound for the same shard go out in one
        write on that shard's connection (so, when they arrive in one
        read, its scheduler takes up to ``max_batch`` of them as one
        batch); different shards run concurrently — the calling
        thread drives one shard's group itself and every other group
        runs on its shard's dispatcher, so a round bound for one shard
        crosses no thread. Shard deaths are healed as described in the
        module docstring — the returned list never has holes.
        """
        if self._closed:
            raise ReproError("fleet is closed")
        if not self._started:
            self.start()
        self._maybe_scale(len(specs))
        jobs = []
        for index, spec in enumerate(specs):
            body = {k: v for k, v in spec.items() if k != "id"}
            shard, tag = self._route_spec(body)
            job = _Job(
                index=index,
                spec=body,
                shard=shard,
                client_id=spec.get("id", index + 1),
                route=tag,
            )
            jobs.append(job)
        with self._stats_lock:
            self._requests += len(jobs)

        pending = list(jobs)
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
            for job in self._run_round(by_shard):
                if job.dispatches >= _MAX_DISPATCHES:
                    with self._stats_lock:
                        self._gave_up += 1
                    job.record = {
                        "id": job.client_id,
                        "ok": False,
                        "shard": job.shard,
                        "route": job.route,
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
            with self._stats_lock:
                self._gave_up += 1
            job.record = {
                "id": job.client_id,
                "ok": False,
                "shard": job.shard,
                "route": job.route,
                "error": f"shard {job.shard} kept failing; request abandoned",
            }
            self._finish_job(job)
        return [job.record for job in jobs]

    def _run_round(self, by_shard: dict[int, list[_Job]]) -> list[_Job]:
        """Dispatch one round's per-shard groups; returns the jobs left
        unanswered.

        The calling thread drives the lowest-index shard's group and
        every other group goes to its shard's dispatcher. A dispatcher
        only ever queues behind its own shard, whose lock serialises
        that work anyway; in a shared pool, every worker could sit
        blocked on one busy shard while an idle shard's group waited.
        """
        (sid, jobs), *others = sorted(by_shard.items())
        futures = []
        unanswered: list[_Job] = []
        for other, group in others:
            shard = self._shards[other]
            try:
                futures.append(
                    shard.dispatcher.submit(self._dispatch_to_shard, shard, group)
                )
            except RuntimeError:
                # close() shut the dispatcher down: nothing was sent, so
                # the jobs stay pending and end as error records.
                unanswered += group
        try:
            unanswered += self._dispatch_to_shard(self._shards[sid], jobs)
        finally:
            # Read every future even when the inline group raised: a
            # round never returns while a dispatcher still writes into
            # its jobs.
            errors = [future.exception() for future in futures]
        for future, error in zip(futures, errors):
            if error is not None:
                raise error
            unanswered += future.result()
        return unanswered

    def _dispatch_to_shard(self, shard: _Shard, jobs: list[_Job]) -> list[_Job]:
        """Send ``jobs`` to one shard in one write and read their
        answers; returns the jobs left unanswered (transport failure).
        Answered jobs get their record attached, with the caller's
        ``id`` restored."""
        with shard.lock:
            try:
                if not shard.alive():
                    self._respawn(shard)
                shard.connect(self.request_timeout)
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
                    shard.next_id += 1
                    wire_id = shard.next_id
                    msg = dict(job.spec)
                    msg["id"] = wire_id
                    line = encode_record(msg)
                    job.dispatches += 1
                    if job.dispatches > 1:
                        # Counted at the actual re-send (not at requeue
                        # time): a round whose respawn failed requeues
                        # the job without it ever leaving the router.
                        with self._stats_lock:
                            self._redispatched += 1
                    if len(line) - 1 > MAX_LINE_BYTES:
                        # A spec the front end accepted can grow past
                        # the shards' limit when re-encoded; the shard
                        # would only answer it "request too large".
                        job.record = {
                            "id": job.client_id,
                            "ok": False,
                            "shard": shard.index,
                            "route": job.route,
                            "error": (
                                "request too large: over "
                                f"{MAX_LINE_BYTES} bytes once re-encoded"
                            ),
                        }
                        self._finish_job(job)
                        continue
                    in_flight[wire_id] = job
                    lines.append(line)
                shard.send(lines)
                while in_flight:
                    record = shard.recv()
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
                    record["route"] = job.route
                    job.record = record
                    self._finish_job(job)
                return []
            except (OSError, ValueError, ReproError, KeyError):
                shard.disconnect()
                return [job for job in jobs if job.record is None]

    # -- dynamic scaling -------------------------------------------------------

    def _maybe_scale(self, incoming: int) -> None:
        """Grow or shrink the shard set *between batches*.

        The demand signal is the per-shard work the arriving batch
        implies (its size plus whatever is still in flight, divided by
        the current width), EWMA-smoothed so one spike doesn't thrash
        the fleet. Growth triggers above ``scale_up_depth``; shrink
        needs the smoothed demand to decay below ``scale_down_depth``
        *and* an idle shard to retire — a shard holding accepted
        requests is never touched, which (with the at-most-once
        re-dispatch machinery) is why no accepted request is ever
        dropped across a scale cycle.
        """
        if self.min_shards == self.max_shards:
            return
        with self._scale_lock:
            with self._route_lock:
                width = len(self._shards)
                inflight = sum(load.inflight for load in self._loads.values())
            demand = (incoming + inflight) / max(width, 1)
            self._demand_ewma += _SCALE_ALPHA * (demand - self._demand_ewma)
            if self._demand_ewma > self.scale_up_depth and width < self.max_shards:
                self._scale_up()
            elif (
                self._demand_ewma < self.scale_down_depth
                and width > self.min_shards
            ):
                self._scale_down()

    def _scale_up(self) -> None:
        """Add one shard (caller holds ``_scale_lock``).

        The smallest free index is reused, so a previously retired
        shard respawns **on the same socket path** and — because ring
        points depend only on the index — reclaims exactly the vnode
        segment its predecessor owned. The process is spawned and
        readied *before* the ring learns about it, so no request routes
        to a socket that isn't accepting yet; its load gauge starts at
        the fleet's mean ``assigned`` so the bounded policy ramps it in
        instead of funnelling every next request at the newcomer.
        """
        sid = 0
        while sid in self._shards:
            sid += 1
        shard = _Shard(sid, str(self.state_dir / f"shard-{sid}.sock"))
        self._spawn(shard)
        self._await_ready(shard)
        with self._route_lock:
            mean_assigned = int(
                sum(load.assigned for load in self._loads.values())
                / max(len(self._loads), 1)
            )
            self._shards[sid] = shard
            self._loads[sid] = ShardLoad(assigned=mean_assigned)
            self.ring.add_shard(sid)
            self._scale_ups += 1

    def _scale_down(self) -> None:
        """Retire one idle shard (caller holds ``_scale_lock``).

        Only a shard with **zero** in-flight requests is eligible —
        checked under the route lock in the same critical section that
        removes it from the ring, so a concurrent placement either
        lands before (and blocks the retirement) or after (and cannot
        choose the retired shard). Its keyspace hands off to the ring
        successors; duplicates of its hot keys re-materialise from the
        shared L2 rather than re-solving.
        """
        victim: Optional[_Shard] = None
        with self._route_lock:
            for sid in sorted(self._shards, reverse=True):
                if len(self._shards) <= self.min_shards:
                    break
                if self._loads[sid].inflight == 0:
                    victim = self._shards.pop(sid)
                    self._loads.pop(sid)
                    self.ring.remove_shard(sid)
                    self._retired_respawns += victim.respawns
                    self._scale_downs += 1
                    break
        if victim is not None:
            self._stop_shard(victim)
            victim.dispatcher.shutdown()
            if os.path.exists(victim.socket_path):  # pragma: no cover - forced kill
                try:
                    os.unlink(victim.socket_path)
                except OSError:
                    pass

    # -- introspection -------------------------------------------------------

    def shard_pids(self) -> list[Optional[int]]:
        return [shard.pid() for _, shard in sorted(self._shards.items())]

    def inflight(self) -> dict[int, int]:
        """Accepted-but-unanswered requests per shard index, read from
        the router's own load gauges — unlike :meth:`status`, without
        waiting for a shard that is busy answering a batch."""
        with self._route_lock:
            return {sid: load.inflight for sid, load in self._loads.items()}

    def status(self) -> dict:
        """Aggregate health: per-shard status records (or ``alive:
        False`` for unreachable shards) plus fleet-wide sums — total
        requests, combined cache counters and hit rate, respawns, and
        the router's own dispatch accounting. ``router.cpu_s`` is this
        process's CPU time; ``totals.cpu_s`` adds every reachable
        shard's ``cpu_s`` to it."""
        shard_records = []
        totals = {
            "requests": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_l2_hits": 0,
            "delta_hits": 0,
            "batches": 0,
            "queue_depth": 0,
            "queue_depth_ewma": 0.0,
            "cpu_s": 0.0,
        }
        alive = 0
        with self._route_lock:
            members = sorted(self._shards.items())
        for sid, shard in members:
            record: dict[str, Any] = {
                "shard": shard.index,
                "pid": shard.pid(),
                "respawns": shard.respawns,
            }
            status = self._shard_status(shard)
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
            with self._route_lock:
                load = self._loads.get(sid)
                if load is not None:
                    if status is not None:
                        # Fold the shard scheduler's own backlog gauge
                        # into the EWMA the routing policy reads.
                        load.observe_queue(
                            (status.get("scheduler") or {}).get("queue_depth", 0)
                        )
                    record["load"] = load.snapshot()
                    totals["queue_depth_ewma"] += load.queue_ewma
            shard_records.append(record)
        totals["queue_depth_ewma"] = round(totals["queue_depth_ewma"], 3)
        lookups = totals["cache_hits"] + totals["cache_misses"]
        with self._route_lock:
            route_tags = dict(sorted(self._route_tags.items()))
        cpu_s = round(time.process_time(), 6)
        totals["cpu_s"] = round(totals["cpu_s"] + cpu_s, 6)
        return {
            "shards": len(self._shards),
            "min_shards": self.min_shards,
            "max_shards": self.max_shards,
            "alive": alive,
            "uptime_s": round(time.monotonic() - self._t0, 3),
            "router": {
                "load_factor": (
                    None
                    if math.isinf(self._policy.load_factor)
                    else self._policy.load_factor
                ),
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
                "route_tags": route_tags,
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

    def _shard_status(self, shard: _Shard) -> Optional[dict]:
        with shard.lock:
            if not shard.alive():
                return None
            try:
                shard.connect(self.request_timeout)
                shard.send([encode_record({"op": "status"})])
                while True:
                    record = shard.recv()
                    if "status" in record:
                        return record["status"]
            except (OSError, ValueError, ReproError):
                shard.disconnect()
                return None


class _ConnBatcher:
    """Per-connection dispatcher for :func:`serve_fleet`: spec lines
    that arrive while a round is in flight accumulate, and each round
    ships the whole accumulation through
    :meth:`FleetRouter.request_many` — so pipelined lines keep their
    per-shard pipelining (and the shards' schedulers keep coalescing)
    through the front end, instead of degrading to one blocking
    round-trip per line."""

    def __init__(self, router: FleetRouter) -> None:
        self._router = router
        self._pending: list[tuple[dict, Any]] = []
        # Rounds in flight only: a connection can live as long as the
        # fleet, so finished rounds must not pile up here.
        self._rounds: set[asyncio.Task] = set()
        self._running = False

    def submit(self, msg: dict, respond) -> None:
        self._pending.append((msg, respond))
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
                bodies = [
                    {k: v for k, v in msg.items() if k != "id"} for msg, _ in batch
                ]
                try:
                    records = await asyncio.to_thread(
                        self._router.request_many, bodies
                    )
                except Exception as exc:  # noqa: BLE001 - errors go on the wire
                    records = [
                        {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                    ] * len(batch)
                for (msg, respond), record in zip(batch, records):
                    record["id"] = msg.get("id")
                    await respond(record)
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

    Returns the number of spec requests served. The router itself is
    closed by the caller, not here — a front end is just one view onto
    the fleet.
    """

    async def _status() -> dict:
        return await asyncio.to_thread(router.status)

    return await serve_jsonl(
        address,
        make_dispatcher=lambda: _ConnBatcher(router),
        status_fn=_status,
        banner=lambda bound: (
            f"repro fleet: {len(router.shard_pids())} shards behind "
            f"{bound.describe()}"
        ),
        max_requests=max_requests,
        ready=ready,
        on_bound=on_bound,
        quiet=quiet,
    )
