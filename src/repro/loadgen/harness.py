"""Replay a workload trace against a live target, without lying.

The harness is an **open-loop** replayer: every trace event is injected
at its recorded arrival offset whether or not earlier requests have
completed, and its latency is measured from the *scheduled* arrival —
not from the moment an overloaded client finally got around to sending
it. That is the coordinated-omission fix: a closed-loop driver that
waits for responses before sending silently excludes exactly the
requests that queued, which is how benchmarks report great p99s on
saturated systems. ``closed`` traces opt out deliberately (send next
after previous lands) — they are the deterministic baseline the E13
determinism gate replays, since no wall-clock race can change which
request finds which cache state.

Targets, selected by the ``target`` argument:

``"local"``
    An ephemeral in-process :class:`~repro.service.server.SolveService`
    on the harness loop (``target_kwargs`` forwarded to it) — no
    sockets, the lowest-friction way to exercise the replay itself.
``"fleet"``
    An ephemeral :class:`~repro.service.fleet.FleetRouter` (``shards``
    processes, ``target_kwargs`` forwarded) behind a private
    :func:`~repro.service.fleet.serve_fleet` unix endpoint — the E13
    benchmark's live-fleet target, torn down completely afterwards.
anything else
    The address of an already-running ``repro serve`` or ``repro
    fleet``: a unix socket path, ``tcp=True`` + ``host:port``, or an
    :class:`~repro.service.transport.Address`. The harness speaks the
    ordinary JSONL protocol through one pipelined
    :class:`~repro.service.client.AsyncClient` connection and never
    restarts or perturbs the server.

Each request yields one JSON-able record — scheduled/send/receive
timestamps, ``ok``, the service's ``source`` attribution
(cache/coalesced/delta/batch), the answering ``shard`` and ``route``
(both stamped by the fleet router: ``ring`` on a shard's answer, and a
repeat the router answers from its own table has ``shard`` ``None``
and ``route`` ``front``), the server-side ``elapsed_ms`` and
the harness-side ``latency_ms`` — which
:func:`repro.loadgen.analyze.analyze` folds into the tail-latency/SLO
summary.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import asynccontextmanager
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

from repro.errors import ReproError
from repro.loadgen.analyze import analyze
from repro.loadgen.trace import TraceConfig, TraceEvent, generate_trace
from repro.service.client import AsyncClient
from repro.service.fleet import FleetRouter, serve_fleet
from repro.service.server import SolveService
from repro.service.transport import Address

__all__ = ["LoadTestResult", "run_loadtest"]


@dataclass
class LoadTestResult:
    """One replay's raw records plus enough context to analyze them."""

    records: list[dict]
    mode: str  # "open" | "closed"
    target: str  # human-readable target description
    shards: Optional[int] = None  # fleet width, when the harness knows it
    wall_s: float = 0.0
    status: Optional[dict] = None  # target's post-replay status record
    config: Optional[dict] = field(default=None, repr=False)

    def summary(self, *, slo_ms: Optional[float] = None) -> dict:
        """The analyzer pass (:func:`repro.loadgen.analyze.analyze`)
        over this replay's records."""
        out = analyze(self.records, slo_ms=slo_ms, shards=self.shards)
        out["mode"] = self.mode
        out["target"] = self.target
        out["wall_s"] = round(self.wall_s, 4)
        return out

    def sources(self) -> list[Optional[str]]:
        """Per-request ``source`` attributions in trace order — the
        sequence the determinism gate compares across replays."""
        return [r.get("source") for r in self.records]


def _record_for(event: TraceEvent, scheduled_s: float) -> dict:
    return {
        "i": event.index,
        "at_s": round(scheduled_s, 6),
        "sent_s": None,
        "recv_s": None,
        "ok": False,
        "source": None,
        "shard": None,
        "route": None,
        "value": None,
        "elapsed_ms": None,
        "latency_ms": None,
        "error": None,
    }


def _absorb(record: dict, response: dict, recv_s: float, origin_s: float) -> None:
    """Fold one wire response into the harness record; latency is
    measured from ``origin_s`` (the scheduled arrival in open mode, the
    actual send in closed mode)."""
    record["recv_s"] = round(recv_s, 6)
    record["ok"] = bool(response.get("ok"))
    record["source"] = response.get("source")
    record["shard"] = response.get("shard")
    record["route"] = response.get("route")
    record["value"] = response.get("value")
    record["elapsed_ms"] = response.get("elapsed_ms")
    record["error"] = response.get("error")
    record["latency_ms"] = round((recv_s - origin_s) * 1e3, 3)


async def _replay_open(
    submit, events: Sequence[TraceEvent], *, speed: float, timeout: float
) -> list[dict]:
    """Inject every event at its (speed-scaled) recorded offset; all
    requests share one pipelined connection and overlap freely."""
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    records = [_record_for(ev, ev.at_s / speed) for ev in events]

    async def _one(event: TraceEvent, record: dict) -> None:
        scheduled = record["at_s"]
        delay = (t0 + scheduled) - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        record["sent_s"] = round(loop.time() - t0, 6)
        try:
            response = await asyncio.wait_for(submit(event.spec), timeout)
        except asyncio.TimeoutError:
            record["error"] = f"timed out after {timeout:g}s"
            return  # recv_s stays None: a dropped request
        except Exception as exc:  # noqa: BLE001 - a failure is a data point
            record["error"] = f"{type(exc).__name__}: {exc}"
            return
        _absorb(record, response, loop.time() - t0, scheduled)

    await asyncio.gather(
        *(_one(ev, rec) for ev, rec in zip(events, records))
    )
    return records


async def _replay_closed(
    submit, events: Sequence[TraceEvent], *, timeout: float
) -> list[dict]:
    """Strictly sequential replay: the next request leaves only after
    the previous response lands. Deterministic by construction — the
    cache/coalescer state each request observes does not depend on
    wall-clock timing."""
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    records = []
    for event in events:
        sent = loop.time() - t0
        record = _record_for(event, sent)
        record["sent_s"] = round(sent, 6)
        records.append(record)
        try:
            response = await asyncio.wait_for(submit(event.spec), timeout)
        except asyncio.TimeoutError:
            record["error"] = f"timed out after {timeout:g}s"
            continue
        except Exception as exc:  # noqa: BLE001 - a failure is a data point
            record["error"] = f"{type(exc).__name__}: {exc}"
            continue
        _absorb(record, response, loop.time() - t0, sent)
    return records


@asynccontextmanager
async def _local_target(target_kwargs: dict):
    service = SolveService(**target_kwargs)
    try:

        async def _submit(spec: dict) -> dict:
            return await service.handle_spec(dict(spec))

        yield _submit, None, "local", service.status
    finally:
        await service.aclose()


@asynccontextmanager
async def _fleet_target(shards: int, target_kwargs: dict):
    router = FleetRouter(shards=shards, **target_kwargs)
    await asyncio.to_thread(router.start)
    client: Optional[AsyncClient] = None
    server_task: Optional[asyncio.Task] = None
    try:
        front = str(router.state_dir / "front.sock")
        ready = asyncio.Event()
        server_task = asyncio.ensure_future(
            serve_fleet(router, Address.unix(front), ready=ready)
        )
        await ready.wait()
        client = AsyncClient(front)
        await client.connect()

        async def _status() -> dict:
            return await asyncio.to_thread(router.status)

        yield client.submit, shards, f"fleet:{shards}", _status
    finally:
        if client is not None:
            try:
                await client.shutdown()  # stops serve_fleet's loop
            except ReproError:  # pragma: no cover - front already gone
                pass
            await client.close()
        if server_task is not None:
            await asyncio.gather(server_task, return_exceptions=True)
        await asyncio.to_thread(router.close)


@asynccontextmanager
async def _address_target(target: Union[str, Address], tcp: bool):
    client = AsyncClient(target, tcp=tcp)
    try:
        await client.connect()
        yield client.submit, None, client.address.describe(), client.status
    finally:
        await client.close()


async def _run(
    events: Sequence[TraceEvent],
    *,
    mode: str,
    target: Union[str, Address],
    tcp: bool,
    shards: int,
    speed: float,
    timeout: float,
    target_kwargs: dict,
    with_status: bool,
) -> tuple[list[dict], Optional[dict], str, Optional[int], float]:
    if target == "local":
        ctx = _local_target(target_kwargs)
    elif target == "fleet":
        ctx = _fleet_target(shards, target_kwargs)
    else:
        if target_kwargs:
            raise ReproError(
                "target_kwargs only apply to ephemeral targets "
                "('local'/'fleet'), not to a running server's address"
            )
        ctx = _address_target(target, tcp)
    t0 = time.perf_counter()
    async with ctx as (submit, width, describe, status_fn):
        if mode == "closed":
            records = await _replay_closed(submit, events, timeout=timeout)
        else:
            records = await _replay_open(
                submit, events, speed=speed, timeout=timeout
            )
        status = None
        if with_status:
            try:
                status = await status_fn()
            except Exception:  # noqa: BLE001 - status is best-effort garnish
                status = None
    return records, status, describe, width, time.perf_counter() - t0


def run_loadtest(
    config: Optional[TraceConfig] = None,
    *,
    events: Optional[Sequence[TraceEvent]] = None,
    mode: Optional[str] = None,
    target: Union[str, Address] = "local",
    tcp: bool = False,
    shards: int = 2,
    speed: float = 1.0,
    timeout: float = 120.0,
    target_kwargs: Optional[dict] = None,
    with_status: bool = False,
) -> LoadTestResult:
    """Replay one trace and return its :class:`LoadTestResult`.

    ``events`` defaults to :func:`~repro.loadgen.trace.generate_trace`
    of ``config`` (pass events read back from a trace file to replay it
    verbatim). ``mode`` defaults from the trace's arrival process —
    ``closed`` replays sequentially, everything else open-loop.
    ``speed`` rescales the recorded schedule (2.0 = twice as fast);
    ``timeout`` converts a hung request into a *dropped* record instead
    of a hung harness. ``with_status=True`` snapshots the target's
    status record after the replay (queue depths, cache counters) into
    ``result.status``.

    Synchronous wrapper: owns its own event loop, so call it from
    ordinary code (the CLI, a benchmark), not from inside a running
    loop.
    """
    if events is None:
        if config is None:
            raise ReproError("run_loadtest needs a TraceConfig or explicit events")
        events = generate_trace(config)
    events = list(events)
    if not events:
        raise ReproError("cannot replay an empty trace")
    if mode is None:
        mode = (
            "closed" if config is not None and config.arrival == "closed" else "open"
        )
    if mode not in ("open", "closed"):
        raise ReproError(f"mode must be 'open' or 'closed', got {mode!r}")
    if speed <= 0:
        raise ReproError(f"speed must be positive, got {speed}")
    records, status, describe, width, wall = asyncio.run(
        _run(
            events,
            mode=mode,
            target=target,
            tcp=tcp,
            shards=shards,
            speed=speed,
            timeout=timeout,
            target_kwargs=dict(target_kwargs or {}),
            with_status=with_status,
        )
    )
    return LoadTestResult(
        records=records,
        mode=mode,
        target=describe,
        shards=width,
        wall_s=wall,
        status=status,
        config=config.to_dict() if config is not None else None,
    )
