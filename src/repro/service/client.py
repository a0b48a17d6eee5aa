"""Clients for the solve service.

:class:`LocalClient` embeds a full :class:`~repro.service.server.SolveService`
(event loop on a daemon thread) in the calling process — the zero-setup
way to get warm pools, coalescing and the result cache from synchronous
code, and what the E11 benchmark drives. :class:`ServiceClient` speaks
the JSONL protocol to a running ``repro serve`` from another process
(what ``repro request`` uses) — over the server's unix socket, or over
TCP with ``ServiceClient(tcp="host:port")``; the wire protocol is
identical (see :mod:`repro.service.transport`).

:class:`AsyncClient` is the asyncio face of the same protocol: many
requests in flight on one connection, each awaited independently. It is
what the load harness (:mod:`repro.loadgen.harness`) replays open-loop
traces through — a thousand outstanding requests cost a thousand
futures, not a thousand threads, so the client never perturbs the
latency it is measuring.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Optional, Sequence, Union

from repro.errors import ReproError
from repro.problems.base import ParenthesizationProblem
from repro.service.server import SolveService
from repro.service.transport import Address, encode_record, parse_address
from repro.service import transport as _transport

__all__ = ["AsyncClient", "LocalClient", "ServiceClient"]


class LocalClient:
    """An in-process solve service with a synchronous face.

    Construction starts a private event loop on a daemon thread and a
    :class:`~repro.service.server.SolveService` on it; every keyword is
    forwarded to the service (``backend=``, ``workers=``,
    ``max_batch=``, ``cache_bytes=``, ...). Use as a context manager —
    closing drains the scheduler and stops the pool.

    ``solve()`` blocks for one result; ``solve_batch()`` submits a
    whole sequence *concurrently*, which is what lets the scheduler
    coalesce them into shared ``solve_many`` batches.
    """

    def __init__(self, **service_kwargs: Any) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-service", daemon=True
        )
        self._thread.start()
        self.service = SolveService(**service_kwargs)
        self._closed = False

    # -- submission ----------------------------------------------------------

    def _coerce(self, request) -> tuple[ParenthesizationProblem, str, dict]:
        """A request is a problem instance, a ``(problem, method)`` /
        ``(problem, method, kwargs)`` tuple, or a JSONL-style spec dict."""
        default = self.service.default_method
        if isinstance(request, ParenthesizationProblem):
            return request, default, {}
        if isinstance(request, tuple):
            problem = request[0]
            method = request[1] if len(request) >= 2 and request[1] else default
            kwargs = dict(request[2]) if len(request) == 3 else {}
            return problem, method, kwargs
        if isinstance(request, dict):
            from repro.problems.specs import batch_item_from_spec

            return batch_item_from_spec(request, default_method=default)
        raise ReproError(f"cannot interpret request of type {type(request).__name__}")

    def solve(self, request, *, with_source: bool = False):
        """Solve one request; returns the :class:`SolveResult` (or
        ``(result, source)`` with ``with_source=True``, where source is
        ``"cache"``/``"coalesced"``/``"batch"``)."""
        result, source = asyncio.run_coroutine_threadsafe(
            self.service.submit(*self._coerce(request)), self._loop
        ).result()
        return (result, source) if with_source else result

    def solve_batch(
        self, requests: Sequence, *, with_source: bool = False
    ) -> list:
        """Hand every request to the service loop in one callback, so
        all of them are pending before the scheduler's first batch
        starts — the concurrent shape it batches. Results come back in
        submission order; failures stay in place as exception objects
        (mirroring ``solve_many``'s ``on_error="return"``). A request
        that cannot be interpreted raises before anything is
        submitted."""
        items = [self._coerce(r) for r in requests]

        async def _submit_all() -> list:
            return await asyncio.gather(
                *(self.service.submit(*item) for item in items),
                return_exceptions=True,
            )

        outcomes = asyncio.run_coroutine_threadsafe(_submit_all(), self._loop).result()
        return [
            outcome if with_source or isinstance(outcome, Exception) else outcome[0]
            for outcome in outcomes
        ]

    def status(self) -> dict:
        return self.service.status()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        asyncio.run_coroutine_threadsafe(self.service.aclose(), self._loop).result()
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()

    def __enter__(self) -> "LocalClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class AsyncClient:
    """Asyncio JSONL client: one connection, many requests in flight.

    Each outbound message gets a private wire ``id`` and a future; a
    single reader task resolves futures as response lines arrive, so
    ``submit()`` calls from any number of tasks interleave freely on
    the one socket (the pipelined shape the server's scheduler
    coalesces). Works against both ``repro serve`` and the ``repro
    fleet`` front end — same wire protocol.

    Address forms mirror :class:`ServiceClient`: a unix socket path
    (the default), ``tcp=True`` to parse ``host:port``, or a ready
    :class:`~repro.service.transport.Address`. Lazily connects on first
    use; ``close()`` (or ``async with``) tears down the reader task and
    fails any still-waiting futures loudly.
    """

    def __init__(self, address: Union[str, Address], *, tcp: bool = False) -> None:
        self.address = parse_address(address, tcp=tcp)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._waiters: dict[Any, asyncio.Future] = {}
        self._next_id = 0
        self._closed = False

    async def connect(self) -> "AsyncClient":
        if self._closed:
            raise ReproError("client is closed")
        if self._writer is not None:
            return self
        if self.address.kind == "unix":
            self._reader, self._writer = await asyncio.open_unix_connection(
                self.address.path
            )
        else:
            self._reader, self._writer = await asyncio.open_connection(
                self.address.host, self.address.port
            )
        self._reader_task = asyncio.ensure_future(self._read_loop())
        return self

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    record = json.loads(line)
                except ValueError:  # pragma: no cover - server framing bug
                    continue
                future = self._waiters.pop(record.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(record)
        finally:
            # EOF (or teardown): whoever is still waiting learns now,
            # not via a silent hang.
            error = ReproError("service closed the connection")
            for future in self._waiters.values():
                if not future.done():
                    future.set_exception(error)
            self._waiters.clear()

    async def _roundtrip(self, msg: dict) -> dict:
        await self.connect()
        assert self._writer is not None
        self._next_id += 1
        wire_id = self._next_id
        msg = dict(msg)
        msg["id"] = wire_id
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters[wire_id] = future
        self._writer.write(encode_record(msg))
        await self._writer.drain()
        return await future

    async def submit(self, spec: dict) -> dict:
        """Round-trip one problem spec; returns the response record
        (any caller-supplied ``id`` is replaced on the wire and not
        echoed — callers track their own correlation)."""
        return await self._roundtrip({k: v for k, v in spec.items() if k != "id"})

    async def status(self) -> dict:
        record = await self._roundtrip({"op": "status"})
        if not record.get("ok"):
            raise ReproError(f"status failed: {record.get('error')}")
        return record["status"]

    async def shutdown(self) -> None:
        """Ask the server to stop (it acknowledges before exiting)."""
        await self._roundtrip({"op": "shutdown"})

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    async def __aenter__(self) -> "AsyncClient":
        return await self.connect()

    async def __aexit__(self, *exc: object) -> None:
        await self.close()


class ServiceClient:
    """Synchronous JSONL client for a running ``repro serve``.

    One connection. ``request()`` round-trips a single spec;
    ``request_many()`` pipelines a whole list in one write (the server
    coalesces the lines into shared batches) and reorders the responses
    to match submission order by ``id``.

    The transport is picked by how you address the server: a unix
    socket path (positional, the default) or ``tcp="host:port"`` —
    exactly one of the two. An :class:`~repro.service.transport.Address`
    is accepted positionally as well.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        *,
        tcp: Optional[str] = None,
        timeout: float = 120.0,
    ) -> None:
        if isinstance(socket_path, Address):
            self.address = socket_path
        elif (socket_path is None) == (tcp is None):
            raise ReproError(
                "address the server by exactly one of: a unix socket path "
                "(positional) or tcp='host:port'"
            )
        elif socket_path is not None:
            self.address = Address.unix(socket_path)
        else:
            self.address = parse_address(tcp, tcp=True)
        self.socket_path = self.address.path  # unix only; None over TCP
        self._sock = _transport.connect(self.address, timeout=timeout)
        self._rfile = self._sock.makefile("r", encoding="utf-8")
        self._next_id = 0

    def _send(self, msg: dict) -> None:
        self._sock.sendall(encode_record(msg))

    def _recv(self) -> dict:
        line = self._rfile.readline()
        if not line:
            raise ReproError("service closed the connection")
        return json.loads(line)

    def request(self, spec: dict) -> dict:
        """Round-trip one problem spec; returns the response record."""
        return self.request_many([spec])[0]

    def request_many(self, specs: Sequence[dict]) -> list[dict]:
        """Pipeline a batch of specs in one write; responses in
        submission order. When the lines reach the server in one read
        (small specs), its scheduler sees all of them before its first
        batch starts, so up to ``max_batch`` distinct specs share one
        batch."""
        ids = []
        lines = []
        for spec in specs:
            msg = dict(spec)
            self._next_id += 1
            msg["id"] = self._next_id
            ids.append(self._next_id)
            lines.append(encode_record(msg))
        self._sock.sendall(b"".join(lines))
        by_id: dict[Any, dict] = {}
        for _ in specs:
            record = self._recv()
            by_id[record.get("id")] = record
        return [by_id[i] for i in ids]

    def status(self) -> dict:
        self._send({"op": "status"})
        record = self._recv()
        if not record.get("ok"):
            raise ReproError(f"status failed: {record.get('error')}")
        return record["status"]

    def shutdown(self) -> None:
        """Ask the server to stop (it unlinks its socket on the way out)."""
        self._send({"op": "shutdown"})
        self._recv()

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
