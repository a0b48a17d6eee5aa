"""Shared wire plumbing for the solve service: addresses + JSONL framing.

Every process boundary in the service layer — ``repro serve`` /
``repro request``, the fleet router and its shards, the TCP front end —
speaks the same protocol: newline-delimited JSON objects over a stream
socket. This module is the single home for that protocol's mechanics,
factored out of ``server.py``/``client.py`` so a transport is chosen by
*address*, not by code path:

* :class:`Address` — a unix-socket path or a TCP ``host:port`` endpoint
  (:func:`parse_address` turns CLI strings into one);
* :func:`encode_record` / :func:`decode_record` — the framing: one JSON
  object per ``\\n``-terminated line;
* :func:`connect` — a synchronous client socket for either address kind;
* :func:`start_line_server` — the asyncio listener for either kind,
  with stale-unix-socket recovery (a dead server's leftover socket file
  is probed and unlinked instead of failing the bind);
* :func:`serve_jsonl` — the server loop both servers run: one
  ``asyncio.Protocol`` per connection that splits lines as they are
  read and writes each record with ``transport.write``.

A response record carries its request's ``id``. Records on one
connection may arrive out of request order: a server answers each line
as soon as its work is done, so a quick answer (the fleet front end's
answer to a repeat) can overtake earlier, slower ones. A client that
pipelines matches records to requests by ``id``;
:meth:`~repro.service.client.ServiceClient.request_many` still returns
them in submission order.

Unix sockets are the default transport: kernel-local, no ports to
manage, access controlled by the filesystem. TCP is for crossing
machine (or container) boundaries — ``repro serve --tcp HOST:PORT`` and
``ServiceClient(tcp=...)``; same framing, same pipelining, byte-for-byte
the same protocol.
"""

from __future__ import annotations

import asyncio
import errno
import json
import os
import socket
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from repro.errors import ReproError

#: the longest request line a server reads, newline excluded (also the
#: stream limit of the router's shard connections); a longer line is
#: answered "request too large"
MAX_LINE_BYTES = 64 * 1024

__all__ = [
    "MAX_LINE_BYTES",
    "Address",
    "parse_address",
    "encode_record",
    "decode_record",
    "connect",
    "start_line_server",
    "serve_jsonl",
]


@dataclass(frozen=True)
class Address:
    """One service endpoint: a unix-socket path or a TCP host/port."""

    kind: str  # "unix" | "tcp"
    path: Optional[str] = None
    host: Optional[str] = None
    port: Optional[int] = None

    @classmethod
    def unix(cls, path: str) -> "Address":
        return cls(kind="unix", path=str(path))

    @classmethod
    def tcp(cls, host: str, port: int) -> "Address":
        return cls(kind="tcp", host=host, port=int(port))

    def describe(self) -> str:
        if self.kind == "unix":
            return str(self.path)
        return f"{self.host}:{self.port}"


def parse_address(spec: Union[str, Address], *, tcp: bool = False) -> Address:
    """An :class:`Address` from a CLI string.

    ``tcp=False`` treats ``spec`` as a unix-socket path. ``tcp=True``
    parses ``HOST:PORT`` (a bare ``:PORT`` or ``PORT`` binds/connects on
    ``127.0.0.1``; IPv6 literals use the usual ``[::1]:PORT`` brackets).
    """
    if isinstance(spec, Address):
        return spec
    if not tcp:
        return Address.unix(spec)
    text = str(spec).strip()
    host: str = "127.0.0.1"
    if text.startswith("["):  # [v6-literal]:port
        closing = text.find("]")
        if closing < 0 or not text[closing + 1 :].startswith(":"):
            raise ReproError(f"malformed TCP address {spec!r}; want [HOST]:PORT")
        host = text[1:closing]
        port_text = text[closing + 2 :]
    elif ":" in text:
        host_text, _, port_text = text.rpartition(":")
        if host_text:
            host = host_text
    else:
        port_text = text
    try:
        port = int(port_text)
    except ValueError:
        raise ReproError(
            f"malformed TCP address {spec!r}; want HOST:PORT with an integer port"
        ) from None
    if not 0 <= port <= 65535:
        raise ReproError(f"TCP port {port} out of range 0-65535")
    return Address.tcp(host, port)


# ---------------------------------------------------------------------------
# Framing.
# ---------------------------------------------------------------------------


def encode_record(record: dict) -> bytes:
    """One response/request dict as a wire line (JSON + ``\\n``)."""
    return (json.dumps(record) + "\n").encode()


def decode_record(line: Union[bytes, str]) -> dict:
    """Parse one wire line into a dict; raises ``ValueError`` for
    anything that is not a single JSON object (the error text goes back
    on the wire verbatim, so keep it useful)."""
    try:
        msg = json.loads(line)
    except RecursionError:
        raise ValueError("JSON nests too deeply") from None
    if not isinstance(msg, dict):
        raise ValueError("request must be a JSON object")
    return msg


# ---------------------------------------------------------------------------
# Client side (synchronous).
# ---------------------------------------------------------------------------


def connect(address: Address, *, timeout: float = 120.0) -> socket.socket:
    """A connected stream socket for either address kind."""
    if address.kind == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect(address.path)
        except OSError:
            sock.close()
            raise
        return sock
    return socket.create_connection((address.host, address.port), timeout=timeout)


# ---------------------------------------------------------------------------
# Server side (asyncio).
# ---------------------------------------------------------------------------


def _reclaim_stale_unix_socket(path: str) -> None:
    """Unlink ``path`` if it is a socket nobody is listening on.

    A server that died without cleanup (SIGKILL, power loss) leaves its
    socket file behind; binding over it must not require manual ``rm``.
    A *live* server is detected by probing with a connect — in that
    case the bind error stands."""
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(0.25)
    try:
        probe.connect(path)
    except (ConnectionRefusedError, FileNotFoundError):
        try:
            os.unlink(path)
        except OSError:
            pass
    except OSError:
        pass  # live but unresponsive, or a permissions issue: let bind decide
    else:
        raise ReproError(f"socket {path!r} already has a live server")
    finally:
        probe.close()


async def start_line_server(
    protocol_factory: Callable[[], asyncio.Protocol], address: Address
) -> tuple[asyncio.AbstractServer, Address]:
    """Bind an asyncio server on ``address`` that gives each connection
    a protocol from ``protocol_factory``.

    Returns ``(server, bound)`` where ``bound`` is the actual endpoint —
    identical to ``address`` for unix sockets, but with the real port
    resolved when TCP port 0 (ephemeral) was requested."""
    loop = asyncio.get_running_loop()
    if address.kind == "unix":
        assert address.path is not None
        if os.path.exists(address.path):
            _reclaim_stale_unix_socket(address.path)
        try:
            server = await loop.create_unix_server(protocol_factory, path=address.path)
        except OSError as exc:  # pragma: no cover - raced with another bind
            if exc.errno == errno.EADDRINUSE:
                raise ReproError(
                    f"socket {address.path!r} already has a live server"
                ) from exc
            raise
        return server, address
    server = await loop.create_server(
        protocol_factory, host=address.host, port=address.port
    )
    bound_port = server.sockets[0].getsockname()[1] if server.sockets else address.port
    return server, Address.tcp(address.host or "127.0.0.1", bound_port)


# ---------------------------------------------------------------------------
# The shared JSONL server loop.
# ---------------------------------------------------------------------------


class _Listener:
    """What the connections of one :func:`serve_jsonl` run share: the
    injected dispatcher factory and status source, the stop event, the
    count of spec answers, and the connections still open."""

    def __init__(
        self,
        make_dispatcher: Callable[[], Any],
        status_fn: Callable,
        max_requests: Optional[int],
    ) -> None:
        self.make_dispatcher = make_dispatcher
        self.status_fn = status_fn
        self.max_requests = max_requests
        self.stop = asyncio.Event()
        self.served = 0
        #: connections accepted whose ``connection_made`` has not run
        self.attaching = 0
        #: connections still reading requests
        self.reading: set["_Connection"] = set()
        #: connections that stopped reading and are finishing their work
        self.finishing: set[asyncio.Task] = set()


class _Connection(asyncio.Protocol):
    """One client connection of :func:`serve_jsonl`.

    :meth:`data_received` splits what arrives into lines and answers
    each line before it returns: a record for a malformed line or an
    unknown op is written at once, a spec line goes to the connection's
    dispatcher, and a status op starts a task. Every record is written
    with ``transport.write``, which sends at once or buffers. Reading
    never waits for writing, so a client that sends its whole batch
    before it reads an answer cannot deadlock against the server; the
    answers wait in the transport's buffer meanwhile.

    Input ends at end of file, at a ``shutdown`` op or when the server
    stops. The connection then answers the work it accepted and closes.
    """

    def __init__(self, listener: _Listener) -> None:
        self._listener = listener
        listener.attaching += 1
        self._transport: Any = None
        self._dispatcher: Any = None
        #: the start of a line whose newline has not arrived yet
        self._partial = bytearray()
        #: inside a line over MAX_LINE_BYTES, discarded through its newline
        self._skipping = False
        self._reading = True
        #: status ops in flight
        self._ops: set[asyncio.Task] = set()

    # -- the protocol --------------------------------------------------------

    def connection_made(self, transport: Any) -> None:
        self._listener.attaching -= 1
        self._transport = transport
        self._dispatcher = self._listener.make_dispatcher()
        self._listener.reading.add(self)

    def data_received(self, data: bytes) -> None:
        partial = self._partial
        scan_from = 0
        if partial:
            # Appending and scanning only the new bytes keeps a line
            # that arrives in many small reads linear in its length.
            scan_from = len(partial)
            partial += data
            data = partial
        start = 0
        end = data.find(b"\n", scan_from)
        while end >= 0 and self._reading:
            if self._skipping:
                self._skipping = False
            elif end - start > MAX_LINE_BYTES:
                self._too_large()
            else:
                self._line(data[start:end])
            start = end + 1
            end = data.find(b"\n", start)
        if not self._reading or self._skipping:
            partial.clear()
        elif len(data) - start > MAX_LINE_BYTES:
            # Answered now; its newline, when it comes, ends the skip.
            partial.clear()
            self._too_large()
            self._skipping = True
        elif data is partial:
            del partial[:start]
        else:
            partial += data[start:]

    def eof_received(self) -> bool:
        if self._reading and self._partial:
            line = bytes(self._partial)
            self._partial.clear()
            self._line(line)  # the unterminated last line
        self.finish()
        return True  # keep the transport open for the answers

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.finish()

    # -- requests ------------------------------------------------------------

    def _line(self, line: bytes) -> None:
        line = line.strip()
        if not line:
            return
        try:
            msg = decode_record(line)
        except ValueError as exc:
            self._write({"ok": False, "error": f"bad request: {exc}"})
            return
        op = msg.get("op")
        if op is None:
            self._dispatcher.submit(msg, self._respond)
        elif op == "status":
            task = asyncio.ensure_future(self._answer_status(msg.get("id")))
            self._ops.add(task)
            task.add_done_callback(self._ops.discard)
        elif op == "shutdown":
            self._write({"id": msg.get("id"), "ok": True})
            self._listener.stop.set()
            self.finish()
        else:
            self._write(
                {"id": msg.get("id"), "ok": False, "error": f"unknown op {op!r}"}
            )

    def _too_large(self) -> None:
        self._write(
            {
                "ok": False,
                "error": (
                    "request too large: a request line may hold "
                    f"at most {MAX_LINE_BYTES} bytes"
                ),
            }
        )

    async def _answer_status(self, request_id: Any) -> None:
        try:
            record = {
                "id": request_id,
                "ok": True,
                "status": await self._listener.status_fn(),
            }
        except Exception as exc:  # noqa: BLE001 - errors go on the wire
            record = {
                "id": request_id,
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
            }
        self._write(record)

    def _respond(self, record: dict) -> None:
        """The dispatcher's answer to one spec line."""
        listener = self._listener
        listener.served += 1
        self._write(record)
        limit = listener.max_requests
        if limit is not None and listener.served >= limit:
            listener.stop.set()

    def _write(self, record: dict) -> None:
        if not self._transport.is_closing():  # the peer may be gone
            self._transport.write(encode_record(record))

    # -- the end of the connection ---------------------------------------------

    def finish(self) -> None:
        """Stop reading; close the connection once the work it accepted
        is answered. Idempotent."""
        if not self._reading:
            return
        self._reading = False
        if not self._transport.is_closing():
            self._transport.pause_reading()
        self._listener.reading.discard(self)
        task = asyncio.ensure_future(self._close_when_answered())
        self._listener.finishing.add(task)
        task.add_done_callback(self._listener.finishing.discard)

    async def _close_when_answered(self) -> None:
        try:
            await self._dispatcher.drain()
            while self._ops:
                await asyncio.gather(*list(self._ops), return_exceptions=True)
        finally:
            self._transport.close()


async def _stop_accepting(server: asyncio.AbstractServer, listener: _Listener) -> None:
    """Stop accepting, then wait until every connection already accepted
    has attached to ``server`` and run ``connection_made``. An accept
    builds its transport one loop iteration later; one built after
    ``server.close()`` fails to attach, and its socket is never closed."""
    loop = asyncio.get_running_loop()
    for sock in server.sockets:
        loop.remove_reader(sock.fileno())
    # One pass lets every accept already under way build its protocol;
    # then each attached connection reaches connection_made a pass
    # later. A transport that fails to build never gets there, so the
    # wait is bounded.
    for _ in range(8):
        await asyncio.sleep(0)
        if not listener.attaching:
            return


async def serve_jsonl(
    address: Address,
    *,
    make_dispatcher: Callable[[], Any],
    status_fn: Callable,
    banner: Optional[Callable[[Address], str]] = None,
    cleanup: Optional[Callable] = None,
    max_requests: Optional[int] = None,
    ready: Optional[asyncio.Event] = None,
    on_bound: Optional[Callable[[Address], None]] = None,
    quiet: bool = True,
) -> int:
    """The one JSONL front-end loop behind ``repro serve`` *and*
    ``repro fleet``: bind, accept pipelined connections, dispatch spec
    lines, answer ``status``/``shutdown`` ops, and tear everything down
    on every exit path. Each connection is one :class:`_Connection`
    protocol.

    What varies between servers is injected:

    ``make_dispatcher()``
        Called once per connection; returns an object with
        ``submit(msg, respond)`` and ``async drain()``. ``submit`` is
        called from the read callback for each spec line and must not
        block; ``respond`` is a plain ``record -> None`` that writes the
        line's one record, from ``submit`` itself or later. ``drain()``
        is awaited when the connection's input ends: outstanding work
        must finish before the connection closes, so requests accepted
        before a shutdown still complete.
    ``status_fn()``
        Async; the dict served under ``{"op": "status"}``.
    ``banner(bound)``
        The not-``quiet`` listening line.
    ``cleanup()``
        Async; runs in the teardown ``finally`` (the solve server
        closes its service here; the fleet front end leaves its router
        to the caller).

    Every request line gets exactly one record: a line that is not a
    JSON object is answered "bad request", and a line longer than
    :data:`MAX_LINE_BYTES` "request too large", once, with the rest of
    the line discarded through its newline, however many reads it
    spans; the connection stays up. A blank line gets none, and an
    unterminated last line is answered at end of file. A record carries
    its request's ``id``; records on one connection may arrive out of
    request order (a dispatcher answers as the work finishes).
    Runs until a shutdown op or ``max_requests`` spec responses.
    Every exit after a successful bind — including failures in the
    ``ready``/``on_bound`` notifications themselves — closes the
    listener, lets every connection answer what it accepted, runs
    ``cleanup`` and (for unix addresses) unlinks the socket file.
    Returns the number of spec requests served.
    """
    listener = _Listener(make_dispatcher, status_fn, max_requests)
    server, bound = await start_line_server(lambda: _Connection(listener), address)
    # From here on, *every* exit — including a failure in the
    # ready/on_bound notifications or the listening banner — must tear
    # down the listener, run the cleanup and unlink the socket file.
    # (Notifying outside this try historically left a stale socket and
    # a live pool behind when startup failed after the bind.)
    try:
        if not quiet and banner is not None:  # pragma: no cover - interactive only
            print(banner(bound))
        if on_bound is not None:
            on_bound(bound)
        if ready is not None:
            ready.set()
        await listener.stop.wait()
    finally:
        await _stop_accepting(server, listener)
        server.close()
        for conn in list(listener.reading):
            conn.finish()
        while listener.finishing:
            await asyncio.gather(*list(listener.finishing), return_exceptions=True)
        # Every connection is closing now; the server is closed once
        # each has flushed its answers.
        await server.wait_closed()
        if cleanup is not None:
            await cleanup()
        if address.kind == "unix":
            try:
                os.unlink(address.path)
            except OSError:
                pass
    return listener.served
