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
  is probed and unlinked instead of failing the bind).

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
from typing import Callable, Optional, Union

from repro.errors import ReproError

#: the longest request line a server reads, newline excluded (asyncio's
#: default stream limit); a longer line is answered "request too large"
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
    handler: Callable, address: Address
) -> tuple[asyncio.AbstractServer, Address]:
    """Bind an asyncio stream server on ``address``.

    Returns ``(server, bound)`` where ``bound`` is the actual endpoint —
    identical to ``address`` for unix sockets, but with the real port
    resolved when TCP port 0 (ephemeral) was requested."""
    if address.kind == "unix":
        assert address.path is not None
        if os.path.exists(address.path):
            _reclaim_stale_unix_socket(address.path)
        try:
            server = await asyncio.start_unix_server(
                handler, path=address.path, limit=MAX_LINE_BYTES
            )
        except OSError as exc:  # pragma: no cover - raced with another bind
            if exc.errno == errno.EADDRINUSE:
                raise ReproError(
                    f"socket {address.path!r} already has a live server"
                ) from exc
            raise
        return server, address
    server = await asyncio.start_server(
        handler, host=address.host, port=address.port, limit=MAX_LINE_BYTES
    )
    bound_port = server.sockets[0].getsockname()[1] if server.sockets else address.port
    return server, Address.tcp(address.host or "127.0.0.1", bound_port)


# ---------------------------------------------------------------------------
# The shared JSONL server loop.
# ---------------------------------------------------------------------------


async def _read_request_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next request line (``b""`` at end of input), or ``None`` for
    a line over :data:`MAX_LINE_BYTES`, which is then discarded through
    its newline — also when that newline has not arrived yet, so the
    line's tail is never read as a request of its own."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial  # end of input: the unterminated last line
    except asyncio.LimitOverrunError:
        pass
    while True:
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)  # bytes before any newline
        except asyncio.IncompleteReadError:
            return None


async def serve_jsonl(
    address: Address,
    *,
    make_dispatcher: Callable[[], "object"],
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
    on every exit path.

    What varies between servers is injected:

    ``make_dispatcher()``
        Called once per connection; returns an object with
        ``submit(msg, respond)`` (called for each spec line, where
        ``respond`` is an async ``record -> None``; must not block the
        read loop) and ``async drain()`` (awaited when the connection's
        read loop ends — outstanding work must finish before the
        connection deregisters, so requests accepted before a shutdown
        still complete).
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
    :data:`MAX_LINE_BYTES` "request too large"; the connection stays up.
    Runs until a shutdown op or ``max_requests`` spec responses.
    Every exit after a successful bind — including failures in the
    ``ready``/``on_bound`` notifications themselves — closes the
    listener, drains connections, runs ``cleanup`` and (for unix
    addresses) unlinks the socket file. Returns the number of spec
    requests served.
    """
    stop = asyncio.Event()
    served = 0
    conn_writers: set[asyncio.StreamWriter] = set()
    conn_tasks: set[asyncio.Task] = set()

    async def _respond(writer, lock: asyncio.Lock, record: dict) -> None:
        async with lock:
            writer.write(encode_record(record))
            await writer.drain()

    async def _handle_conn(reader, writer) -> None:
        lock = asyncio.Lock()
        dispatcher = make_dispatcher()
        conn_writers.add(writer)
        conn_tasks.add(asyncio.current_task())

        async def _respond_spec(record: dict) -> None:
            nonlocal served
            served += 1
            await _respond(writer, lock, record)
            if max_requests is not None and served >= max_requests:
                stop.set()

        try:
            while True:
                line = await _read_request_line(reader)
                if line is None:
                    await _respond(
                        writer,
                        lock,
                        {
                            "ok": False,
                            "error": (
                                "request too large: a request line may hold "
                                f"at most {MAX_LINE_BYTES} bytes"
                            ),
                        },
                    )
                    continue
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    msg = decode_record(line)
                except ValueError as exc:
                    await _respond(
                        writer, lock, {"ok": False, "error": f"bad request: {exc}"}
                    )
                    continue
                op = msg.get("op")
                if op == "status":
                    await _respond(
                        writer,
                        lock,
                        {"id": msg.get("id"), "ok": True, "status": await status_fn()},
                    )
                elif op == "shutdown":
                    await _respond(writer, lock, {"id": msg.get("id"), "ok": True})
                    stop.set()
                    break
                elif op is not None:
                    await _respond(
                        writer,
                        lock,
                        {
                            "id": msg.get("id"),
                            "ok": False,
                            "error": f"unknown op {op!r}",
                        },
                    )
                else:
                    dispatcher.submit(msg, _respond_spec)
        finally:
            conn_writers.discard(writer)
            await dispatcher.drain()
            # Deregister only after the dispatcher drained: the
            # shutdown path awaits conn_tasks before cleanup, so
            # requests accepted before shutdown still complete.
            conn_tasks.discard(asyncio.current_task())
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    server, bound = await start_line_server(_handle_conn, address)
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
        await stop.wait()
    finally:
        server.close()
        await server.wait_closed()
        # Connections still parked in a read get an orderly EOF
        # (closing the transport feeds it) instead of a loop-teardown
        # cancellation traceback.
        for writer in list(conn_writers):
            writer.close()
        if conn_tasks:
            await asyncio.gather(*list(conn_tasks), return_exceptions=True)
        if cleanup is not None:
            await cleanup()
        if address.kind == "unix":
            try:
                os.unlink(address.path)
            except OSError:
                pass
    return served
