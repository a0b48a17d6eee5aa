"""The shared service transport: addresses, framing, TCP serving, and
the unlink-on-every-exit-path guarantees of serve()."""

import asyncio
import gc
import json
import os
import socket
import sys
import threading
import time
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.service import ServiceClient, SolveService, serve, serve_tcp
from repro.service.fleet import FleetRouter, serve_fleet
from repro.service.transport import (
    MAX_LINE_BYTES,
    Address,
    connect,
    decode_record,
    encode_record,
    parse_address,
    serve_jsonl,
    start_line_server,
)


class TestParseAddress:
    def test_unix_path_passthrough(self):
        addr = parse_address("/tmp/x.sock")
        assert addr.kind == "unix" and addr.path == "/tmp/x.sock"
        assert addr.describe() == "/tmp/x.sock"

    def test_tcp_host_port(self):
        addr = parse_address("example.com:7466", tcp=True)
        assert addr.kind == "tcp"
        assert addr.host == "example.com" and addr.port == 7466
        assert addr.describe() == "example.com:7466"

    def test_tcp_port_only_defaults_to_loopback(self):
        assert parse_address(":7466", tcp=True).host == "127.0.0.1"
        assert parse_address("7466", tcp=True).port == 7466

    def test_tcp_ipv6_literal(self):
        addr = parse_address("[::1]:8000", tcp=True)
        assert addr.host == "::1" and addr.port == 8000

    @pytest.mark.parametrize("bad", ["no-port-here:", "x:y", "[::1]8000", ":70000"])
    def test_malformed_tcp_rejected(self, bad):
        with pytest.raises(ReproError):
            parse_address(bad, tcp=True)

    def test_address_instance_passthrough(self):
        addr = Address.tcp("h", 1)
        assert parse_address(addr, tcp=True) is addr


class TestFraming:
    def test_encode_decode_roundtrip(self):
        record = {"id": 3, "ok": True, "value": 2500.0}
        line = encode_record(record)
        assert line.endswith(b"\n")
        assert decode_record(line) == record

    def test_decode_rejects_non_objects(self):
        with pytest.raises(ValueError, match="JSON object"):
            decode_record(b"[1, 2]\n")
        with pytest.raises(ValueError):
            decode_record(b"not json")
        with pytest.raises(ValueError, match="nests too deeply"):
            decode_record(b"[" * 20000 + b"]" * 20000)


#: the servers and transports every framing rule is checked on
SERVERS = [
    ("serve", "unix"),
    ("serve", "tcp"),
    ("serve_fleet", "unix"),
    ("serve_fleet", "tcp"),
]
SERVER_IDS = [f"{kind}-{transport}" for kind, transport in SERVERS]


class LiveServer:
    """A ``repro serve`` (``kind="serve"``, over a fresh serial
    service) or a fleet front end (``kind="serve_fleet"``, over
    ``router``) on a unix socket in ``directory`` or an ephemeral TCP
    port, run on its own thread and event loop."""

    def __init__(self, kind, transport, directory, router=None, **kwargs):
        if transport == "unix":
            address = Address.unix(str(directory / f"{kind}.sock"))
        else:
            address = Address.tcp("127.0.0.1", 0)
        bound = threading.Event()
        self.outcome: dict = {}
        self.service = None

        def _on_bound(at):
            self.address = at
            bound.set()

        if kind == "serve":
            self.service = SolveService(method="sequential", backend="serial")
            main = serve(self.service, address, on_bound=_on_bound, **kwargs)
        else:
            main = serve_fleet(router, address, on_bound=_on_bound, **kwargs)

        async def _main():
            self._loop = asyncio.get_running_loop()
            self._task = asyncio.ensure_future(main)
            return await self._task

        def _run():
            try:
                self.outcome["served"] = asyncio.run(_main())
            except BaseException as exc:  # noqa: BLE001 - checked by the test
                self.outcome["error"] = exc

        self.thread = threading.Thread(target=_run, daemon=True)
        self.thread.start()
        assert bound.wait(30.0), "server did not come up"

    def connect(self):
        return connect(self.address, timeout=60.0)

    def idle_client(self):
        """A connection the server has accepted (it answered a status op
        on it) and that then stays idle."""
        sock = self.connect()
        sock.sendall(encode_record({"op": "status"}))
        with sock.makefile("rb") as answers:
            assert json.loads(answers.readline())["ok"]
        return sock

    def cancel(self):
        self._loop.call_soon_threadsafe(self._task.cancel)

    def join(self):
        self.thread.join(timeout=60.0)
        assert not self.thread.is_alive(), "server did not exit"

    def stop(self):
        if self.thread.is_alive():
            with ServiceClient(self.address) as client:
                client.shutdown()
        self.join()

    def gone(self) -> bool:
        """The listener is closed, and a unix socket file unlinked."""
        if self.address.kind == "unix":
            return not os.path.exists(self.address.path)
        try:
            connect(self.address, timeout=5.0).close()
        except ConnectionRefusedError:
            return True
        return False


@pytest.fixture(scope="module")
def fleet_router():
    """One single-shard fleet for every fleet front end in this module."""
    with FleetRouter(1, backend="serial", method="sequential") as router:
        yield router


def start_server(request, kind, transport, directory, **kwargs) -> LiveServer:
    router = request.getfixturevalue("fleet_router") if kind == "serve_fleet" else None
    return LiveServer(kind, transport, directory, router, **kwargs)


@pytest.fixture(scope="module", params=SERVERS, ids=SERVER_IDS)
def line_server(request, tmp_path_factory):
    """A live server shared by the framing tests of one server kind and
    transport; shut down with a ``shutdown`` op afterwards."""
    kind, transport = request.param
    server = start_server(request, kind, transport, tmp_path_factory.mktemp(kind))
    yield server
    server.stop()
    assert server.gone()


def exchange(server: LiveServer, chunks, pause: float = 0.0) -> list:
    """Send ``chunks`` of bytes on one connection (``pause`` seconds
    apart), end the input, and read records until the server closes
    the connection; returns them in arrival order."""
    sock = server.connect()
    try:
        for chunk in chunks:
            sock.sendall(chunk)
            if pause:
                time.sleep(pause)
        sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as answers:
            return [json.loads(line) for line in answers]
    finally:
        sock.close()


class TestHostileLines:
    def test_every_line_gets_one_record_in_order(self, line_server):
        """An over-limit line and a too-deeply nested line each get one
        error record, and the connection keeps serving the line after
        them."""
        oversized = b'{"dims": [' + b", ".join([b"7"] * 30000) + b"]}\n"
        assert len(oversized) > MAX_LINE_BYTES + 1
        nested = b"[" * 20000 + b"]" * 20000 + b"\n"
        valid = encode_record({"dims": [10, 20, 5, 30], "id": 3})
        sock = line_server.connect()
        try:
            rfile = sock.makefile("r")
            # The oversized line's newline arrives after the server has
            # given up on it: its tail must not read as a second request.
            sock.sendall(oversized[:70000])
            time.sleep(0.2)
            sock.sendall(oversized[70000:] + nested + valid)
            records = [json.loads(rfile.readline()) for _ in range(3)]
            sock.sendall(encode_record({"op": "status", "id": "after"}))
            after = json.loads(rfile.readline())
        finally:
            sock.close()
        assert not records[0]["ok"]
        assert records[0]["error"].startswith("request too large")
        assert not records[1]["ok"]
        assert records[1]["error"] == "bad request: JSON nests too deeply"
        assert records[2]["ok"] and records[2]["id"] == 3
        assert records[2]["value"] == 2500.0
        assert after["id"] == "after" and after["ok"], "a fourth record arrived"


class TestFramingRules:
    """The line protocol's rules, on both servers and both transports."""

    def test_every_request_line_gets_one_record(self, line_server):
        """Specs (one with a CRLF ending), text that is not JSON, JSON
        that is not an object and an unknown op each get one record; a
        blank line gets none."""
        stream = b"".join(
            [
                encode_record({"dims": [10, 20, 5, 30], "id": 1}),
                b"not json\n",
                b"\n",
                b"   \r\n",
                b'{"op": "no-such-op", "id": 2}\n',
                b"[1, 2]\n",
                b'{"dims": [3, 7, 2], "id": 3}\r\n',
            ]
        )
        records = exchange(line_server, [stream])
        assert len(records) == 5
        by_id = {r.get("id"): r for r in records}
        assert by_id[1]["value"] == 2500.0 and by_id[3]["value"] == 42.0
        assert by_id[2] == {"id": 2, "ok": False, "error": "unknown op 'no-such-op'"}
        unframed = sorted(r["error"] for r in records if r.get("id") is None)
        assert unframed[0].startswith("bad request: Expecting value")
        assert unframed[1] == "bad request: request must be a JSON object"

    def test_an_oversized_line_is_answered_once_however_it_is_cut(
        self, line_server
    ):
        """Its tail is a valid request on its own, and is never answered:
        not when the line arrives in many reads, and not when it is the
        unterminated last line."""
        line = b" " * (MAX_LINE_BYTES + 1) + encode_record({"dims": [3, 7, 2], "id": 9})
        after = encode_record({"dims": [3, 7, 2], "id": "after"})
        chunks = [line[i : i + 9000] for i in range(0, len(line), 9000)] + [after]
        records = exchange(line_server, chunks, pause=0.002)
        assert [r.get("id") for r in records] == [None, "after"]
        assert records[0]["error"].startswith("request too large")
        records = exchange(line_server, [line[:-1]])
        assert len(records) == 1 and records[0]["error"].startswith("request too large")

    def test_an_unterminated_last_line_is_answered_at_end_of_input(
        self, line_server
    ):
        records = exchange(line_server, [b'{"dims": [10, 20, 5, 30], "id": "last"}'])
        assert [(r["id"], r["value"]) for r in records] == [("last", 2500.0)]
        records = exchange(line_server, [b'{"dims": [1'])
        assert len(records) == 1 and records[0]["error"].startswith("bad request")


class TestServerExits:
    """``status``, ``shutdown`` and ``max_requests``, and the teardown
    of every exit: the listener closed, a unix socket unlinked."""

    pytestmark = pytest.mark.parametrize("kind, transport", SERVERS, ids=SERVER_IDS)

    def test_status_then_shutdown(self, request, tmp_path, kind, transport):
        server = start_server(request, kind, transport, tmp_path)
        idle = server.idle_client()  # it must not hold the exit up
        try:
            with ServiceClient(server.address) as client:
                assert client.request({"dims": [3, 7, 2]})["value"] == 42.0
                status = client.status()
                client.shutdown()
            server.join()
        finally:
            idle.close()
        assert ("router" in status) == (kind == "serve_fleet")
        assert server.outcome == {"served": 1}
        assert server.gone()

    def test_max_requests_stops_after_that_many_answers(
        self, request, tmp_path, kind, transport
    ):
        server = start_server(request, kind, transport, tmp_path, max_requests=2)
        with ServiceClient(server.address) as client:
            records = client.request_many([{"dims": [3, 7, 2]}, {"dims": [7, 3, 2]}])
        server.join()
        assert [r["value"] for r in records] == [42.0, 42.0]
        assert server.outcome == {"served": 2}
        assert server.gone()

    def test_work_accepted_before_a_shutdown_completes(
        self, request, tmp_path, kind, transport
    ):
        server = start_server(request, kind, transport, tmp_path)
        # a miss on every server: a seed no other test uses
        seed = 700 + SERVERS.index((kind, transport))
        spec = {"family": "chain", "n": 200, "seed": seed, "id": "work"}
        records = exchange(
            server, [encode_record(spec) + encode_record({"op": "shutdown", "id": "stop"})]
        )
        server.join()
        by_id = {r["id"]: r for r in records}
        assert sorted(by_id) == ["stop", "work"]
        assert by_id["work"]["ok"] and by_id["stop"] == {"id": "stop", "ok": True}
        assert server.outcome == {"served": 1}
        assert server.gone()

    def test_cancelling_the_server(self, request, tmp_path, kind, transport):
        server = start_server(request, kind, transport, tmp_path)
        idle = server.idle_client()
        try:
            server.cancel()
            server.join()
        finally:
            idle.close()
        assert isinstance(server.outcome.get("error"), asyncio.CancelledError)
        assert server.gone()

    def test_a_failing_start_up_notification(self, request, tmp_path, kind, transport):
        class ExplodingReady:
            def set(self):
                raise RuntimeError("startup interrupted")

        server = start_server(request, kind, transport, tmp_path, ready=ExplodingReady())
        server.join()
        assert isinstance(server.outcome.get("error"), RuntimeError)
        assert server.gone()
        if server.service is not None:
            assert server.service._closed


#: what the property test's streams are made of: specs (one instance
#: in two spellings, a spec the parser rejects), lines that are no
#: request, blank lines, and an over-limit line whose tail is a valid
#: request on its own
_STREAM_SPECS = [
    {"dims": [3, 7, 2, 9]},
    {"dims": [3.0, 7.0, 2.0, 9.0]},
    {"family": "bst", "n": 5, "seed": 902},
    {"family": "chain", "n": -2},
    {"bogus": 1},
]
_NOT_REQUESTS = [b"not json", b"[1, 2]", b'{"op": "no-such-op"}', b'{"dims": [1']
_BLANKS = [b"", b"   ", b"\r"]
_OVERSIZED = b" " * (MAX_LINE_BYTES + 1) + b'{"dims": [3, 7, 2], "id": "tail"}'


@st.composite
def line_streams(draw):
    """``(stream, request_lines, chunks)``: one byte stream and a random
    cut of it into chunks."""
    items = draw(
        st.lists(
            st.one_of(
                st.builds(lambda k: ("spec", k), st.integers(0, len(_STREAM_SPECS) - 1)),
                st.sampled_from([("other", line) for line in _NOT_REQUESTS]),
                st.sampled_from([("blank", line) for line in _BLANKS]),
                st.just(("oversized", _OVERSIZED)),
            ),
            min_size=1,
            max_size=10,
        )
    )
    lines = []
    for i, (what, value) in enumerate(items):
        if what == "spec":
            value = json.dumps({**_STREAM_SPECS[value], "id": i}).encode()
        lines.append(value + draw(st.sampled_from([b"\n", b"\r\n"])))
    if draw(st.booleans()):  # an unterminated last line
        lines[-1] = lines[-1].rstrip(b"\r\n")
    stream = b"".join(lines)
    requests = sum(1 for what, _ in items if what != "blank")
    cuts = draw(st.lists(st.integers(1, max(1, len(stream) - 1)), max_size=8, unique=True))
    bounds = [0, *sorted(cuts), len(stream)]
    return stream, requests, [stream[a:b] for a, b in zip(bounds, bounds[1:])]


def _by_id(records) -> tuple:
    """What must not depend on how the stream was cut: each record's
    outcome by ``id``, and the outcomes of the records without one."""
    by_id, unframed = {}, []
    for record in records:
        outcome = (record["ok"], record.get("value"), record.get("error"))
        if record.get("id") is None:
            unframed.append(outcome)
        else:
            assert record["id"] not in by_id, "two records for one line"
            by_id[record["id"]] = outcome
    return by_id, sorted(unframed, key=repr)


class TestChunkedStreams:
    @given(drawn=line_streams())
    def test_any_cut_of_a_stream_gets_the_same_records(self, line_server, drawn):
        stream, requests, chunks = drawn
        whole = exchange(line_server, [stream])
        cut = exchange(line_server, chunks, pause=0.001)
        for records in (whole, cut):
            assert len(records) == requests
            assert all(r.get("id") != "tail" for r in records)
        assert _by_id(cut) == _by_id(whole)


class _Echo:
    """A dispatcher that answers every spec line at once."""

    def submit(self, msg, respond):
        respond({"id": msg.get("id"), "ok": True})

    async def drain(self):
        pass


async def _no_status():
    return {}


async def _shutdown_racing_connects(address: Address, burst: int = 8) -> None:
    """Serve on ``address``; from a thread, send a shutdown op and at
    once open a burst of connections, so the server accepts some of
    them in the loop iterations around its teardown."""
    loop = asyncio.get_running_loop()
    bound = loop.create_future()
    server = asyncio.ensure_future(
        serve_jsonl(
            address,
            make_dispatcher=_Echo,
            status_fn=_no_status,
            on_bound=bound.set_result,
        )
    )
    at = await bound

    def _clients():
        socks = [connect(at, timeout=10.0)]
        try:
            socks[0].sendall(encode_record({"op": "shutdown"}))
            for _ in range(burst):
                try:
                    socks.append(connect(at, timeout=10.0))
                except OSError:
                    break  # the listener is gone
        finally:
            for sock in socks:
                sock.close()

    await asyncio.gather(server, asyncio.to_thread(_clients))


class TestShutdownRacingConnects:
    @pytest.mark.parametrize("transport", ["unix", "tcp"])
    def test_connects_racing_a_shutdown_leak_nothing(self, tmp_path, transport):
        """A connection accepted just before the teardown closes the
        server still attaches and is closed: 50 rounds of connects
        racing a shutdown op leave no unclosed transport or socket."""
        if transport == "unix":
            address = Address.unix(str(tmp_path / "race.sock"))
        else:
            address = Address.tcp("127.0.0.1", 0)
        unraisable = []
        previous_hook = sys.unraisablehook
        sys.unraisablehook = unraisable.append
        try:
            with warnings.catch_warnings(record=True) as warned:
                warnings.simplefilter("always", ResourceWarning)
                for _ in range(50):
                    asyncio.run(_shutdown_racing_connects(address))
                    gc.collect()
        finally:
            sys.unraisablehook = previous_hook
        leaks = [str(w.message) for w in warned if w.category is ResourceWarning]
        assert not leaks, leaks[:3]
        assert not unraisable, [str(u.exc_value) for u in unraisable[:3]]


class TestStaleUnixSocket:
    def test_stale_socket_file_is_reclaimed(self, tmp_path):
        """A dead server's leftover socket file must not block a new
        bind (the SIGKILLed-shard respawn path depends on this)."""
        import socket as socketmod

        path = str(tmp_path / "stale.sock")
        dead = socketmod.socket(socketmod.AF_UNIX, socketmod.SOCK_STREAM)
        dead.bind(path)
        dead.close()  # bound but never listening: connect will be refused
        assert os.path.exists(path)

        async def _bind_and_close():
            server, bound = await start_line_server(
                lambda r, w: None, Address.unix(path)
            )
            server.close()
            await server.wait_closed()
            return bound

        bound = asyncio.run(_bind_and_close())
        assert bound.path == path

    def test_live_server_is_not_clobbered(self, tmp_path):
        path = str(tmp_path / "live.sock")
        service = SolveService(method="sequential", backend="serial")
        ready = {}

        def _run():
            async def main():
                ev = asyncio.Event()
                task = asyncio.ensure_future(
                    serve(service, Address.unix(path), ready=ev)
                )
                await ev.wait()
                ready["loop"] = asyncio.get_running_loop()
                # Second bind on the same path must fail loudly while
                # the first server is alive.
                with pytest.raises(ReproError, match="live server"):
                    await start_line_server(lambda r, w: None, Address.unix(path))
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass

            asyncio.run(main())

        _run()


class TestServeCleanupPaths:
    def test_ready_failure_after_bind_unlinks_socket_and_closes_service(
        self, tmp_path
    ):
        """The PR 5 satellite fix: startup failing *after* the bind
        (here: the ready notification raising) must still unlink the
        socket file and close the service."""
        path = str(tmp_path / "fail.sock")
        service = SolveService(method="sequential", backend="serial")

        class ExplodingReady:
            def set(self):
                raise RuntimeError("startup interrupted")

        with pytest.raises(RuntimeError, match="startup interrupted"):
            asyncio.run(serve(service, Address.unix(path), ready=ExplodingReady()))
        assert not os.path.exists(path), "stale socket file left behind"
        assert service._closed, "service pools/store not released"

    def test_on_bound_failure_after_bind_unlinks_socket(self, tmp_path):
        path = str(tmp_path / "fail2.sock")
        service = SolveService(method="sequential", backend="serial")

        def boom(addr):
            raise OSError("no stdout to announce on")

        with pytest.raises(OSError):
            asyncio.run(serve(service, Address.unix(path), on_bound=boom))
        assert not os.path.exists(path)
        assert service._closed


class TestTcpServer:
    @pytest.fixture()
    def tcp_server(self):
        service = SolveService(method="huang", backend="thread", workers=2)
        bound = {}
        got_addr = threading.Event()

        def _on_bound(addr):
            bound["addr"] = addr
            got_addr.set()

        done = {}

        def _run():
            done["served"] = asyncio.run(
                serve_tcp(service, "127.0.0.1", 0, on_bound=_on_bound)
            )

        thread = threading.Thread(target=_run, daemon=True)
        thread.start()
        assert got_addr.wait(10.0), "TCP server did not come up"
        yield bound["addr"], service
        if thread.is_alive():
            try:
                with ServiceClient(tcp=bound["addr"].describe()) as client:
                    client.shutdown()
            except OSError:
                pass
            thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_tcp_roundtrip_matches_unix_semantics(self, tcp_server):
        addr, service = tcp_server
        with ServiceClient(tcp=addr.describe()) as client:
            records = client.request_many([
                {"dims": [30, 35, 15, 5, 10, 20, 25]},
                {"dims": [30, 35, 15, 5, 10, 20, 25]},
                {"weights": [3, 9, 2, 7], "algebra": "minimax"},
            ])
            assert [r["ok"] for r in records] == [True, True, True]
            assert records[0]["value"] == 15125.0
            assert records[1]["source"] in ("coalesced", "cache")
            assert records[2]["value"] == 14.0
            status = client.status()
            assert status["backend"]["backend"] == "thread"

    def test_ephemeral_port_resolved(self, tcp_server):
        addr, _ = tcp_server
        assert addr.kind == "tcp" and addr.port > 0

    def test_shutdown_closes_service(self, tcp_server):
        addr, service = tcp_server
        with ServiceClient(tcp=addr.describe()) as client:
            client.shutdown()
        deadline = time.monotonic() + 10.0
        while not service._closed and time.monotonic() < deadline:
            time.sleep(0.02)
        assert service._closed


class TestServiceClientAddressing:
    def test_requires_exactly_one_address(self):
        with pytest.raises(ReproError, match="exactly one"):
            ServiceClient()
        with pytest.raises(ReproError, match="exactly one"):
            ServiceClient("/tmp/x.sock", tcp="127.0.0.1:1")

    def test_connect_refused_surfaces_as_oserror(self, tmp_path):
        with pytest.raises(OSError):
            ServiceClient(str(tmp_path / "absent.sock"))
        with pytest.raises(OSError):
            # Port 1 on loopback: nothing listens there.
            ServiceClient(tcp="127.0.0.1:1", timeout=2.0)


def test_sync_connect_tcp_and_unix(tmp_path):
    """transport.connect() serves both kinds behind one call."""
    path = str(tmp_path / "conn.sock")
    service = SolveService(method="sequential", backend="serial")
    ready = threading.Event()
    done = {}

    def _run():
        async def main():
            ev = asyncio.Event()
            task = asyncio.ensure_future(
                serve(service, Address.unix(path), ready=ev, max_requests=1)
            )
            await ev.wait()
            ready.set()
            done["served"] = await task

        asyncio.run(main())

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    assert ready.wait(10.0)
    sock = connect(Address.unix(path), timeout=10.0)
    try:
        sock.sendall(encode_record({"dims": [10, 20, 5, 30], "id": 9}))
        line = sock.makefile("r").readline()
    finally:
        sock.close()
    record = json.loads(line)
    assert record["id"] == 9 and record["value"] == 2500.0
    thread.join(timeout=10.0)
    assert done["served"] == 1
