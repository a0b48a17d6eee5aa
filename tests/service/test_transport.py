"""The shared service transport: addresses, framing, TCP serving, and
the unlink-on-every-exit-path guarantees of serve()."""

import asyncio
import json
import os
import threading
import time

import pytest

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


@pytest.fixture(params=["serve", "serve_fleet"])
def jsonl_server(request, tmp_path):
    """A live ``repro serve`` or ``repro fleet`` front end on a unix
    socket; yields its path and shuts it down afterwards."""
    path = str(tmp_path / "front.sock")
    router = None
    if request.param == "serve":
        service = SolveService(method="sequential", backend="serial")
        main = serve(service, Address.unix(path))
    else:
        router = FleetRouter(1, backend="serial", method="sequential").start()
        main = serve_fleet(router, Address.unix(path))
    thread = threading.Thread(target=asyncio.run, args=(main,), daemon=True)
    thread.start()
    try:
        deadline = time.monotonic() + 10.0
        while not os.path.exists(path):
            assert time.monotonic() < deadline, "server did not come up"
            time.sleep(0.02)
        yield path
        with ServiceClient(path) as client:
            client.shutdown()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
    finally:
        if router is not None:
            router.close()


class TestHostileLines:
    def test_every_line_gets_one_record_in_order(self, jsonl_server):
        """An over-limit line and a too-deeply nested line each get one
        error record, and the connection keeps serving the line after
        them."""
        oversized = b'{"dims": [' + b", ".join([b"7"] * 30000) + b"]}\n"
        assert len(oversized) > MAX_LINE_BYTES + 1
        nested = b"[" * 20000 + b"]" * 20000 + b"\n"
        valid = encode_record({"dims": [10, 20, 5, 30], "id": 3})
        sock = connect(Address.unix(jsonl_server), timeout=30.0)
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
