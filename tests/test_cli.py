"""Unit tests for the command-line interface."""

import json
import os
import time

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.family == "chain" and args.method == "huang-banded"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestSolveCommand:
    def test_dims_chain(self, capsys):
        rc = main(["solve", "--dims", "30,35,15,5,10,20,25", "--method", "huang"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "15125" in out
        assert "iters" in out

    def test_sequential_no_iters(self, capsys):
        rc = main(["solve", "--family", "generic", "--n", "8", "--method", "sequential"])
        out = capsys.readouterr().out
        assert rc == 0 and "value" in out and "iters" not in out

    @pytest.mark.parametrize(
        "family", ["chain", "bst", "polygon", "generic", "bottleneck", "reliability"]
    )
    def test_all_families(self, family, capsys):
        rc = main(["solve", "--family", family, "--n", "8", "--method", "huang-banded"])
        assert rc == 0
        assert "value" in capsys.readouterr().out

    def test_algebra_option(self, capsys):
        rc = main(
            [
                "solve",
                "--dims",
                "30,35,15,5,10,20,25",
                "--method",
                "huang",
                "--algebra",
                "minimax",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "algebra : minimax" in out
        assert "5250" in out  # the CLRS chain's bottleneck optimum

    def test_min_plus_output_unchanged(self, capsys):
        """The default algebra must not add an algebra line (output
        compatibility with pre-algebra scripts)."""
        rc = main(["solve", "--dims", "2,3,4", "--method", "sequential"])
        out = capsys.readouterr().out
        assert rc == 0 and "algebra" not in out

    def test_unknown_algebra_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--algebra", "tropical-typo"])

    def test_family_preferred_algebra_used_by_default(self, capsys):
        """Without --algebra, the bottleneck family resolves to its
        preferred minimax objective (and says so)."""
        rc = main(["solve", "--family", "bottleneck", "--n", "8", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0 and "algebra : minimax" in out

    def test_tree_flag(self, capsys):
        rc = main(["solve", "--dims", "2,3,4", "--method", "sequential", "--tree"])
        out = capsys.readouterr().out
        assert rc == 0 and "(0,2)" in out

    def test_trace_flag(self, capsys):
        rc = main(["solve", "--family", "chain", "--n", "6", "--method", "huang", "--trace"])
        out = capsys.readouterr().out
        assert rc == 0 and "w'(0,n)" in out

    def test_policy_option(self, capsys):
        rc = main(
            [
                "solve",
                "--family",
                "chain",
                "--n",
                "10",
                "--method",
                "huang-banded",
                "--policy",
                "w-stable",
            ]
        )
        assert rc == 0


class TestPebbleCommand:
    def test_zigzag(self, capsys):
        rc = main(["pebble", "--shape", "zigzag", "--n", "256"])
        out = capsys.readouterr().out
        assert rc == 0 and "22 moves" in out and "bound 32" in out

    def test_complete_with_trace(self, capsys):
        rc = main(["pebble", "--shape", "complete", "--n", "32", "--trace"])
        out = capsys.readouterr().out
        assert rc == 0 and "pebbling game" in out

    def test_random_rytter(self, capsys):
        rc = main(["pebble", "--shape", "random", "--n", "64", "--rule", "rytter"])
        assert rc == 0


class TestCostsCommand:
    def test_table(self, capsys):
        rc = main(["costs", "--n", "16", "64"])
        out = capsys.readouterr().out
        assert rc == 0 and "rytter" in out and "n = 64" in out


class TestAverageCommand:
    def test_runs(self, capsys):
        rc = main(["average", "--n-max", "64", "--samples", "5"])
        out = capsys.readouterr().out
        assert rc == 0 and "log2" in out


class TestBatchCommand:
    def _write_specs(self, tmp_path, lines):
        path = tmp_path / "specs.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_heterogeneous_batch(self, tmp_path, capsys):
        path = self._write_specs(
            tmp_path,
            [
                '{"dims": [30, 35, 15, 5, 10, 20, 25], "method": "huang"}',
                '{"family": "bst", "n": 6, "seed": 1, "method": "huang-banded"}',
                '{"family": "polygon", "n": 8, "seed": 2}',
                '{"family": "generic", "n": 7, "seed": 3, "method": "huang-compact"}',
            ],
        )
        rc = main(["batch", "--input", path, "--backend", "thread"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "15125" in out and "4 problems, 0 failed" in out

    def test_jsonl_output_and_error_isolation(self, tmp_path, capsys):
        import json

        path = self._write_specs(
            tmp_path,
            [
                '{"dims": [10, 20, 5, 30], "method": "huang"}',
                "this is not json",
                '{"family": "chain", "n": 50, "method": "huang", "max_n": 8}',
            ],
        )
        rc = main(["batch", "--input", path, "--jsonl"])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rc == 1  # failures present
        assert records[0]["value"] == 2500.0 and records[0]["error"] is None
        assert records[1]["error"] is not None
        assert "max_n" in records[2]["error"]
        assert [r["line"] for r in records] == [1, 2, 3]

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO('{"dims": [2, 3, 4]}\n')
        )
        rc = main(["batch", "--backend", "serial"])
        out = capsys.readouterr().out
        assert rc == 0 and "24" in out

    def test_process_backend(self, tmp_path, capsys):
        path = self._write_specs(
            tmp_path,
            ['{"dims": [10, 20, 5, 30], "method": "huang"}'] * 3,
        )
        rc = main(["batch", "--input", path, "--backend", "process", "--max-workers", "2"])
        out = capsys.readouterr().out
        assert rc == 0 and out.count("2500") == 3

    def test_unknown_method_line_is_isolated(self, capsys, monkeypatch):
        """A bad per-line method becomes an in-place error record; the
        rest of the batch still solves (the error-isolation contract)."""
        import io
        import json

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                '{"dims": [2, 3, 4], "method": "bogus"}\n'
                '{"dims": [10, 20, 5, 30], "method": "huang"}\n'
            ),
        )
        rc = main(["batch", "--jsonl", "--backend", "serial"])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rc == 1
        assert "unknown method" in records[0]["error"]
        assert records[1]["value"] == 2500.0

    def test_typoed_spec_key_is_rejected(self, capsys, monkeypatch):
        """A spec with no recognized problem key (e.g. 'dmis' typo) must
        become an error record, never a silently-solved random default."""
        import io
        import json

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                '{"dmis": [30, 35, 15]}\n'
                '{"family": "nonsense", "n": 5}\n'
                '{"dims": [2, 3, 4]}\n'
            ),
        )
        rc = main(["batch", "--jsonl", "--backend", "serial"])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rc == 1
        assert "must contain one of" in records[0]["error"]
        assert "unknown family" in records[1]["error"]
        assert records[2]["value"] == 24.0

    def test_batch_algebra_default_and_per_spec_override(self, capsys, monkeypatch):
        """``repro batch --algebra`` sets the batch default; per-spec
        ``algebra`` keys override it; values come back decoded."""
        import io
        import json

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                '{"dims": [30, 35, 15, 5, 10, 20, 25]}\n'
                '{"dims": [30, 35, 15, 5, 10, 20, 25], "algebra": "min_plus"}\n'
                '{"weights": [7, 2, 9, 4, 8], "algebra": "minimax", "method": "huang"}\n'
            ),
        )
        rc = main(["batch", "--jsonl", "--backend", "serial", "--algebra", "max_plus"])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rc == 0
        assert records[0]["value"] == 58000.0  # max_plus (batch default)
        assert records[1]["value"] == 15125.0  # per-spec min_plus override
        assert records[2]["error"] is None

    def test_batch_bad_algebra_spec_is_isolated(self, capsys, monkeypatch):
        """An unknown per-spec algebra fails inside the solve worker and
        is reported in place; the rest of the batch still solves."""
        import io
        import json

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                '{"dims": [2, 3, 4], "algebra": "tropical-typo"}\n'
                '{"dims": [10, 20, 5, 30], "method": "huang-compact"}\n'
            ),
        )
        rc = main(["batch", "--jsonl", "--backend", "serial"])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rc == 1
        assert "unknown algebra" in records[0]["error"]
        assert records[1]["value"] == 2500.0

    def test_explicit_bottleneck_and_reliability_specs(self, capsys, monkeypatch):
        import io
        import json

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(
                '{"weights": [3, 9, 2, 7], "algebra": "minimax"}\n'
                '{"connectors": [0.9, 0.8], "leaves": [0.99, 0.95, 0.97], '
                '"algebra": "maxmin"}\n'
            ),
        )
        rc = main(["batch", "--jsonl", "--backend", "serial"])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rc == 0
        assert records[0]["value"] == 14.0  # min over trees of the max split
        assert records[1]["value"] == 0.8  # the weakest usable connector

    def test_invalid_max_workers_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch", "--max-workers", "0"])


class TestAlgebrasCommand:
    def test_lists_all_registered_algebras(self, capsys):
        from repro.core import list_algebras

        rc = main(["algebras"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in list_algebras():
            assert name in out
        assert "combine" in out and "extend" in out


class TestSolveBackendOption:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_backend_matches_serial(self, backend, capsys):
        rc = main(
            [
                "solve",
                "--dims",
                "30,35,15,5,10,20,25",
                "--method",
                "huang",
                "--backend",
                backend,
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0 and "15125" in out

    def test_compact_method_choice(self, capsys):
        rc = main(
            ["solve", "--family", "generic", "--n", "9", "--method", "huang-compact"]
        )
        assert rc == 0 and "value" in capsys.readouterr().out

    def test_invalid_workers_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["solve", "--dims", "2,3,4", "--workers", "0"]
            )

    def test_start_method_solve(self, capsys):
        rc = main(
            [
                "solve",
                "--dims",
                "30,35,15,5,10,20,25",
                "--method",
                "huang",
                "--backend",
                "process",
                "--workers",
                "2",
                "--start-method",
                "fork",
            ]
        )
        assert rc == 0 and "15125" in capsys.readouterr().out

    def test_unknown_start_method_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["solve", "--backend", "process", "--start-method", "greenlet"]
            )

    def test_start_method_not_silently_dropped_for_sequential(self):
        """Execution flags reach solve() for every method, so a
        start-method without the process backend errors instead of
        being ignored (regression: the CLI forwarded them only for
        iterative methods)."""
        from repro.errors import InvalidProblemError

        with pytest.raises(InvalidProblemError, match="process"):
            main(
                [
                    "solve",
                    "--dims",
                    "2,3,4",
                    "--method",
                    "sequential",
                    "--start-method",
                    "spawn",
                ]
            )


class TestPlanCommand:
    def test_prints_compiled_schedule(self, capsys):
        rc = main(["plan", "--family", "chain", "--n", "12", "--method", "huang"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "plan: HuangSolver" in out
        assert "activate" in out and "square" in out and "pebble" in out
        assert "DenseSquareKernel" in out

    def test_process_backend_plan_reports_store(self, capsys):
        rc = main(
            [
                "plan",
                "--dims",
                "10,20,5,30",
                "--method",
                "huang-banded",
                "--backend",
                "process",
                "--workers",
                "2",
                "--tiles",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "shared-memory store" in out
        assert "commit buffers" in out

    def test_sequential_method_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--method", "sequential"])

    def test_batch_start_method_flag_parses(self):
        args = build_parser().parse_args(
            ["batch", "--backend", "process", "--start-method", "fork"]
        )
        assert args.start_method == "fork"


class TestServeRequestCommands:
    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve", "--socket", "/tmp/x.sock", "--backend", "thread",
                "--workers", "2", "--batch-window-ms", "2.5",
                "--max-batch", "8", "--cache-mb", "16", "--max-requests", "4",
            ]
        )
        assert args.socket == "/tmp/x.sock"
        assert args.batch_window_ms == 2.5
        assert args.max_batch == 8 and args.max_requests == 4

    def test_request_flags_parse(self):
        args = build_parser().parse_args(
            ["request", "--socket", "s.sock", "--input", "in.jsonl", "--shutdown"]
        )
        assert args.shutdown and args.input == "in.jsonl"

    def test_request_without_server_fails_cleanly(self, capsys, tmp_path):
        rc = main(["request", "--socket", str(tmp_path / "absent.sock"), "--status"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "cannot connect" in err

    def test_serve_then_request_roundtrip(self, tmp_path, capsys):
        import json
        import threading

        socket_path = str(tmp_path / "cli.sock")
        spec_file = tmp_path / "reqs.jsonl"
        spec_file.write_text(
            '{"dims": [10, 20, 5, 30], "method": "huang-banded"}\n'
            '{"dims": [3, 7, 2]}\n'
        )
        server = threading.Thread(
            target=main,
            args=(
                [
                    "serve", "--socket", socket_path, "--backend", "serial",
                    "--method", "sequential", "--batch-window-ms", "1",
                    "--max-requests", "2",
                ],
            ),
            daemon=True,
        )
        server.start()
        deadline = time.monotonic() + 10.0
        while not os.path.exists(socket_path):
            assert time.monotonic() < deadline, "serve did not come up"
            time.sleep(0.02)
        rc = main(["request", "--socket", socket_path, "--input", str(spec_file)])
        out = capsys.readouterr().out
        server.join(timeout=10.0)
        assert rc == 0 and not server.is_alive()
        records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        assert [r["value"] for r in records] == [2500.0, 42.0]

    def test_cache_dir_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--cache-dir", "/tmp/l2", "--delta-max-dirty", "0.25"]
        )
        assert args.cache_dir == "/tmp/l2" and args.delta_max_dirty == 0.25
        args = build_parser().parse_args(["fleet", "--cache-dir", "/tmp/l2"])
        assert args.cache_dir == "/tmp/l2"

    def test_serve_cache_dir_survives_server_restart(self, tmp_path, capsys):
        """Two separate `repro serve` lifetimes on one --cache-dir: the
        second serves the first's solve from the L2 tier (source=cache)
        without re-solving."""
        import json
        import threading

        cache_dir = str(tmp_path / "l2")
        spec_file = tmp_path / "req.jsonl"
        spec_file.write_text('{"dims": [10, 20, 5, 30], "method": "sequential"}\n')
        sources = []
        for incarnation in range(2):
            socket_path = str(tmp_path / f"cli-l2-{incarnation}.sock")
            server = threading.Thread(
                target=main,
                args=(
                    [
                        "serve", "--socket", socket_path, "--backend", "serial",
                        "--method", "sequential", "--batch-window-ms", "1",
                        "--cache-dir", cache_dir, "--max-requests", "1",
                    ],
                ),
                daemon=True,
            )
            server.start()
            deadline = time.monotonic() + 10.0
            while not os.path.exists(socket_path):
                assert time.monotonic() < deadline, "serve did not come up"
                time.sleep(0.02)
            rc = main(["request", "--socket", socket_path, "--input", str(spec_file)])
            out = capsys.readouterr().out
            server.join(timeout=10.0)
            assert rc == 0 and not server.is_alive()
            record = next(
                json.loads(line) for line in out.splitlines() if line.startswith("{")
            )
            assert record["ok"] and record["value"] == 2500.0
            sources.append(record["source"])
        assert sources == ["batch", "cache"]

    def test_request_isolates_bad_input_lines(self, tmp_path, capsys):
        import json
        import threading

        socket_path = str(tmp_path / "iso.sock")
        spec_file = tmp_path / "mixed.jsonl"
        spec_file.write_text(
            "not json at all\n"
            "[1, 2]\n"
            '{"dims": [10, 20, 5, 30]}\n'
        )
        server = threading.Thread(
            target=main,
            args=(
                [
                    "serve", "--socket", socket_path, "--backend", "serial",
                    "--batch-window-ms", "1", "--max-requests", "1",
                ],
            ),
            daemon=True,
        )
        server.start()
        deadline = time.monotonic() + 10.0
        while not os.path.exists(socket_path):
            assert time.monotonic() < deadline, "serve did not come up"
            time.sleep(0.02)
        rc = main(["request", "--socket", socket_path, "--input", str(spec_file)])
        out = capsys.readouterr().out
        server.join(timeout=10.0)
        records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        assert rc == 1 and len(records) == 3
        assert [r["ok"] for r in records] == [False, False, True]
        assert "line 1" in records[0]["error"]
        assert "JSON object" in records[1]["error"]
        assert records[2]["value"] == 2500.0


class TestFleetAndTransportCommands:
    def test_fleet_flags_parse(self):
        args = build_parser().parse_args(
            [
                "fleet", "--shards", "3", "--socket", "/tmp/f.sock",
                "--backend", "serial", "--workers", "2",
                "--batch-window-ms", "2", "--max-batch", "8",
                "--cache-mb", "16", "--max-requests", "5",
            ]
        )
        assert args.shards == 3 and args.socket == "/tmp/f.sock"
        assert args.backend == "serial" and args.max_requests == 5

    def test_load_factor_defaults_to_inf_and_router_is_gone(self, capsys):
        parser = build_parser()
        for command in ("fleet", "loadtest"):
            assert parser.parse_args([command]).load_factor == float("inf")
            args = parser.parse_args([command, "--load-factor", "1.25"])
            assert args.load_factor == 1.25
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--router", "ring"])
        assert "--router" in capsys.readouterr().err

    def test_fleet_refuses_a_sub_one_load_factor(self, tmp_path, capsys):
        sock = str(tmp_path / "f.sock")
        assert main(["fleet", "--load-factor", "0.5", "--socket", sock]) == 2
        assert "load_factor" in capsys.readouterr().err
        assert not os.path.exists(sock)

    def test_serve_tcp_flag_parses(self):
        args = build_parser().parse_args(["serve", "--tcp", "127.0.0.1:7466"])
        assert args.tcp == "127.0.0.1:7466"

    def test_request_fleet_flag_parses(self):
        args = build_parser().parse_args(["request", "--fleet", "4"])
        assert args.fleet == 4

    def test_request_through_ephemeral_fleet(self, tmp_path, capsys):
        import json

        spec_file = tmp_path / "reqs.jsonl"
        spec_file.write_text(
            '{"dims": [10, 20, 5, 30], "method": "huang-banded"}\n'
            "not json\n"
            '{"dims": [3, 7, 2]}\n'
        )
        rc = main(["request", "--fleet", "2", "--input", str(spec_file)])
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        assert rc == 1  # the bad line is reported as a failure
        assert len(records) == 3
        assert [r["ok"] for r in records] == [True, False, True]
        assert records[0]["value"] == 2500.0
        assert records[2]["value"] == 42.0

    def test_serve_then_request_over_tcp(self, capsys):
        import json
        import threading

        server = threading.Thread(
            target=main,
            args=(
                [
                    "serve", "--tcp", "127.0.0.1:0", "--backend", "serial",
                    "--method", "sequential", "--batch-window-ms", "1",
                    "--max-requests", "1",
                ],
            ),
            daemon=True,
        )
        server.start()
        # The ephemeral port is printed on the listening banner.
        deadline = time.monotonic() + 10.0
        port = None
        while port is None and time.monotonic() < deadline:
            out = capsys.readouterr().out
            for line in out.splitlines():
                if "listening on" in line:
                    port = int(line.rsplit(":", 1)[1])
            time.sleep(0.02)
        assert port, "serve --tcp never announced its port"
        import io
        import sys as _sys

        stdin_backup = _sys.stdin
        _sys.stdin = io.StringIO('{"dims": [10, 20, 5, 30]}\n')
        try:
            rc = main(["request", "--tcp", f"127.0.0.1:{port}"])
        finally:
            _sys.stdin = stdin_backup
        server.join(timeout=10.0)
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        assert rc == 0 and not server.is_alive()
        assert records and records[0]["value"] == 2500.0


class TestServeStaleSocketFix:
    def test_startup_failure_after_bind_unlinks_socket(self, tmp_path, monkeypatch):
        """The PR 5 satellite fix at the CLI level: `repro serve` whose
        startup fails *after* the bind (stdout gone when the listening
        banner prints) must not leave the socket file behind."""
        import sys as _sys

        socket_path = tmp_path / "stale.sock"

        class ExplodingStdout:
            def write(self, text):
                raise RuntimeError("stdout is gone")

            def flush(self):
                pass

        monkeypatch.setattr(_sys, "stdout", ExplodingStdout())
        with pytest.raises(RuntimeError, match="stdout is gone"):
            main([
                "serve", "--socket", str(socket_path), "--backend", "serial",
                "--batch-window-ms", "1",
            ])
        assert not socket_path.exists(), "stale socket file left behind"

    def test_stale_socket_from_a_dead_server_is_reclaimed(self, tmp_path):
        """A leftover socket file (SIGKILLed predecessor) must not stop
        the next `repro serve` from binding."""
        import json
        import socket as socketmod
        import threading

        socket_path = str(tmp_path / "reuse.sock")
        corpse = socketmod.socket(socketmod.AF_UNIX, socketmod.SOCK_STREAM)
        corpse.bind(socket_path)
        corpse.close()
        assert os.path.exists(socket_path)

        server = threading.Thread(
            target=main,
            args=(
                [
                    "serve", "--socket", socket_path, "--backend", "serial",
                    "--batch-window-ms", "1", "--max-requests", "1",
                ],
            ),
            daemon=True,
        )
        server.start()
        from repro.service import ServiceClient

        deadline = time.monotonic() + 10.0
        client = None
        while client is None:
            try:
                client = ServiceClient(socket_path)
            except OSError:
                assert time.monotonic() < deadline, "serve did not reclaim the socket"
                time.sleep(0.02)
        with client:
            record = client.request({"dims": [10, 20, 5, 30]})
        server.join(timeout=10.0)
        assert record["ok"] and record["value"] == 2500.0
        assert not server.is_alive()

    def test_malformed_tcp_address_fails_cleanly(self, capsys):
        assert main(["request", "--tcp", "garbage"]) == 2
        assert main(["serve", "--tcp", "host:"]) == 2
        err = capsys.readouterr().err
        assert "malformed TCP address" in err
        assert "Traceback" not in err

    def test_serve_refuses_socket_with_live_server(self, tmp_path, capsys):
        import threading

        socket_path = str(tmp_path / "busy.sock")
        first = threading.Thread(
            target=main,
            args=(
                [
                    "serve", "--socket", socket_path, "--backend", "serial",
                    "--batch-window-ms", "1", "--max-requests", "1",
                ],
            ),
            daemon=True,
        )
        first.start()
        deadline = time.monotonic() + 10.0
        while not os.path.exists(socket_path):
            assert time.monotonic() < deadline
            time.sleep(0.02)
        # Second serve on the same live socket: clean exit 2, no traceback,
        # and the live server's socket file is left alone.
        rc = main([
            "serve", "--socket", socket_path, "--backend", "serial",
            "--batch-window-ms", "1",
        ])
        assert rc == 2
        assert "live server" in capsys.readouterr().err
        assert os.path.exists(socket_path), "second serve clobbered the live socket"
        from repro.service import ServiceClient

        with ServiceClient(socket_path) as client:
            assert client.request({"dims": [10, 20, 5, 30]})["value"] == 2500.0
        first.join(timeout=10.0)
        assert not first.is_alive()

    def test_request_fleet_refuses_explicit_server_address(self, capsys):
        assert main(["request", "--fleet", "2", "--tcp", "h:1"]) == 2
        assert main(["request", "--fleet", "2", "--socket", "/tmp/other.sock"]) == 2
        err = capsys.readouterr().err
        assert "cannot be combined" in err


class TestTraceLoadtestCommands:
    def test_trace_flags_parse(self):
        args = build_parser().parse_args(
            ["trace", "--arrival", "bursty", "--rate", "120", "--count", "50"]
        )
        assert args.arrival == "bursty" and args.rate == 120.0
        assert args.popularity == "zipf" and args.output == "-"

    def test_loadtest_flags_parse(self):
        args = build_parser().parse_args(
            ["loadtest", "--target", "fleet", "--shards", "3", "--slo-ms", "25"]
        )
        assert args.target == "fleet" and args.shards == 3 and args.slo_ms == 25.0
        assert args.mode == "auto" and args.backend == "process"

    def test_trace_stdout_is_deterministic(self, capsys):
        argv = ["trace", "--count", "8", "--pool", "3", "--seed", "42"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        header = json.loads(first.splitlines()[0])
        assert header["format"] == "repro-trace" and header["count"] == 8

    def test_trace_writes_file_loadtest_replays_it(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.jsonl")
        assert main([
            "trace", "--arrival", "closed", "--count", "10", "--pool", "3",
            "--n", "10", "--output", trace_path,
        ]) == 0
        capsys.readouterr()
        records_path = str(tmp_path / "records.jsonl")
        rc = main([
            "loadtest", "--trace", trace_path, "--backend", "serial",
            "--slo-ms", "500", "--records", records_path,
        ])
        out = capsys.readouterr().out
        assert rc == 0
        summary = json.loads(out)
        assert summary["requests"] == 10
        assert summary["dropped"] == 0 and summary["failed"] == 0
        assert summary["mode"] == "closed"
        assert summary["slo"]["threshold_ms"] == 500.0
        records = [json.loads(line) for line in open(records_path)]
        assert len(records) == 10 and all(r["ok"] for r in records)

    @pytest.mark.parametrize(
        "extra, routes",
        [([], {"ring"}), (["--load-factor", "1.0"], {"ring", "spill", "affinity"})],
        ids=["inf", "1.0"],
    )
    def test_loadtest_fleet_honours_the_load_factor(self, extra, routes, capsys):
        """One hot key replayed closed over two shards: the default
        factor keeps it on its owner; 1.0 spills its repeats."""
        rc = main([
            "loadtest", "--arrival", "closed", "--count", "6", "--pool", "1",
            "--n", "8", "--backend", "serial", "--target", "fleet",
            "--shards", "2", *extra,
        ])
        summary = json.loads(capsys.readouterr().out)
        assert rc == 0 and summary["target"] == "fleet:2"
        assert set(summary["by_route"]) == routes

    def test_loadtest_generates_when_no_trace_given(self, capsys):
        rc = main([
            "loadtest", "--arrival", "closed", "--count", "6", "--pool", "2",
            "--n", "8", "--backend", "serial",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        summary = json.loads(out)
        assert summary["requests"] == 6 and summary["target"] == "local"
