"""Unit tests for the command-line interface."""

import argparse
import json
import os
import time

import pytest

from repro.cli import build_parser, main

#: Every subcommand's option strings (besides -h/--help). The shared
#: options are declared once in a table; this pins what each command
#: takes from it.
COMMAND_OPTIONS = {
    "solve": "--family --n --seed --dims --method --policy --algebra --backend "
    "--workers --tree --trace",
    "batch": "--input --method --algebra --backend --start-method --max-workers "
    "--jsonl",
    "plan": "--family --n --seed --dims --method --algebra --backend "
    "--workers --tiles",
    "serve": "--socket --tcp --method --backend --start-method --workers "
    "--max-batch --cache-mb --cache-dir --max-requests",
    "fleet": "--shards --min-shards --max-shards --socket --tcp "
    "--method --backend --start-method --workers --max-batch --cache-mb "
    "--cache-dir --state-dir --max-requests",
    "request": "--socket --tcp --fleet --input --status --shutdown",
    "trace": "--arrival --rate --count --popularity --pool --zipf-s "
    "--burst-factor --burst-enter --burst-exit --family --n --method --seed "
    "--output",
    "loadtest": "--arrival --rate --count --popularity --pool --zipf-s "
    "--burst-factor --burst-enter --burst-exit --family --n --method --seed "
    "--trace --target --socket --tcp --shards --mode --speed "
    "--timeout --slo-ms --backend --workers --records --with-status",
    "algebras": "",
    "pebble": "--shape --n --seed --rule --trace",
    "costs": "--n",
    "average": "--n-max --samples --seed",
}

#: The defaults that differ by command. An unset ``request --socket``
#: means ./repro.sock, so that ``--fleet`` can refuse an explicit one;
#: an unset ``--backend`` leaves the choice to the execution table.
COMMAND_DEFAULTS = {
    "backend": {
        "solve": None,
        "plan": None,
        "batch": None,
        "serve": "process",
        "fleet": "process",
        "loadtest": "process",
    },
    "method": {
        "solve": "huang-banded",
        "plan": "huang-banded",
        "batch": "sequential",
        "serve": "sequential",
        "fleet": "sequential",
        "trace": None,
        "loadtest": None,
    },
    "socket": {
        "serve": "repro.sock",
        "fleet": "fleet.sock",
        "request": None,
        "loadtest": None,
    },
    "n": {
        "solve": 12,
        "plan": 12,
        "trace": 24,
        "loadtest": 24,
        "pebble": 1024,
        "costs": [16, 64, 256],
    },
}


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

    def test_each_command_keeps_its_options(self):
        parser = build_parser()
        (commands,) = [
            a.choices
            for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        assert set(commands) == set(COMMAND_OPTIONS)
        for command, sub in commands.items():
            taken = {
                flag
                for action in sub._actions
                for flag in action.option_strings
                if flag not in ("-h", "--help")
            }
            assert taken == set(COMMAND_OPTIONS[command].split()), command
        for dest, by_command in COMMAND_DEFAULTS.items():
            flag = f"--{dest}"
            takers = {c for c, opts in COMMAND_OPTIONS.items() if flag in opts.split()}
            assert set(by_command) == takers, flag
            for command, default in by_command.items():
                args = parser.parse_args([command])
                assert getattr(args, dest) == default, (command, flag)

    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_every_command_renders_help(self, command, capsys):
        """argparse %-formats help only when it renders it, so a stray
        ``%`` in a shared help text breaks every command taking it."""
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: repro {command}")


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
    @pytest.mark.parametrize("backend", ["serial", "thread"])
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

    @pytest.mark.parametrize("command", ["solve", "plan", "batch"])
    def test_the_deleted_kernel_impl_flag_exits_2(self, command, capsys):
        """The code picks the kernel tier: no command takes a flag for it."""
        with pytest.raises(SystemExit) as exit_:
            main([command, "--kernel-impl", "fused"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --kernel-impl" in capsys.readouterr().err

    @pytest.mark.parametrize("method,n", [("huang", 24), ("rytter", 16), ("rytter", 8)])
    def test_plan_prints_the_tables_choice(self, method, n, capsys):
        """With no --backend, ``repro plan`` compiles what the execution
        table picks for the method and n."""
        from repro.core.plan import choose_tier, choose_tile_backend

        rc = main(["plan", "--method", method, "--n", str(n)])
        out = capsys.readouterr().out
        assert rc == 0
        chosen = f"backend={choose_tile_backend(method, n)} tier={choose_tier(method, n)}"
        assert chosen in out

    @pytest.mark.parametrize("command", ["solve", "plan"])
    @pytest.mark.parametrize(
        "flags",
        [["--backend", "process"], ["--start-method", "fork"]],
        ids=["backend-process", "start-method"],
    )
    def test_process_tiles_exit_2(self, command, flags, capsys):
        """Sweep tiles run on serial or thread: ``solve`` and ``plan``
        refuse a process pool and its start method at the parser,
        exit 2, before any solve starts."""
        with pytest.raises(SystemExit) as exit_:
            main([command, "--dims", "30,35,15,5,10,20,25", "--method", "huang", *flags])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        if flags[0] == "--backend":
            assert "'serial'" in err and "'thread'" in err

    def test_start_method_batch(self, tmp_path, capsys):
        path = tmp_path / "specs.jsonl"
        path.write_text('{"dims": [30, 35, 15, 5, 10, 20, 25], "method": "huang"}\n')
        rc = main(
            [
                "batch",
                "--input",
                str(path),
                "--backend",
                "process",
                "--max-workers",
                "2",
                "--start-method",
                "fork",
            ]
        )
        assert rc == 0 and "15125" in capsys.readouterr().out

    def test_unknown_start_method_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["batch", "--backend", "process", "--start-method", "greenlet"]
            )

    def test_start_method_not_silently_dropped_without_a_process_pool(
        self, tmp_path, capsys
    ):
        """A start method without the process backend errors instead of
        being ignored."""
        path = tmp_path / "specs.jsonl"
        path.write_text('{"dims": [2, 3, 4]}\n')
        rc = main(
            [
                "batch",
                "--input",
                str(path),
                "--backend",
                "thread",
                "--start-method",
                "spawn",
            ]
        )
        assert rc == 2 and "process" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--family", "chain", "--method", "knuth"],
            ["plan", "--family", "chain", "--n", "400", "--method", "huang"],
            ["trace", "--count", "3", "--rate", "-5"],
            ["loadtest", "--trace", "/nonexistent-dir/t.jsonl"],
            ["trace", "--count", "3", "--output", "/nonexistent-dir/t.jsonl"],
            ["batch", "--input", "/nonexistent-dir/specs.jsonl"],
            ["solve", "--dims", "30,x,15"],
        ],
        ids=[
            "solve-knuth-chain",
            "plan-over-max-n",
            "trace-negative-rate",
            "loadtest-missing-trace",
            "trace-unwritable-output",
            "batch-missing-input",
            "solve-malformed-dims",
        ],
    )
    def test_refused_instance_answers_in_one_line(self, argv, capsys):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"{argv[0]}: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestImportFootprint:
    def test_serving_loads_no_router_and_no_harness(self):
        """A fleet shard runs ``repro serve``: importing the CLI and the
        serve command's own imports must not load the fleet router, its
        routing policy or the load harness."""
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH", "")) if p
        )
        code = (
            "import sys\n"
            "import repro.cli\n"
            "from repro.errors import ReproError\n"
            "from repro.service import SolveService, serve\n"
            "unused = ('repro.service.fleet', 'repro.service.routing',"
            " 'repro.loadgen.harness')\n"
            "print([m for m in unused if m in sys.modules])\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout
        assert out.strip() == "[]"

    def test_package_names_resolve_on_first_use(self):
        from repro.loadgen import LoadTestResult, run_loadtest
        from repro.loadgen import harness
        from repro.service import FleetRouter, fleet, routing, serve_fleet

        assert FleetRouter is fleet.FleetRouter and serve_fleet is fleet.serve_fleet
        assert LoadTestResult is harness.LoadTestResult
        assert run_loadtest is harness.run_loadtest
        assert routing.HashRing is fleet.HashRing
        with pytest.raises(ImportError):
            from repro.service import NoSuchName  # noqa: F401


class TestPlanCommand:
    def test_prints_compiled_schedule(self, capsys):
        rc = main(["plan", "--family", "chain", "--n", "12", "--method", "huang"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "plan: HuangSolver" in out
        assert "activate" in out and "square" in out and "pebble" in out
        assert "DenseSquareKernel" in out

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
                "--workers", "2", "--max-batch", "8", "--cache-mb", "16",
                "--max-requests", "4",
            ]
        )
        assert args.socket == "/tmp/x.sock"
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

    def test_serve_then_request_roundtrip(self, tmp_path, capsys, wait_until_listening):
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
                    "--method", "sequential", "--max-requests", "2",
                ],
            ),
            daemon=True,
        )
        server.start()
        wait_until_listening(socket_path, time.monotonic() + 10.0)
        rc = main(["request", "--socket", socket_path, "--input", str(spec_file)])
        out = capsys.readouterr().out
        server.join(timeout=10.0)
        assert rc == 0 and not server.is_alive()
        records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        assert [r["value"] for r in records] == [2500.0, 42.0]

    def test_cache_dir_flags_parse(self):
        args = build_parser().parse_args(["serve", "--cache-dir", "/tmp/l2"])
        assert args.cache_dir == "/tmp/l2"
        args = build_parser().parse_args(["fleet", "--cache-dir", "/tmp/l2"])
        assert args.cache_dir == "/tmp/l2"

    def test_serve_cache_dir_survives_server_restart(self, tmp_path, capsys, wait_until_listening):
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
                        "--method", "sequential",
                        "--cache-dir", cache_dir, "--max-requests", "1",
                    ],
                ),
                daemon=True,
            )
            server.start()
            wait_until_listening(socket_path, time.monotonic() + 10.0)
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

    def test_request_isolates_bad_input_lines(self, tmp_path, capsys, wait_until_listening):
        import json
        import threading

        socket_path = str(tmp_path / "iso.sock")
        spec_file = tmp_path / "mixed.jsonl"
        too_deep = "[" * 100000  # json.loads raises RecursionError on it
        spec_file.write_text(
            f"not json at all\n[1, 2]\n{too_deep}\n" '{"dims": [10, 20, 5, 30]}\n'
        )
        server = threading.Thread(
            target=main,
            args=(
                [
                    "serve", "--socket", socket_path, "--backend", "serial",
                    "--max-requests", "1",
                ],
            ),
            daemon=True,
        )
        server.start()
        wait_until_listening(socket_path, time.monotonic() + 10.0)
        rc = main(["request", "--socket", socket_path, "--input", str(spec_file)])
        out = capsys.readouterr().out
        server.join(timeout=10.0)
        records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        assert rc == 1 and len(records) == 4
        assert [r["ok"] for r in records] == [False, False, False, True]
        assert "line 1" in records[0]["error"]
        assert "JSON object" in records[1]["error"]
        assert "line 3: RecursionError" in records[2]["error"]
        assert records[3]["value"] == 2500.0


class TestFleetAndTransportCommands:
    def test_fleet_flags_parse(self):
        args = build_parser().parse_args(
            [
                "fleet", "--shards", "3", "--socket", "/tmp/f.sock",
                "--backend", "serial", "--workers", "2", "--max-batch", "8",
                "--cache-mb", "16", "--max-requests", "5",
            ]
        )
        assert args.shards == 3 and args.socket == "/tmp/f.sock"
        assert args.backend == "serial" and args.max_requests == 5

    @pytest.mark.parametrize(
        "flag, value, commands",
        [
            ("--router", "ring", ("fleet", "loadtest")),
            ("--batch-window-ms", "1", ("serve", "fleet", "loadtest")),
        ],
        ids=["router", "batch-window-ms"],
    )
    def test_removed_flag_is_rejected(self, flag, value, commands, capsys):
        parser = build_parser()
        for command in commands:
            with pytest.raises(SystemExit):
                parser.parse_args([command, flag, value])
            assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fleet", "loadtest"])
    def test_the_deleted_load_factor_flag_exits_2(self, command, tmp_path, capsys):
        """Every shard-bound request goes to its ring owner: no command
        takes a routing flag, and a refused one starts nothing."""
        sock = str(tmp_path / "f.sock")
        with pytest.raises(SystemExit) as exit_:
            main([command, "--load-factor", "1.25", "--socket", sock])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --load-factor" in capsys.readouterr().err
        assert not os.path.exists(sock)

    def test_sigint_stops_the_fleet_and_unlinks_its_socket(self, tmp_path, wait_until_listening):
        """Ctrl-C on ``repro fleet``: the front end, which runs on the
        router's own loop, closes its listener and unlinks its socket,
        the shards stop, and the exit code is 130."""
        import signal
        import subprocess
        import sys
        from pathlib import Path

        from repro.service import ServiceClient

        sock = str(tmp_path / "f.sock")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "fleet", "--shards", "1",
                "--socket", sock, "--backend", "serial", "--method", "sequential",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            wait_until_listening(sock, time.monotonic() + 60.0, proc)
            with ServiceClient(sock) as client:
                assert client.request({"dims": [3, 7, 2]})["value"] == 42.0
                pids = [s["pid"] for s in client.status()["per_shard"]]
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=60.0) == 130
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert not os.path.exists(sock), "front socket left behind"
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @staticmethod
    def _descendants(pid: int) -> list:
        """Every live process below ``pid``, read from /proc."""
        parents = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    stat = fh.read()
            except OSError:
                continue
            # the command name may hold spaces; the ppid follows the ")"
            parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
        found, frontier = [], [pid]
        while frontier:
            parent = frontier.pop()
            children = [p for p, pp in parents.items() if pp == parent]
            found += children
            frontier += children
        return found

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    @pytest.mark.parametrize(
        "command, spec",
        [
            (
                ["fleet", "--shards", "2", "--backend", "serial"],
                {"dims": [3, 7, 2]},
            ),
            (
                ["serve", "--backend", "process", "--workers", "2"],
                {"dims": [30, 35, 15, 5, 10, 20, 25], "method": "huang"},
            ),
        ],
        ids=["fleet", "serve-process"],
    )
    def test_sigterm_stops_the_server_and_cleans_up(self, tmp_path, command, spec, wait_until_listening):
        """SIGTERM stops ``repro fleet`` and ``repro serve`` the way Ctrl-C
        does: no shard or pool worker outlives the server, and its
        socket, its state directory and its shared memory are gone."""
        import signal
        import subprocess
        import sys
        from pathlib import Path

        from repro.service import ServiceClient

        sock = str(tmp_path / "s.sock")
        scratch = tmp_path / "tmp"  # the fleet's private state dir goes here
        scratch.mkdir()
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, TMPDIR=str(scratch))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH", "")) if p
        )
        shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *command, "--socket", sock,
             "--method", "sequential"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            wait_until_listening(sock, time.monotonic() + 60.0, proc)
            with ServiceClient(sock) as client:
                assert client.request(spec)["ok"]
            children = self._descendants(proc.pid)
            assert children, "no shard or pool worker to check"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60.0) == 143
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        deadline = time.monotonic() + 10.0
        while any(os.path.exists(f"/proc/{p}") for p in children):
            assert time.monotonic() < deadline, "a child outlived the server"
            time.sleep(0.05)
        assert not os.path.exists(sock), "socket left behind"
        assert list(scratch.iterdir()) == [], "state directory left behind"
        if os.path.isdir("/dev/shm"):
            assert not set(os.listdir("/dev/shm")) - shm_before, "/dev/shm residue"

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
                    "--method", "sequential", "--max-requests", "1",
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
                    "--max-requests", "1",
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

    def test_serve_refuses_socket_with_live_server(self, tmp_path, capsys, wait_until_listening):
        import threading

        socket_path = str(tmp_path / "busy.sock")
        first = threading.Thread(
            target=main,
            args=(
                [
                    "serve", "--socket", socket_path, "--backend", "serial",
                    "--max-requests", "1",
                ],
            ),
            daemon=True,
        )
        first.start()
        wait_until_listening(socket_path, time.monotonic() + 10.0)
        # Second serve on the same live socket: clean exit 2, no traceback,
        # and the live server's socket file is left alone.
        rc = main([
            "serve", "--socket", socket_path, "--backend", "serial",
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
        for address in (
            ["--tcp", "h:1"],
            ["--socket", "/tmp/other.sock"],
            ["--socket", "repro.sock"],  # the default, spelled out
        ):
            # --status: a missed refusal would start the fleet and exit 0.
            assert main(["request", "--fleet", "2", *address, "--status"]) == 2
            assert "cannot be combined" in capsys.readouterr().err


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
        with open(records_path) as fh:
            records = [json.loads(line) for line in fh]
        assert len(records) == 10 and all(r["ok"] for r in records)

    def test_loadtest_fleet_routes_to_the_ring_and_the_front(self, capsys):
        """Eight uniform draws over eight keys replayed closed over two
        shards: every first request goes to its ring owner, and the two
        repeats are answered in the front end, which places nothing."""
        rc = main([
            "loadtest", "--arrival", "closed", "--count", "8", "--pool", "8",
            "--popularity", "uniform", "--n", "8", "--backend", "serial",
            "--target", "fleet", "--shards", "2",
        ])
        summary = json.loads(capsys.readouterr().out)
        assert rc == 0 and summary["target"] == "fleet:2"
        assert set(summary["by_route"]) == {"ring", "front"}

    def test_loadtest_generates_when_no_trace_given(self, capsys):
        rc = main([
            "loadtest", "--arrival", "closed", "--count", "6", "--pool", "2",
            "--n", "8", "--backend", "serial",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        summary = json.loads(out)
        assert summary["requests"] == 6 and summary["target"] == "local"
