"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``     solve a random or user-specified instance with any method;
``batch``     solve a JSONL stream of problem specs on a worker pool;
``serve``     run the long-lived solve service (unix socket or ``--tcp``);
``fleet``     run a sharded solve fleet behind one routing front end;
``request``   send JSONL specs to a running server (or status/shutdown),
              or through an ephemeral fleet with ``--fleet N``;
``trace``     generate a replayable, seeded workload trace (JSONL);
``loadtest``  replay a trace against a live target and report tail
              latencies, per-source/per-shard breakdowns and SLO goodput;
``plan``      print the compiled sweep plan a solve would execute;
``algebras``  list the registered selection-semiring algebras;
``pebble``    play the pebbling game on a named tree shape;
``costs``     print the symbolic processor–time comparison table;
``average``   evaluate the Section 6 recurrence and a Monte-Carlo check.

Every command answers a refused instance, a bad address, an unreadable
file or a failed bind with one ``<command>: <message>`` line on stderr
and exit code 2.

Examples::

    python -m repro solve --family chain --n 16 --method huang-banded
    python -m repro solve --dims 30,35,15,5,10,20,25 --method huang --backend thread
    python -m repro solve --family bottleneck --n 14 --algebra minimax
    python -m repro batch --input problems.jsonl --backend process --max-workers 4
    python -m repro batch --input problems.jsonl --backend process --start-method spawn
    python -m repro serve --socket /tmp/repro.sock --backend process --workers 4
    python -m repro serve --tcp 0.0.0.0:7466
    python -m repro fleet --shards 4 --socket /tmp/fleet.sock
    python -m repro fleet --shards 2 --min-shards 2 --max-shards 8
    python -m repro request --socket /tmp/repro.sock --input problems.jsonl
    python -m repro request --tcp 127.0.0.1:7466 --input problems.jsonl
    python -m repro request --fleet 4 --input problems.jsonl
    python -m repro request --socket /tmp/repro.sock --status
    python -m repro trace --arrival poisson --rate 100 --count 500 --output t.jsonl
    python -m repro loadtest --trace t.jsonl --target fleet --shards 4 --slo-ms 50
    python -m repro loadtest --count 200 --popularity zipf --socket /tmp/repro.sock
    python -m repro plan --family chain --n 24 --method huang-banded --backend thread
    python -m repro algebras
    python -m repro pebble --shape zigzag --n 4096 --rule huang
    python -m repro costs --n 16 64 256
    python -m repro average --n-max 1024

Batch specs are one JSON object per line, e.g.::

    {"family": "chain", "n": 12, "seed": 0, "method": "huang-banded"}
    {"dims": [30, 35, 15, 5, 10, 20, 25], "method": "huang"}
    {"family": "bst", "p": [0.15, 0.1], "q": [0.05, 0.1, 0.05]}
    {"family": "polygon", "points": [[0, 0], [1, 0], [1, 1], [0, 1]]}
    {"weights": [3, 9, 2, 7], "algebra": "minimax"}
    {"connectors": [0.9, 0.8], "leaves": [0.99, 0.95, 0.97], "algebra": "maxmin"}
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Sequence

# Method and algebra names come from the solver dispatch table and the
# algebra registry so new entries show up in the CLI automatically.
# (Importing repro at all already pays the numpy import via the package
# __init__, so this costs nothing extra.)
from repro.core.algebra import list_algebras
from repro.core.api import ITERATIVE_METHODS, METHODS
from repro.errors import ReproError
from repro.loadgen.arrivals import ARRIVALS
from repro.loadgen.popularity import POPULARITIES
from repro.parallel.backends import BACKEND_NAMES, START_METHODS, TILE_BACKENDS

from repro.problems.specs import FAMILIES, family_generators

__all__ = ["main", "build_parser"]


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


#: Every option that two or more commands take, declared once: flag ->
#: ``add_argument`` keywords. A command overrides a default or a help
#: text through :func:`_add_options`. Help is %-formatted by argparse,
#: so ``%(default)s`` shows each command's own default.
_OPTIONS: dict[str, dict[str, Any]] = {
    "--family": dict(
        choices=list(FAMILIES),
        default="chain",
        help="random-instance family (ignored if --dims is given)",
    ),
    "--n": dict(type=int, default=12, help="instance size"),
    "--seed": dict(type=int, default=0, help="random seed"),
    "--method": dict(
        choices=list(METHODS),
        default="sequential",
        help="default method for specs that do not name one",
    ),
    "--algebra": dict(
        choices=list(list_algebras()),
        default=None,
        help=(
            "selection semiring the recurrence runs over; a batch spec may "
            "name its own (default: the problem family's preferred algebra, "
            "min_plus for the classical families)"
        ),
    ),
    "--backend": dict(
        choices=list(BACKEND_NAMES),
        default="process",
        help="the warm pool batches lease (default: %(default)s)",
    ),
    "--start-method": dict(
        choices=list(START_METHODS),
        default=None,
        help=(
            "process start method for --backend process (default: fork "
            "where available, else spawn)"
        ),
    ),
    "--workers": dict(
        type=_positive_int,
        default=None,
        help="pool size (default: min(8, cpu count))",
    ),
    "--socket": dict(
        default="repro.sock",
        help="unix socket path to listen on (default: ./%(default)s)",
    ),
    "--tcp": dict(
        default=None,
        metavar="HOST:PORT",
        help=(
            "TCP endpoint instead of the unix socket (same JSONL protocol; "
            "a server given port 0 picks an ephemeral port and prints it)"
        ),
    ),
    "--max-batch": dict(
        type=_positive_int,
        default=16,
        help="at most this many requests per batch (default: %(default)s)",
    ),
    "--cache-mb": dict(
        type=float,
        default=128.0,
        help="result-cache budget in MiB; 0 disables the cache (default: 128)",
    ),
    "--cache-dir": dict(
        default=None,
        help=(
            "directory for a disk-backed L2 result cache; results survive "
            "restarts and are shared by every server pointing at it "
            "(default: in-memory L1 only)"
        ),
    ),
    "--max-requests": dict(
        type=_positive_int,
        default=None,
        help="exit after serving this many requests (smoke tests/benchmarks)",
    ),
    "--shards": dict(
        type=_positive_int,
        default=2,
        help="shard processes in the fleet (default: %(default)s)",
    ),
    "--input": dict(
        default="-",
        help="JSONL file of problem specs, or '-' for stdin (default)",
    ),
}

#: The execution knobs of ``solve``, ``plan`` and ``batch``.
_EXECUTION = ("--algebra", "--backend")

#: The options of ``serve``; ``fleet`` takes them for its front end
#: (``--socket --tcp --max-requests``) and its shards (the rest).
_SERVICE = (
    "--socket",
    "--tcp",
    "--method",
    "--backend",
    "--start-method",
    "--workers",
    "--max-batch",
    "--cache-mb",
    "--cache-dir",
    "--max-requests",
)


def _add_options(
    parser: argparse.ArgumentParser, *flags: str, **changes: dict[str, Any]
) -> None:
    """Add the shared ``flags`` from :data:`_OPTIONS`; ``changes`` maps
    an option's dest to the keywords this command overrides."""
    for flag in flags:
        dest = flag[2:].replace("-", "_")
        parser.add_argument(flag, **{**_OPTIONS[flag], **changes.pop(dest, {})})
    if changes:
        raise TypeError(f"no such option among {flags}: {sorted(changes)}")


def _add_instance_args(parser: argparse.ArgumentParser, **method: Any) -> None:
    """The one-instance selectors and execution knobs of ``solve`` and
    ``plan``; ``method`` overrides keywords of their ``--method``."""
    _add_options(
        parser,
        "--family",
        "--n",
        "--seed",
        "--method",
        *_EXECUTION,
        "--workers",
        method={"default": "huang-banded", **method},
        backend={
            "choices": list(TILE_BACKENDS),
            "default": None,
            "help": (
                "where the iterative methods' sweep tiles run (default: the "
                "code picks serial or thread by method and n)"
            ),
        },
    )
    parser.add_argument(
        "--dims",
        type=str,
        default=None,
        help="explicit matrix-chain dimensions, comma separated",
    )


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    """The workload-shape knobs shared by ``trace`` and ``loadtest``
    (they mirror :class:`repro.loadgen.trace.TraceConfig` exactly)."""
    parser.add_argument(
        "--arrival",
        choices=list(ARRIVALS),
        default="poisson",
        help="arrival process (closed = sequential baseline)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=50.0,
        help="mean request rate in requests/second (open-loop kinds)",
    )
    parser.add_argument(
        "--count", type=_positive_int, default=100, help="total requests"
    )
    parser.add_argument(
        "--popularity",
        choices=list(POPULARITIES),
        default="zipf",
        help="which pool instance each request asks for",
    )
    parser.add_argument(
        "--pool",
        type=_positive_int,
        default=16,
        help="distinct instances in the trace's pool",
    )
    parser.add_argument(
        "--zipf-s",
        type=float,
        default=1.1,
        help="Zipf exponent for --popularity zipf",
    )
    parser.add_argument(
        "--burst-factor",
        type=float,
        default=8.0,
        help="burst-state rate multiplier for --arrival bursty",
    )
    parser.add_argument(
        "--burst-enter",
        type=float,
        default=0.05,
        help="quiet->burst switch probability per arrival",
    )
    parser.add_argument(
        "--burst-exit",
        type=float,
        default=0.25,
        help="burst->quiet switch probability per arrival",
    )
    _add_options(
        parser,
        "--family",
        "--n",
        "--method",
        "--seed",
        family={"help": "problem family the pool draws from"},
        n={"default": 24},
        method={
            "default": None,
            "help": "stamp this solve method onto every spec in the trace",
        },
        seed={"help": "master trace seed"},
    )


def _trace_config_from_args(args: argparse.Namespace):
    """The trace flags' dests are :class:`TraceConfig`'s field names."""
    from dataclasses import fields

    from repro.loadgen import TraceConfig

    return TraceConfig(
        **{f.name: getattr(args, f.name) for f in fields(TraceConfig)}
    ).validate()


def _problem_from_args(args: argparse.Namespace):
    """One problem instance from the shared selectors: explicit --dims
    wins over the random --family/--n/--seed draw."""
    from repro.problems import MatrixChainProblem

    if args.dims:
        try:
            dims = [int(x) for x in args.dims.split(",")]
        except ValueError:
            raise ReproError(f"--dims takes integers, got {args.dims!r}") from None
        return MatrixChainProblem(dims)
    return family_generators()[args.family](args.n, seed=args.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Huang, Liu & Viswanathan's sublinear parallel "
            "algorithm for parenthesization dynamic programming."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance")
    _add_instance_args(p_solve, help="solve method (default: %(default)s)")
    p_solve.add_argument(
        "--policy",
        choices=["paper", "w-stable", "w-pw-stable"],
        default="paper",
        help="termination policy for the iterative methods",
    )
    p_solve.add_argument("--tree", action="store_true", help="print the optimal tree")
    p_solve.add_argument(
        "--trace", action="store_true", help="print the iteration trace"
    )

    p_batch = sub.add_parser(
        "batch", help="solve a JSONL stream of problem specs on a worker pool"
    )
    _add_options(
        p_batch,
        "--input",
        "--method",
        *_EXECUTION,
        "--start-method",
        backend={
            "default": None,
            "help": (
                "shared worker pool the batch fans out over (default: the "
                "code picks serial, or a process pool when the batch's "
                "predicted serial time pays for one)"
            ),
        },
    )
    p_batch.add_argument(
        "--max-workers",
        type=_positive_int,
        default=None,
        help="pool size (default: min(8, cpu count))",
    )
    p_batch.add_argument(
        "--jsonl",
        action="store_true",
        help="emit one JSON result object per line instead of the table",
    )

    p_plan = sub.add_parser(
        "plan",
        help="print the compiled sweep plan a solve would execute",
        description=(
            "Compile (without running) the sweep plan of an iterative "
            "solve: the resolved kernel schedule and the frozen tile "
            "partition per kernel."
        ),
    )
    _add_instance_args(
        p_plan,
        choices=list(ITERATIVE_METHODS),
        help="iterative method to compile (sequential methods have no plan)",
    )
    p_plan.add_argument(
        "--tiles",
        type=_positive_int,
        default=None,
        help="tiles per sweep (default: one per worker)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the solve service on a unix socket or TCP endpoint",
        description=(
            "Long-lived solve server: owns a warm worker pool, coalesces "
            "concurrent JSONL requests into batches, and caches results by "
            "canonical instance hash. Send specs with 'repro request'."
        ),
    )
    _add_options(p_serve, *_SERVICE)

    p_fleet = sub.add_parser(
        "fleet",
        help="run a sharded solve fleet behind one routing front end",
        description=(
            "Spawns N shard processes (each a full solve service with its "
            "own warm pool and result cache), routes every "
            "request to a shard by consistent hash of its instance key, "
            "respawns shards that die, and serves the whole fleet behind "
            "one unix-socket or TCP endpoint speaking the 'repro serve' "
            "protocol — 'repro request' works against it unchanged. Every "
            "shard runs with the --method, --backend, --start-method, "
            "--workers, --max-batch and --cache-mb given here."
        ),
    )
    _add_options(
        p_fleet,
        "--shards",
        *_SERVICE,
        socket={"default": "fleet.sock"},
        cache_dir={
            "help": (
                "shared L2 result-cache directory mounted by every shard "
                "(default: an l2-cache subdirectory of the state dir)"
            )
        },
    )
    p_fleet.add_argument(
        "--min-shards",
        type=_positive_int,
        default=None,
        help=(
            "lower bound for dynamic scaling (default: --shards, i.e. "
            "autoscaling off)"
        ),
    )
    p_fleet.add_argument(
        "--max-shards",
        type=_positive_int,
        default=None,
        help=(
            "upper bound for dynamic scaling (default: --shards, i.e. "
            "autoscaling off)"
        ),
    )
    p_fleet.add_argument(
        "--state-dir",
        default=None,
        help=(
            "directory for shard sockets and logs (default: a private "
            "temporary directory, removed on shutdown)"
        ),
    )

    p_request = sub.add_parser(
        "request",
        help="send JSONL problem specs to a running 'repro serve'",
        description=(
            "Pipelines every spec line over one connection (the server "
            "coalesces them into shared batches) and prints one JSON "
            "response per line, in input order. With --fleet N the specs "
            "run through an ephemeral in-process fleet of N shard "
            "processes instead of a running server."
        ),
    )
    _add_options(
        p_request,
        "--socket",
        "--tcp",
        "--input",
        socket={
            "default": None,
            "help": "unix socket path of the server (default: ./repro.sock)",
        },
    )
    p_request.add_argument(
        "--fleet",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "spin up an ephemeral fleet of N shards, route the input specs "
            "through it, and tear it down (no running server needed)"
        ),
    )
    p_request.add_argument(
        "--status",
        action="store_true",
        help="print the server's status record instead of sending specs",
    )
    p_request.add_argument(
        "--shutdown",
        action="store_true",
        help="ask the server to stop (after any specs from --input)",
    )

    p_trace = sub.add_parser(
        "trace",
        help="generate a replayable workload trace (JSONL)",
        description=(
            "Emit a seeded, versioned workload trace: an open-loop arrival "
            "process crossed with an instance-popularity model over a fixed "
            "pool of problem specs. The same flags and seed always produce "
            "a byte-identical file, so a trace names its workload exactly."
        ),
    )
    _add_trace_args(p_trace)
    p_trace.add_argument(
        "--output",
        default="-",
        help="trace file to write, or '-' for stdout (default)",
    )

    p_load = sub.add_parser(
        "loadtest",
        help="replay a workload trace against a live target",
        description=(
            "Replay a trace (from --trace, or generated on the fly from the "
            "same flags 'repro trace' takes) open-loop at its recorded "
            "timestamps, then print the latency/SLO summary as JSON: "
            "p50/p95/p99/max, per-source and per-shard breakdowns, goodput "
            "under --slo-ms and the shard-imbalance coefficient. Exits "
            "non-zero if any request failed or was dropped."
        ),
    )
    _add_trace_args(p_load)
    _add_options(
        p_load,
        "--socket",
        "--tcp",
        "--shards",
        "--backend",
        "--workers",
        socket={
            "default": None,
            "help": "unix socket of a running 'repro serve'/'repro fleet' to hit",
        },
    )
    p_load.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="replay this trace file instead of generating one",
    )
    p_load.add_argument(
        "--target",
        choices=["local", "fleet"],
        default="local",
        help=(
            "ephemeral target: an in-process service (local, default) or a "
            "fleet of --shards shard processes (ignored when --socket/--tcp "
            "point at a running server)"
        ),
    )
    p_load.add_argument(
        "--mode",
        choices=["auto", "open", "closed"],
        default="auto",
        help=(
            "replay discipline: open (inject at recorded offsets), closed "
            "(next request after previous response) or auto (default: "
            "closed for closed traces, open otherwise)"
        ),
    )
    p_load.add_argument(
        "--speed",
        type=float,
        default=1.0,
        help="replay speed multiplier for the recorded schedule (default: 1)",
    )
    p_load.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="per-request timeout in seconds; a timeout counts as dropped",
    )
    p_load.add_argument(
        "--slo-ms",
        type=float,
        default=None,
        help="latency SLO threshold for the goodput section of the report",
    )
    p_load.add_argument(
        "--records",
        default=None,
        metavar="PATH",
        help="also dump the per-request records as JSONL to this file",
    )
    p_load.add_argument(
        "--with-status",
        action="store_true",
        help="include the target's post-replay status record in the report",
    )

    sub.add_parser(
        "algebras", help="list the registered selection-semiring algebras"
    )

    p_pebble = sub.add_parser("pebble", help="play the pebbling game")
    p_pebble.add_argument(
        "--shape",
        choices=["zigzag", "skewed", "complete", "random"],
        default="zigzag",
    )
    _add_options(p_pebble, "--n", "--seed", n={"default": 1024})
    p_pebble.add_argument("--rule", choices=["huang", "rytter"], default="huang")
    p_pebble.add_argument("--trace", action="store_true")

    p_costs = sub.add_parser("costs", help="symbolic PT-product table")
    p_costs.add_argument("--n", type=int, nargs="+", default=[16, 64, 256])

    p_avg = sub.add_parser("average", help="Section 6 average-case check")
    p_avg.add_argument("--n-max", type=int, default=1024)
    p_avg.add_argument("--samples", type=int, default=30)
    _add_options(p_avg, "--seed")
    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.core import solve
    from repro.core.termination import WPWStable, WStable
    from repro.viz import render_iteration_trace, render_tree

    policy = {
        "paper": None,
        "w-stable": WStable(),
        "w-pw-stable": WPWStable(),
    }[args.policy]
    kwargs = {
        # Always forwarded so solve()'s up-front validation sees exactly
        # what the user typed (the sequential methods then ignore the
        # backend, as documented) — the CLI must not silently drop flags.
        "backend": args.backend,
        "workers": args.workers,
    }
    if args.algebra is not None:
        kwargs["algebra"] = args.algebra
    if args.method in ITERATIVE_METHODS:
        kwargs["policy"] = policy
    problem = _problem_from_args(args)
    result = solve(problem, method=args.method, reconstruct=args.tree, **kwargs)
    print(f"problem : {problem.describe()}")
    print(f"method  : {args.method}")
    if result.algebra != "min_plus":
        print(f"algebra : {result.algebra}")
    print(f"value   : {result.value:.6g}")
    if result.iterations is not None:
        print(f"iters   : {result.iterations}")
    if args.trace and result.trace is not None:
        print()
        print(render_iteration_trace(result.trace))
    if args.tree and result.tree is not None:
        print("\noptimal tree:")
        print(render_tree(result.tree))
    return 0


def _read_spec_lines(args: argparse.Namespace) -> list:
    """The JSONL input of ``batch`` and ``request``: the lines of
    ``--input`` (or stdin) as ``(lineno, spec dict | parse error)``
    pairs, so one bad line is answered in its place and the rest still
    run. An unreadable file raises :class:`OSError`."""
    import json

    if args.input == "-":
        # A bare --shutdown should not block waiting on a terminal.
        if getattr(args, "shutdown", False) and sys.stdin.isatty():
            lines = []
        else:
            lines = sys.stdin.read().splitlines()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    items = []  # (lineno, spec dict) or (lineno, parse error)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            spec = json.loads(line)
            if not isinstance(spec, dict):
                raise ValueError("spec must be a JSON object")
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
            items.append((lineno, exc))
        else:
            items.append((lineno, spec))
    return items


def _cmd_batch(args: argparse.Namespace) -> int:
    import json

    from repro.core import solve_many
    from repro.problems.specs import batch_item_from_spec
    from repro.util.tables import format_table

    items = []  # (lineno, (problem, method, kwargs)) or (lineno, its error)
    for lineno, spec in _read_spec_lines(args):
        item = spec
        if isinstance(spec, dict):
            try:
                item = batch_item_from_spec(spec, default_method=args.method)
            except Exception as exc:  # noqa: BLE001 - report bad lines, keep going
                item = exc
        items.append((lineno, item))

    batch = [item for _, item in items if not isinstance(item, Exception)]
    results = solve_many(
        batch,
        method=args.method,
        algebra=args.algebra,
        backend=args.backend,
        max_workers=args.max_workers,
        start_method=args.start_method,
        on_error="return",
    )
    results_iter = iter(results)
    rows = []
    failures = 0
    for lineno, item in items:
        outcome = item if isinstance(item, Exception) else next(results_iter)
        if isinstance(outcome, Exception):
            failures += 1
            record = {
                "line": lineno,
                "method": None if isinstance(item, Exception) else item[1],
                "value": None,
                "iterations": None,
                "error": f"{type(outcome).__name__}: {outcome}",
            }
        else:
            record = {
                "line": lineno,
                "method": outcome.method,
                "value": outcome.value,
                "iterations": outcome.iterations,
                "error": None,
            }
        rows.append(record)

    if args.jsonl:
        for record in rows:
            print(json.dumps(record))
    else:
        print(
            format_table(
                ["line", "method", "value", "iters", "error"],
                [
                    (
                        r["line"],
                        r["method"] or "-",
                        "-" if r["value"] is None else f"{r['value']:.6g}",
                        "-" if r["iterations"] is None else r["iterations"],
                        r["error"] or "",
                    )
                    for r in rows
                ],
                title=f"batch: {len(rows)} problems, {failures} failed"
                + (f" ({args.backend} backend)" if args.backend else ""),
            )
        )
    return 1 if failures else 0


def _service_address(args: argparse.Namespace):
    """The endpoint a serve/fleet/request command talks on: ``--tcp``
    wins over the unix ``--socket`` path. ``request`` leaves
    ``--socket`` unset so that ``--fleet`` can refuse an explicit one;
    unset means ``./repro.sock``."""
    from repro.service.transport import Address, parse_address

    if args.tcp:
        return parse_address(args.tcp, tcp=True)
    return Address.unix("repro.sock" if args.socket is None else args.socket)


def _service_kwargs(args: argparse.Namespace) -> dict:
    """The :class:`~repro.service.SolveService` keywords: ``serve`` runs
    with them, and ``fleet`` passes them to each shard."""
    return dict(
        method=args.method,
        backend=args.backend,
        workers=args.workers,
        start_method=args.start_method,
        max_batch=args.max_batch,
        cache_bytes=int(args.cache_mb * (1 << 20)),
        cache_dir=args.cache_dir,
    )


class _Terminated(Exception):
    """A SIGTERM stopped ``serve`` or ``fleet``; ``main()`` exits 143."""


def _run_server(coro) -> Any:
    """``asyncio.run(coro)`` for a long-lived server. A SIGTERM cancels
    ``coro`` the way Ctrl-C does, so its ``finally`` blocks (listener,
    socket file) and the caller's (pool, shards, state directory) run
    before the process exits, and :class:`_Terminated` is raised. The
    signal's default action would end the process where it stands."""
    import asyncio
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return asyncio.run(coro)  # only the main thread receives signals
    terminated = False

    async def _until_sigterm() -> Any:
        loop = asyncio.get_running_loop()
        task = asyncio.ensure_future(coro)

        def _stop() -> None:
            nonlocal terminated
            terminated = True
            task.cancel()

        loop.add_signal_handler(signal.SIGTERM, _stop)
        try:
            return await task
        finally:
            loop.remove_signal_handler(signal.SIGTERM)

    try:
        return asyncio.run(_until_sigterm())
    except asyncio.CancelledError:
        if terminated:
            raise _Terminated() from None
        raise


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import SolveService, serve

    address = _service_address(args)
    service = SolveService(**_service_kwargs(args))
    try:
        served = _run_server(
            serve(
                service,
                address,
                max_requests=args.max_requests,
                quiet=False,
            )
        )
    finally:
        # serve() releases the service on its way out; close() is
        # idempotent and covers an interrupt before serve() owns it.
        service.close()
    print(f"repro serve: stopped after {served} requests")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.service.fleet import FleetRouter, serve_fleet

    address = _service_address(args)
    router = FleetRouter(
        args.shards,
        **_service_kwargs(args),
        state_dir=args.state_dir,
        min_shards=args.min_shards,
        max_shards=args.max_shards,
    )
    try:
        router.start()
        served = _run_server(
            serve_fleet(
                router,
                address,
                max_requests=args.max_requests,
                quiet=False,
            )
        )
    finally:
        router.close()
    print(f"repro fleet: stopped after {served} requests")
    return 0


def _print_records(items: list, records: list) -> int:
    """Interleave server responses with client-side parse errors, one
    JSON line each, in input order; returns the failure count."""
    import json

    responses = iter(records)
    failures = 0
    for lineno, item in items:
        if isinstance(item, dict):
            record = next(responses)
        else:
            record = {
                "ok": False,
                "error": f"line {lineno}: {type(item).__name__}: {item}",
            }
        if not record.get("ok"):
            failures += 1
        print(json.dumps(record))
    return failures


def _cmd_request(args: argparse.Namespace) -> int:
    """Send the input specs to a running server (a :class:`ServiceClient`)
    or, with ``--fleet N``, through an ephemeral :class:`FleetRouter`;
    both answer ``status()`` and ``request_many()``."""
    import json

    target: Any
    if args.fleet is not None:
        # An ephemeral fleet ignores any server address; refuse the
        # combination rather than silently solving in the wrong place.
        if args.tcp or args.socket is not None:
            raise ReproError(
                "--fleet runs an ephemeral local fleet and cannot be "
                "combined with --socket/--tcp (drop one)"
            )
        from repro.service.fleet import FleetRouter

        target = FleetRouter(args.fleet)
    else:
        from repro.service import ServiceClient

        address = _service_address(args)
        try:
            target = ServiceClient(address)
        except OSError as exc:
            raise ReproError(f"cannot connect to {address.describe()}: {exc}") from exc
    failures = 0
    with target:
        if args.status:
            print(json.dumps(target.status(), indent=2))
        else:
            items = _read_spec_lines(args)
            records = target.request_many([s for _, s in items if isinstance(s, dict)])
            failures = _print_records(items, records)
        if args.shutdown and args.fleet is None:
            target.shutdown()
    return 1 if failures else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.loadgen import trace_lines, write_trace

    config = _trace_config_from_args(args)
    if args.output == "-":
        for line in trace_lines(config):
            print(line)
    else:
        path = write_trace(args.output, config)
        print(f"wrote {config.count} events to {path}")
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import json

    from repro.loadgen import read_trace, run_loadtest

    events = None
    if args.trace is not None:
        config, events = read_trace(args.trace)
    else:
        config = _trace_config_from_args(args)
    target_kwargs: dict = {}
    if args.tcp is not None:
        target: object = args.tcp
        tcp = True
    elif args.socket is not None:
        target = args.socket
        tcp = False
    else:
        target = args.target
        tcp = False
        target_kwargs = dict(backend=args.backend)
        if args.workers is not None:
            target_kwargs["workers"] = args.workers
        if config.method is not None:
            target_kwargs["method"] = config.method
    result = run_loadtest(
        config,
        events=events,
        mode=None if args.mode == "auto" else args.mode,
        target=target,
        tcp=tcp,
        shards=args.shards,
        speed=args.speed,
        timeout=args.timeout,
        target_kwargs=target_kwargs,
        with_status=args.with_status,
    )
    if args.records is not None:
        with open(args.records, "w", encoding="utf-8") as fh:
            for record in result.records:
                fh.write(json.dumps(record) + "\n")
    summary = result.summary(slo_ms=args.slo_ms)
    if args.with_status:
        summary["status"] = result.status
    print(json.dumps(summary, indent=2))
    # Failed or dropped requests make the replay itself a failure — the
    # exit code is the scriptable SLO gate.
    return 0 if summary["failed"] == 0 and summary["dropped"] == 0 else 1


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core.api import plan_for

    problem = _problem_from_args(args)
    plan = plan_for(
        problem,
        method=args.method,
        algebra=args.algebra,
        backend=args.backend,
        workers=args.workers,
        tiles=args.tiles,
    )
    print(f"problem : {problem.describe()}")
    print(plan.describe())
    return 0


def _cmd_algebras(args: argparse.Namespace) -> int:
    from repro.core.algebra import get_algebra
    from repro.util.tables import format_table

    rows = []
    for name in list_algebras():
        alg = get_algebra(name)
        rows.append(
            (
                name,
                alg.combine_ufunc.__name__,
                alg.extend_ufunc.__name__,
                alg.zero,
                alg.one,
                alg.description,
            )
        )
    print(
        format_table(
            ["name", "combine", "extend", "zero", "one", "objective"],
            rows,
            title="registered selection-semiring algebras (solve --algebra NAME)",
        )
    )
    return 0


def _cmd_pebble(args: argparse.Namespace) -> int:
    from repro.pebbling import GameTree, PebbleGame, moves_upper_bound
    from repro.viz import render_game_trace

    if args.shape == "complete":
        tree = GameTree.complete(args.n)
    elif args.shape == "random":
        tree = GameTree.random(args.n, seed=args.seed)
    else:  # zigzag and skewed share the vine structure in the game
        tree = GameTree.vine(args.n)
    game = PebbleGame(tree, square_rule=args.rule)
    trace = game.run(trace=args.trace)
    print(
        f"shape={args.shape} n={args.n} rule={args.rule}: "
        f"{trace.moves} moves (Lemma 3.3 bound {moves_upper_bound(args.n)})"
    )
    if args.trace:
        print()
        print(render_game_trace(trace))
    return 0


def _cmd_costs(args: argparse.Namespace) -> int:
    from repro.core.cost_model import comparison_table

    print(comparison_table(list(args.n)))
    return 0


def _cmd_average(args: argparse.Namespace) -> int:
    import math

    from repro.analysis.average_case import fit_log, paper_T
    from repro.analysis.montecarlo import game_move_statistics
    from repro.util.tables import format_table

    ns = []
    n = 16
    while n <= args.n_max:
        ns.append(n)
        n *= 4
    T = paper_T(max(ns))
    rows = []
    for n in ns:
        mc = game_move_statistics(n, samples=args.samples, seed=args.seed)
        rows.append((n, float(T[n]), mc.mean, mc.maximum, math.log2(n)))
    print(
        format_table(
            ["n", "paper T(n)", "MC mean", "MC max", "log2 n"],
            rows,
            title="Section 6 average case (game moves on random trees)",
            floatfmt=".2f",
        )
    )
    c, rmse = fit_log([r[0] for r in rows], [r[2] for r in rows])
    print(f"\nMC mean ~ {c:.2f} * log2(n)  (rmse {rmse:.3f})")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "solve": _cmd_solve,
        "batch": _cmd_batch,
        "serve": _cmd_serve,
        "fleet": _cmd_fleet,
        "request": _cmd_request,
        "trace": _cmd_trace,
        "loadtest": _cmd_loadtest,
        "plan": _cmd_plan,
        "algebras": _cmd_algebras,
        "pebble": _cmd_pebble,
        "costs": _cmd_costs,
        "average": _cmd_average,
    }[args.command]
    try:
        return handler(args)
    except (ReproError, OSError) as exc:
        # A refused instance or spec, a bad address, an unreadable or
        # unwritable file, a failed bind or connect: one line, exit 2.
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 130
    except _Terminated:
        return 143  # 128 + SIGTERM, as a shell reports it


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
