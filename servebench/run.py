"""Run one workload of the serving benchmark and print its metrics.

    python3 servebench/run.py --workload hit-path --seed 1 --seconds 15 --trace 0

Builds the workload from the seed, computes a reference answer for every
distinct instance, sets up a live 2-shard fleet behind its unix front
end, replays the workload through one pipelined connection and checks
every answer. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the workload twice on fresh fleets, untraced then
traced, and prints the per-layer ledger. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. See ``servebench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-ups per timed run; setup_s is their median
SETUPS = 7

#: a request still unanswered this long after it was sent is dropped
REQUEST_TIMEOUT_S = 90.0


def _declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _percentile(values, q):
    from repro.loadgen import percentile

    return percentile(values, q) if values else math.nan


def _measure(work, oracle, *, setups: int, traced: bool = False) -> dict:
    """Set up ``setups`` fleets (keeping the last), replay the workload
    against it and tear it down. Returns raw records plus everything
    the metrics need."""
    from harness import LiveFleet
    from oracle import spec_key
    from repro.loadgen import TraceEvent, run_loadtest
    from speed import SpeedProbe

    events = work.events
    if traced:
        events = [TraceEvent(e.index, e.at_s, {**e.spec, "rid": e.index}) for e in events]
    problems: list[str] = []
    setup_times = []
    fleet = None
    try:
        for k in range(setups):
            t0 = time.perf_counter()
            fleet = LiveFleet(ROOT / "src")
            fleet.start()
            fleet.seed(work.warm_specs)
            setup_times.append(time.perf_counter() - t0)
            if k < setups - 1:
                problems += fleet.close()
        warm = run_loadtest(events=work.warmup, mode="open", target=fleet.front)
        problems += [f"warm-up request failed: {r['error']}" for r in warm.records if not r["ok"]]
        status_before = fleet.status()
        # The load generator must not stall on its own garbage collector.
        gc.collect()
        gc.freeze()
        gc.disable()
        probe = SpeedProbe().start()
        try:
            cpu_start = fleet.cpu_s()
            window_start = time.monotonic_ns()
            result = run_loadtest(
                events=events, mode=work.mode, target=fleet.front, timeout=REQUEST_TIMEOUT_S
            )
            window_end = time.monotonic_ns()
            cpu_end = fleet.cpu_s()
        finally:
            chunk_us = probe.stop()
            gc.enable()
            gc.unfreeze()
        rss = fleet.peak_rss_mb()
        status_after = fleet.status()
    finally:
        if fleet is not None:
            problems += fleet.close()
    records = result.records
    for record in records:
        spec = work.events[record["i"]].spec
        record["correct"] = bool(record["ok"]) and record["value"] == oracle[spec_key(spec)]
    return {
        "records": records,
        "setup_s": median(setup_times),
        "setup_times": setup_times,
        "peak_rss_mb": rss,
        "problems": problems,
        "status_before": status_before,
        "status_after": status_after,
        "window": (window_start, window_end),
        "cpu_s": cpu_end - cpu_start,
        "chunk_us": chunk_us,
    }


def _raw_cpu_ms_per_req(run) -> float:
    answered = sum(1 for r in run["records"] if r["ok"])
    return run["cpu_s"] * 1e3 / answered if answered else math.nan


def _end_to_end(run) -> dict:
    """The gated metrics: what the fleet costs per answered request in
    CPU, its memory and its set-up time. The CPU time is rescaled to the
    reference speed of ``speed.py``, so a slow phase of the host does not
    read as a slower program (see README)."""
    from speed import REFERENCE_CHUNK_US

    return {
        "setup_s": run["setup_s"],
        "cpu_ms_per_req": _raw_cpu_ms_per_req(run) * REFERENCE_CHUNK_US / run["chunk_us"],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def _wall_clock(work, run) -> dict:
    """Latency and throughput as clients feel them: printed, not gated."""
    records = run["records"]
    latencies = [r["latency_ms"] for r in records if r["ok"]]
    good = sum(1 for r in records if r["correct"] and r["latency_ms"] <= work.limit_ms)
    start = min(r["at_s"] for r in records)
    end = max((r["recv_s"] for r in records if r["recv_s"] is not None), default=start)
    return {
        "p50_ms": _percentile(latencies, 50.0),
        "goodput": good / len(records),
        "solves_per_s": sum(r["correct"] for r in records) / (end - start) if end > start else 0.0,
    }


def _failures(run) -> dict:
    records = run["records"]
    dropped = sum(1 for r in records if r["recv_s"] is None)
    errors = sum(1 for r in records if r["recv_s"] is not None and not r["ok"])
    wrong = sum(1 for r in records if r["ok"] and not r["correct"])
    return {"dropped": dropped, "errors": errors, "wrong": wrong, "problems": len(run["problems"])}


def _validity(work, run) -> tuple[list[str], list[str]]:
    """Facts that say whether the run exercised what the workload
    claims: ``(report lines, violations)``."""
    records = run["records"]
    lines, bad = [], []
    lateness = [r["sent_s"] - r["at_s"] for r in records if r["sent_s"] is not None]
    lines.append(
        f"generator lateness p99 {_percentile(lateness, 99.0) * 1e3:.3f} ms "
        f"(max {max(lateness, default=0.0) * 1e3:.3f} ms)"
    )
    by_kind: dict[str, Counter] = {}
    for r in records:
        by_kind.setdefault(work.kinds[r["i"]], Counter())[r["source"]] += 1
    for kind, sources in sorted(by_kind.items()):
        split = ", ".join(f"{s}: {c}" for s, c in sorted(sources.items(), key=str))
        lines.append(f"sources of {kind} requests: {split}")
    if work.name == "hit-path":
        misses = sum(c for s, c in by_kind["hit"].items() if s != "cache")
        if misses:
            bad.append(f"{misses} hit-path answers were not source=cache")
    elif work.name == "cold-path":
        warm = sum(by_kind["cold"].get(s, 0) for s in ("cache", "delta", "coalesced"))
        if warm:
            bad.append(f"{warm} cold answers came from cache/delta/coalesced")
    elif work.name == "edit-mix":
        edits = by_kind.get("edit", Counter())
        total = sum(edits.values())
        if edits.get("delta", 0) * 2 < total:
            bad.append(f"only {edits.get('delta', 0)} of {total} edits answered by delta")
    return lines, bad


def _print_run(label: str, work, run, units: dict) -> None:
    records = run["records"]
    answered = [r["latency_ms"] for r in records if r["ok"]]
    hits = [r["latency_ms"] for r in records if r["ok"] and r["source"] == "cache"]
    fails = _failures(run)
    error_rate = (fails["dropped"] + fails["errors"] + fails["wrong"]) / len(records)
    print(f"[{label}] {work.name} seed={work.seed}: {len(records)} requests")
    print(f"  setup_s per set-up: {', '.join(f'{t:.4f}' for t in run['setup_times'])}")
    for name, value in _end_to_end(run).items():
        print(f"  {name:<14} {value:.6g} {units[name]}")
    print(f"  fleet CPU in the timed window: {run['cpu_s']:.2f} s, "
          f"{_raw_cpu_ms_per_req(run):.4f} ms per request before rescaling; "
          f"speed probe chunk {run['chunk_us']:.1f} us")
    wall = _wall_clock(work, run)
    print(f"  wall clock (not gated): goodput {wall['goodput']:.4f} within {work.limit_ms:g} ms, "
          f"{wall['solves_per_s']:.4f} solves/s")
    print(f"  error_rate     {error_rate:.6g} (dropped {fails['dropped']}, "
          f"errors {fails['errors']}, wrong {fails['wrong']})")
    for kind, values in (("all", answered), ("cache", hits)):
        if values:
            tail = ", ".join(f"p{q:g} {_percentile(values, q):.4f}" for q in (50, 90, 95, 99, 99.9))
            print(f"  {kind} answers, {len(values)}, latency ms: {tail}")
    for problem in run["problems"]:
        print(f"  FAILURE: {problem}")


def _load_shard_spans(directory: Path) -> tuple[list[tuple], list[str]]:
    spans, missing = [], []
    for path in sorted(directory.glob("spans-*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        spans += [tuple(s) for s in data["spans"]]
        missing += data["missing"]
    return spans, missing


def _traced(work, oracle, scratch: Path, untraced_p50: float) -> tuple[dict, dict]:
    """The traced run: wrappers in this process and, through the startup
    hook, in every shard. Returns ``(run, per-layer metrics)``."""
    import tracing
    from ledger import per_layer

    span_dir = scratch / "spans"
    span_dir.mkdir()
    os.environ[tracing.TRACE_DIR_ENV] = str(span_dir)
    hook = str(HERE / "hook")
    existing = os.environ.get("PYTHONPATH", "")
    os.environ["PYTHONPATH"] = hook + (os.pathsep + existing if existing else "")
    recorder = tracing.install()
    run = _measure(work, oracle, setups=1, traced=True)
    shard_spans, missing = _load_shard_spans(span_dir)
    for label in recorder.missing + missing:
        print(f"  trace: no wrapper for {label} (its time counts as unattributed)")
    spans = recorder.spans + shard_spans
    metrics = per_layer(spans, run["records"], run["status_before"], run["status_after"], run["window"])
    traced_p50 = _wall_clock(work, run)["p50_ms"]
    metrics["trace.overhead_p50_ms"] = traced_p50 - untraced_p50
    return run, metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"servebench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from oracle import reference_values
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"servebench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("servebench: --seconds must be positive", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload](args.seed, args.seconds)
    e2e_units = _declared_units(trace=False)
    units = _declared_units(trace=bool(args.trace))

    scratch = ROOT / ".servebench" / str(os.getpid())
    scratch.mkdir(parents=True)
    # Fleet state dirs (sockets, logs, the shared L2) live in the
    # checkout: the router creates them with tempfile, shards inherit it.
    tempfile.tempdir = str(scratch)
    os.environ["TMPDIR"] = str(scratch)
    try:
        oracle = reference_values([e.spec for e in work.events], str(ROOT / "src"))
        if args.trace:
            base = _measure(work, oracle, setups=1)
            _print_run("untraced", work, base, e2e_units)
            run, metrics = _traced(work, oracle, scratch, _wall_clock(work, base)["p50_ms"])
            _print_run("traced", work, run, e2e_units)
            runs = [base, run]
        else:
            run = _measure(work, oracle, setups=SETUPS)
            metrics = _end_to_end(run)
            _print_run("timed", work, run, e2e_units)
            runs = [run]
        checks, violations = _validity(work, run)
        for line in checks:
            print(f"  {line}")
        for line in violations:
            print(f"  VALIDITY WARNING: {line}")
        if args.trace:
            for name, value in metrics.items():
                print(f"  {name:<28} {value:.6g} {units[name]}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    attempted = sum(len(each["records"]) for each in runs)
    failed = 0
    for each in runs:
        fails = _failures(each)
        failed += fails["dropped"] + fails["errors"] + fails["wrong"] + fails["problems"]
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json"
        )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
