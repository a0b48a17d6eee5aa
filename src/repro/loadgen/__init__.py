"""Trace-driven workload simulation: generator, load harness, analyzer.

The BENCH trajectories through E12 record *throughput* and correctness
gates only; this package is the instrument that turns the perf story
into user-facing **distributional SLOs**. It has three layers, each
usable on its own:

* :mod:`repro.loadgen.trace` — replayable, seeded workload traces: an
  open-loop arrival process (:mod:`repro.loadgen.arrivals`) crossed
  with an instance-popularity model (:mod:`repro.loadgen.popularity`),
  serialised to a versioned JSONL file that is **byte-identical** for a
  fixed seed + config;
* :mod:`repro.loadgen.harness` — replay a trace against a live target
  (an in-process service, a running ``repro serve`` socket, or an
  ephemeral fleet) at the recorded timestamps, recording per-request
  send/receive times, the result ``source`` (cold/cache/delta) and
  shard attribution without perturbing the measurement;
* :mod:`repro.loadgen.analyze` — p50/p95/p99/max latency, per-source
  and per-shard breakdowns, goodput under an SLO threshold, and the
  shard-imbalance coefficient.

``repro trace`` and ``repro loadtest`` are the CLI faces;
``benchmarks/bench_e13_latency.py`` is the CI-gated smoke that records
the ``BENCH_e13_latency.json`` trajectory.

The harness loads on first use: it imports the fleet router, which the
CLI's parser and a serving shard, reading only the tables, never need.
"""

from repro.loadgen.analyze import analyze, latency_summary, percentile
from repro.loadgen.arrivals import ARRIVALS, generate_arrivals
from repro.loadgen.popularity import POPULARITIES, build_pool, choose_indices
from repro.loadgen.trace import (
    TRACE_VERSION,
    TraceConfig,
    TraceEvent,
    generate_trace,
    read_trace,
    trace_lines,
    write_trace,
)

__all__ = [
    "ARRIVALS",
    "POPULARITIES",
    "TRACE_VERSION",
    "TraceConfig",
    "TraceEvent",
    "LoadTestResult",
    "analyze",
    "build_pool",
    "choose_indices",
    "generate_arrivals",
    "generate_trace",
    "latency_summary",
    "percentile",
    "read_trace",
    "run_loadtest",
    "trace_lines",
    "write_trace",
]


def __getattr__(name: str):
    if name in ("LoadTestResult", "run_loadtest"):
        from repro.loadgen import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
