#!/usr/bin/env python
"""Run the smoke benchmarks and record the BENCH_* trajectory files.

Each smoke benchmark (E10 backends, E11 service, E12 fleet, E13
latency, E14 routing) measures, gates itself against the bars stored in its
``BENCH_<name>.json`` at the repository root, and records the
measurement back into that file's bounded history (see
:mod:`repro.util.bench` for the schema). E11 carries six axes:
coalesced throughput, cache-hit latency, the delta re-solve speedup
(incremental re-sweep of a suffix edit vs a cold solve, bitwise-gated),
the time and traced memory peak of a cold sequential solve at n=256,
L2 crash survival (a SIGKILLed shard's respawn answering from the
shared on-disk tier), and L2 publish growth (mean ``put`` CPU with
3000 entries on disk against an empty directory). E13 replays a
seeded Zipf+Poisson trace against a live fleet and gates the p99
cache-hit latency plus replay determinism. E14 gates the
load-aware routing tier: the bounded-load router must beat the
pinned Zipf imbalance baseline (CV 0.6762 / peak-to-mean 1.99) live
and offline, keep cache hit-rate parity, and
complete an elastic scale-up/scale-down cycle without dropping a
request. This script just drives them all in sequence — it is what
the CI ``bench-trajectory`` job runs before uploading the JSONs as
artifacts, and what a developer runs locally to refresh the
trajectory::

    PYTHONPATH=src python scripts/record_bench.py            # all of them
    PYTHONPATH=src python scripts/record_bench.py --only e13_latency

Exit code is non-zero if any benchmark misses its bars (the gate and
the recording both still run for the remaining benchmarks, so one
regression doesn't hide another).
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path

BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

#: benchmark name -> module file (order is cheapest-first so a quick
#: regression surfaces before the long fleet run)
BENCHMARKS = {
    "e10_backends": "bench_e10_backends.py",
    "e11_service": "bench_e11_service.py",
    "e12_fleet": "bench_e12_fleet.py",
    "e13_latency": "bench_e13_latency.py",
    "e14_routing": "bench_e14_routing.py",
}


def _load(name: str):
    path = BENCHMARKS_DIR / BENCHMARKS[name]
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        choices=sorted(BENCHMARKS),
        action="append",
        help="run a subset (repeatable); default: all of them",
    )
    args = parser.parse_args(argv)
    names = args.only or list(BENCHMARKS)

    worst = 0
    for name in names:
        print(f"=== {name} ===", flush=True)
        module = _load(name)
        rc = module.smoke()
        from repro.util.bench import bench_path

        if name == "e11_service":
            import json

            metrics = json.loads(Path(bench_path(name)).read_text()).get(
                "metrics", {}
            )
            delta, l2 = metrics.get("delta"), metrics.get("l2")
            cold = metrics.get("cold_sequential")
            publish = metrics.get("l2_publish")
            if delta and l2 and cold and publish:
                print(
                    f"--- delta re-solve {delta['speedup']:.0f}x at "
                    f"n={delta['n']}; cold sequential {cold['cold_ms']:.0f} ms, "
                    f"{cold['peak_mib']:.1f} MiB at n={cold['n']}; "
                    f"L2 respawn hit: {l2['respawn_hit']}; L2 put "
                    f"{publish['empty_ms']:.2f} ms empty, "
                    f"{publish['full_ms']:.2f} ms at {publish['entries']} "
                    f"entries ({publish['growth_x']:.2f}x)",
                    flush=True,
                )
        if name == "e12_fleet":
            import json

            sc = (
                json.loads(Path(bench_path(name)).read_text())
                .get("metrics", {})
                .get("scaling", {})
            )
            if "scaling_bar_effective" in sc:
                print(
                    f"--- scaling {sc['scaling_x']:.2f}x vs effective bar "
                    f"{sc['scaling_bar_effective']:.2f}x "
                    f"(raw bar {sc['scaling_bar']:.2f}x pro-rated to "
                    f"{sc['cpus']} cpus)",
                    flush=True,
                )
        if name == "e13_latency":
            import json

            metrics = json.loads(Path(bench_path(name)).read_text()).get(
                "metrics", {}
            )
            latency = metrics.get("latency") or {}
            det = metrics.get("determinism") or {}
            if latency:
                print(
                    f"--- p99 cache-hit {latency.get('p99_cache_hit_ms')} ms; "
                    f"replays match: {det.get('replays_match')}",
                    flush=True,
                )
        if name == "e14_routing":
            import json

            metrics = json.loads(Path(bench_path(name)).read_text()).get(
                "metrics", {}
            )
            live = (metrics.get("live") or {}).get("imbalance") or {}
            scale = metrics.get("scale") or {}
            if live:
                print(
                    f"--- live bounded cv {live.get('cv')} vs pinned ring "
                    f"0.6762; scale ups/downs "
                    f"{scale.get('scale_ups')}/{scale.get('scale_downs')}, "
                    f"lost {scale.get('failures', 0) + scale.get('gave_up', 0)}",
                    flush=True,
                )
        print(f"--- recorded {bench_path(name)} (exit {rc})\n", flush=True)
        worst = max(worst, rc)
    return worst


if __name__ == "__main__":
    sys.exit(main())
