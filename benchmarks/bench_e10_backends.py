"""E10 — tile execution backends on the unified kernel engine.

The sweep-kernel refactor routes every iterative solver's operations
through :mod:`repro.parallel.backends`. This benchmark measures what
that buys (and costs) on real hardware:

* serial vs thread wall-clock for one full solve, per method — threads
  win where numpy ufunc loops release the GIL long enough to overlap
  (sweep tiles run on these two only; a process pool runs whole
  problems, in ``solve_many``);
* tile-count sweep on the thread backend — the marginal value of
  finer partitions;
* ``solve_many`` batch throughput: the same workload as a stream of
  independent problems on a shared pool, the service-layer view;
* algebra axis — per-method wall-clock across the registered selection
  semirings, with min-plus as the reference column. The algebra rides
  the kernels' keyword channel as a set of ufunc handles, so the
  min-plus hot path must stay within noise of the pre-algebra engine
  (the acceptance bar is 5%); the other algebras differ only by which
  ufunc the same slab operations dispatch to;
* thread-tile axis — one huang solve at n=32 on two worker threads
  against the serial solve, alternating. The bar (at least 1.15x) is
  gated only on the blocked numpy fused engine, whose large ufunc and
  matmul loops release the GIL; the numba engine's ``njit`` kernels
  hold it (no ``nogil``), so under it threads cannot overlap tile
  compute and the axis is only recorded;
* kernel-tier axis — slab vs fused cold-solve wall-clock per method,
  each tier forced through the private ``_force_tier`` hook. The fused
  tier reduces eq. (2c) candidates as cache-blocked semiring matmuls
  instead of materialising the full lattice; two gates ride it: fused
  ≥ 3.5x slab on the dense min-plus instance, and fused ≥ 2x slab on
  the banded method, whose solve is banded squares plus fused activate
  sweeps;
* auto-regret axis — the execution the code picks when the caller
  names nothing (:mod:`repro.core.plan`'s table: kernel tier and tile
  backend per method and n, batch pool from the batch's predicted
  serial time) against every alternative: a solve against slab and
  fused on serial and on thread tiles, a ``solve_many`` batch against
  serial, thread and process pools, alternating best-of-5 (more rounds
  for cheap cells). The choice is timed as the configuration it names,
  which runs the same code as a call that names nothing. Each cell
  passes when the choice takes at most ``auto_regret_max`` times the
  best alternative's time, or at most ``auto_regret_slack_ms`` more.
  The plain run measures the whole grid (:data:`REGRET_SOLVES`,
  :data:`REGRET_BATCHES`: a cell on each side of every switch in the
  table) and records it; the smoke measures :data:`SMOKE_SOLVES` and
  :data:`SMOKE_BATCHES`, a cell on each side of every switch a smoke
  can afford (the slab solves at huang-banded n=40 take seconds each).

``--smoke`` runs the four gated axes (thread tiles, dense kernel tier,
banded/activate kernel tier, auto regret), prints each axis against
its baseline, and exits non-zero on regression — that is what CI
invokes. On the numba engine the thread and auto-regret axes are
recorded, not gated: the table there keeps every solve fused on serial
tiles, unmeasured.

Correctness is not at stake (every combination commits bitwise-equal
tables — the test suite pins that); this is the operational record the
execution table is made from.
"""

from __future__ import annotations

import sys
import time

from repro.core import list_algebras, plan_for, solve, solve_many
from repro.core.plan import _force_tier, choose_batch_pool
from repro.problems.generators import random_matrix_chain
from repro.util.bench import load_bars, record
from repro.util.tables import format_table

METHODS = ("huang", "huang-banded", "huang-compact")
TILE_BACKENDS = ("serial", "thread")
BATCH_BACKENDS = ("serial", "thread", "process")
ALGEBRAS = tuple(list_algebras())

BENCH_NAME = "e10_backends"

#: fallback gate thresholds; the authoritative copy lives in
#: BENCH_e10_backends.json at the repo root (see repro.util.bench)
DEFAULT_BARS = {
    # thread-tile cold-solve speedup over serial, huang n=32 on two
    # worker threads — must stay at or above this; gated on the numpy
    # fused engine only (numba's njit kernels hold the GIL). Six
    # smokes on 2 vCPUs read 1.27-1.54x; threads that stopped
    # overlapping would read about 1.0x
    "thread_speedup_min": 1.15,
    # fused-tier cold-solve speedup over slab on the dense min-plus
    # gate instance — must stay at or above this (the numpy engine
    # measures ~4.7-5x unloaded; numba higher)
    "fused_speedup_min": 3.5,
    # fused-tier speedup on the banded method (banded squares + fused
    # activate sweeps; numpy engine measures ~3.2x unloaded at the
    # gate size — the banded fused win grows with n as the in-band
    # diagonal composes amortise their per-anchor dispatch)
    "banded_fused_speedup_min": 2.0,
    # the code's execution choice against the best alternative per
    # cell: at most this many times its time, or at most
    # auto_regret_slack_ms more; gated on the numpy fused engine only
    "auto_regret_max": 1.15,
    "auto_regret_slack_ms": 2.0,
}

#: the auto-regret grid's solves, (method, n): every iterative method
#: at 8-32, the larger sizes where a method's switches sit, and rytter
#: below its n=28 memory guard
REGRET_SOLVES = (
    [(m, n) for m in METHODS for n in (8, 16, 24, 32)]
    + [("huang-banded", 40), ("huang-compact", 48), ("huang-compact", 64)]
    + [("rytter", n) for n in (8, 12, 16, 20)]
)

#: the auto-regret grid's batches, (label, [(method, n), ...]): both
#: sides of the serial/process switch, plus a one-item and a mixed batch
REGRET_BATCHES = (
    ("16 x sequential n=64", [("sequential", 64)] * 16),
    ("16 x sequential n=256", [("sequential", 256)] * 16),
    ("32 x sequential n=128", [("sequential", 128)] * 32),
    ("8 x huang n=8", [("huang", 8)] * 8),
    ("8 x huang n=12", [("huang", 12)] * 8),
    ("4 x huang n=20", [("huang", 20)] * 4),
    ("8 x huang-banded n=16", [("huang-banded", 16)] * 8),
    ("8 x huang-compact n=16", [("huang-compact", 16)] * 8),
    ("8 x rytter n=12", [("rytter", 12)] * 8),
    ("1 x huang n=24", [("huang", 24)]),
    (
        "mixed",
        [("sequential", 128)] * 8
        + [("huang", 12)] * 2
        + [("huang-compact", 24), ("rytter", 10)],
    ),
)

#: the smoke's share of the grid: a cell on each side of every switch
#: it can afford (not huang-banded's thread switch at n=36 nor
#: huang-compact's at n=60, whose cells take 20-60 s); rytter's serial
#: side is n=10, since n=12 ties within 15 % of the threads
SMOKE_SOLVES = (
    ("huang", 8),
    ("huang", 16),
    ("huang", 24),
    ("huang-banded", 8),
    ("huang-banded", 16),
    ("huang-compact", 16),
    ("rytter", 10),
    ("rytter", 16),
)
SMOKE_BATCHES = tuple(
    cell
    for cell in REGRET_BATCHES
    if cell[0] in ("16 x sequential n=64", "32 x sequential n=128", "1 x huang n=24")
)


def _solve_on(tier: str, problem, **kwargs):
    """One solve with the kernel tier forced (the benchmark's only use
    of the private hook)."""
    with _force_tier(tier):
        return solve(problem, **kwargs)


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _time_alternating(fn_a, fn_b, repeats: int = 5) -> tuple[float, float]:
    """Best-of-``repeats`` times of two functions run in turns, so a
    slow spell on a shared host lands on both sides of their ratio
    instead of on one."""
    best_a = best_b = float("inf")
    for _ in range(repeats):
        best_a = min(best_a, _time(fn_a, 1))
        best_b = min(best_b, _time(fn_b, 1))
    return best_a, best_b


def backend_comparison_table(n: int = 24, workers: int = 4):
    p = random_matrix_chain(n, seed=0)
    rows = []
    for method in METHODS:
        timings = {}
        for backend in TILE_BACKENDS:
            timings[backend] = _time(
                lambda: solve(p, method=method, backend=backend, workers=workers)
            )
        rows.append(
            (
                method,
                f"{timings['serial'] * 1e3:.1f}",
                f"{timings['thread'] * 1e3:.1f}",
                f"{timings['serial'] / timings['thread']:.2f}x",
            )
        )
    return format_table(
        ["method", "serial ms", "thread ms", "thr speedup"],
        rows,
        title=(
            f"E10a: one solve at n={n}, {workers} workers. Thread wins track "
            "how much of each sweep numpy runs GIL-free."
        ),
    )


def tile_sweep_table(n: int = 24, workers: int = 4):
    p = random_matrix_chain(n, seed=1)
    rows = []
    for tiles in (1, 2, 4, 8, 16):
        t = _time(
            lambda: solve(
                p, method="huang", backend="thread", workers=workers, tiles=tiles
            )
        )
        rows.append((tiles, f"{t * 1e3:.1f}"))
    return format_table(
        ["tiles", "thread ms"],
        rows,
        title=(
            f"E10b: tile-count sweep, huang at n={n}. Past one tile per "
            "worker, finer tiles only add commit overhead."
        ),
    )


def algebra_sweep_table(n: int = 24):
    p = random_matrix_chain(n, seed=2)
    rows = []
    for method in METHODS:
        timings = {
            alg: _time(lambda: solve(p, method=method, algebra=alg, backend="serial"))
            for alg in ALGEBRAS
        }
        ref = timings["min_plus"]
        rows.append(
            (method,)
            + tuple(f"{timings[alg] * 1e3:.1f}" for alg in ALGEBRAS)
            + tuple(f"{timings[alg] / ref:.2f}x" for alg in ALGEBRAS if alg != "min_plus")
        )
    return format_table(
        ["method"]
        + [f"{alg} ms" for alg in ALGEBRAS]
        + [f"{alg}/minplus" for alg in ALGEBRAS if alg != "min_plus"],
        rows,
        title=(
            f"E10d: algebra axis at n={n}, serial backend. One kernel set, "
            "five semirings; ratios near 1.0x mean the algebra indirection "
            "costs nothing (same slab ops, different ufunc)."
        ),
    )


def batch_throughput_table(count: int = 12, n: int = 16, workers: int = 4):
    problems = [random_matrix_chain(n, seed=s) for s in range(count)]
    rows = []
    for backend in BATCH_BACKENDS:
        t = _time(
            lambda: solve_many(
                problems, method="huang-banded", backend=backend, max_workers=workers
            ),
            repeats=2,
        )
        rows.append((backend, f"{t:.2f}", f"{count / t:.1f}"))
    return format_table(
        ["pool", "batch s", "problems/s"],
        rows,
        title=(
            f"E10c: solve_many of {count} × n={n} huang-banded problems, "
            f"{workers} workers. Whole problems per worker — the process "
            "pool overlaps fully, no per-super-step synchronisation."
        ),
    )


def _thread_speedup_stats(n: int = 32, workers: int = 2, repeats: int = 5) -> dict:
    """Cold huang solve, serial against ``workers`` thread tiles, timed
    in turns (the same kernels and tables: the difference is how much
    tile compute the threads overlap)."""
    from repro.core.kernels_fused import fused_backend

    p = random_matrix_chain(n, seed=3)
    t_serial, t_thread = _time_alternating(
        lambda: solve(p, method="huang", backend="serial"),
        lambda: solve(p, method="huang", backend="thread", workers=workers),
        repeats,
    )
    return {
        "thread_n": n,
        "thread_workers": workers,
        "thread_engine": fused_backend(),
        "serial_solve_s": t_serial,
        "thread_solve_s": t_thread,
        "thread_speedup": t_serial / t_thread if t_thread > 0 else float("inf"),
    }


def thread_speedup_table(
    n: int = 32, workers: int = 2, repeats: int = 5, stats: dict | None = None
):
    s = stats if stats is not None else _thread_speedup_stats(n, workers, repeats)
    rows = [
        ("serial", f"{s['serial_solve_s'] * 1e3:.1f}", "1.00x"),
        (
            f"thread x{s['thread_workers']}",
            f"{s['thread_solve_s'] * 1e3:.1f}",
            f"{s['thread_speedup']:.2f}x",
        ),
    ]
    return format_table(
        ["tiles on", "solve ms", "speedup"],
        rows,
        title=(
            f"E10e: thread tiles over serial, huang at n={s['thread_n']}, "
            f"fused engine = {s['thread_engine']}. The threads share the "
            "solver's tables; they overlap only where the kernels release "
            "the GIL."
        ),
    )


def _fused_speedup_stats(n: int = 24, repeats: int = 5) -> dict:
    """Cold-solve slab vs fused on the dense min-plus gate instance
    (huang, serial — the pure kernel-compute comparison, no dispatch).
    The gate runs at n=24: the fused win grows with n (less of the
    solve is sweep bookkeeping), so a smaller instance under-reads it.
    """
    from repro.core.kernels_fused import fused_backend

    p = random_matrix_chain(n, seed=4)
    t_slab, t_fused = _time_alternating(
        lambda: _solve_on("slab", p, method="huang", backend="serial"),
        lambda: _solve_on("fused", p, method="huang", backend="serial"),
        repeats,
    )
    return {
        "fused_n": n,
        "fused_engine": fused_backend(),
        "slab_solve_s": t_slab,
        "fused_solve_s": t_fused,
        "fused_speedup": t_slab / t_fused if t_fused > 0 else float("inf"),
    }


def _banded_fused_speedup_stats(n: int = 32, repeats: int = 5) -> dict:
    """Cold-solve slab vs fused on the banded min-plus gate instance
    (huang-banded, serial). Every step of this solve now runs fused —
    the banded square as in-band diagonal composes, the activate sweep
    as a single-pass elementwise lowering — so the row gates both new
    kernels at once. The gate runs at n=32: the per-anchor dispatch of
    the banded square amortises with n, so a smaller instance
    under-reads the win."""
    p = random_matrix_chain(n, seed=4)
    t_slab, t_fused = _time_alternating(
        lambda: _solve_on("slab", p, method="huang-banded", backend="serial"),
        lambda: _solve_on("fused", p, method="huang-banded", backend="serial"),
        repeats,
    )
    return {
        "banded_fused_n": n,
        "banded_slab_solve_s": t_slab,
        "banded_fused_solve_s": t_fused,
        "banded_fused_speedup": t_slab / t_fused if t_fused > 0 else float("inf"),
    }


def kernel_tier_table(n: int = 24, repeats: int = 3):
    from repro.core.kernels_fused import fused_backend

    p = random_matrix_chain(n, seed=4)
    rows = []
    for method in METHODS + ("rytter",):
        t_slab = _time(
            lambda: _solve_on("slab", p, method=method, backend="serial"), repeats
        )
        t_fused = _time(
            lambda: _solve_on("fused", p, method=method, backend="serial"), repeats
        )
        rows.append(
            (
                method,
                f"{t_slab * 1e3:.1f}",
                f"{t_fused * 1e3:.1f}",
                f"{t_slab / t_fused:.2f}x",
            )
        )
    return format_table(
        ["method", "slab ms", "fused ms", "fused speedup"],
        rows,
        title=(
            f"E10f: kernel tier at n={n}, serial backend, min_plus, "
            f"fused engine = {fused_backend()}. Same candidate multiset, "
            "reduced as semiring matmuls (dense/rytter), in-band diagonal "
            "composes (banded), or single-pass elementwise lowerings "
            "(activate) instead of materialised slabs; only the compact "
            "square/pebble keep one compute for both tiers (their "
            "slice-shift sweeps already reduce as they compose), so the "
            "compact row tracks how much of that solve the fused "
            "activate step covers."
        ),
    )


def _best_alternating(runs: dict, repeats: int, budget_s: float = 8.0) -> dict:
    """Best seconds per named run, the runs taken in turns: at least
    ``repeats`` rounds, and more (up to 4x) while the rounds so far took
    under ``budget_s``. On a shared 2-vCPU host the memory-bound solves
    (huang-compact at n=24-48) time bimodally, about 140 or 220 ms at
    n=32 for either tier, so five rounds can miss the fast mode of one
    configuration and read two tying tiers 1.3-1.5x apart."""
    best = dict.fromkeys(runs, float("inf"))
    start = time.perf_counter()
    for rounds in range(1, 4 * repeats + 1):
        for name, fn in runs.items():
            best[name] = min(best[name], _time(fn, 1))
        if rounds >= repeats and time.perf_counter() - start > budget_s:
            break
    return best


def _regret_cell(label: str, choice: str, best: dict) -> dict:
    """The choice is timed as the configuration it names (the same code
    path as a call that names nothing), so the regret compares two
    configurations, never two draws of one."""
    winner = min(best, key=best.get)
    return {
        "cell": label,
        "choice": choice,
        "choice_ms": best[choice] * 1e3,
        "best": winner,
        "best_ms": best[winner] * 1e3,
        "regret": best[choice] / best[winner],
    }


def _regret_solve_cell(method: str, n: int, repeats: int) -> dict:
    """The table's (tier, tile backend) for one solve against slab and
    fused on serial and thread tiles (default worker count, as the
    choice uses)."""
    p = random_matrix_chain(n, seed=5)
    plan = plan_for(p, method=method)
    runs = {
        f"{tier}/{backend}": (
            lambda tier=tier, backend=backend: _solve_on(
                tier, p, method=method, backend=backend
            )
        )
        for tier in ("slab", "fused")
        for backend in ("serial", "thread")
    }
    best = _best_alternating(runs, repeats)
    return _regret_cell(f"{method} n={n}", f"{plan.tier}/{plan.backend}", best)


def _regret_batch_cell(label: str, spec: list, repeats: int) -> dict:
    """The table's pool for one batch against serial, thread and fresh
    process pools (default worker count, as the choice uses)."""
    items = [
        (random_matrix_chain(n, seed=s), method) for s, (method, n) in enumerate(spec)
    ]
    choice = choose_batch_pool([(p, m, {}) for p, m in items])
    runs = {
        pool: lambda pool=pool: solve_many(items, backend=pool)
        for pool in BATCH_BACKENDS
    }
    return _regret_cell(label, choice, _best_alternating(runs, repeats))


def regret_stats(solves, batches, repeats: int = 5) -> dict:
    """The auto-regret axis over ``solves`` and ``batches``, JSON-ready."""
    from repro.core.kernels_fused import fused_backend

    cells = [_regret_solve_cell(m, n, repeats) for m, n in solves]
    cells += [_regret_batch_cell(label, spec, repeats) for label, spec in batches]
    return {
        "auto_regret_engine": fused_backend(),
        "auto_regret_repeats": repeats,
        "auto_regret": max(cell["regret"] for cell in cells),
        "auto_regret_cells": cells,
    }


def regret_table(stats: dict, bars: dict) -> str:
    rows = [
        (
            c["cell"],
            c["choice"],
            f"{c['choice_ms']:.1f}",
            c["best"],
            f"{c['best_ms']:.1f}",
            f"{c['regret']:.2f}x",
            "ok" if not _regret_missed(c, bars) else "MISS",
        )
        for c in stats["auto_regret_cells"]
    ]
    return format_table(
        ["cell", "choice", "choice ms", "best", "best ms", "regret", "bar"],
        rows,
        title=(
            "E10g: the code's execution choice against every alternative, "
            f"best of at least {stats['auto_regret_repeats']} alternating "
            f"(fused engine = {stats['auto_regret_engine']}; bar: "
            f"<= {bars['auto_regret_max']:.2f}x or "
            f"<= {bars['auto_regret_slack_ms']:.0f} ms over the best)"
        ),
    )


def _regret_missed(cell: dict, bars: dict) -> bool:
    return (
        cell["regret"] > bars["auto_regret_max"]
        and cell["choice_ms"] - cell["best_ms"] > bars["auto_regret_slack_ms"]
    )


def regret_run(solves, batches, repeats: int = 5) -> int:
    """The plain run's auto-regret axis over the whole grid: print it,
    record it, and return non-zero when a cell misses its bar."""
    bars = load_bars(BENCH_NAME, DEFAULT_BARS)
    stats = regret_stats(solves, batches, repeats)
    print(regret_table(stats, bars))
    record(BENCH_NAME, stats, bars=bars)
    missed = [c["cell"] for c in stats["auto_regret_cells"] if _regret_missed(c, bars)]
    for cell in missed:
        print(f"MISS: {cell}")
    return 1 if missed else 0


def smoke_stats(
    thread_n: int = 32, workers: int = 2, fused_n: int = 24, banded_n: int = 32
) -> dict:
    """The smoke measurement, JSON-ready (what the trajectory records)."""
    s = _thread_speedup_stats(n=thread_n, workers=workers)
    s.update(_fused_speedup_stats(n=fused_n))
    s.update(_banded_fused_speedup_stats(n=banded_n))
    s.update(regret_stats(SMOKE_SOLVES, SMOKE_BATCHES))
    return s


def smoke_failures(stats: dict, bars: dict) -> list[str]:
    """Gate violations for one measurement against one bar set."""
    failed = []
    # numba's njit kernels hold the GIL, so only the numpy engine's
    # thread tiles can overlap.
    if (
        stats["thread_engine"] == "numpy"
        and stats["thread_speedup"] < bars["thread_speedup_min"]
    ):
        failed.append(
            "thread tiles are below "
            f"{bars['thread_speedup_min']:.2f}x serial cold-solve throughput "
            f"(measured {stats['thread_speedup']:.2f}x)"
        )
    if stats["fused_speedup"] < bars["fused_speedup_min"]:
        failed.append(
            "fused kernel tier is below "
            f"{bars['fused_speedup_min']:.1f}x slab cold-solve throughput "
            f"(measured {stats['fused_speedup']:.2f}x on the "
            f"{stats['fused_engine']} engine)"
        )
    if stats["banded_fused_speedup"] < bars["banded_fused_speedup_min"]:
        failed.append(
            "banded/activate fused tier is below "
            f"{bars['banded_fused_speedup_min']:.1f}x slab cold-solve "
            f"throughput (measured {stats['banded_fused_speedup']:.2f}x "
            f"on the {stats['fused_engine']} engine)"
        )
    # the table is measured on the numpy engine; under numba it keeps
    # every solve fused on serial tiles, unmeasured
    if stats["auto_regret_engine"] == "numpy":
        for cell in stats["auto_regret_cells"]:
            if _regret_missed(cell, bars):
                failed.append(
                    f"the code's choice for {cell['cell']} ({cell['choice']}, "
                    f"{cell['choice_ms']:.1f} ms) is {cell['regret']:.2f}x the "
                    f"best ({cell['best']}, {cell['best_ms']:.1f} ms)"
                )
    return failed


def smoke(
    thread_n: int = 32, workers: int = 2, fused_n: int = 24, banded_n: int = 32
) -> int:
    """CI guard over the four gated axes: thread tiles must beat the
    serial solve by ``thread_speedup_min`` (on the numpy fused engine),
    the fused kernel tier must beat slab cold-solve throughput by the
    trajectory bars on both the dense and the banded (banded square +
    fused activate) gate instances, and on the numpy engine the code's
    execution choice must stay within the auto-regret bar on every
    smoke cell. Returns a process exit code
    (non-zero = regression). The tables and the gates are rendered from
    one measurement, so the printed numbers are the gated numbers; bars
    come from BENCH_e10_backends.json and the measurement is recorded
    back into it (the perf trajectory). The summary prints each axis's
    speedup over its baseline."""
    bars = load_bars(BENCH_NAME, DEFAULT_BARS)
    s = smoke_stats(
        thread_n=thread_n, workers=workers, fused_n=fused_n, banded_n=banded_n
    )
    print(thread_speedup_table(stats=s))
    gate = (
        f"bar >= {bars['thread_speedup_min']:.2f}x"
        if s["thread_engine"] == "numpy"
        else "recorded, not gated: the numba kernels hold the GIL"
    )
    print(
        f"\naxis thread:      {s['thread_workers']} thread tiles at "
        f"{s['thread_speedup']:.2f}x serial cold-solve throughput, "
        f"huang n={s['thread_n']} fused[{s['thread_engine']}] ({gate})"
    )
    print(
        f"axis kernel tier: fused[{s['fused_engine']}] at "
        f"{s['fused_speedup']:.2f}x slab cold-solve throughput, "
        f"huang n={s['fused_n']} min_plus serial "
        f"(bar >= {bars['fused_speedup_min']:.1f}x)"
    )
    print(
        f"axis banded/act:  fused[{s['fused_engine']}] at "
        f"{s['banded_fused_speedup']:.2f}x slab cold-solve throughput, "
        f"huang-banded n={s['banded_fused_n']} min_plus serial "
        f"(bar >= {bars['banded_fused_speedup_min']:.1f}x)"
    )
    print()
    print(regret_table(s, bars))
    regret_gate = (
        f"bar <= {bars['auto_regret_max']:.2f}x or "
        f"<= {bars['auto_regret_slack_ms']:.0f} ms over the best"
        if s["auto_regret_engine"] == "numpy"
        else "recorded, not gated: the table is measured on the numpy engine"
    )
    print(
        f"\naxis auto regret: the code's choice at worst {s['auto_regret']:.2f}x "
        f"the best alternative over {len(s['auto_regret_cells'])} cells "
        f"({regret_gate})"
    )
    record(BENCH_NAME, s, bars=bars)
    failed = smoke_failures(s, bars)
    for reason in failed:
        print(f"FAIL: {reason}")
    if failed:
        return 1
    print("OK: all axes meet their trajectory bars")
    return 0


def test_e10_backend_comparison(report, benchmark):
    report(
        "e10_backends",
        benchmark.pedantic(backend_comparison_table, rounds=1, iterations=1),
    )


def test_e10_tile_sweep(report, benchmark):
    report("e10_backends", benchmark.pedantic(tile_sweep_table, rounds=1, iterations=1))


def test_e10_batch_throughput(report, benchmark):
    report(
        "e10_backends",
        benchmark.pedantic(batch_throughput_table, rounds=1, iterations=1),
    )


def test_e10_algebra_sweep(report, benchmark):
    report(
        "e10_backends",
        benchmark.pedantic(algebra_sweep_table, rounds=1, iterations=1),
    )


def test_e10_thread_speedup(report, benchmark):
    report(
        "e10_backends",
        benchmark.pedantic(thread_speedup_table, rounds=1, iterations=1),
    )


def test_e10_kernel_tier_axis(report, benchmark):
    report(
        "e10_backends",
        benchmark.pedantic(kernel_tier_table, rounds=1, iterations=1),
    )


def test_e10_tiled_iteration_kernel(benchmark):
    """Wall-clock kernel: one thread-tiled huang iteration at n=32."""
    from repro.core.huang import HuangSolver

    s = HuangSolver(random_matrix_chain(32, seed=0), backend="thread", tiles=4)
    benchmark(s.iterate)
    s.close()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--smoke" in argv:
        return smoke()
    print(backend_comparison_table())
    print()
    print(tile_sweep_table())
    print()
    print(batch_throughput_table())
    print()
    print(algebra_sweep_table())
    print()
    print(thread_speedup_table())
    print()
    print(kernel_tier_table())
    print()
    return regret_run(REGRET_SOLVES, REGRET_BATCHES, repeats=5)


if __name__ == "__main__":
    sys.exit(main())
