"""E8 — §1/§2: the three applications, cross-checked, plus wall-clock
scaling of the implementations.

Paper scope: recurrence (*) covers optimal matrix-multiplication order,
optimal binary search trees and optimal polygon triangulation. Every
solver must produce the same optima on all three; the wall-clock table
records how the *implementations* scale (the PRAM claims are counted in
E1/E7 — this table is about the software).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.banded import BandedSolver
from repro.core.huang import HuangSolver
from repro.core.knuth import solve_knuth
from repro.core.rytter import RytterSolver
from repro.core.sequential import solve_sequential
from repro.core.termination import WStable
from repro.problems.generators import random_bst, random_matrix_chain, random_polygon
from repro.util.tables import format_table


def cross_check_table(samples=5):
    rows = []
    for family, make, n in [
        ("matrix-chain", lambda s: random_matrix_chain(14, seed=s), 14),
        ("optimal-bst", lambda s: random_bst(12, seed=s), 13),
        ("triangulation", lambda s: random_polygon(14, seed=s), 13),
    ]:
        agree = 0
        for seed in range(samples):
            prob = make(seed)
            ref = solve_sequential(prob).value
            vals = [
                HuangSolver(prob).run().value,
                BandedSolver(prob).run().value,
                RytterSolver(prob).run().value,
            ]
            if family == "optimal-bst":
                vals.append(solve_knuth(prob).value)
            if all(np.isclose(v, ref) for v in vals):
                agree += 1
        rows.append((family, n, samples, agree))
    return format_table(
        ["family", "n", "instances", "all solvers agree"],
        rows,
        title=(
            "E8a: cross-solver agreement on the paper's three applications "
            "(sequential, huang, banded, rytter, + knuth for BSTs)"
        ),
    )


def scaling_table():
    rows = []
    for n in [12, 16, 24, 32, 40]:
        prob = random_matrix_chain(n, seed=3)
        timings = {}
        t0 = time.perf_counter()
        ref = solve_sequential(prob)
        timings["sequential"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        out_b = BandedSolver(prob, max_n=n).run(WStable(), max_iterations=80)
        timings["banded+wstable"] = time.perf_counter() - t0
        assert np.isclose(out_b.value, ref.value)

        if n <= 32:
            t0 = time.perf_counter()
            out_h = HuangSolver(prob, max_n=n).run(WStable(), max_iterations=80)
            timings["full"] = time.perf_counter() - t0
            assert np.isclose(out_h.value, ref.value)
        else:
            timings["full"] = float("nan")

        if n <= 20:
            t0 = time.perf_counter()
            out_r = RytterSolver(prob, max_n=n).run()
            timings["rytter"] = time.perf_counter() - t0
            assert np.isclose(out_r.value, ref.value)
        else:
            timings["rytter"] = float("nan")
        rows.append(
            (
                n,
                timings["sequential"],
                timings["banded+wstable"],
                timings["full"],
                timings["rytter"],
            )
        )
    return format_table(
        ["n", "sequential (s)", "banded (s)", "full huang (s)", "rytter (s)"],
        rows,
        title=(
            "E8b: wall-clock scaling of the implementations (vectorised "
            "sweeps; the PRAM *counts* — not these wall-clocks — carry the "
            "paper's asymptotic claims, see E1/E7)"
        ),
        floatfmt=".4f",
    )


def backend_table():
    prob = random_matrix_chain(20, seed=1)
    ref = solve_sequential(prob).value
    rows = []
    for backend in ["serial", "thread", "process"]:
        t0 = time.perf_counter()
        with HuangSolver(prob, backend=backend, tiles=4) as s:
            out = s.run(WStable(), max_iterations=60)
        dt = time.perf_counter() - t0
        rows.append((backend, dt, bool(np.isclose(out.value, ref))))
    return format_table(
        ["backend", "wall-clock (s)", "value correct"],
        rows,
        title=(
            "E8c: execution backends produce identical results (CREW "
            "discipline); wall-clock parallel speedup is NOT claimed — "
            "CPython's GIL and IPC overheads dominate at these sizes"
        ),
        floatfmt=".4f",
    )


def test_e8_cross_check(report, benchmark):
    report("e8_correctness", benchmark.pedantic(cross_check_table, rounds=1, iterations=1))


def test_e8_scaling(report, benchmark):
    report("e8_correctness", benchmark.pedantic(scaling_table, rounds=1, iterations=1))


def test_e8_backends(report, benchmark):
    report("e8_correctness", benchmark.pedantic(backend_table, rounds=1, iterations=1))


def test_e8_sequential_kernel(benchmark):
    prob = random_matrix_chain(64, seed=0)
    value = benchmark(lambda: solve_sequential(prob).value)
    assert value > 0


def test_e8_full_iteration_kernel(benchmark):
    s = HuangSolver(random_matrix_chain(24, seed=0))
    benchmark(s.iterate)
