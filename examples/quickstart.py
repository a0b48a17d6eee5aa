#!/usr/bin/env python
"""Quickstart: solve a matrix-chain instance with every algorithm,
pick an execution backend, and batch heterogeneous problems.

Run:  python examples/quickstart.py
"""

from repro.core import solve, solve_many
from repro.core.cost_model import comparison_table
from repro.problems import (
    MatrixChainProblem,
    OptimalBSTProblem,
    PolygonTriangulationProblem,
)
from repro.viz import render_tree

# The classic six-matrix instance (CLRS §15.2): optimal cost 15125.
problem = MatrixChainProblem([30, 35, 15, 5, 10, 20, 25])
print(f"Problem: {problem.describe()}\n")

for method in ("sequential", "huang", "huang-banded", "huang-compact", "rytter"):
    result = solve(problem, method=method)
    iters = f", {result.iterations} iterations" if result.iterations else ""
    print(f"{method:13s} -> optimal cost {result.value:.0f}{iters}")

# Every iterative method runs its sweeps through the kernel engine, so
# the tile backend is one keyword — serial or thread. Both commit
# bitwise-identical tables.
for backend in ("serial", "thread"):
    result = solve(problem, method="huang", backend=backend, workers=4)
    print(f"backend={backend:8s} -> {result.value:.0f} ({result.iterations} iterations)")

# The batched service layer: heterogeneous problems on a shared worker
# pool, results in submission order. Items may carry their own method.
batch = [
    MatrixChainProblem([10, 20, 5, 30]),
    (OptimalBSTProblem([0.15, 0.10, 0.05, 0.10, 0.20],
                       [0.05, 0.10, 0.05, 0.05, 0.05, 0.10]), "huang-banded"),
    (PolygonTriangulationProblem([(0, 0), (1, 0), (1, 1), (0, 1)],
                                 rule="perimeter"), "huang-compact"),
]
print("\nsolve_many on a thread pool:")
for r in solve_many(batch, method="huang", backend="thread", max_workers=3):
    print(f"  {r.method:13s} n={r.n}  value={r.value:.4g}")

# Reconstruct and draw the optimal parenthesisation.
result = solve(problem, method="huang", reconstruct=True)
print("\nOptimal parenthesisation tree (node (i,j) = product A_{i+1}..A_j):")
print(render_tree(result.tree))

# The headline of the paper: processor-time products of the algorithms.
print("\n" + comparison_table([64]))
