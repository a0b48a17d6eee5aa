#!/usr/bin/env python
"""Optimal binary search trees: build a search tree for skewed access
frequencies and compare the paper's parallel algorithm against Knuth's
O(n²) sequential method.

Run:  python examples/optimal_bst_demo.py
"""

import numpy as np

from repro.core import solve, solve_knuth
from repro.core.termination import WStable
from repro.problems import OptimalBSTProblem
from repro.problems.generators import random_bst
from repro.util.timing import Stopwatch
from repro.viz import render_tree

# --- the CLRS example ---------------------------------------------------
problem = OptimalBSTProblem(
    p=[0.15, 0.10, 0.05, 0.10, 0.20],
    q=[0.05, 0.10, 0.05, 0.05, 0.05, 0.10],
)
result = solve(problem, method="huang", reconstruct=True)
print(f"CLRS instance: expected search cost = {result.value:.4f} (book: 2.75)")
print("Tree (split point k at node (i,j) = key k at the subtree root):")
print(render_tree(result.tree))

# --- a Zipf-weighted workload -------------------------------------------
zipf = random_bst(18, seed=7, zipf=1.3)
print(f"\nZipf workload: {zipf.describe()}")

sw_knuth, sw_huang = Stopwatch(), Stopwatch()
with sw_knuth:
    v_knuth = solve_knuth(zipf).value
with sw_huang:
    out = solve(zipf, method="huang-banded", policy=WStable())
print(f"knuth O(n^2):          {v_knuth:.6f}  ({sw_knuth.elapsed * 1e3:.1f} ms)")
print(
    f"huang-banded (w-stable): {out.value:.6f}  "
    f"({sw_huang.elapsed * 1e3:.1f} ms, {out.iterations} iterations)"
)
assert np.isclose(v_knuth, out.value)

# Where do the heavy keys end up? Read depths off the optimal tree.
tree = solve(zipf, method="sequential", reconstruct=True).tree
p = zipf.p
depth_of_key = {}
stack = [(tree, 0)]
while stack:
    node, depth = stack.pop()
    if not node.is_leaf:
        depth_of_key[node.split] = depth + 1  # key k sits at the split
        stack.append((node.left, depth + 1))
        stack.append((node.right, depth + 1))
heavy = sorted(range(1, zipf.num_keys + 1), key=lambda k: -p[k - 1])[:5]
print("\nHeaviest keys sit near the root:")
for k in heavy:
    print(f"  key {k:2d}: weight {p[k - 1]:.4f} -> depth {depth_of_key[k]}")
