"""Solvers for recurrence (*): the paper's algorithm and all baselines.

* :mod:`~repro.core.sequential` — the classical O(n³) dynamic program
  (the paper's sequential reference, [1]), and the same sweep over
  Knuth's split windows, O(n²), for families that declare the
  quadrangle inequality (optimal BSTs);
* :mod:`~repro.core.huang` — the paper's algorithm (Sections 2–4):
  2·sqrt(n) iterations of a-activate / a-square / a-pebble over the
  w'/pw' tables, O(n⁵) work per iteration;
* :mod:`~repro.core.banded` — the Section 5 processor reduction: gap
  band ``(j-i)-(q-p) <= 2·ceil(sqrt(n))`` and optional size-class pebble
  scheduling, O(n⁴·sqrt(n)) work total;
* :mod:`~repro.core.rytter` — Rytter's [8] algorithm: O(log n) phases of
  full min-plus squaring of the partial-weight matrix (O(n⁶) work per
  phase), the baseline of the headline comparison;
* :mod:`~repro.core.kernels` — the unified sweep-kernel engine: every
  iterative solver's operations as tile-compute-commit kernels executed
  on a pluggable backend (serial / thread / process);
* :mod:`~repro.core.algebra` — the pluggable selection-semiring
  algebras the kernels compute over (``min_plus`` default, plus
  ``max_plus``, ``minimax``, ``maxmin``, ``lex_min_plus``);
* :mod:`~repro.core.termination` — iteration schedules / early stopping
  (Section 7's open problem);
* :mod:`~repro.core.exact_pw` — sequential ground truth for the
  pw(i,j,p,q) table (used by tests);
* :mod:`~repro.core.reconstruct` — optimal-tree recovery from cost
  tables;
* :mod:`~repro.core.cost_model` — symbolic PRAM costs of every algorithm
  and the processor–time-product comparison;
* :mod:`~repro.core.api` — the top-level :func:`~repro.core.api.solve`
  and the batched :func:`~repro.core.api.solve_many` service layer.
"""

from repro.core.api import solve, solve_many, plan_for, SolveResult, BatchItem
from repro.core.plan import SweepPlan, PlanStep, compile_plan
from repro.core.algebra import (
    SelectionSemiring,
    get_algebra,
    list_algebras,
    register_algebra,
)
from repro.core.kernels import KernelEngine, SweepKernel
from repro.core.sequential import solve_sequential, solve_knuth, SequentialResult
from repro.core.huang import HuangSolver, IterationTrace
from repro.core.banded import BandedSolver
from repro.core.compact import CompactBandedSolver
from repro.core.rytter import RytterSolver
from repro.core.termination import (
    FixedIterations,
    WStable,
    WPWStable,
    RootStable,
    UntilValue,
    default_schedule_length,
)
from repro.core.hybrid import HybridSolver
from repro.core.lockstep import run_lockstep, LockstepReport
from repro.core.reconstruct import reconstruct_tree
from repro.core.cost_model import AlgorithmCost, COST_MODELS, comparison_table

__all__ = [
    "solve",
    "solve_many",
    "plan_for",
    "SweepPlan",
    "PlanStep",
    "compile_plan",
    "SolveResult",
    "BatchItem",
    "SelectionSemiring",
    "get_algebra",
    "list_algebras",
    "register_algebra",
    "KernelEngine",
    "SweepKernel",
    "solve_sequential",
    "SequentialResult",
    "solve_knuth",
    "HuangSolver",
    "IterationTrace",
    "BandedSolver",
    "CompactBandedSolver",
    "RytterSolver",
    "FixedIterations",
    "WStable",
    "WPWStable",
    "RootStable",
    "UntilValue",
    "default_schedule_length",
    "HybridSolver",
    "run_lockstep",
    "LockstepReport",
    "reconstruct_tree",
    "AlgorithmCost",
    "COST_MODELS",
    "comparison_table",
]
