"""The classical O(n³) sequential dynamic program for recurrence (*).

This is the paper's sequential reference point ([1], Aho–Hopcroft–
Ullman): fill ``c(i, j)`` by increasing interval length, selecting over
all splits. It provides ground truth for every parallel solver and the
split table for optimal-tree reconstruction.

The recurrence's candidate expression is written once, in
:func:`best_split`, and the bottom-up fill once, in
:func:`sweep_window`. Every path that evaluates (*) cell by cell goes
through them: the cold solve below sweeps the whole triangle, a delta
re-solve (:mod:`repro.core.delta`) sweeps the dirty window of a cached
table, :class:`~repro.core.hybrid.HybridSolver` sweeps the short spans
it seeds, and :mod:`repro.core.reconstruct` asks the cell function for
its witnesses.

The ``algebra`` parameter generalises the recurrence over any
registered :class:`~repro.core.algebra.SelectionSemiring` — the same
bottom-up sweep with ``combine`` selecting the split and ``extend``
composing the parts. This is the per-algebra reference DP the property
and golden suites pin the iterative solvers against; the default
``min_plus`` path is bit-for-bit the historical implementation.

Each cell reads its split costs from
:meth:`~repro.problems.base.ParenthesizationProblem.split_cost_row`,
which the problem families compute in closed form, so a solve takes
O(n²) space: it never builds the dense (n+1)³ ``f`` table. The inner
loop over splits is vectorised (one numpy reduction per cell), so
instances up to n of a few thousand are practical — far beyond what the
Θ(n⁴)-memory parallel table solvers can hold — which is what lets the
iteration-count experiments scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.algebra import SelectionSemiring, get_algebra
from repro.errors import InvalidProblemError
from repro.problems.base import ParenthesizationProblem

__all__ = [
    "solve_sequential",
    "SequentialResult",
    "best_split",
    "sweep_window",
    "set_leaves",
    "work_count_sequential",
]


@dataclass(frozen=True)
class SequentialResult:
    """Output of the sequential DP.

    ``w[i, j]`` is the optimal cost of interval ``(i, j)`` (``+inf`` on
    invalid cells); ``split[i, j]`` the optimal split point (``-1`` where
    undefined, i.e. leaves and invalid cells); ``value`` is ``c(0, n)``.
    """

    w: np.ndarray
    split: np.ndarray
    value: float

    @property
    def n(self) -> int:
        return self.w.shape[0] - 1


def best_split(
    problem: ParenthesizationProblem,
    alg: SelectionSemiring,
    w: np.ndarray,
    i: int,
    j: int,
) -> tuple[int, float]:
    """The selected split ``k`` of cell ``(i, j)`` and its candidate.

    Evaluates ``extend(extend(w[i, k], w[k, j]), f(i, k, j))`` for every
    ``i < k < j`` from the table ``w`` (in ``alg``'s domain) and picks
    the first extremum through the algebra's argwitness channel. The
    value is the selected candidate itself, never a re-reduction, so
    every caller commits and compares the same bits.
    """
    cand = alg.extend(
        alg.extend(w[i, i + 1 : j], w[i + 1 : j, j]),
        alg.encode_f(problem.split_cost_row(i, j)),
    )
    best = int(alg.argwitness(cand))
    return i + 1 + best, cand[best]


def sweep_window(
    problem: ParenthesizationProblem,
    alg: SelectionSemiring,
    w: np.ndarray,
    *,
    lo: int = 0,
    hi: int | None = None,
    max_length: int | None = None,
    split: np.ndarray | None = None,
) -> None:
    """Fill ``w`` in rising length order over every cell ``(i, j)`` with
    ``j >= lo`` and ``i <= hi`` (default: all of them), of length 2 up
    to ``max_length`` (default ``n``); cells outside the window are read
    as they stand. ``split``, when given, records each cell's selected
    split.

    A NaN split cost makes its cell select the NaN (argmin and argmax
    return the first one), so one scalar test per cell rejects it
    without scanning each row.
    """
    n = problem.n
    hi = n if hi is None else hi
    top = n if max_length is None else max_length
    for length in range(2, top + 1):
        for i in range(max(0, lo - length), min(n - length, hi) + 1):
            j = i + length
            k, value = best_split(problem, alg, w, i, j)
            if value != value:
                raise InvalidProblemError(f"f(i, k, j) contains NaN at cell ({i}, {j})")
            w[i, j] = value
            if split is not None:
                split[i, j] = k


def set_leaves(
    problem: ParenthesizationProblem, alg: SelectionSemiring, w: np.ndarray
) -> None:
    """Write the validated, encoded ``init`` costs onto the unit
    intervals ``(i, i+1)`` of ``w``."""
    init = problem.init_vector()
    if (init < 0).any() or np.isnan(init).any():
        raise InvalidProblemError("init costs must be non-negative and finite")
    idx = np.arange(problem.n)
    w[idx, idx + 1] = alg.encode_init(init)


def solve_sequential(
    problem: ParenthesizationProblem,
    *,
    algebra: SelectionSemiring | str | None = None,
) -> SequentialResult:
    """Solve recurrence (*) bottom-up in O(n³) time and O(n²) space.

    ``algebra`` selects the semiring the recurrence runs over (``None``
    resolves to the problem family's ``preferred_algebra``); the
    returned ``w`` table is in the algebra's (encoded) domain, the same
    domain the iterative solvers' tables live in.
    """
    n = problem.n
    if algebra is None:
        algebra = getattr(problem, "preferred_algebra", "min_plus")
    alg = get_algebra(algebra)
    w = alg.full((n + 1, n + 1))
    split = np.full((n + 1, n + 1), -1, dtype=np.int64)
    set_leaves(problem, alg, w)
    sweep_window(problem, alg, w, split=split)
    return SequentialResult(w=w, split=split, value=float(w[0, n]))


def work_count_sequential(n: int) -> int:
    """Exact number of split candidates examined by the sequential DP:
    sum over intervals of (length - 1) = C(n+1, 3) = n(n²-1)/6.

    Used by the E1 processor–time-product table as the sequential
    work baseline.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * (n * n - 1) // 6
