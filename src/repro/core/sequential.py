"""The classical O(n³) sequential dynamic program for recurrence (*).

This is the paper's sequential reference point ([1], Aho–Hopcroft–
Ullman): fill ``c(i, j)`` by increasing interval length, selecting over
all splits. It provides ground truth for every parallel solver and the
split table for optimal-tree reconstruction.

The recurrence's candidate expression is written once, in
:func:`_candidates`, and the bottom-up fill once, in
:func:`sweep_window`. Every path that evaluates (*) goes through them:
the cold solve below sweeps the whole triangle, a delta re-solve
(:mod:`repro.core.delta`) sweeps the dirty window of a cached table,
:class:`~repro.core.hybrid.HybridSolver` sweeps the short spans it
seeds, and :mod:`repro.core.reconstruct` asks the one-cell case,
:func:`best_split`, for its witnesses.

The ``algebra`` parameter generalises the recurrence over any
registered :class:`~repro.core.algebra.SelectionSemiring` — the same
bottom-up sweep with ``combine`` selecting the split and ``extend``
composing the parts. This is the per-algebra reference DP the property
and golden suites pin the iterative solvers against; the default
``min_plus`` path is bit-for-bit the historical implementation.

Cost model. A cell of length ``L`` reads only shorter cells, so all
cells of one diagonal are independent — the independence the paper's
parallel algorithm is built on. The sweep evaluates the window's run
of cells on each diagonal in one numpy pass over a ``(cells, L - 1)``
block: zero-copy strided views of ``w`` for the operands, the split
costs from
:meth:`~repro.problems.base.ParenthesizationProblem.split_cost_segment`
(closed form in the problem families, so a solve takes O(n²) space and
never builds the dense (n+1)³ ``f`` table), one argwitness per row, and
strided writes of the selected candidates. A solve therefore pays
O(n) numpy dispatches rather than one per cell; the Θ(n³) candidate
work runs in compiled loops. Only the grouping of elementwise calls
changes with the segment, never the order of any sum, so every table
is bitwise what a cell-by-cell fill produces. A one-cell segment (a
delta window one column wide, such as an edit of the last weight)
takes basic-slice views, which are cheaper than building strided ones.
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


def _candidates(
    problem: ParenthesizationProblem,
    alg: SelectionSemiring,
    left: np.ndarray,
    right: np.ndarray,
    length: int,
    i0: int,
    cells: int,
) -> np.ndarray:
    """Recurrence (*)'s candidates ``extend(extend(w(i, k), w(k, j)),
    f(i, k, j))`` for ``cells`` consecutive cells of the diagonal
    ``length``, one row per cell ``(i0 + c, i0 + c + length)`` over its
    splits ``k = i+1 .. j-1``; ``left`` and ``right`` are the ``w(i,
    k)`` and ``w(k, j)`` operands (in ``alg``'s domain), broadcastable
    to that ``(cells, length - 1)`` block."""
    return alg.extend(
        alg.extend(left, right),
        alg.encode_f(problem.split_cost_segment(length, i0, cells)),
    )


def best_split(
    problem: ParenthesizationProblem,
    alg: SelectionSemiring,
    w: np.ndarray,
    i: int,
    j: int,
) -> tuple[int, float]:
    """The selected split ``k`` of cell ``(i, j)`` and its candidate.

    The one-cell case of the sweep: evaluates the candidates of every
    ``i < k < j`` from the table ``w`` (in ``alg``'s domain) and picks
    the first extremum through the algebra's argwitness channel. The
    value is the selected candidate itself, never a re-reduction, so
    every caller commits and compares the same bits.
    """
    cand = _candidates(problem, alg, w[i, i + 1 : j], w[i + 1 : j, j], j - i, i, 1).ravel()
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
    split. Both tables must be C-contiguous.

    The window's cells on one diagonal form a contiguous run, which is
    evaluated in one pass (module docstring). A NaN split cost makes its
    cell select the NaN (argmin and argmax return the first one), so
    one test of the selected values per diagonal rejects it, naming the
    first such cell, without scanning the candidates.
    """
    n = problem.n
    hi = n if hi is None else hi
    top = n if max_length is None else max_length
    tables = (w,) if split is None else (w, split)
    if not all(t.flags.c_contiguous for t in tables):
        raise ValueError("sweep_window needs C-contiguous tables")
    flat_w = w.reshape(-1)
    flat_split = None if split is None else split.reshape(-1)
    for length in range(2, top + 1):
        i0 = max(0, lo - length)
        cells = min(n - length, hi) - i0 + 1
        if cells == 1:
            # scalar reads, test and writes: cheaper than array ones for
            # the one-cell diagonals of a window one column wide
            j = i0 + length
            k, value = best_split(problem, alg, w, i0, j)
            if value != value:
                raise _nan_error(i0, j)
            w[i0, j] = value
            if split is not None:
                split[i0, j] = k
        elif cells > 1:
            best, values = _select_run(problem, alg, w, length, i0, cells)
            nan = np.flatnonzero(values != values)
            if nan.size:
                i = i0 + int(nan[0])
                raise _nan_error(i, i + length)
            # the run's cells in flat order: (i0, i0 + length) on, n + 2 apart
            first = i0 * (n + 2) + length
            run = slice(first, first + cells * (n + 2), n + 2)
            flat_w[run] = values
            if flat_split is not None:
                flat_split[run] = best + np.arange(i0 + 1, i0 + 1 + cells)


def _select_run(
    problem: ParenthesizationProblem,
    alg: SelectionSemiring,
    w: np.ndarray,
    length: int,
    i0: int,
    cells: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The selected split offsets ``k - i - 1`` and candidates of the
    run of ``cells > 1`` cells ``(i0 + c, i0 + c + length)``."""
    row, col = w.strides
    diag = row + col  # bytes from cell (i, j) to cell (i + 1, j + 1)
    shape = (cells, length - 1)
    # left[c, t] = w[i, i+1+t] and right[c, t] = w[i+1+t, j]
    left = np.ndarray(shape, w.dtype, w, i0 * diag + col, (diag, col))
    right = np.ndarray(shape, w.dtype, w, i0 * diag + row + length * col, (diag, row))
    try:
        cand = _candidates(problem, alg, left, right, length, i0, cells)
    except InvalidProblemError:
        # An encoder refused the block (lex_min_plus and a fractional
        # cost): raise what a cell-by-cell fill would meet first, which
        # may be a NaN in an earlier cell.
        for i in range(i0, i0 + cells):
            value = best_split(problem, alg, w, i, i + length)[1]
            if value != value:
                raise _nan_error(i, i + length) from None
        raise
    best = alg.argwitness(cand, axis=1)
    return best, cand[np.arange(cells), best]


def _nan_error(i: int, j: int) -> InvalidProblemError:
    return InvalidProblemError(f"f(i, k, j) contains NaN at cell ({i}, {j})")


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
