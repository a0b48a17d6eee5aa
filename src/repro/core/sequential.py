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

Knuth's windows. :func:`solve_knuth` runs the same sweep with each
cell's splits cut to ``split(i, j-1) <= k <= split(i+1, j)``, read from
the diagonal below (Knuth 1971, [5] in the paper). On a family that
declares ``quadrangle`` (optimal BSTs) the window holds the first
optimal split, so the pass commits bitwise the full-range tables
wherever rounding keeps those conditions: always when the sums are
exact, and on every BST the property suite draws, but not where one
instance's weights span more than float precision (and a cell whose
candidates are all ``+inf`` takes the window's first). The windows of one
diagonal telescope to fewer than ``n + cells`` candidates, gathered
into one ragged block and reduced segment by segment: O(n²) work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.algebra import SelectionSemiring, get_algebra
from repro.errors import InvalidProblemError
from repro.problems.base import ParenthesizationProblem

__all__ = [
    "solve_sequential",
    "solve_knuth",
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
    at: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Recurrence (*)'s candidates ``extend(extend(w(i, k), w(k, j)),
    f(i, k, j))`` for ``cells`` consecutive cells of the diagonal
    ``length``, one row per cell ``(i0 + c, i0 + c + length)`` over its
    splits ``k = i+1 .. j-1``; ``left`` and ``right`` are the ``w(i,
    k)`` and ``w(k, j)`` operands (in ``alg``'s domain), broadcastable
    to that ``(cells, length - 1)`` block, or with ``at``, the ``(c, k -
    i - 1)`` indices of some block entries, gathered to match them."""
    f = alg.encode_f(problem.split_cost_segment(length, i0, cells))
    if at is not None:
        f = np.broadcast_to(f, (cells, length - 1))[at]
    return alg.extend(alg.extend(left, right), f)


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
    knuth: bool = False,
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

    ``knuth=True`` cuts each cell of length 3 or more to Knuth's split
    window (module docstring), read from ``split`` as this mode filled
    it on the diagonal below.
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
        # on length 2 Knuth's window is the full range, k = i + 1
        windows = knuth and length > 2
        if cells == 1 and not windows:
            # scalar reads, test and writes: cheaper than array ones for
            # the one-cell diagonals of a window one column wide
            j = i0 + length
            k, value = best_split(problem, alg, w, i0, j)
            if value != value:
                raise _nan_error(i0, j)
            w[i0, j] = value
            if split is not None:
                split[i0, j] = k
        elif cells > 0:
            if windows:
                best, values = _select_knuth(problem, alg, w, split, length, i0, cells)
            else:
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


def _select_knuth(
    problem: ParenthesizationProblem,
    alg: SelectionSemiring,
    w: np.ndarray,
    split: np.ndarray,
    length: int,
    i0: int,
    cells: int,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_select_run` over Knuth's windows, as one ragged block of
    (cell, k) pairs reduced one segment per cell; a cell's witness is
    its first candidate equal to the selected value."""
    n = problem.n
    # split(i, j-1) of the run's cells and the next, on the diagonal below
    start = i0 * (n + 2) + length - 1
    below = split.reshape(-1)[start : start + (cells + 1) * (n + 2) : n + 2]
    # Never empty, whatever the costs: on length 3 a window is k = i+1 ..
    # i+2, and beyond, split(i+1, j-1) bounded the window of (i, j-1) from
    # above and that of (i+1, j) from below, so it lies in this one.
    lower, widths = below[:-1], below[1:] - below[:-1] + 1
    starts = np.cumsum(widths) - widths
    cell = np.repeat(np.arange(cells), widths)
    i = i0 + cell
    k = np.arange(cell.size) - starts[cell] + lower[cell]
    flat_w = w.reshape(-1)
    left, right = flat_w[i * (n + 1) + k], flat_w[k * (n + 1) + i + length]
    cand = _candidates(problem, alg, left, right, length, i0, cells, (cell, k - i - 1))
    values = alg.combine_ufunc.reduceat(cand, starts)
    witness = np.where(cand == values[cell], np.arange(cand.size), cand.size)
    first = np.minimum.reduceat(witness, starts) - starts + lower
    return first - np.arange(i0 + 1, i0 + 1 + cells), values


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
    if algebra is None:
        algebra = getattr(problem, "preferred_algebra", "min_plus")
    return _sweep(problem, get_algebra(algebra))


def solve_knuth(problem: ParenthesizationProblem) -> SequentialResult:
    """Solve recurrence (*) over min-plus in O(n²) with Knuth's split
    windows (module docstring). A problem that does not declare
    ``quadrangle`` is refused before any table is built."""
    if not problem.quadrangle:
        raise InvalidProblemError(
            f"{type(problem).__name__} does not declare quadrangle = True, "
            "which Knuth's split windows need; use the O(n^3) sequential DP"
        )
    return _sweep(problem, get_algebra("min_plus"), knuth=True)


def _sweep(
    problem: ParenthesizationProblem, alg: SelectionSemiring, *, knuth: bool = False
) -> SequentialResult:
    n = problem.n
    w = alg.full((n + 1, n + 1))
    split = np.full((n + 1, n + 1), -1, dtype=np.int64)
    set_leaves(problem, alg, w)
    sweep_window(problem, alg, w, split=split, knuth=knuth)
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
