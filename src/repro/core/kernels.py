"""The unified sweep-kernel engine behind every iterative solver.

The paper's algorithm is three synchronous PRAM operations — a-activate,
a-square, a-pebble — repeated on a schedule. Every iterative solver in
this repo (:class:`~repro.core.huang.HuangSolver`,
:class:`~repro.core.banded.BandedSolver`,
:class:`~repro.core.compact.CompactBandedSolver`,
:class:`~repro.core.rytter.RytterSolver`, and the lockstep validator)
executes the *same* super-step shape: read a snapshot of the tables,
compute min-update candidates for a disjoint partition of the output
index space, then commit all candidates at once. This module factors
that shape out:

* a :class:`SweepKernel` declares (a) the **tiles** an operation sweeps
  (disjoint slabs of the output index space, each a picklable tuple),
  (b) its one pure module-level **compute** function that maps one
  tile of the pre-step snapshot to its candidate slab, and (c) a
  **commit** that min-merges the candidate slabs back into the solver
  state and reports whether anything changed;
* a :class:`KernelEngine` owns an execution
  :class:`~repro.parallel.backends.Backend` (serial or thread) and runs
  a kernel as ``tiles -> backend.map -> commit``.

Every compute and commit goes through the solver's
:class:`~repro.core.algebra.SelectionSemiring` (the engine injects it
into the compute functions' keyword channel): ``extend`` composes
candidates, ``combine`` merges them. With the default ``min_plus``
algebra these resolve to exactly ``np.add``/``np.minimum``, keeping the
historical path bit-for-bit; any other registered algebra (``max_plus``,
``minimax``, ``maxmin``, ``lex_min_plus``) reuses the same kernels
unchanged.

Because every update is a monotone *idempotent* merge, ``combine`` is
an exact selection, and every compute function evaluates the same
candidate set for a given output cell whatever tile holds it, the
committed tables are **bitwise identical** for every tiling and every
backend — the CREW discipline made executable (see DESIGN.md §"The
algebra contract"). Compute functions are module-level and receive
their array inputs by keyword: the engine binds each sweep's snapshot
arrays once and maps the bound function over the tiles, so every
thread reads the same tables. The dense activate, square and pebble,
the banded square and the compact activate compute in
:mod:`repro.core.kernels_fused`, which reduces candidates as it
composes them; Rytter's square and the compact square and pebble
compute here.

Adding an execution strategy is one Backend subclass; adding a paper
variant is one kernel set — neither requires touching the five solvers.

Scratch slabs are allocated per tile inside the compute functions (a
deliberate tradeoff versus the pre-refactor persistent ``_acc``/``_tmp``
buffers): tiles must own their memory to run on any worker thread, and
the allocation cost is a small constant against the Θ(n⁵) sweep work
it serves.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.algebra import MIN_PLUS, SelectionSemiring, lex_range_check
from repro.core.kernels_fused import (
    _lex_exact_matmul,
    fused_banded_square_tile,
    fused_compact_activate_tile,
    fused_dense_activate_tile,
    fused_dense_pebble_tile,
    fused_dense_square_tile,
)
from repro.parallel.backends import Backend, check_tile_backend, make_backend
from repro.parallel.partition import split_range, split_weighted

__all__ = [
    "SweepKernel",
    "KernelEngine",
    "DenseActivateKernel",
    "DenseSquareKernel",
    "DensePebbleKernel",
    "BandedSquareKernel",
    "BandedPebbleKernel",
    "RytterSquareKernel",
    "CompactActivateKernel",
    "CompactSquareKernel",
    "CompactPebbleKernel",
]


# ---------------------------------------------------------------------------
# Tile compute functions.
#
# All of these are pure: they read the pre-step snapshot arrays passed by
# keyword and return a candidate slab for their tile. The ``algebra``
# keyword is injected by the engine (the solver's selection semiring);
# ``algebra.extend``/``combine`` are the np.add / np.minimum of the
# historical min-plus kernels.
# ---------------------------------------------------------------------------


def rytter_square_tile(
    tile: tuple,
    *,
    pw: np.ndarray,
    useful: np.ndarray,
    algebra: SelectionSemiring = MIN_PLUS,
) -> np.ndarray:
    """One tile of Rytter's full semiring squaring.

    The pw table is viewed as the K x K matrix ``M[(i,j),(p,q)]``,
    K = (n+1)²; the tile owns rows ``lo:hi`` of the product. ``useful``
    lists the intermediate indices with a reachable row *and* column
    (anything else cannot contribute), precomputed once per sweep.
    Packed ``lex_min_plus`` values out of the exact range take the
    exact two-channel matmul over the useful rows and columns instead
    (:mod:`repro.core.kernels_fused`), which refuses a result it cannot
    pack rather than round it.
    """
    lo, hi = tile
    N = pw.shape[0]
    K = N * N
    M = pw.reshape(K, K)
    Mrows = M[lo:hi]
    if len(useful) and algebra.lowering().packed and not lex_range_check(pw, pw):
        return _lex_exact_matmul(Mrows[:, useful], M[useful, :])
    acc = algebra.full((hi - lo, K))
    ext, comb = algebra.extend_ufunc, algebra.combine_ufunc
    # One reused scratch slab, allocated lazily on the first useful
    # intermediate (early sweeps often have none) instead of a fresh
    # rank-1 product allocation per t.
    tmp = None
    for t in useful:
        if tmp is None:
            tmp = np.empty_like(acc)
        ext(Mrows[:, t][:, None], M[t, :][None, :], out=tmp)
        comb(acc, tmp, out=acc)
    return acc


def compact_square_tile(
    tile: tuple, *, PB: np.ndarray, band: int, algebra: SelectionSemiring = MIN_PLUS
) -> np.ndarray:
    """In-band eq. (2c) via slice shifts, output rows ``i`` in ``tile``.

    Same (d, o, e) composition lattice and order as the historical
    serial sweep (see :mod:`repro.core.compact` for the coordinates);
    each slab operation is row-restricted to the tile.
    """
    lo, hi = tile
    N = PB.shape[0]
    acc = algebra.full((hi - lo,) + PB.shape[1:])
    ext, comb = algebra.extend_ufunc, algebra.combine_ufunc
    for d in range(0, band + 1):
        for o in range(0, d + 1):
            dj = o - d  # <= 0: column shift of the second factor
            for e in range(0, d + 1):
                if e <= o:
                    # right-anchored: PB[i,j,o-e,d-e] ⊗ PB[i+(o-e), j+dj, e, e]
                    di = o - e
                    r_hi = min(hi, N - di)
                    if r_hi > lo:
                        first = PB[lo:r_hi, -dj:, o - e, d - e]
                        second = PB[lo + di : r_hi + di, : N + dj, e, e]
                        tgt = acc[: r_hi - lo, -dj:, o, d]
                        comb(tgt, ext(first, second), out=tgt)
                # left-anchored: PB[i,j,o,d-e] ⊗ PB[i+o, j+dj+e, 0, e]
                di = o
                dj2 = dj + e
                r_hi = min(hi, N - di)
                if r_hi <= lo:
                    continue
                if dj2 <= 0:
                    first = PB[lo:r_hi, -dj2:, o, d - e]
                    second = PB[lo + di : r_hi + di, : N + dj2, 0, e]
                    tgt = acc[: r_hi - lo, -dj2:, o, d]
                else:
                    first = PB[lo:r_hi, : N - dj2, o, d - e]
                    second = PB[lo + di : r_hi + di, dj2:, 0, e]
                    tgt = acc[: r_hi - lo, : N - dj2, o, d]
                comb(tgt, ext(first, second), out=tgt)
    return acc


def compact_pebble_tile(
    tile: tuple,
    *,
    PB: np.ndarray,
    A1: np.ndarray,
    A2: np.ndarray,
    w: np.ndarray,
    band: int,
    algebra: SelectionSemiring = MIN_PLUS,
) -> np.ndarray:
    """Equation (3) from the compact layout, rows ``i`` in ``tile``:
    close in-band gaps from PB and arbitrary-gap activate cells from
    A1/A2."""
    lo, hi = tile
    N = PB.shape[0]
    cand = algebra.full((hi - lo, N))
    ext, comb = algebra.extend_ufunc, algebra.combine_ufunc
    for d in range(0, band + 1):
        for o in range(0, d + 1):
            dj = o - d
            r_hi = min(hi, N - o)
            if r_hi <= lo:
                continue
            first = PB[lo:r_hi, -dj:, o, d]
            wshift = w[lo + o : r_hi + o, : N + dj]
            tgt = cand[: r_hi - lo, -dj:]
            comb(tgt, ext(first, wshift), out=tgt)
    # A1: gap (i, k) -> ⊗ w(i, k);  A2: gap (k, j) -> ⊗ w(k, j).
    c1 = algebra.select(algebra.extend(A1[lo:hi], w[lo:hi, None, :]), axis=2)
    c2 = algebra.select(algebra.extend(A2[lo:hi], w.T[None, :, :]), axis=2)
    algebra.combine(cand, c1, out=cand)
    algebra.combine(cand, c2, out=cand)
    return cand


# ---------------------------------------------------------------------------
# Kernel declarations.
# ---------------------------------------------------------------------------


class SweepKernel:
    """One synchronous PRAM operation: tiles + compute + commit.

    ``updates`` names the table family the kernel writes (``"w"`` or
    ``"pw"``) so the engine can route its change flag to the right
    termination-policy input.
    """

    name: str = "abstract"
    updates: str = "pw"
    #: module-level compute function: ``compute_fn(tile, **arrays)``
    compute_fn: Callable[..., Any]

    def tiles(self, solver, parts: int) -> list:
        """Disjoint tiles covering the operation's output index space.

        Tiles must depend only on static solver shape (``n``, band,
        part count), never on table contents — plan compilation
        (:mod:`repro.core.plan`) freezes them once per solve.
        """
        raise NotImplementedError

    def arrays(self, solver) -> dict[str, Any]:
        """Snapshot inputs for :attr:`compute_fn`, passed by keyword."""
        raise NotImplementedError

    def commit(self, solver, tiles: Sequence, results: Sequence) -> bool:
        """Merge candidate slabs into solver state (the algebra's
        idempotent monotone combine); True if changed."""
        raise NotImplementedError

    @staticmethod
    def _row_tiles(total: int, parts: int) -> list[tuple[int, int]]:
        return split_range(total, max(1, parts))


class DenseActivateKernel(SweepKernel):
    """a-activate on the dense pw table (eqs. 1a/1b)."""

    name = "activate"
    updates = "pw"
    compute_fn = staticmethod(fused_dense_activate_tile)

    def tiles(self, solver, parts):
        rows = self._row_tiles(solver.n + 1, parts)
        # Side "a" sweeps rows i of pw[i, :, i, :]; side "b" sweeps
        # columns j of pw[:, j, :, j]. Committed a-then-b, matching the
        # historical sweep order on overlapping cells (i, j, i, j).
        return [("a", lo, hi) for lo, hi in rows] + [("b", lo, hi) for lo, hi in rows]

    def arrays(self, solver):
        return {"F": solver._F, "w": solver.w}

    def commit(self, solver, tiles, results):
        changed = False
        pw = solver.pw
        alg = solver.algebra
        for (side, lo, hi), upd in zip(tiles, results):
            for t, x in enumerate(range(lo, hi)):
                view = pw[x, :, x, :] if side == "a" else pw[:, x, :, x]
                if alg.merge_inplace(view, upd[t], check=not changed):
                    changed = True
        return changed


class DenseSquareKernel(SweepKernel):
    """a-square with the full composition lattice (eq. 2c)."""

    name = "square"
    updates = "pw"
    compute_fn = staticmethod(fused_dense_square_tile)

    def tiles(self, solver, parts):
        return self._row_tiles(solver.n + 1, parts)

    def arrays(self, solver):
        return {"pw": solver.pw}

    def commit(self, solver, tiles, results):
        changed = False
        pw = solver.pw
        alg = solver.algebra
        for (lo, hi), acc in zip(tiles, results):
            if alg.merge_inplace(pw[lo:hi], acc, check=not changed):
                changed = True
        return changed


class DensePebbleKernel(SweepKernel):
    """a-pebble: close every gap against the current w (eq. 3)."""

    name = "pebble"
    updates = "w"
    compute_fn = staticmethod(fused_dense_pebble_tile)

    def tiles(self, solver, parts):
        return self._row_tiles(solver.n + 1, parts)

    def arrays(self, solver):
        return {"pw": solver.pw, "w": solver.w}

    def commit(self, solver, tiles, results):
        changed = False
        w = solver.w
        alg = solver.algebra
        for (lo, hi), cand in zip(tiles, results):
            if alg.merge_inplace(w[lo:hi], cand, check=not changed):
                changed = True
        return changed


class BandedSquareKernel(DenseSquareKernel):
    """a-square restricted to Section 5 band offsets; the band mask on
    written cells is enforced at commit so workers never see it."""

    # Not the inherited dense square, which sweeps the *full*
    # composition lattice: only the Section 5 band offsets compose.
    compute_fn = staticmethod(fused_banded_square_tile)

    def tiles(self, solver, parts):
        # The compute skips the rows past each anchor's last composed
        # row, so row i composes into about (n + 1 - i)³ cells: equal
        # work, not equal rows, keeps thread tiles balanced.
        N = solver.n + 1
        return split_weighted([(N - i) ** 3 for i in range(N)], max(1, parts))

    def arrays(self, solver):
        return {"pw": solver.pw, "band": solver.band}

    def commit(self, solver, tiles, results):
        mask = solver._band_mask
        for (lo, hi), acc in zip(tiles, results):
            acc[~mask[lo:hi]] = solver.algebra.zero
        return super().commit(solver, tiles, results)


class BandedPebbleKernel(DensePebbleKernel):
    """a-pebble with the optional iteration-indexed size-class window."""

    def arrays(self, solver):
        arrays = super().arrays(solver)
        if getattr(solver, "size_band", False):
            # Iterations 2·ell-1 and 2·ell only pebble sizes in
            # ((ell-1)², ell²].
            ell = (solver.iterations_run // 2) + 1  # current iteration is +1
            arrays["span_lo"] = (ell - 1) ** 2
            arrays["span_hi"] = ell * ell
        return arrays


class RytterSquareKernel(SweepKernel):
    """Rytter's full min-plus squaring of the (N², N²) pw matrix."""

    name = "square"
    updates = "pw"
    compute_fn = staticmethod(rytter_square_tile)

    def tiles(self, solver, parts):
        return self._row_tiles((solver.n + 1) ** 2, parts)

    def arrays(self, solver):
        N = solver.n + 1
        M = solver.pw.reshape(N * N, N * N)
        reach = solver.algebra.reachable(M)
        useful_col = reach.any(axis=0)
        useful_row = reach.any(axis=1)
        return {"pw": solver.pw, "useful": np.flatnonzero(useful_col & useful_row)}

    def commit(self, solver, tiles, results):
        N = solver.n + 1
        M = solver.pw.reshape(N * N, N * N)
        changed = False
        alg = solver.algebra
        for (lo, hi), acc in zip(tiles, results):
            if alg.merge_inplace(M[lo:hi], acc, check=not changed):
                changed = True
        return changed


class CompactActivateKernel(SweepKernel):
    """a-activate into the compact A1/A2 arrays, mirrored into PB."""

    name = "activate"
    updates = "pw"
    compute_fn = staticmethod(fused_compact_activate_tile)

    def tiles(self, solver, parts):
        return self._row_tiles(solver.n + 1, parts)

    def arrays(self, solver):
        return {"F": solver._F, "w": solver.w}

    def commit(self, solver, tiles, results):
        changed = False
        alg = solver.algebra
        for (lo, hi), (U1, U2) in zip(tiles, results):
            if alg.merge_inplace(solver.A1[lo:hi], U1, check=not changed):
                changed = True
            if alg.merge_inplace(solver.A2[lo:hi], U2, check=not changed):
                changed = True
        # Mirror in-band cells into PB (reads the merged A1/A2; cheap:
        # band · n² work). Gap (i, k): o = 0, d = j - k; gap (k, j):
        # o = d = k - i.
        N = solver.n + 1
        jj = np.arange(N)
        for d in range(1, solver.band + 1):
            view = solver.PB[:, d:, 0, d]
            vals = solver.A1[:, jj[d:], jj[d:] - d]
            if alg.merge_inplace(view, vals, check=not changed):
                changed = True
            ii = np.arange(N - d)
            view = solver.PB[: N - d, :, d, d]
            vals = solver.A2[ii, :, ii + d]
            if alg.merge_inplace(view, vals, check=not changed):
                changed = True
        return changed


class CompactSquareKernel(SweepKernel):
    """In-band a-square in the compact (o, d) coordinates."""

    name = "square"
    updates = "pw"
    compute_fn = staticmethod(compact_square_tile)

    def tiles(self, solver, parts):
        return self._row_tiles(solver.n + 1, parts)

    def arrays(self, solver):
        return {"PB": solver.PB, "band": solver.band}

    def commit(self, solver, tiles, results):
        changed = False
        PB = solver.PB
        invalid = solver._invalid
        alg = solver.algebra
        for (lo, hi), acc in zip(tiles, results):
            acc[invalid[lo:hi]] = alg.zero
            if alg.merge_inplace(PB[lo:hi], acc, check=not changed):
                changed = True
        return changed


class CompactPebbleKernel(SweepKernel):
    """a-pebble from the compact layout (PB gaps + A1/A2 gaps)."""

    name = "pebble"
    updates = "w"
    compute_fn = staticmethod(compact_pebble_tile)

    def tiles(self, solver, parts):
        return self._row_tiles(solver.n + 1, parts)

    def arrays(self, solver):
        return {
            "PB": solver.PB,
            "A1": solver.A1,
            "A2": solver.A2,
            "w": solver.w,
            "band": solver.band,
        }

    def commit(self, solver, tiles, results):
        changed = False
        w = solver.w
        alg = solver.algebra
        for (lo, hi), cand in zip(tiles, results):
            if alg.merge_inplace(w[lo:hi], cand, check=not changed):
                changed = True
        return changed


# ---------------------------------------------------------------------------
# Engine.
# ---------------------------------------------------------------------------


class KernelEngine:
    """Executes sweep kernels — and compiled plan steps — on a backend.

    One engine per solver instance; it owns the backend (created from a
    name, or adopted from the caller) and the tile count. ``tiles=1``
    on the serial backend is the zero-overhead reference path; any
    other (backend, tiles) combination commits bitwise-identical
    tables.

    Parameters
    ----------
    backend:
        Backend name (``"serial"`` or ``"thread"``) or such a
        :class:`~repro.parallel.backends.Backend` instance; a process
        pool is refused here, before any pool or table exists. The
        engine closes the backend in :meth:`close` either way (solvers
        own their engine; share a backend across solvers by closing
        only after the last one).
    workers:
        Worker count when ``backend`` is a name.
    tiles:
        Tiles per sweep (default: the backend's worker count, 1 for
        serial).
    """

    def __init__(
        self,
        backend: Backend | str = "serial",
        *,
        workers: int | None = None,
        tiles: int | None = None,
    ) -> None:
        check_tile_backend(backend)
        self.backend = (
            make_backend(backend, workers) if isinstance(backend, str) else backend
        )
        if tiles is None:
            tiles = max(1, getattr(self.backend, "workers", 1))
        if tiles < 1:
            raise ValueError("tiles must be >= 1")
        self.tiles = int(tiles)

    def execute(self, kernel: SweepKernel, solver) -> bool:
        """Run one synchronous super-step of ``kernel`` on ``solver``.

        One-off entry for ad-hoc kernels (anything scheduled goes
        through :meth:`execute_step` and the solver's compiled plan):
        tiles are derived fresh for this call.
        """
        from repro.core.plan import PlanStep

        step = PlanStep.for_kernel(kernel.name, kernel, solver, self.tiles)
        return self.execute_step(step, solver)

    def execute_step(self, step, solver) -> bool:
        """Run one synchronous super-step of a compiled plan step.

        Compute reads only the pre-step snapshot (no solver state is
        mutated until every tile has returned), then the kernel's
        commit merges all slabs with the solver's algebra — exactly the
        CREW semantics the scratch-array loops used to implement five
        separate times. The solver's selection semiring rides the same
        keyword channel as the snapshot arrays.
        """
        kernel = step.kernel
        arrays = dict(kernel.arrays(solver))
        arrays.setdefault("algebra", getattr(solver, "algebra", MIN_PLUS))
        results = self.backend.map(
            functools.partial(kernel.compute_fn, **arrays), step.tiles
        )
        return kernel.commit(solver, step.tiles, results)

    def close(self) -> None:
        """Release the backend's workers."""
        self.backend.close()
