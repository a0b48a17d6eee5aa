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
  (b) a pure module-level **compute** function that maps one tile of
  the pre-step snapshot to its candidate slab, and (c) a **commit**
  that min-merges the candidate slabs back into the solver state and
  reports whether anything changed;
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

Because every update is a monotone *idempotent* merge and every compute
function evaluates the identical candidate lattice in the identical
order for a given output cell, the committed tables are **bitwise
identical** for every tiling and every backend — the CREW discipline
made executable (see DESIGN.md §"The algebra contract"). Compute
functions are module-level and receive their array inputs by keyword:
the engine binds each sweep's snapshot arrays once and maps the bound
function over the tiles, so every thread reads the same tables.

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

from repro.core.algebra import MIN_PLUS, SelectionSemiring
from repro.core.kernels_fused import (
    fused_banded_square_tile,
    fused_compact_activate_tile,
    fused_dense_activate_tile,
    fused_dense_pebble_tile,
    fused_dense_square_tile,
    fused_rytter_square_tile,
)
from repro.parallel.backends import Backend, check_tile_backend, make_backend
from repro.parallel.partition import split_range

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


def dense_activate_tile(
    tile: tuple, *, F: np.ndarray, w: np.ndarray, algebra: SelectionSemiring = MIN_PLUS
) -> np.ndarray:
    """Equations (1a)/(1b) candidates for one slab of rows.

    Tile ``("a", lo, hi)``: slab ``[i - lo, j, k]`` of candidates for
    ``pw'(i, j, i, k)`` (eq. 1a, ``f(i,k,j) + w'(k,j)``).
    Tile ``("b", lo, hi)``: slab ``[j - lo, i, k]`` of candidates for
    ``pw'(i, j, k, j)`` (eq. 1b, ``f(i,k,j) + w'(i,k)``).
    """
    side, lo, hi = tile
    if side == "a":
        A = algebra.extend(F[lo:hi], w[None, :, :])  # A[i - lo, k, j]
        return A.transpose(0, 2, 1)  # [i - lo, j, k]
    B = algebra.extend(F[:, :, lo:hi], w[:, :, None])  # B[i, k, j - lo]
    return B.transpose(2, 0, 1)  # [j - lo, i, k]


def dense_square_tile(
    tile: tuple, *, pw: np.ndarray, algebra: SelectionSemiring = MIN_PLUS
) -> np.ndarray:
    """Equation (2c) candidates for rows ``i`` in ``tile`` (full lattice).

    Identical composition order to the historical serial sweep: all
    right-anchored compositions ``pw(i,j,r,q) ⊗ pw(r,q,p,q)`` over
    ``r``, then all left-anchored ``pw(i,j,p,s) ⊗ pw(p,s,p,q)`` over
    ``s``; anchors whose second factor is entirely unreached contribute
    nothing and are skipped.
    """
    lo, hi = tile
    N = pw.shape[0]
    ar = np.arange(N)
    acc = algebra.full((hi - lo, N, N, N))
    # The N⁴ scratch slab is only needed once an anchor survives the
    # reachability skip — early sparse/banded sweeps skip them all.
    tmp = None
    # Raw ufuncs, hoisted out of the sweep loops (per-call overhead is
    # visible at this call frequency; for min_plus these are exactly
    # np.add / np.minimum).
    ext, comb = algebra.extend_ufunc, algebra.combine_ufunc
    for r in range(N):
        Y = pw[r][ar[None, :], ar[:, None], ar[None, :]]  # Y[p, q] = pw[r,q,p,q]
        if not algebra.reachable(Y).any():
            continue
        if tmp is None:
            tmp = np.empty_like(acc)
        X = pw[lo:hi, :, r, :]  # X[i - lo, j, q]
        ext(X[:, :, None, :], Y[None, None, :, :], out=tmp)
        comb(acc, tmp, out=acc)
    for s in range(N):
        Y = pw[:, s, :, :][ar, ar, :]  # Y[p, q] = pw[p,s,p,q]
        if not algebra.reachable(Y).any():
            continue
        if tmp is None:
            tmp = np.empty_like(acc)
        X = pw[lo:hi, :, :, s]  # X[i - lo, j, p]
        ext(X[:, :, :, None], Y[None, None, :, :], out=tmp)
        comb(acc, tmp, out=acc)
    return acc


def dense_pebble_tile(
    tile: tuple,
    *,
    pw: np.ndarray,
    w: np.ndarray,
    span_lo: int = -1,
    span_hi: int = -1,
    algebra: SelectionSemiring = MIN_PLUS,
) -> np.ndarray:
    """Equation (3) candidates for rows ``i`` in ``tile``.

    ``span_lo``/``span_hi`` carry the Section 5 size-class pebble window
    (``span_lo < j - i <= span_hi``); negative bounds mean no window.
    """
    lo, hi = tile
    block = algebra.extend(pw[lo:hi], w[None, None, :, :])
    cand = algebra.select(block, axis=(2, 3))
    if span_lo >= 0:
        N = w.shape[0]
        ii = np.arange(lo, hi)[:, None]
        jj = np.arange(N)[None, :]
        window = (jj - ii > span_lo) & (jj - ii <= span_hi)
        cand = np.where(window, cand, algebra.zero)
    return cand


def banded_square_tile(
    tile: tuple, *, pw: np.ndarray, band: int, algebra: SelectionSemiring = MIN_PLUS
) -> np.ndarray:
    """Equation (2c) restricted to band offsets, rows ``i`` in ``tile``.

    Right-anchored offsets ``r = p - d`` and left-anchored ``s = q + d``
    for ``d = 0 .. band``, exactly the Section 5 composition set; the
    band mask on *written* cells is applied by the commit.
    """
    lo, hi = tile
    N = pw.shape[0]
    ar = np.arange(N)
    acc = algebra.full((hi - lo, N, N, N))
    ext, comb = algebra.extend_ufunc, algebra.combine_ufunc
    for d in range(0, min(band, N - 1) + 1):
        # pw(i,j,p-d,q) ⊗ pw(p-d,q,p,q) -> acc[i,j,p,q] for p >= d
        A = pw[lo:hi, :, : N - d, :]  # [i - lo, j, r, q], r = p - d
        ps = ar[d:]
        Yr = pw[(ps - d)[:, None], ar[None, :], ps[:, None], ar[None, :]]
        if algebra.reachable(Yr).any():
            tmp = ext(A, Yr[None, None, :, :])
            comb(acc[:, :, d:, :], tmp, out=acc[:, :, d:, :])
        # pw(i,j,p,q+d) ⊗ pw(p,q+d,p,q) -> acc[i,j,p,q] for q <= N-1-d
        A2 = pw[lo:hi, :, :, d:]  # [i - lo, j, p, s], s = q + d
        qs = ar[: N - d]
        Ys = pw[ar[:, None], (qs + d)[None, :], ar[:, None], qs[None, :]]
        if algebra.reachable(Ys).any():
            tmp2 = ext(A2, Ys[None, None, :, :])
            comb(acc[:, :, :, : N - d], tmp2, out=acc[:, :, :, : N - d])
    return acc


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
    """
    lo, hi = tile
    N = pw.shape[0]
    K = N * N
    M = pw.reshape(K, K)
    Mrows = M[lo:hi]
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


def compact_activate_tile(
    tile: tuple, *, F: np.ndarray, w: np.ndarray, algebra: SelectionSemiring = MIN_PLUS
) -> tuple[np.ndarray, np.ndarray]:
    """Compact-layout activate candidates for rows ``i`` in ``tile``.

    Returns ``(U1, U2)`` slabs: ``U1[i - lo, j, k]`` the eq.-1a
    candidate for ``A1[i, j, k] = pw'(i, j, i, k)`` and ``U2`` likewise
    for ``A2[i, j, k] = pw'(i, j, k, j)``. The PB mirroring of in-band
    cells happens at commit (it reads the merged A1/A2).
    """
    lo, hi = tile
    T = F[lo:hi].transpose(0, 2, 1)  # T[i - lo, j, k] = F[i, k, j]
    U1 = algebra.extend(T, w.T[None, :, :])  # ⊗ w(k, j)
    U2 = algebra.extend(T, w[lo:hi, None, :])  # ⊗ w(i, k)
    return U1, U2


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
    #: fused-tier compute (same signature/result contract as
    #: :attr:`compute_fn`, bitwise-identical tables); ``None`` means the
    #: slab compute serves both tiers (the compact square/pebble, whose
    #: in-band slice-shift sweeps are already reduce-as-you-compose).
    fused_compute_fn: Callable[..., Any] | None = None

    def compute_for(self, tier: str) -> Callable[..., Any]:
        """The compute function for a kernel tier (``"slab"`` or
        ``"fused"``)."""
        if tier == "fused" and self.fused_compute_fn is not None:
            return self.fused_compute_fn
        return self.compute_fn

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
    compute_fn = staticmethod(dense_activate_tile)
    fused_compute_fn = staticmethod(fused_dense_activate_tile)

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
    compute_fn = staticmethod(dense_square_tile)
    fused_compute_fn = staticmethod(fused_dense_square_tile)

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
    compute_fn = staticmethod(dense_pebble_tile)
    fused_compute_fn = staticmethod(fused_dense_pebble_tile)

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

    compute_fn = staticmethod(banded_square_tile)
    # Not the inherited fused dense square (which sweeps the *full*
    # composition lattice and would break bitwise identity with the
    # band-offset-restricted slab tables): a dedicated banded matmul
    # whose anchor planes are band-restricted and whose reduction axis
    # spans only the in-band diagonals.
    fused_compute_fn = staticmethod(fused_banded_square_tile)

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
    fused_compute_fn = staticmethod(fused_rytter_square_tile)

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
    compute_fn = staticmethod(compact_activate_tile)
    fused_compute_fn = staticmethod(fused_compact_activate_tile)

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

        step = PlanStep(
            name=kernel.name,
            kernel=kernel,
            tiles=tuple(kernel.tiles(solver, self.tiles)),
            updates=kernel.updates,
            compute_fn=kernel.compute_for(getattr(solver, "tier", "slab")),
        )
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
        # The plan froze the tier's compute function at compile time
        # (slab vs fused); older/hand-built steps fall back to slab.
        compute_fn = (
            step.compute_fn if step.compute_fn is not None else kernel.compute_fn
        )
        arrays = dict(kernel.arrays(solver))
        arrays.setdefault("algebra", getattr(solver, "algebra", MIN_PLUS))
        results = self.backend.map(functools.partial(compute_fn, **arrays), step.tiles)
        return kernel.commit(solver, step.tiles, results)

    def close(self) -> None:
        """Release the backend's workers."""
        self.backend.close()
