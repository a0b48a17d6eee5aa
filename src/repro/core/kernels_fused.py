"""Reduce-as-you-compose sweep computes: the a-activate, a-square and
a-pebble tile functions of the dense, banded and compact kernels.

A literal reading of eq. (2c) materialises the whole ``(hi - lo, N, N,
N)`` candidate lattice of an a-square tile and makes ``2N``
whole-lattice ``ext``/``comb`` passes over it: Θ(N⁴) memory traffic
per anchor, most of it on cells that can never be reached. The
functions here compute the same candidate sets, reformulated so they
are *reduced as they are composed* and never materialised.
:mod:`repro.core.kernels` declares which kernel runs which function;
Rytter's square and the compact square and pebble keep their own
computes there.

The reformulation
-----------------
Every eq. (2c) composition has one of two shapes. Right-anchored
candidates for output ``(i, j, p, q)`` compose ``pw(i, j, r, q) ⊗
pw(r, q, p, q)``: for a fixed anchor column ``q`` this is exactly a
semiring matrix product ``X[(i, j), r] ⊗ Y[r, p]`` with ``Y[r, p] =
pw(r, q, p, q)`` — combine plays the sum, extend plays the product.
Left-anchored candidates ``pw(i, j, p, s) ⊗ pw(p, s, p, q)`` are the
mirror image per anchor row ``p``. So one dense a-square tile becomes
``2N`` small semiring matmuls whose reduction ``R`` axis is further
restricted to the **reachable** rows of ``Y`` (``np.flatnonzero`` of a
per-anchor reachability mask), and whose output is written directly
into the triangular slice of ``acc`` it can affect (``j >= q`` right,
``j > p`` left). Each matmul runs cache-blocked (:data:`CHUNK`
elements per intermediate) so the working set stays resident.

The **banded** square (Section 5) composes only offset-``d`` diagonals
(``r = p - d`` and ``s = q + d``, ``d = 0 .. band``). On the numpy
engine each anchor (``p`` right, ``q`` left) composes all of its live
offsets in one ``extend`` over zero-copy views of ``pw`` and reduces
the offset axis in one ``combine.reduce``
(:func:`_banded_square_grouped`): per sweep that is a fixed number of
numpy calls per anchor, not per (anchor, offset), and the anchor
planes and their reachability flags are gathered once per tile, so an
offset nobody reaches costs no call at all (the early, sparse sweeps).
The numba engine and the exact lex fallback run the same candidates as
per-anchor *banded* matmuls whose reduction axis spans only the
in-band diagonals (:func:`_banded_matmul_reduce`). The **activate**
sweeps have no reduction axis at all — one binary ``extend`` per cell
— so their computes are single-pass lowerings written straight into
the committed layout (dense) or both compact slabs per input read
(compact).

Why every tiling and engine commits the same table
--------------------------------------------------
``combine`` is an exact idempotent *selection* (min/max on float64
selects an argument, no rounding), so reduction order and grouping
cannot change the selected value's bits. Each candidate is the single
binary ``extend`` eq. (2c) names. The restrictions drop only
candidates that cannot be selected: invalid ``pw`` cells (violating
``i <= p < q <= j``) are ``zero`` forever — activate only writes where
the encoded ``f`` table is non-zero, and zero is extend-absorbing — so
triangular output slicing and reachable-row sub-selection remove exact
no-ops; and the banded square's ``d = 0`` compositions are ``pw(i, j,
p, q) ⊗ one``, the cell itself, which the commit merges anyway. Hence
the tables match the plain recurrence bit for bit, for every
registered algebra; the golden suite and the property suite's
reference DP (explicit scalar loops, no shared code) enforce it.

Execution engines
-----------------
When **numba** is installed (the ``[perf]`` extra), the inner reduce
runs as a JIT-compiled scalar loop nest specialised per algebra via its
:class:`~repro.core.algebra.KernelLowering` (ufuncs do not lower into
nopython code, so the lowering names the scalar semantics and this
module builds the loop bodies from them). Without numba the same
candidates run as cache-blocked numpy slab operations — same public
surface, same tables. :func:`fused_backend` reports which engine this
process resolved to; the platform picks it, not a caller.

The packed fast path (the ``fast_vdf`` idiom)
---------------------------------------------
``lex_min_plus`` packs ``(cost, splits)`` into one float64; adding
packed values is exact only inside float64's exact-integer window.
Like chia's ``fast_vdf`` — check the input range once, then run the
branch-free fast path — each reduce first calls
:func:`~repro.core.algebra.lex_range_check`; in range, packed floats
are summed directly. Out of range, the tile falls back to an **exact
two-channel** reduce (unpack, add cost and split channels separately,
lexicographic min, repack), and raises
:class:`~repro.errors.InvalidProblemError` only if the exact *result*
itself cannot be packed.

All compute functions are module-level, so the engine binds each
sweep's snapshot arrays to them once and maps the bound function over
the tiles on serial or thread backends.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable

import numpy as np

from repro.core.algebra import (
    FLOAT_EXACT_INT_MAX,
    LEX_SCALE,
    MIN_PLUS,
    KernelLowering,
    SelectionSemiring,
    lex_range_check,
    lex_unpack,
)
from repro.errors import InvalidProblemError

__all__ = [
    "HAVE_NUMBA",
    "CHUNK",
    "fused_backend",
    "fused_dense_activate_tile",
    "fused_dense_square_tile",
    "fused_dense_pebble_tile",
    "fused_banded_square_tile",
    "fused_compact_activate_tile",
]

try:  # pragma: no cover - exercised via the [perf] CI leg
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the default container path
    numba = None
    HAVE_NUMBA = False

#: elements per blocked intermediate (float64): 2^21 * 8 B = 16 MiB,
#: sized so one ``ext`` slab plus its reduction stay cache/TLB friendly.
CHUNK = 1 << 21


def fused_backend() -> str:
    """Which engine the sweep computes resolve to in this process:
    ``"numba"`` (JIT scalar loops) or ``"numpy"`` (blocked slabs)."""
    return "numba" if HAVE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# Scalar lowering: loop bodies built from an algebra's KernelLowering.
#
# The factories take ``jit`` as a parameter so the identical loop bodies
# are testable un-jitted (tier-1, no numba) and compiled (the [perf]
# leg) — one source of truth for the scalar semantics.
# ---------------------------------------------------------------------------


def _identity_jit(fn: Callable[..., Any]) -> Callable[..., Any]:
    return fn


def _scalar_extend(name: str, jit: Callable[..., Any]) -> Callable[..., Any]:
    """Scalar ``extend`` for a lowering name (float64, NaN-free domain)."""
    if name == "add":

        @jit
        def ext(a: float, b: float) -> float:
            return a + b

    elif name == "maximum":

        @jit
        def ext(a: float, b: float) -> float:
            return a if a > b else b

    elif name == "minimum":

        @jit
        def ext(a: float, b: float) -> float:
            return a if a < b else b

    else:  # unreachable for registered algebras; guards custom ones
        raise InvalidProblemError(
            f"no scalar lowering for extend ufunc {name!r}; the sweep "
            "kernels support add/minimum/maximum"
        )
    return ext


def _scalar_improves(comb_name: str, jit: Callable[..., Any]) -> Callable[..., Any]:
    """Scalar strict "candidate beats incumbent" for a combine name."""
    if comb_name == "minimum":

        @jit
        def better(v: float, best: float) -> bool:
            return v < best

    elif comb_name == "maximum":

        @jit
        def better(v: float, best: float) -> bool:
            return v > best

    else:
        raise InvalidProblemError(
            f"no scalar lowering for combine ufunc {comb_name!r}; the "
            "sweep kernels support minimum/maximum"
        )
    return better


def _make_matmul_kernel(
    ext_scalar: Callable[..., Any],
    better_scalar: Callable[..., Any],
    jit: Callable[..., Any],
) -> Callable[..., Any]:
    """Semiring matmul-reduce loop nest: ``red[i, p] ← comb over r of
    ext(Xf[i, r], Y[r, p])``, folding into the caller-initialised
    ``red`` (pre-filled with the algebra's zero)."""

    @jit
    def kernel(Xf: np.ndarray, Y: np.ndarray, red: np.ndarray) -> None:
        m, R = Xf.shape
        P = Y.shape[1]
        for i in range(m):
            for p in range(P):
                best = red[i, p]
                for r in range(R):
                    v = ext_scalar(Xf[i, r], Y[r, p])
                    if better_scalar(v, best):
                        best = v
                red[i, p] = best

    return kernel


def _make_banded_matmul_kernel(
    ext_scalar: Callable[..., Any],
    better_scalar: Callable[..., Any],
    jit: Callable[..., Any],
) -> Callable[..., Any]:
    """Banded semiring matmul-reduce loop nest: ``red[i, p] ← comb over
    the in-band rows r (``d0 <= p - r <= d1``) of ext(Xf[i, r],
    Y[r, p])``, folding into the caller-initialised ``red``. The band
    window IS the candidate restriction: the banded square composes
    only offset-``d`` diagonals (``d = 0 .. band``), so the reduction
    axis never leaves the window — ``(0, band)`` right-anchored,
    ``(-band, 0)`` left-anchored."""

    @jit
    def kernel(Xf: np.ndarray, Y: np.ndarray, d0: int, d1: int, red: np.ndarray) -> None:
        m, R = Xf.shape
        P = Y.shape[1]
        for i in range(m):
            for p in range(P):
                best = red[i, p]
                r0 = p - d1
                if r0 < 0:
                    r0 = 0
                r1 = p - d0
                if r1 > R - 1:
                    r1 = R - 1
                for r in range(r0, r1 + 1):
                    v = ext_scalar(Xf[i, r], Y[r, p])
                    if better_scalar(v, best):
                        best = v
                red[i, p] = best

    return kernel


def _make_activate_kernel(
    ext_scalar: Callable[..., Any], jit: Callable[..., Any]
) -> Callable[..., Any]:
    """Eqs. (1a)/(1b) loop nest: one elementwise ``extend`` written
    straight into the committed ``[slab, j, k]`` layout — no transposed
    intermediate. ``X`` is the (possibly strided) transposed view of
    the activate inputs, ``Y`` the broadcast weight plane."""

    @jit
    def kernel(X: np.ndarray, Y: np.ndarray, out: np.ndarray) -> None:
        B, J, K = out.shape
        for t in range(B):
            for j in range(J):
                for k in range(K):
                    out[t, j, k] = ext_scalar(X[t, j, k], Y[j, k])

    return kernel


def _make_activate_pair_kernel(
    ext_scalar: Callable[..., Any], jit: Callable[..., Any]
) -> Callable[..., Any]:
    """Compact-layout activate loop nest: both ``(U1, U2)`` slabs in a
    single pass over the shared transposed input (``Y2`` varies per
    slab row, the compact layout's ``w(i, k)`` factor)."""

    @jit
    def kernel(
        X: np.ndarray,
        Y1: np.ndarray,
        Y2: np.ndarray,
        U1: np.ndarray,
        U2: np.ndarray,
    ) -> None:
        B, J, K = U1.shape
        for t in range(B):
            for j in range(J):
                for k in range(K):
                    x = X[t, j, k]
                    U1[t, j, k] = ext_scalar(x, Y1[j, k])
                    U2[t, j, k] = ext_scalar(x, Y2[t, k])

    return kernel


def _make_pebble_kernel(
    ext_scalar: Callable[..., Any],
    better_scalar: Callable[..., Any],
    jit: Callable[..., Any],
) -> Callable[..., Any]:
    """Eq. (3) loop nest: ``cand[b, j] ← comb over (p, q) of
    ext(pwb[b, j, p, q], w[p, q])``, folding into zero-filled ``cand``."""

    @jit
    def kernel(pwb: np.ndarray, w: np.ndarray, cand: np.ndarray) -> None:
        B, J, P, Q = pwb.shape
        for b in range(B):
            for j in range(J):
                best = cand[b, j]
                for p in range(P):
                    for q in range(Q):
                        v = ext_scalar(pwb[b, j, p, q], w[p, q])
                        if better_scalar(v, best):
                            best = v
                cand[b, j] = best

    return kernel


class _CompiledKernels:
    """The per-lowering set of compiled loop nests."""

    __slots__ = ("matmul", "banded_matmul", "pebble", "activate", "activate_pair")

    def __init__(self, lowering: KernelLowering, jit: Callable[..., Any]) -> None:
        ext = _scalar_extend(lowering.ext_name, jit)
        better = _scalar_improves(lowering.comb_name, jit)
        self.matmul = _make_matmul_kernel(ext, better, jit)
        self.banded_matmul = _make_banded_matmul_kernel(ext, better, jit)
        self.pebble = _make_pebble_kernel(ext, better, jit)
        self.activate = _make_activate_kernel(ext, jit)
        self.activate_pair = _make_activate_pair_kernel(ext, jit)


_KERNEL_CACHE: dict[tuple[str, str], _CompiledKernels] = {}


def _kernels_for(algebra: SelectionSemiring) -> _CompiledKernels:
    """Compiled loop nests for an algebra, cached per (ext, comb) pair
    (all five registered algebras share three distinct pairs)."""
    low = algebra.lowering()
    key = (low.ext_name, low.comb_name)
    kernels = _KERNEL_CACHE.get(key)
    if kernels is None:
        jit = (
            numba.njit(cache=False, fastmath=False)  # exact float64 only
            if HAVE_NUMBA
            else _identity_jit
        )
        kernels = _CompiledKernels(low, jit)
        _KERNEL_CACHE[key] = kernels
    return kernels


# ---------------------------------------------------------------------------
# The exact two-channel lex fallback (out-of-range packed inputs).
# ---------------------------------------------------------------------------


def _require_packable(red: np.ndarray) -> np.ndarray:
    finite = red[np.isfinite(red)]
    if finite.size and float(np.abs(finite).max()) > FLOAT_EXACT_INT_MAX:
        raise InvalidProblemError(
            "lex_min_plus result exceeds the exactly-representable packed "
            f"range (|cost * {int(LEX_SCALE)} + splits| > "
            f"{int(FLOAT_EXACT_INT_MAX)}); use min_plus or rescale costs"
        )
    return red


def _lex_exact_matmul(Xf: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Exact two-channel semiring matmul for out-of-range packed inputs:
    unpack, add the cost and split channels separately, take the
    lexicographic minimum (min cost, then min splits among cost
    minimisers), repack. Raises if the exact result itself cannot be
    packed."""
    m, R = Xf.shape
    P = Y.shape[1]
    Xc, Xs = lex_unpack(Xf)
    Yc, Ys = lex_unpack(Y)
    red = np.empty((m, P))
    step = max(1, CHUNK // max(1, 2 * R * P))  # two channels in flight
    for m0 in range(0, m, step):
        m1 = min(m, m0 + step)
        Ec = Xc[m0:m1, :, None] + Yc[None, :, :]
        Es = Xs[m0:m1, :, None] + Ys[None, :, :]
        bestc = Ec.min(axis=1)
        bests = np.where(Ec == bestc[:, None, :], Es, np.inf).min(axis=1)
        red[m0:m1] = np.where(np.isfinite(bestc), bestc * LEX_SCALE + bests, np.inf)
    return _require_packable(red)


def _lex_exact_extend(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Exact two-channel elementwise ``extend`` (the activate sweeps
    compose one binary extend per cell, no reduction): unpack both
    operands, add the cost and split channels separately, repack.
    Raises only if the exact result itself cannot be packed."""
    Xc, Xs = lex_unpack(X)
    Yc, Ys = lex_unpack(Y)
    c = Xc + Yc
    s = Xs + Ys
    return _require_packable(np.where(np.isfinite(c), c * LEX_SCALE + s, np.inf))


def _lex_exact_pebble(pwb: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exact two-channel eq. (3) reduce (see :func:`_lex_exact_matmul`)."""
    B, J = pwb.shape[:2]
    N = w.shape[0]
    Wc, Ws = lex_unpack(w)
    cand = np.empty((B, J))
    step = max(1, CHUNK // max(1, 2 * J * N * N))
    for b0 in range(0, B, step):
        b1 = min(B, b0 + step)
        Pc, Ps = lex_unpack(pwb[b0:b1])
        Ec = Pc + Wc[None, None, :, :]
        Es = Ps + Ws[None, None, :, :]
        bestc = Ec.min(axis=(2, 3))
        bests = np.where(Ec == bestc[..., None, None], Es, np.inf).min(axis=(2, 3))
        cand[b0:b1] = np.where(np.isfinite(bestc), bestc * LEX_SCALE + bests, np.inf)
    return _require_packable(cand)


# ---------------------------------------------------------------------------
# The fused reduce-compose core.
# ---------------------------------------------------------------------------


def _matmul_reduce(
    Xf: np.ndarray,
    Y: np.ndarray,
    out: np.ndarray,
    algebra: SelectionSemiring,
    packed: bool,
) -> None:
    """``out ← comb(out, X ⊗ Y)`` — one semiring matmul, reduced as it
    is composed.

    ``Xf`` is the ``(m, R)`` flattened left factor (callers flatten a
    *freshly gathered contiguous* array — never a strided view, whose
    reshape would silently copy); ``Y`` is ``(R, P)``; ``out`` is any
    view holding ``m * P`` cells with trailing axis ``P`` — it is
    combined in place and **never reshaped** (the square tile passes
    non-contiguous triangular slices of ``acc``).
    """
    m, R = Xf.shape
    P = Y.shape[1]
    if packed and not lex_range_check(Xf, Y):
        red = _lex_exact_matmul(Xf, Y)
    elif HAVE_NUMBA:  # pragma: no cover - exercised via the [perf] CI leg
        red = np.full((m, P), algebra.zero)
        _kernels_for(algebra).matmul(
            np.ascontiguousarray(Xf), np.ascontiguousarray(Y), red
        )
    else:
        ext, comb = algebra.extend_ufunc, algebra.combine_ufunc
        red = np.empty((m, P))
        step = max(1, CHUNK // max(1, R * P))
        for m0 in range(0, m, step):
            m1 = min(m, m0 + step)
            E = ext(Xf[m0:m1, :, None], Y[None, :, :])
            comb.reduce(E, axis=1, out=red[m0:m1])
    algebra.combine_ufunc(out, red.reshape(out.shape), out=out)


def _band_restrict(plane: np.ndarray, d0: int, d1: int, zero: float) -> np.ndarray:
    """Zero every cell of an anchor plane whose diagonal offset
    ``col - row`` falls outside ``[d0, d1]`` — the band-offset candidate
    restriction of the Section 5 square, expressed on the second matmul
    factor. The dropped cells are the activate-written arbitrary-gap
    entries the banded composition set never touches; masking them to
    ``zero`` (extend-absorbing) keeps them out of the banded square."""
    R, P = plane.shape
    off = np.arange(P)[None, :] - np.arange(R)[:, None]
    return np.where((off >= d0) & (off <= d1), plane, zero)


def _banded_matmul_reduce(
    X: np.ndarray,
    Y: np.ndarray,
    d0: int,
    d1: int,
    out: np.ndarray,
    algebra: SelectionSemiring,
    exact: bool,
) -> None:
    """``out ← comb(out, X ⊗ Y)`` with the reduction axis restricted to
    the in-band diagonals ``d0 <= p - r <= d1`` of ``Y``: the numba
    engine's window loop, or with ``exact`` the exact two-channel lex
    matmul over the band-restricted ``Y`` (the fallback for
    out-of-range packed tiles, bitwise the packed sum where that one is
    exact).

    ``X`` is ``(..., R)`` and may be any strided view (it is gathered
    contiguous here); ``out`` is ``(..., P)``, any strided view,
    combined in place and **never reshaped** (the square tile passes
    non-contiguous triangular slices of ``acc``).
    """
    R = X.shape[-1]
    Xf = np.ascontiguousarray(X).reshape(-1, R)
    if exact:
        red = _lex_exact_matmul(Xf, _band_restrict(Y, d0, d1, algebra.zero))
    else:
        red = np.full((Xf.shape[0], Y.shape[1]), algebra.zero)
        _kernels_for(algebra).banded_matmul(Xf, np.ascontiguousarray(Y), d0, d1, red)
    algebra.combine_ufunc(out, red.reshape(out.shape), out=out)


@lru_cache(maxsize=32)
def _anchor_index(N: int, b: int) -> tuple:
    """Gather indices of the banded square's anchor planes for offsets
    ``d = 1 .. b``, with the masks of the cells that exist:

    * right, per anchor row ``p``: ``YR[p, k, q] = pw(r, q, p, q)`` at
      ``r = p - b + k`` (ascending ``r``, so ``k = b - d``), which
      exists where ``r >= 0`` and ``q > p``;
    * left, per anchor column ``q``: ``YL[q, p, k] = pw(p, s, p, q)`` at
      ``s = q + 1 + k`` (``k = d - 1``), which exists where
      ``s <= N - 1`` and ``p < q``.

    Clipped indices stand in for the missing cells; the masks keep them
    out of the reachability flags, and no missing cell is composed."""
    ar = np.arange(N)
    k = np.arange(b)
    p, q = ar[:, None, None], ar[None, None, :]
    r = p - b + k[None, :, None]
    right = (np.maximum(r, 0), q, p, q), (r >= 0) & (q > p)
    q, p = ar[:, None, None], ar[None, :, None]
    s = q + 1 + k[None, None, :]
    left = (p, np.minimum(s, N - 1), p, q), (s <= N - 1) & (p < q)
    return right, left


def _live_ranges(
    planes: np.ndarray, exists: np.ndarray, axis: int, algebra: SelectionSemiring
) -> list:
    """Per anchor, ``(k0, k1)``: the span of offsets whose anchor
    diagonal holds a reachable cell (``None`` when none does)."""
    live = (algebra.reachable(planes) & exists).any(axis=axis)
    any_live = live.any(axis=1).tolist()
    first = live.argmax(axis=1).tolist()
    stop = (live.shape[1] - live[:, ::-1].argmax(axis=1)).tolist()
    return [(k0, k1) if ok else None for ok, k0, k1 in zip(any_live, first, stop)]


def _banded_square_grouped(
    pw: np.ndarray, lo: int, hi: int, b: int, acc: np.ndarray, algebra: SelectionSemiring
) -> None:
    """The numpy engine's banded square: ``acc ← comb(acc, ...)`` over
    offsets ``d = 1 .. b`` for rows ``lo:hi``, one anchor at a time.

    Right anchor ``p``: the live rows ``r`` form one strided view
    ``pw[i, j, r, q]`` of shape ``(i, j, r, q)``, composed with the
    anchor plane ``YR[p]`` in one ``extend`` and reduced over ``r`` in
    one ``combine.reduce`` into ``acc[:, j > p, p, q > p]``. Left anchor
    ``q``: the view ``pw[i, j, p, s]`` composed with ``YL[q]`` and
    reduced over ``s`` into ``acc[:, j >= s, p, q]``. Rows ``i`` past
    the last composed ``r`` (right) or ``p`` (left) hold no valid cell
    and are skipped; the intermediate is blocked to :data:`CHUNK`
    elements."""
    N = pw.shape[0]
    ext, comb = algebra.extend_ufunc, algebra.combine_ufunc
    (right, right_ok), (left, left_ok) = _anchor_index(N, b)
    YR = pw[right]
    YL = pw[left]
    row = N * N * b  # bounds one row's intermediate on either side
    size = row * max(1, min(hi - lo, CHUNK // row))
    buf = np.empty(size)
    for p, span in enumerate(_live_ranges(YR, right_ok, 2, algebra)):
        if span is None or min(hi, p - b + span[1]) <= lo:
            continue
        k0, k1 = span
        r0, r1 = p - b + k0, p - b + k1
        J, K = N - p - 1, k1 - k0
        y = YR[p, k0:k1, p + 1 :]
        step = max(1, size // (J * K * J))
        for t0 in range(lo, min(hi, r1), step):
            t1 = min(hi, r1, t0 + step)
            tmp = buf[: (t1 - t0) * J * K * J].reshape(t1 - t0, J, K, J)
            ext(pw[t0:t1, p + 1 :, r0:r1, p + 1 :], y, out=tmp)
            ov = acc[t0 - lo : t1 - lo, p + 1 :, p, p + 1 :]
            comb(ov, comb.reduce(tmp, axis=2), out=ov)
    for q, span in enumerate(_live_ranges(YL, left_ok, 1, algebra)):
        if span is None or min(hi, q) <= lo:
            continue
        k0, k1 = span
        s0, s1 = q + 1 + k0, q + 1 + k1
        J, P, K = N - s0, q - lo, k1 - k0
        y = YL[q, lo:q, k0:k1]
        step = max(1, size // (J * P * K))
        for t0 in range(lo, min(hi, q), step):
            t1 = min(hi, q, t0 + step)
            tmp = buf[: (t1 - t0) * J * P * K].reshape(t1 - t0, J, P, K)
            ext(pw[t0:t1, s0:, lo:q, s0:s1], y, out=tmp)
            ov = acc[t0 - lo : t1 - lo, s0:, lo:q, q]
            comb(ov, comb.reduce(tmp, axis=3), out=ov)


# ---------------------------------------------------------------------------
# Tile compute functions (module-level, bound and mapped by the engine).
# ---------------------------------------------------------------------------


def fused_dense_activate_tile(
    tile: tuple, *, F: np.ndarray, w: np.ndarray, algebra: SelectionSemiring = MIN_PLUS
) -> np.ndarray:
    """Eqs. (1a)/(1b) candidates for one slab of rows.

    Tile ``("a", lo, hi)``: slab ``[i - lo, j, k]`` of candidates for
    ``pw'(i, j, i, k)`` (eq. 1a, ``f(i,k,j) + w'(k,j)``). Tile ``("b",
    lo, hi)``: slab ``[j - lo, i, k]`` of candidates for ``pw'(i, j, k,
    j)`` (eq. 1b, ``f(i,k,j) + w'(i,k)``). Activate has no reduction
    axis: each output cell is one binary ``extend``, written straight
    into a fresh contiguous slab in the committed layout — one pass, no
    transposed intermediate — via the numba loop nest or a single
    strided-in/contiguous-out ufunc call.
    """
    side, lo, hi = tile
    if side == "a":
        X = F[lo:hi].transpose(0, 2, 1)  # X[t, j, k] = F[lo + t, k, j]
        Y = w.T  # Y[j, k] = w[k, j]
    else:
        X = F[:, :, lo:hi].transpose(2, 0, 1)  # X[t, i, k] = F[i, k, lo + t]
        Y = w
    if algebra.lowering().packed and not lex_range_check(X, Y):
        return _lex_exact_extend(X, Y[None, :, :])
    out = np.empty(X.shape)
    if HAVE_NUMBA:  # pragma: no cover - exercised via the [perf] CI leg
        _kernels_for(algebra).activate(X, Y, out)
    else:
        algebra.extend(X, Y[None, :, :], out=out)
    return out


def fused_dense_square_tile(
    tile: tuple, *, pw: np.ndarray, algebra: SelectionSemiring = MIN_PLUS
) -> np.ndarray:
    """Eq. (2c) candidates for rows ``i`` in ``tile`` (full lattice).

    Per right anchor column ``q``: ``Y[r, p] = pw(r, q, p, q)``
    restricted to its reachable rows, ``X[(i, j), r] = pw(i, j, r, q)``
    for ``j >= q``, reduced into the triangular slice
    ``acc[:, q:, :q, q]``. Per left anchor row ``p``: the mirror with
    ``Z[s, q] = pw(p, s, p, q)`` into ``acc[:, p+1:, p, p+1:]``.
    """
    lo, hi = tile
    N = pw.shape[0]
    acc = algebra.full((hi - lo, N, N, N))
    packed = algebra.lowering().packed
    for q in range(1, N):
        Y = pw[:q, q, :q, q]  # Y[r, p] = pw[r, q, p, q]
        rows = np.flatnonzero(algebra.reachable(Y).any(axis=1))
        if rows.size == 0:
            continue
        # Advanced index: fresh contiguous (hi - lo, N - q, R) gather.
        X = pw[lo:hi, q:, rows, q]
        _matmul_reduce(
            X.reshape(-1, rows.size), Y[rows], acc[:, q:, :q, q], algebra, packed
        )
    for p in range(N - 1):
        Z = pw[p, p + 1 :, p, p + 1 :]  # Z[s, q] = pw[p, s, p, q]
        rows = np.flatnonzero(algebra.reachable(Z).any(axis=1))
        if rows.size == 0:
            continue
        X = pw[lo:hi, p + 1 :, p, p + 1 :][:, :, rows]
        _matmul_reduce(
            X.reshape(-1, rows.size),
            Z[rows],
            acc[:, p + 1 :, p, p + 1 :],
            algebra,
            packed,
        )
    return acc


def fused_banded_square_tile(
    tile: tuple, *, pw: np.ndarray, band: int, algebra: SelectionSemiring = MIN_PLUS
) -> np.ndarray:
    """Eq. (2c) restricted to band offsets, rows ``i`` in ``tile``.

    Right-anchored candidates ``pw(i, j, p - d, q) ⊗ pw(p - d, q, p,
    q)`` and left-anchored ``pw(i, j, p, q + d) ⊗ pw(p, q + d, p, q)``
    for ``d = 0 .. band``, exactly the Section 5 composition set. The
    band restriction is a property of the candidate set, not of the
    table: activate writes arbitrary-gap cells the banded composition
    set never composes, so the offsets are bounded explicitly, never
    inferred from zeros. The band mask on *written* cells is applied by
    the commit.

    The numpy engine groups each anchor's offsets
    (:func:`_banded_square_grouped`); the numba engine and an
    out-of-range packed tile run one banded matmul per anchor column
    ``q`` (``Y[r, p] = pw(r, q, p, q)``, ``0 <= p - r <= band``, into
    ``acc[:, q:, :q, q]``) and per anchor row ``p`` (``Z[s, q] = pw(p,
    s, p, q)``, ``0 <= s - q <= band``, into ``acc[:, p+1:, p, p+1:]``).
    """
    lo, hi = tile
    N = pw.shape[0]
    acc = algebra.full((hi - lo, N, N, N))
    b = min(band, N - 1)
    exact = algebra.lowering().packed and not lex_range_check(pw, pw)
    if not (exact or HAVE_NUMBA):
        if b > 0:
            _banded_square_grouped(pw, lo, hi, b, acc, algebra)
        return acc
    for q in range(1, N):
        _banded_matmul_reduce(
            pw[lo:hi, q:, :q, q], pw[:q, q, :q, q], 0, b, acc[:, q:, :q, q],
            algebra, exact,
        )
    for p in range(N - 1):
        _banded_matmul_reduce(
            pw[lo:hi, p + 1 :, p, p + 1 :],
            pw[p, p + 1 :, p, p + 1 :],
            -b,
            0,
            acc[:, p + 1 :, p, p + 1 :],
            algebra,
            exact,
        )
    return acc


def fused_dense_pebble_tile(
    tile: tuple,
    *,
    pw: np.ndarray,
    w: np.ndarray,
    span_lo: int = -1,
    span_hi: int = -1,
    algebra: SelectionSemiring = MIN_PLUS,
) -> np.ndarray:
    """Eq. (3) candidates for rows ``i`` in ``tile``.

    The ``extend`` block is processed in :data:`CHUNK`-sized row groups
    (numpy) or never materialised at all (numba). ``span_lo``/``span_hi``
    carry the Section 5 size-class pebble window (``span_lo < j - i <=
    span_hi``); negative bounds mean no window.
    """
    lo, hi = tile
    N = w.shape[0]
    B = hi - lo
    pwb = pw[lo:hi]
    if algebra.lowering().packed and not lex_range_check(pwb, w):
        cand = _lex_exact_pebble(pwb, w)
    elif HAVE_NUMBA:  # pragma: no cover - exercised via the [perf] CI leg
        cand = algebra.full((B, N))
        _kernels_for(algebra).pebble(np.ascontiguousarray(pwb), w, cand)
    else:
        cand = np.empty((B, N))
        step = max(1, CHUNK // max(1, N * N * N))
        for b0 in range(0, B, step):
            b1 = min(B, b0 + step)
            block = algebra.extend(pwb[b0:b1], w[None, None, :, :])
            cand[b0:b1] = algebra.select(block, axis=(2, 3))
    if span_lo >= 0:
        ii = np.arange(lo, hi)[:, None]
        jj = np.arange(N)[None, :]
        window = (jj - ii > span_lo) & (jj - ii <= span_hi)
        cand = np.where(window, cand, algebra.zero)
    return cand


def fused_compact_activate_tile(
    tile: tuple, *, F: np.ndarray, w: np.ndarray, algebra: SelectionSemiring = MIN_PLUS
) -> tuple[np.ndarray, np.ndarray]:
    """Compact-layout activate candidates for rows ``i`` in ``tile``.

    Returns ``(U1, U2)`` slabs: ``U1[i - lo, j, k]`` the eq.-1a
    candidate for ``A1[i, j, k] = pw'(i, j, i, k)`` and ``U2`` likewise
    for ``A2[i, j, k] = pw'(i, j, k, j)``; the PB mirroring of in-band
    cells happens at commit (it reads the merged A1/A2). Both slabs
    read the same transposed input ``T[t, j, k] = F[i, k, j]``: the
    numba loop nest computes both in a single pass over it; the numpy
    engine gathers ``T`` contiguously once and runs the two elementwise
    extends over it.
    """
    lo, hi = tile
    X = F[lo:hi].transpose(0, 2, 1)  # X[t, j, k] = F[lo + t, k, j]
    Y1 = w.T  # ⊗ w(k, j)
    Y2 = w[lo:hi]  # ⊗ w(i, k)
    if algebra.lowering().packed and not lex_range_check(X, w):
        return (
            _lex_exact_extend(X, Y1[None, :, :]),
            _lex_exact_extend(X, Y2[:, None, :]),
        )
    U1 = np.empty(X.shape)
    U2 = np.empty(X.shape)
    if HAVE_NUMBA:  # pragma: no cover - exercised via the [perf] CI leg
        _kernels_for(algebra).activate_pair(X, Y1, Y2, U1, U2)
    else:
        T = np.ascontiguousarray(X)
        algebra.extend(T, Y1[None, :, :], out=U1)
        algebra.extend(T, Y2[:, None, :], out=U2)
    return U1, U2
