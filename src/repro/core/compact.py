"""The Section 5 algorithm with Θ(n³) storage — the compact layout.

:class:`~repro.core.banded.BandedSolver` proves the §5 *work* bound but
still stores the dense Θ(n⁴) pw array. This solver also realises the
§5 *storage* implication: in-band partial weights are kept in a
four-index array

    PB[i, j, o, d]  =  pw(i, j, p, q),   p = i + o,  q = j - (d - o),

where ``d = (j - i) - (q - p)`` is the size difference (``<= band``)
and ``o = p - i`` its left offset. The validity constraint ``q <= j``
forces ``o <= d``, so only ``(band+1)²/2`` (o, d) pairs exist per
interval: Θ(n²·band²) = Θ(n³) memory for the Section 5 band.

The payoff of these coordinates is that every §5 square composition
becomes a pure *slice shift*:

* right-anchored  pw(i,j,r,q) + pw(r,q,p,q) with offset ``e = p - r``:
      PB[i, j, o-e, d-e]  +  PB[i + (o-e), j + (o-d), e, e]
* left-anchored   pw(i,j,p,s) + pw(p,s,p,q) with offset ``e = s - q``:
      PB[i, j, o,   d-e]  +  PB[i + o,     j + (o-d) + e, 0, e]

— the second factors are 2-D translations of a fixed (o', d') plane, so
one a-square is Θ(band³) numpy slab operations of Θ(n²) elements each:
Θ(n²·band³) = Θ(n^3.5) work, the exact §5 charge, with no gather or
mask machinery.

Out-of-band activate cells (gap = a child of the root; needed by the
pebble step, never by squares — see :mod:`~repro.core.banded`) are kept
in two Θ(n³) arrays ``A1[i,j,k] = pw'(i,j,i,k)`` and
``A2[i,j,k] = pw'(i,j,k,j)``.

Net effect: the full algorithm runs at n ≈ 200 on a laptop (vs ≈ 64
for the dense solvers), which is what lets E2/E3's algorithm-level
series extend deep enough to read the growth laws cleanly.

The three sweeps live as the ``Compact*Kernel`` declarations in
:mod:`repro.core.kernels` (tile over rows of ``i``; the mirror of
activate cells into PB and the validity mask run at commit), so this
solver too executes on any backend/tiling with bitwise-identical
results.
"""

from __future__ import annotations

import numpy as np

from repro.core.algebra import SelectionSemiring, get_algebra
from repro.core.banded import default_band
from repro.core.huang import IterativeTableSolver
from repro.core.kernels import (
    CompactActivateKernel,
    CompactPebbleKernel,
    CompactSquareKernel,
    SweepKernel,
)
from repro.errors import InvalidProblemError
from repro.parallel.backends import Backend
from repro.problems.base import ParenthesizationProblem

__all__ = ["CompactBandedSolver"]


class CompactBandedSolver(IterativeTableSolver):
    """Section 5 algorithm with Θ(n³) storage (see module docstring).

    Parameters
    ----------
    band:
        Maximum gap size-difference kept (default ``2 * ceil(sqrt n)``).
    max_n:
        Memory guard; the PB table is ``(n+1)²·(band+1)²`` floats
        (n=200 ≈ 0.6 GiB with the default band).
    """

    def __init__(
        self,
        problem: ParenthesizationProblem,
        *,
        band: int | None = None,
        max_n: int = 256,
        algebra: SelectionSemiring | str | None = None,
        backend: Backend | str = "serial",
        workers: int | None = None,
        tiles: int | None = None,
    ) -> None:
        if problem.n > max_n:
            raise InvalidProblemError(
                f"n={problem.n} exceeds max_n={max_n}; pass a larger max_n "
                "explicitly if you have the memory"
            )
        self.problem = problem
        self.n = problem.n
        self.band = default_band(problem.n) if band is None else int(band)
        if self.band < 0:
            raise InvalidProblemError(f"band must be >= 0, got {self.band}")
        self.band = min(self.band, max(0, problem.n - 1))
        if algebra is None:
            algebra = getattr(problem, "preferred_algebra", "min_plus")
        self.algebra = get_algebra(algebra)
        self._init_engine(backend, workers, tiles)
        self._F = self.algebra.encode_f(problem.cached_f_table())
        self._init = self.algebra.encode_init(problem.init_vector())
        self.reset()

    # -- kernel set --------------------------------------------------------

    def build_kernels(self) -> dict[str, SweepKernel]:
        return {
            "activate": CompactActivateKernel(),
            "square": CompactSquareKernel(),
            "pebble": CompactPebbleKernel(),
        }

    # -- state ------------------------------------------------------------

    def reset(self) -> None:
        N = self.n + 1
        B = self.band
        alg = self.algebra
        self.w = alg.full((N, N))
        idx = np.arange(self.n)
        self.w[idx, idx + 1] = self._init
        # PB[i, j, o, d]; invalid combinations simply stay unreached.
        self.PB = alg.full((N, N, B + 1, B + 1))
        ii, jj = np.triu_indices(N, k=1)
        self.PB[ii, jj, 0, 0] = alg.one  # pw(i, j, i, j) = empty composition
        self.A1 = alg.full((N, N, N))  # pw'(i, j, i, k)
        self.A2 = alg.full((N, N, N))  # pw'(i, j, k, j)
        # Valid slots: 0 <= i < j <= n, o <= d < j - i. Invalid slots must
        # stay unreached or shifted-slice compositions could read garbage.
        i_g, j_g, o_g, d_g = np.ogrid[:N, :N, : B + 1, : B + 1]
        self._invalid = ~((i_g < j_g) & (o_g <= d_g) & (d_g < j_g - i_g))
        self.iterations_run = 0

    def _count_finite_pw(self) -> int:
        alg = self.algebra
        return int(
            alg.reachable(self.PB).sum()
            + alg.reachable(self.A1).sum()
            + alg.reachable(self.A2).sum()
        )

    # -- accounting ---------------------------------------------------------------

    def work_per_iteration(self) -> dict[str, int]:
        """Per-iteration candidate counts — identical to the dense
        Section 5 solver's (same operator, different storage); see
        :meth:`repro.core.banded.BandedSolver.work_per_iteration`."""
        from repro.core.banded import BandedSolver

        proxy = object.__new__(BandedSolver)
        proxy.n = self.n
        proxy.band = self.band
        return BandedSolver.work_per_iteration(proxy)

    # -- interop ---------------------------------------------------------------

    def to_dense_pw(self) -> np.ndarray:
        """Materialise the in-band + activate cells as a dense Θ(n⁴)
        table (tests compare it cell-by-cell against BandedSolver)."""
        N = self.n + 1
        alg = self.algebra
        out = alg.full((N, N, N, N))
        for i in range(N):
            for j in range(i + 1, N):
                span = j - i
                for d in range(0, min(self.band, span - 1) + 1):
                    for o in range(0, d + 1):
                        p = i + o
                        q = j - (d - o)
                        if p < q:
                            out[i, j, p, q] = self.PB[i, j, o, d]
                for k in range(i + 1, j):
                    out[i, j, i, k] = alg.combine(out[i, j, i, k], self.A1[i, j, k])
                    out[i, j, k, j] = alg.combine(out[i, j, k, j], self.A2[i, j, k])
        return out
