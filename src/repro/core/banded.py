"""The Section 5 processor reduction: banded partial weights.

Section 5 observes that the Lemma 3.3 schedule only ever needs

* partial weights ``pw(i, j, p, q)`` whose size difference
  ``(j - i) - (q - p)`` is at most ``2 * ceil(sqrt(n))`` (a tree in size
  class i decomposes into a partial tree with gap-size-difference <= 2i
  plus a subtree whose children are a class down), and
* in the square step, only ``O(sqrt(n))`` composition points ``r``
  (resp. ``s``) per quadruple — those within the band of the gap, and
* in the pebble step of iterations ``2l - 1`` and ``2l``, only intervals
  with ``(l-1)² < j - i <= l²`` (``O(n^1.5)`` of them).

Work per square drops from Θ(n⁵) to Θ(n³·sqrt(n)) — hence
O(n^3.5 / log n) processors at O(log n) time per step, the paper's
headline processor count — while the 2·sqrt(n)-iteration guarantee is
unchanged.

This solver keeps the dense Θ(n⁴) array for storage (the reduction is
about *work/processors*, which :meth:`BandedSolver.work_per_iteration`
accounts exactly; a compressed O(n³) layout would buy memory, not
change any counted quantity) but executes only in-band updates: the
square loops run over band offsets ``d = 0..B`` instead of all ``n``
anchor positions, which is also how the implementation gets its actual
speedup over :class:`~repro.core.huang.HuangSolver`.

``size_band=True`` additionally applies the iteration-indexed pebble
window. That schedule is only meaningful with the paper's fixed
iteration count — the window premises "all smaller classes are already
correct", which data-dependent early stopping cannot see — so
:meth:`run` rejects early-termination policies in that mode.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.huang import HuangSolver
from repro.core.kernels import BandedPebbleKernel, BandedSquareKernel, SweepKernel
from repro.core.termination import FixedIterations, TerminationPolicy, UntilValue
from repro.errors import InvalidProblemError
from repro.problems.base import ParenthesizationProblem

__all__ = ["BandedSolver", "default_band", "pebble_window_cells"]


def default_band(n: int) -> int:
    """The Section 5 band width ``2 * ceil(sqrt(n))``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2 * (math.isqrt(n - 1) + 1) if n > 1 else 2


def pebble_window_cells(n: int, iteration: int) -> int:
    """Number of (i, j) cells in the Section 5 pebble window at the given
    1-based iteration: intervals with (l-1)² < j-i <= l², l = ceil(it/2).

    Pure counting — no solver state needed; the paper bounds the result
    by O(n^1.5) (there are at most 2l-1 admissible lengths, each with at
    most n positions, and l <= ceil(sqrt n)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if iteration < 1:
        raise ValueError("iteration must be >= 1")
    ell = (iteration + 1) // 2
    lo, hi = (ell - 1) ** 2, ell * ell
    total = 0
    for span in range(lo + 1, min(hi, n) + 1):
        total += n + 1 - span
    return total


class BandedSolver(HuangSolver):
    """Huang's algorithm with the Section 5 gap band (and optionally the
    size-class pebble schedule).

    Parameters
    ----------
    band:
        Maximum allowed ``(j - i) - (q - p)``; defaults to
        ``2 * ceil(sqrt(n))``. Narrower bands are permitted for ablation
        (E6) but void the worst-case guarantee below
        ``2 * ceil(sqrt(n))``.
    size_band:
        Apply the iteration-indexed pebble window of Section 5.

    ``algebra=`` / ``backend=`` / ``workers=`` / ``tiles=`` are
    inherited from :class:`~repro.core.huang.HuangSolver`: the band is
    a restriction of *which* compositions are swept, independent of the
    selection semiring they are swept over, so every registered algebra
    runs through the same banded kernels.
    """

    def __init__(
        self,
        problem: ParenthesizationProblem,
        *,
        band: int | None = None,
        size_band: bool = False,
        max_n: int = 64,
        **engine_kwargs,
    ) -> None:
        self.band = default_band(problem.n) if band is None else int(band)
        if self.band < 0:
            raise InvalidProblemError(f"band must be >= 0, got {self.band}")
        self.size_band = bool(size_band)
        super().__init__(problem, max_n=max_n, **engine_kwargs)

    def reset(self) -> None:
        super().reset()
        N = self.n + 1
        i, j, p, q = np.ogrid[:N, :N, :N, :N]
        self._band_mask = (
            (i <= p) & (p < q) & (q <= j) & ((j - i) - (q - p) <= self.band)
        )

    # -- kernel set --------------------------------------------------------------
    #
    # a-activate is inherited UNRESTRICTED. The band applies only to the
    # partial weights the *square* step maintains: pebbling a node y whose
    # children are a size class down uses the activate-created
    # pw(y, gap=child), whose size difference is the sibling's size — up
    # to i² ≈ n, far outside the band. The Lemma 3.3 proof needs squares
    # only along chains whose off-chain subtree sizes are individually
    # <= 2i <= band, so square compositions stay in band; activate cells
    # (O(n³) of them, built in O(1) time each) are all kept.
    #
    # The square kernel sweeps band offsets r = p - d / s = q + d for
    # d = 0..band (any composition with a part outside the band has
    # pw = +inf, the band being enforced on every commit, so in-band
    # offsets lose nothing); the pebble kernel applies the optional
    # iteration-indexed size-class window.

    def build_kernels(self) -> dict[str, SweepKernel]:
        kernels = super().build_kernels()
        kernels["square"] = BandedSquareKernel()
        kernels["pebble"] = BandedPebbleKernel()
        return kernels

    def run(self, policy: TerminationPolicy | None = None, **kwargs):
        if policy is None:
            policy = FixedIterations.paper_schedule(self.n)
        if self.size_band and not isinstance(policy, (FixedIterations, UntilValue)):
            raise InvalidProblemError(
                "size_band scheduling is only sound with the paper's fixed "
                "iteration count (or the UntilValue oracle); data-dependent "
                "early stopping cannot observe the schedule's invariant"
            )
        return super().run(policy, **kwargs)

    # -- accounting ----------------------------------------------------------------

    def work_per_iteration(self) -> dict[str, int]:
        """In-band candidate counts (the E6 processor-reduction numbers).

        * activate: unrestricted — one candidate per (i, k, j) and side,
          exactly as in the full solver (O(n³), never the bottleneck);
        * square: per in-band *target* quadruple, one candidate per
          offset ``d <= band`` on each side — O(n³ · sqrt(n)) total, the
          Section 5 headline;
        * pebble: one candidate per cell that can ever be finite — the
          in-band quadruples plus the out-of-band activate cells
          (O(n³) together; the size-band window variant is reported by
          :meth:`pebble_window_cells`).
        """
        n, B = self.n, self.band
        triples = n * (n * n - 1) // 6
        activate = 2 * triples
        square = 0
        in_band_quads = 0
        activate_cells_off_band = 0
        for span in range(1, n + 1):
            n_ij = n + 1 - span
            sub_sq = 0
            sub_q = 0
            for glen in range(max(1, span - B), span + 1):
                for off in range(0, span - glen + 1):
                    r_choices = min(off, B) + 1
                    s_choices = min(span - glen - off, B) + 1
                    sub_sq += r_choices + s_choices
                    sub_q += 1
            square += n_ij * sub_sq
            in_band_quads += n_ij * sub_q
            # Activate cells with gap = a child: gap lengths glen < span - B
            # (the in-band ones are already counted above). Two cells per
            # split k: gaps (i, k) and (k, j) with glen = k-i and j-k.
            if span >= 2:
                off_band_lens = [
                    glen for glen in range(1, span) if span - glen > B
                ]
                activate_cells_off_band += n_ij * 2 * len(off_band_lens)
        return {
            "activate": activate,
            "square": square,
            "pebble": in_band_quads + activate_cells_off_band,
        }

    def pebble_window_cells(self, iteration: int) -> int:
        """Window size for this solver's n; see the module-level
        :func:`pebble_window_cells`."""
        return pebble_window_cells(self.n, iteration)
