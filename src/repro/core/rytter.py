"""Rytter's algorithm [8] — the baseline the paper improves on.

Rytter (TCS 59, 1988) computes the same w/pw tables but squares the
partial-weight relation *fully*: one square step composes

    pw'(i,j,p,q) <- min over all intermediate nodes (r,s) of
                    pw'(i,j,r,s) + pw'(r,s,p,q),

i.e. a min-plus square of the K x K matrix ``M[(i,j),(p,q)]`` with
K = Θ(n²). Path lengths to every gap double each phase, so O(log n)
phases suffice (the corresponding pebbling game uses the original
``cond(x) := cond(cond(x))`` pointer jumping) — at Θ(n⁶) work per
square, which is where the O(n⁶/log n) processor count comes from.

Per-phase structure (activate, square, pebble) and initialisation are
identical to :class:`~repro.core.huang.HuangSolver`; only the square
differs. The headline comparison (E1) is exactly this trade: Rytter
does O(log n) phases of Θ(n⁶) square work; Huang does O(sqrt n)
iterations of Θ(n⁵) (full) or Θ(n^3.5) (banded) square work, winning a
factor Θ(n²·log n) in processor–time product (see
:mod:`~repro.core.cost_model`).
"""

from __future__ import annotations

import math

from repro.core.huang import HuangSolver
from repro.core.kernels import RytterSquareKernel, SweepKernel
from repro.core.termination import FixedIterations, TerminationPolicy
from repro.problems.base import ParenthesizationProblem

__all__ = ["RytterSolver", "rytter_schedule_length"]


def rytter_schedule_length(n: int) -> int:
    """Iterations for Rytter's algorithm: ``ceil(log2 n) + 2``.

    One doubling phase per power of two, plus a constant margin for the
    initial activation and the final pebble (verified ample by the test
    suite's fixed-point cross-checks).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return (max(1, math.ceil(math.log2(n))) if n > 1 else 1) + 2


class RytterSolver(HuangSolver):
    """Rytter's O(log² n)-time, O(n⁶/log n)-processor algorithm.

    The Θ(n⁶) square work makes this solver practical only for small n
    (the default ``max_n=28`` keeps a full run under a few seconds);
    that is all the E1 comparison needs, since the quantities being
    compared are *counted*, not timed.
    """

    def __init__(
        self,
        problem: ParenthesizationProblem,
        *,
        max_n: int = 28,
        **engine_kwargs,
    ) -> None:
        super().__init__(problem, max_n=max_n, **engine_kwargs)

    def build_kernels(self) -> dict[str, SweepKernel]:
        # Only the square differs from Huang's kernel set: one full
        # semiring squaring of the (N², N²) pw matrix view per phase
        # (min-plus under the default algebra). Intermediate nodes
        # whose row or column is entirely unreached contribute nothing
        # and are skipped — early phases therefore cost far less than
        # the worst case, which the work counters (not the wall clock)
        # are the record of.
        kernels = super().build_kernels()
        kernels["square"] = RytterSquareKernel()
        return kernels

    def run(self, policy: TerminationPolicy | None = None, **kwargs):
        if policy is None:
            policy = FixedIterations(rytter_schedule_length(self.n))
        return super().run(policy, **kwargs)

    def paper_schedule_length(self) -> int:
        return rytter_schedule_length(self.n)

    def work_per_iteration(self) -> dict[str, int]:
        """Worst-case candidate counts per phase.

        The square charge is the full composition lattice: for every
        valid outer pair ``(i,j) ⊇ (p,q)`` every valid intermediate
        ``(r,s)`` with ``(i,j) ⊇ (r,s) ⊇ (p,q)`` — Θ(n⁶) in total.
        Activate and pebble are as in the Huang solver.
        """
        base = super().work_per_iteration()
        n = self.n
        square = 0
        # Count nested triples of intervals (i,j) ⊇ (r,s) ⊇ (p,q) by the
        # two independent endpoint chains i <= r <= p and q <= s <= j.
        for span in range(1, n + 1):
            n_ij = n + 1 - span
            sub = 0
            for glen in range(1, span + 1):
                for off in range(0, span - glen + 1):
                    left_slack = off  # p - i
                    right_slack = span - glen - off  # j - q
                    # (r, s) with i <= r <= p, q <= s <= j, r < s implied.
                    sub += (left_slack + 1) * (right_slack + 1)
                    # trivial double-count of (p,q)/(i,j) endpoints kept:
                    # they are genuine (identity) candidates the machine
                    # also evaluates.
            square += n_ij * sub
        base["square"] = square
        return base
