"""A hybrid seeded solver — a concrete take on the §7 open problem.

Section 7 asks whether a *work-efficient* sublinear algorithm exists
(processor–time product O(n³·logᵏn)). A standard route toward work
efficiency is to stop parallelising below a grain size: solve all
intervals of span at most ``s`` with the O(n³)-work sequential DP
(that part costs only O(n·s²) work), seed the parallel tables with
those values, and run the banded iterations for the remaining large
intervals.

Effects this makes measurable (bench E9):

* the pebbling game starts with every node of size <= s pre-pebbled, so
  by invariant (a) the worst case drops from 2·ceil(sqrt(n)) to about
  ``2·(ceil(sqrt(n)) - floor(sqrt(s)))`` iterations;
* total work drops because the first ~2·sqrt(s) iterations — whose
  square sweeps are as expensive as any other — are replaced by
  O(n·s²) sequential work.

With s = Θ(n) this degenerates to the sequential algorithm (work
optimal, no speedup); with s = 1 it is exactly the paper's algorithm.
The sweep over s in E9 charts the trade curve between those endpoints —
which is precisely the landscape the open problem asks about.
"""

from __future__ import annotations

import math

from repro.core.banded import BandedSolver
from repro.core.sequential import sweep_window
from repro.core.termination import FixedIterations
from repro.errors import InvalidProblemError
from repro.problems.base import ParenthesizationProblem

__all__ = ["HybridSolver", "hybrid_schedule_length"]


def hybrid_schedule_length(n: int, seed_span: int) -> int:
    """Iterations guaranteed sufficient after seeding spans <= s.

    Lemma 3.3's invariant (a) says 2k moves pebble everything of size
    <= k²; starting with sizes <= s pebbled is starting at
    k0 = floor(sqrt(s)), so 2·(ceil(sqrt(n)) - floor(sqrt(s))) + 2
    further moves suffice (the +2 conservatively covers the k0 boundary,
    where class k0 + 1 may be only partially seeded).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if seed_span < 1:
        raise ValueError("seed_span must be >= 1")
    if seed_span >= n:
        return 1  # fully seeded; one iteration is a formality
    k_top = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    k0 = math.isqrt(seed_span)
    return max(1, 2 * (k_top - k0) + 2)


class HybridSolver(BandedSolver):
    """Banded solver seeded by a sequential pass over short intervals.

    Parameters
    ----------
    seed_span:
        All intervals with ``j - i <= seed_span`` are solved exactly by
        the sequential recurrence before any parallel iteration.
        Default ``ceil(n ** (1/3))`` (keeps seeding work at O(n²)).
    """

    def __init__(
        self,
        problem: ParenthesizationProblem,
        *,
        seed_span: int | None = None,
        **kwargs,
    ) -> None:
        n = problem.n
        if seed_span is None:
            seed_span = max(1, math.ceil(n ** (1.0 / 3.0)))
        if not (1 <= seed_span):
            raise InvalidProblemError(f"seed_span must be >= 1, got {seed_span}")
        self.seed_span = min(int(seed_span), n)
        super().__init__(problem, **kwargs)

    def reset(self) -> None:
        super().reset()
        # Sequential seeding: the sequential DP's sweep over spans
        # 2..seed_span, under the solver's algebra.
        sweep_window(self.problem, self.algebra, self.w, max_length=self.seed_span)

    def run(self, policy=None, **kwargs):
        if policy is None:
            policy = FixedIterations(hybrid_schedule_length(self.n, self.seed_span))
        return super().run(policy, **kwargs)

    def seeding_work(self) -> int:
        """Split candidates examined by the sequential seeding pass:
        sum over spans 2..s of (n - span + 1)(span - 1) = O(n·s²)."""
        total = 0
        for length in range(2, self.seed_span + 1):
            total += (self.n - length + 1) * (length - 1)
        return total
