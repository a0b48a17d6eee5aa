"""Bottleneck (minimax) parenthesization of a merge chain.

A pipeline of ``n`` stages is combined pairwise into one unit; merging
the segment ``(i, j)`` at stage boundary ``k`` requires synchronising
the three boundaries involved, at cost

    f(i, k, j) = c[i] + c[k] + c[j]

for per-boundary weights ``c[0..n]`` (port capacities, link latencies,
...). Under the classical min-plus objective this is a triangulation-
style total-cost problem; the *natural* objective for the family,
though, is the **bottleneck**: choose the merge tree whose single most
expensive merge is as cheap as possible —

    minimise over trees  (maximise over merges  f(i, k, j)),

i.e. recurrence (*) over the ``minimax`` selection semiring
(``combine = min``, ``extend = max``). That objective is what makes
this family interesting *off* min-plus: it is the scheduling question
"how large must the synchronisation budget per step be?", and it only
exists because the sweep engine's algebra is pluggable.

Leaves cost nothing (``init = 0``), which is the extend-neutral floor
for non-negative weights under both ``max`` and ``+``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InvalidProblemError
from repro.problems.base import ParenthesizationProblem, segment_operands

__all__ = ["BottleneckChainProblem"]


class BottleneckChainProblem(ParenthesizationProblem):
    """Minimax merge scheduling as a recurrence-(*) problem.

    Parameters
    ----------
    weights:
        The ``n + 1`` non-negative boundary weights ``c[0..n]``.
    """

    #: the algebra this family's headline objective lives in;
    #: solve()/the solver classes pick it up when no ``algebra=`` is
    #: passed (pass ``algebra="min_plus"`` explicitly for the
    #: total-cost reading)
    preferred_algebra = "minimax"

    def __init__(self, weights: Sequence[float]) -> None:
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 2:
            raise InvalidProblemError(
                f"weights must be a 1-D sequence of length >= 2, got shape {w.shape}"
            )
        if (w < 0).any() or not np.isfinite(w).all():
            raise InvalidProblemError("boundary weights must be finite and >= 0")
        super().__init__(int(w.size - 1))
        self._weights = w

    @property
    def weights(self) -> np.ndarray:
        """The boundary-weight vector (read-only copy)."""
        return self._weights.copy()

    def canonical_payload(self) -> tuple:
        return ("bottleneck", self._weights.tobytes())

    def delta_weights(self) -> np.ndarray:
        return self._weights.copy()

    def delta_parent_payload(self) -> tuple:
        return ("bottleneck", str(self.n))

    def split_cost_segment(self, length: int, i0: int, cells: int) -> np.ndarray:
        c_i, c_k, c_j = segment_operands(self._weights, length, i0, cells)
        return (c_i + c_k) + c_j

    def init_cost(self, i: int) -> float:
        if not (0 <= i < self.n):
            raise InvalidProblemError(f"init index {i} out of range [0, {self.n})")
        return 0.0

    def split_cost(self, i: int, k: int, j: int) -> float:
        if not (0 <= i < k < j <= self.n):
            raise InvalidProblemError(f"invalid split ({i}, {k}, {j}) for n={self.n}")
        c = self._weights
        return float(c[i] + c[k] + c[j])

    def init_vector(self) -> np.ndarray:
        return np.zeros(self.n, dtype=np.float64)

    def bottleneck_cost(self, tree: "object") -> float:
        """The largest single merge cost of an explicit tree — the
        quantity the ``minimax`` algebra optimises. Independent
        evaluation used by tests to confirm the DP optimum is achieved
        by an actual merge schedule."""
        from repro.trees.parse_tree import ParseTree

        if not isinstance(tree, ParseTree):
            raise TypeError("tree must be a ParseTree")
        return max(
            (
                self.split_cost(node.i, node.split, node.j)
                for node in tree.internal_nodes()
            ),
            default=0.0,
        )

    def describe(self) -> str:
        return (
            f"BottleneckChainProblem(n={self.n}, "
            f"weights={np.round(self._weights, 4).tolist()})"
        )
