"""Max-min reliability trees: maximise the weakest component.

Assemble ``n`` units into a binary tree; joining segment ``(i, j)`` at
boundary ``k`` goes through connector ``k`` with survival probability
``r[k]``, and the leaf ``(i, i+1)`` is a base unit with survival
probability ``q[i]`` (all in ``(0, 1]``). A construction is only as
strong as its weakest link, so the value of a tree is

    min( q over its leaves,  r over its connectors ),

and the optimisation problem is to pick the tree maximising that
minimum — recurrence (*) over the ``maxmin`` selection semiring
(``combine = max``, ``extend = min``). Like
:class:`~repro.problems.bottleneck_chain.BottleneckChainProblem`, the
family's headline objective does not exist under min-plus (a *sum* of
probabilities is meaningless); it is one of the workloads the pluggable
algebra opens up.

The ``f``/``init`` tables are ordinary non-negative values, so the same
instance can still be solved under any other registered algebra (e.g.
``min_plus`` gives "minimise total connector usage cost" readings);
``preferred_algebra`` records the intended one, and
:func:`repro.core.api.solve` resolves to it when the caller passes no
``algebra=``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InvalidProblemError
from repro.problems.base import ParenthesizationProblem, windows

__all__ = ["ReliabilityBSTProblem"]


class ReliabilityBSTProblem(ParenthesizationProblem):
    """Max-min reliability tree construction as recurrence (*).

    Parameters
    ----------
    connector_reliability:
        ``r[k]`` for the interior boundaries ``k = 1 .. n-1`` (length
        ``n - 1``; may be empty for ``n = 1``).
    leaf_reliability:
        ``q[i]`` for the base units ``i = 0 .. n-1`` (length ``n``).

    All reliabilities must lie in ``(0, 1]``.
    """

    #: the algebra this family's headline objective lives in; picked up
    #: automatically when no ``algebra=`` is passed to solve()
    preferred_algebra = "maxmin"

    def __init__(
        self,
        connector_reliability: Sequence[float],
        leaf_reliability: Sequence[float],
    ) -> None:
        r = np.asarray(connector_reliability, dtype=np.float64)
        q = np.asarray(leaf_reliability, dtype=np.float64)
        if q.ndim != 1 or q.size < 1:
            raise InvalidProblemError(
                "leaf_reliability must be a 1-D sequence of length >= 1, "
                f"got shape {q.shape}"
            )
        n = int(q.size)
        if r.shape != (max(0, n - 1),):
            raise InvalidProblemError(
                f"connector_reliability must have length n - 1 = {n - 1}, "
                f"got shape {r.shape}"
            )
        for name, arr in (("connector", r), ("leaf", q)):
            bad = (arr <= 0).any() or (arr > 1).any() or np.isnan(arr).any()
            if arr.size and bad:
                raise InvalidProblemError(
                    f"{name} reliabilities must lie in (0, 1]"
                )
        super().__init__(n)
        self._r = r
        self._q = q

    @property
    def connector_reliability(self) -> np.ndarray:
        return self._r.copy()

    @property
    def leaf_reliability(self) -> np.ndarray:
        return self._q.copy()

    def canonical_payload(self) -> tuple:
        return ("reliability", self._r.tobytes(), self._q.tobytes())

    def delta_weights(self) -> np.ndarray:
        # Leaf reliabilities first (length n), then connectors (length n-1).
        return np.concatenate((self._q, self._r))

    def delta_parent_payload(self) -> tuple:
        return ("reliability", str(self.n))

    def dirty_window(self, changed: np.ndarray) -> tuple[int, int]:
        # Leaf q[t] (index t < n) feeds init(t), i.e. cells with
        # i <= t < j; connector k (index n + k - 1) feeds f(i, k, j),
        # i.e. cells with i < k < j.
        n = self.n
        connector = changed >= n
        t = np.where(connector, changed - n + 1, changed)
        return (int(t.min()) + 1, int((t - connector).max()))

    def split_cost_segment(self, length: int, i0: int, cells: int) -> np.ndarray:
        # f(i, k, j) = r[k - 1] over k = i+1 .. j-1
        return windows(self._r, i0, cells, length - 1).copy()

    def init_cost(self, i: int) -> float:
        if not (0 <= i < self.n):
            raise InvalidProblemError(f"init index {i} out of range [0, {self.n})")
        return float(self._q[i])

    def split_cost(self, i: int, k: int, j: int) -> float:
        if not (0 <= i < k < j <= self.n):
            raise InvalidProblemError(f"invalid split ({i}, {k}, {j}) for n={self.n}")
        return float(self._r[k - 1])

    def init_vector(self) -> np.ndarray:
        return self._q.copy()

    def tree_reliability(self, tree: "object") -> float:
        """The weakest component of an explicit tree — the quantity the
        ``maxmin`` algebra optimises; independent evaluation for tests."""
        from repro.trees.parse_tree import ParseTree

        if not isinstance(tree, ParseTree):
            raise TypeError("tree must be a ParseTree")
        worst = min(float(self._q[leaf.i]) for leaf in tree.leaves())
        for node in tree.internal_nodes():
            worst = min(worst, self.split_cost(node.i, node.split, node.j))
        return worst

    def describe(self) -> str:
        return (
            f"ReliabilityBSTProblem(n={self.n}, "
            f"r={np.round(self._r, 4).tolist()}, "
            f"q={np.round(self._q, 4).tolist()})"
        )
