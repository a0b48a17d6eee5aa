"""Optimal binary search trees (Knuth 1971), as a recurrence-(*) problem.

With ``m`` keys, ``p[t]`` is the access weight of key ``t`` (1-based) and
``q[t]`` the weight of the gap between key ``t`` and key ``t+1``
(``q[0]`` before the first key, ``q[m]`` after the last). The expected
search cost ``e(i, j)`` of an optimal subtree over keys ``i+1 .. j``
satisfies

    e(i, j) = min_{i < r <= j} ( e(i, r-1) + e(r, j) ) + w(i, j),
    e(i, i) = q[i],     w(i, j) = q[i] + sum_{l=i+1..j} (p[l] + q[l]).

Mapping onto the paper's form (*): take ``n = m + 1`` objects (the gaps),
and identify interval ``(i, j)`` with the subtree over gaps
``q[i] .. q[j-1]`` and keys ``i+1 .. j-1``. Choosing the split point
``k`` corresponds to placing key ``k`` at the root, so

    init(i)    = q[i]                       (a bare gap),
    f(i, k, j) = w(i, j-1)  in Knuth's notation
               = q[i] + sum_{l=i+1..j-1} (p[l] + q[l]),

which is independent of ``k`` (permitted: (*) allows arbitrary
non-negative ``f``). Then ``c(0, n) = e(0, m)`` is the optimal expected
cost. ``f`` depends only on prefix sums of ``p + q``, matching the
paper's remark that BST f-values are computable in O(log n) time.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InvalidProblemError
from repro.problems.base import ParenthesizationProblem

__all__ = ["OptimalBSTProblem"]


class OptimalBSTProblem(ParenthesizationProblem):
    """Optimal BST with key weights ``p`` (length m) and gap weights ``q``
    (length m+1). Weights need not be normalised probabilities."""

    #: f(i, k, j) = w(i, j-1) ignores k, grows with the interval (the
    #: weights are non-negative) and meets the quadrangle inequality
    #: with equality (Knuth 1971).
    quadrangle = True

    def __init__(self, p: Sequence[float], q: Sequence[float]) -> None:
        p_arr = np.asarray(p, dtype=np.float64)
        q_arr = np.asarray(q, dtype=np.float64)
        if p_arr.ndim != 1 or q_arr.ndim != 1:
            raise InvalidProblemError("p and q must be 1-D sequences")
        if q_arr.size != p_arr.size + 1:
            raise InvalidProblemError(
                "need len(q) == len(p) + 1, got "
                f"len(p)={p_arr.size}, len(q)={q_arr.size}"
            )
        if p_arr.size < 1:
            raise InvalidProblemError("need at least one key")
        if np.isnan(p_arr).any() or np.isnan(q_arr).any():
            raise InvalidProblemError("weights must not be NaN")
        if (p_arr < 0).any() or (q_arr < 0).any():
            raise InvalidProblemError("weights must be non-negative")
        super().__init__(int(p_arr.size + 1))  # n = m + 1 objects (gaps)
        self._p = p_arr
        self._q = q_arr
        # prefix[t] = q[0..t] + p[1..t]; w(i, j) = prefix[j] - prefix[i] + q[i]
        # over keys i+1..j -> our f(i,k,j) uses j-1.
        self._prefix = np.concatenate(
            ([q_arr[0]], np.cumsum(p_arr + q_arr[1:]) + q_arr[0])
        )

    @property
    def num_keys(self) -> int:
        return self._p.size

    @property
    def p(self) -> np.ndarray:
        return self._p.copy()

    @property
    def q(self) -> np.ndarray:
        return self._q.copy()

    def canonical_payload(self) -> tuple:
        return ("bst", self._p.tobytes(), self._q.tobytes())

    def delta_weights(self) -> np.ndarray:
        # Gap weights first (length m+1), then key weights (length m).
        return np.concatenate((self._q, self._p))

    def delta_parent_payload(self) -> tuple:
        return ("bst", str(self.num_keys))

    def dirty_window(self, changed: np.ndarray) -> tuple[int, int]:
        # Gap q[d] feeds init(d) and prefix[d:]; key p[t] (1-based, at
        # index m + t) feeds prefix[t:]. f(i, k, j) reads prefix[j - 1]
        # and prefix[i], and an edit changes the rounding of every later
        # prefix sum, so each cell with j - 1 >= t is dirty, whatever its i.
        m = self.num_keys
        t = np.where(changed <= m, changed, changed - m)
        return (int(t.min()) + 1, self.n)

    def split_cost_segment(self, length: int, i0: int, cells: int) -> np.ndarray:
        # f(i, k, j) = w(i, j - 1) whatever k: a column, one value per cell
        i = slice(i0, i0 + cells)
        j_less_one = slice(i0 + length - 1, i0 + length - 1 + cells)
        return ((self._prefix[j_less_one] - self._prefix[i]) + self._q[i])[:, None]

    def subtree_weight(self, i: int, j: int) -> float:
        """Total weight w of keys ``i+1 .. j`` and gaps ``i .. j``
        (Knuth's w(i, j)); requires ``0 <= i <= j <= m``."""
        m = self.num_keys
        if not (0 <= i <= j <= m):
            raise InvalidProblemError(f"invalid key interval ({i}, {j}) for m={m}")
        return float(self._prefix[j] - self._prefix[i] + self._q[i])

    def init_cost(self, i: int) -> float:
        if not (0 <= i < self.n):
            raise InvalidProblemError(f"init index {i} out of range [0, {self.n})")
        return float(self._q[i])

    def split_cost(self, i: int, k: int, j: int) -> float:
        if not (0 <= i < k < j <= self.n):
            raise InvalidProblemError(f"invalid split ({i}, {k}, {j}) for n={self.n}")
        return self.subtree_weight(i, j - 1)

    def init_vector(self) -> np.ndarray:
        return self._q.copy()

    def describe(self) -> str:
        return (
            f"OptimalBSTProblem(m={self.num_keys} keys, "
            f"total weight={float(self._p.sum() + self._q.sum()):.4g})"
        )
