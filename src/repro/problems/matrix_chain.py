"""Optimal order of matrix multiplications (matrix-chain parenthesisation).

Given matrices A_1 … A_n where A_{i+1} has shape ``dims[i] x dims[i+1]``,
the cost of the product plan that splits ``A_{i+1..j}`` into
``A_{i+1..k} * A_{k+1..j}`` is the two sub-costs plus
``dims[i] * dims[k] * dims[j]`` scalar multiplications. This is the first
of the three applications named in the paper's introduction, with

    init(i)    = 0
    f(i, k, j) = dims[i] * dims[k] * dims[j].

The paper notes the f-values are computable in O(1) time with O(n^2)
processors; here each diagonal block of them is one broadcast product.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InvalidProblemError
from repro.problems.base import ParenthesizationProblem, segment_operands

__all__ = ["MatrixChainProblem"]


class MatrixChainProblem(ParenthesizationProblem):
    """Matrix-chain multiplication as a recurrence-(*) problem.

    Parameters
    ----------
    dims:
        The ``n + 1`` matrix dimensions; matrix ``t`` (1-based) has shape
        ``dims[t-1] x dims[t]``. All dimensions must be positive integers.
    """

    def __init__(self, dims: Sequence[int]) -> None:
        dims_arr = np.asarray(dims, dtype=np.int64)
        if dims_arr.ndim != 1 or dims_arr.size < 2:
            raise InvalidProblemError(
                "dims must be a 1-D sequence of length >= 2, got shape "
                f"{dims_arr.shape}"
            )
        if (dims_arr <= 0).any():
            raise InvalidProblemError("all matrix dimensions must be positive")
        super().__init__(int(dims_arr.size - 1))
        self._dims = dims_arr
        self._fdims = dims_arr.astype(np.float64)

    @property
    def dims(self) -> np.ndarray:
        """The dimension vector (read-only copy)."""
        return self._dims.copy()

    def canonical_payload(self) -> tuple:
        return ("chain", self._dims.tobytes())

    def delta_weights(self) -> np.ndarray:
        return self._dims.copy()

    def delta_parent_payload(self) -> tuple:
        return ("chain", str(self.n))

    def split_cost_segment(self, length: int, i0: int, cells: int) -> np.ndarray:
        d_i, d_k, d_j = segment_operands(self._fdims, length, i0, cells)
        return (d_i * d_k) * d_j

    def init_cost(self, i: int) -> float:
        if not (0 <= i < self.n):
            raise InvalidProblemError(f"init index {i} out of range [0, {self.n})")
        return 0.0

    def split_cost(self, i: int, k: int, j: int) -> float:
        if not (0 <= i < k < j <= self.n):
            raise InvalidProblemError(f"invalid split ({i}, {k}, {j}) for n={self.n}")
        d = self._dims
        return float(d[i] * d[k] * d[j])

    def init_vector(self) -> np.ndarray:
        return np.zeros(self.n, dtype=np.float64)

    def plan_cost(self, split_tree: "object") -> float:
        """Scalar-multiplication count of an explicit parenthesisation.

        ``split_tree`` is a :class:`repro.trees.ParseTree`; this is the
        independent cost evaluation used by tests to confirm the DP
        optimum is achieved by an actual plan.
        """
        from repro.trees.parse_tree import ParseTree

        if not isinstance(split_tree, ParseTree):
            raise TypeError("split_tree must be a ParseTree")
        return split_tree.weight(self)

    def describe(self) -> str:
        return f"MatrixChainProblem(n={self.n}, dims={self._dims.tolist()})"
