"""Minimum-weight triangulation of a convex polygon.

The third application named in the paper. A convex polygon with vertices
``v_0 … v_n`` (so ``n + 1`` vertices and ``n`` "objects" — the polygon
sides ``v_i v_{i+1}``) is triangulated by repeatedly choosing, for the
sub-polygon spanning ``v_i … v_j``, a middle vertex ``v_k``; the triangle
``(v_i, v_k, v_j)`` contributes weight ``f(i, k, j)``:

    init(i)    = 0
    f(i, k, j) = weight of triangle (v_i, v_k, v_j).

Two classical weight rules are supported:

* ``"perimeter"`` — sum of the triangle's side lengths (vertices are 2-D
  points; the usual geometric objective);
* ``"product"``  — product of scalar vertex weights (the Hu–Shing /
  matrix-chain-equivalent objective).
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from repro.errors import InvalidProblemError
from repro.problems.base import ParenthesizationProblem, segment_operands

__all__ = ["PolygonTriangulationProblem"]

WeightRule = Literal["perimeter", "product"]


class PolygonTriangulationProblem(ParenthesizationProblem):
    """Minimum-weight triangulation of a convex polygon.

    Parameters
    ----------
    vertices:
        For ``rule="perimeter"``: an ``(n+1, 2)`` array of 2-D vertex
        coordinates in boundary order. For ``rule="product"``: a length
        ``n+1`` vector of positive vertex weights.
    rule:
        The triangle weight rule (see module docstring).
    """

    def __init__(
        self,
        vertices: Sequence,
        rule: WeightRule = "perimeter",
    ) -> None:
        arr = np.asarray(vertices, dtype=np.float64)
        if rule == "perimeter":
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise InvalidProblemError(
                    f"perimeter rule needs (n+1, 2) coordinates, got shape {arr.shape}"
                )
            count = arr.shape[0]
        elif rule == "product":
            if arr.ndim != 1:
                raise InvalidProblemError(
                    f"product rule needs a 1-D weight vector, got shape {arr.shape}"
                )
            if (arr <= 0).any():
                raise InvalidProblemError("product rule requires positive weights")
            count = arr.shape[0]
        else:
            raise InvalidProblemError(f"unknown weight rule {rule!r}")
        if np.isnan(arr).any():
            raise InvalidProblemError("vertices must not contain NaN")
        if count < 3:
            raise InvalidProblemError("a polygon needs at least 3 vertices")
        super().__init__(count - 1)
        self._vertices = arr
        self._rule: WeightRule = rule
        # the weights (product) or the coordinate rows x, y (perimeter),
        # contiguous for segment_operands
        self._rows = np.ascontiguousarray(arr if rule == "product" else arr.T)

    @property
    def rule(self) -> WeightRule:
        return self._rule

    @property
    def vertices(self) -> np.ndarray:
        return self._vertices.copy()

    @property
    def num_vertices(self) -> int:
        return self.n + 1

    def canonical_payload(self) -> tuple:
        # The rule fixes the vertex-array layout ((n+1, 2) coordinates
        # vs (n+1,) weights), so tagging it keeps the encoding unambiguous.
        return ("polygon", str(self._rule), self._vertices.tobytes())

    def delta_weights(self) -> np.ndarray:
        # Flat under both rules; perimeter coordinates interleave as
        # (x_0, y_0, x_1, y_1, ...) so flat index // 2 is the vertex.
        return self._vertices.flatten()

    def delta_parent_payload(self) -> tuple:
        return ("polygon", str(self._rule), str(self.n))

    def dirty_window(self, changed: np.ndarray) -> tuple[int, int]:
        # A triangle weight reads vertices i, k and j only: the base
        # rule, once perimeter coordinates map to their vertex.
        if self._rule == "perimeter":
            changed = changed // 2
        return super().dirty_window(changed)

    def split_cost_segment(self, length: int, i0: int, cells: int) -> np.ndarray:
        if self._rule == "product":
            v_i, v_k, v_j = segment_operands(self._rows, length, i0, cells)
            return (v_i * v_k) * v_j
        x, y = self._rows
        x_i, x_k, x_j = segment_operands(x, length, i0, cells)
        y_i, y_k, y_j = segment_operands(y, length, i0, cells)
        d_ik = np.hypot(x_i - x_k, y_i - y_k)
        d_kj = np.hypot(x_k - x_j, y_k - y_j)
        d_ij = np.hypot(x_i - x_j, y_i - y_j)
        return (d_ik + d_kj) + d_ij

    def triangle_weight(self, i: int, k: int, j: int) -> float:
        """Weight of triangle (v_i, v_k, v_j) under the configured rule."""
        v = self._vertices
        if self._rule == "product":
            return float(v[i] * v[k] * v[j])
        a = float(np.hypot(*(v[i] - v[k])))
        b = float(np.hypot(*(v[k] - v[j])))
        c = float(np.hypot(*(v[i] - v[j])))
        return a + b + c

    def init_cost(self, i: int) -> float:
        if not (0 <= i < self.n):
            raise InvalidProblemError(f"init index {i} out of range [0, {self.n})")
        return 0.0

    def split_cost(self, i: int, k: int, j: int) -> float:
        if not (0 <= i < k < j <= self.n):
            raise InvalidProblemError(f"invalid split ({i}, {k}, {j}) for n={self.n}")
        return self.triangle_weight(i, k, j)

    def init_vector(self) -> np.ndarray:
        return np.zeros(self.n, dtype=np.float64)

    def describe(self) -> str:
        return (
            f"PolygonTriangulationProblem(vertices={self.num_vertices}, "
            f"rule={self._rule!r})"
        )
