"""Wrap arbitrary ``init``/``f`` callables as a recurrence-(*) problem.

Useful for adversarial instances (e.g. those synthesised from a target
optimal tree in :mod:`repro.trees.synthesis`), for property-based tests
that draw random cost structures, and for users with bespoke recurrences
of the same shape.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.errors import InvalidProblemError
from repro.problems.base import ParenthesizationProblem

__all__ = ["GenericProblem"]


class GenericProblem(ParenthesizationProblem):
    """A recurrence-(*) problem defined by callables.

    Parameters
    ----------
    n:
        Number of objects.
    init:
        ``init(i) -> float`` for ``0 <= i < n``.
    f:
        ``f(i, k, j) -> float`` for ``0 <= i < k < j <= n``.
    f_dense:
        Optional precomputed dense table (shape ``(n+1, n+1, n+1)``);
        if given, it is the instance's ``f``: :meth:`f_table` returns a
        copy of it and every sweep gathers from that copy, validated,
        instead of calling ``f``. Invalid triples may hold anything —
        they are forced to ``+inf``.
    name:
        Optional label used in ``describe()``.
    """

    def __init__(
        self,
        n: int,
        init: Callable[[int], float],
        f: Callable[[int, int, int], float],
        *,
        f_dense: Optional[np.ndarray] = None,
        name: str = "generic",
    ) -> None:
        super().__init__(n)
        if not callable(init) or not callable(f):
            raise InvalidProblemError("init and f must be callable")
        self._init = init
        self._f = f
        self._name = str(name)
        if f_dense is not None:
            f_dense = np.asarray(f_dense, dtype=np.float64)
            if f_dense.shape != (n + 1, n + 1, n + 1):
                raise InvalidProblemError(
                    f"f_dense must have shape {(n + 1,) * 3}, got {f_dense.shape}"
                )
        self._f_dense = f_dense

    @classmethod
    def from_tables(
        cls,
        init_vector: np.ndarray,
        f_dense: np.ndarray,
        *,
        name: str = "generic",
    ) -> "GenericProblem":
        """Build a problem directly from dense tables."""
        init_vector = np.asarray(init_vector, dtype=np.float64)
        n = init_vector.size
        problem = cls(
            n,
            init=lambda i: float(init_vector[i]),
            f=lambda i, k, j: float(f_dense[i, k, j]),
            f_dense=f_dense,
            name=name,
        )
        return problem

    def init_cost(self, i: int) -> float:
        if not (0 <= i < self.n):
            raise InvalidProblemError(f"init index {i} out of range [0, {self.n})")
        return float(self._init(i))

    def split_cost(self, i: int, k: int, j: int) -> float:
        if not (0 <= i < k < j <= self.n):
            raise InvalidProblemError(f"invalid split ({i}, {k}, {j}) for n={self.n}")
        if self._f_dense is not None:
            return float(self._f_dense[i, k, j])
        return float(self._f(i, k, j))

    def f_table(self) -> np.ndarray:
        if self._f_dense is not None:
            n = self.n
            F = self._f_dense.copy()
            i, k, j = np.ogrid[: n + 1, : n + 1, : n + 1]
            F[~((i < k) & (k < j))] = np.inf
            return F
        return super().f_table()

    def split_cost_segment(self, length: int, i0: int, cells: int) -> np.ndarray:
        # A table-backed instance gathers from its validated table; one
        # defined by callables evaluates them (the base default).
        if self._f_dense is None:
            return super().split_cost_segment(length, i0, cells)
        i = np.arange(i0, i0 + cells)[:, None]
        return self.cached_f_table()[i, i + np.arange(1, length), i + length]

    def canonical_payload(self) -> tuple | None:
        # Only table-backed instances have a canonical encoding; hash
        # the masked table (f_table forces invalid triples to +inf) so
        # two instances that differ only in off-triangle junk coincide.
        # Callable-defined instances stay uncacheable (base None).
        # Memoised: the masked-copy + serialisation is O(n^3) and the
        # instance is immutable, while instance_key runs per request on
        # the service's submit path.
        if self._f_dense is None:
            return None
        if not hasattr(self, "_payload"):
            self._payload = (
                "generic",
                self.init_vector().tobytes(),
                self.f_table().tobytes(),
            )
        return self._payload

    def describe(self) -> str:
        return f"GenericProblem(n={self.n}, name={self._name!r})"
