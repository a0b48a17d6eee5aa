"""The recurrence-(*) problem interface.

A problem instance supplies the size ``n`` (number of objects being
parenthesised), the leaf costs ``init(i)`` for the unit intervals
``(i, i+1)``, and the decomposition costs ``f(i, k, j)`` for splitting
interval ``(i, j)`` at ``k``. Everything the solvers need is derived from
these three.

Each family writes ``f`` twice: :meth:`~ParenthesizationProblem.split_cost`
is the scalar reference, and
:meth:`~ParenthesizationProblem.split_cost_segment` is the closed form
of one diagonal block, computed from the :func:`segment_operands` of
the family's weight vectors. Every sweep of the recurrence reads the
blocks, and the base class assembles the dense ``(n+1, n+1, n+1)``
table :meth:`~ParenthesizationProblem.f_table` (``F[i, k, j] = f(i, k,
j)`` where ``0 <= i < k < j <= n`` and ``+inf`` elsewhere) from them,
one diagonal at a time, for the iterative solvers that read it whole.
A subclass that defines only the scalars gets blocks that evaluate
:meth:`~ParenthesizationProblem.split_cost` entry by entry. Likewise
:meth:`~ParenthesizationProblem.delta_window` compares a delta parent's
weights once for every family and hands the changed positions to the
family's :meth:`~ParenthesizationProblem.dirty_window` rule.
"""

from __future__ import annotations

import abc
from functools import cached_property

import numpy as np

from repro.errors import InvalidProblemError
from repro.util.validation import check_positive_int

__all__ = ["ParenthesizationProblem", "segment_operands", "windows"]


def windows(a: np.ndarray, start: int, rows: int, width: int) -> np.ndarray:
    """``rows`` overlapping runs of ``width`` consecutive entries of the
    1-D array ``a``, the first starting at ``a[start]``: a zero-copy
    ``(rows, width)`` view ``v`` with ``v[r, t] = a[start + r + t]``.

    For a diagonal segment of the DP triangle, ``windows(a, i0 + 1,
    cells, length - 1)`` lines up ``a[k]`` over the interior splits
    ``k`` of each cell, one cell per row.
    """
    a = np.ascontiguousarray(a)
    step = a.strides[0]
    return np.ndarray((rows, width), a.dtype, a, start * step, (step, step))


def segment_operands(
    a: np.ndarray, length: int, i0: int, cells: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(a[i], a[k], a[j])`` over a diagonal segment: the cells
    ``(i, j) = (i0 + c, i0 + c + length)`` for ``c < cells`` and their
    interior splits ``k = i+1 .. j-1``, shaped to broadcast together to
    ``(cells, length - 1)`` — two columns and a :func:`windows` view.
    One cell takes two scalars and a basic slice instead, which numpy
    evaluates for less than the strided view costs to build.
    """
    if cells == 1:
        return a[i0], a[i0 + 1 : i0 + length], a[i0 + length]
    return (
        a[i0 : i0 + cells, None],
        windows(a, i0 + 1, cells, length - 1),
        a[i0 + length : i0 + length + cells, None],
    )


def _check_split_costs(values: np.ndarray) -> None:
    """Refuse split costs outside the contract of (*)."""
    if np.isnan(values).any():
        raise InvalidProblemError("f(i, k, j) contains NaN")
    if (values < 0).any():
        raise InvalidProblemError("f(i, k, j) must be non-negative")


class ParenthesizationProblem(abc.ABC):
    """Abstract base for problems of the paper's recurrence form (*)."""

    #: The selection semiring this family's headline objective lives in.
    #: :func:`repro.core.api.solve` (and the solver classes) use it when
    #: the caller does not pass ``algebra=`` explicitly; families whose
    #: natural objective is off min-plus (e.g. bottleneck chains,
    #: reliability trees) override it.
    preferred_algebra: str = "min_plus"

    #: Whether ``f(i, k, j)`` ignores ``k``, grows with the interval and
    #: meets the quadrangle inequality, as its closed form shows: then
    #: method ``"knuth"``'s split windows find the optimum. A subclass
    #: that redefines ``f`` must redeclare it.
    quadrangle: bool = False

    def __init__(self, n: int) -> None:
        self._n = check_positive_int(n, "n", minimum=1)

    # -- the contract ------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of objects; intervals are ``(i, j)`` with 0 <= i < j <= n."""
        return self._n

    @abc.abstractmethod
    def init_cost(self, i: int) -> float:
        """``init(i)`` — the cost of the leaf interval ``(i, i+1)``."""

    @abc.abstractmethod
    def split_cost(self, i: int, k: int, j: int) -> float:
        """``f(i, k, j)`` — the cost of decomposing ``(i, j)`` into
        ``(i, k)`` and ``(k, j)``; requires ``0 <= i < k < j <= n``."""

    # -- vectorised views ----------------------------------------------------

    def init_vector(self) -> np.ndarray:
        """``init`` as a float vector of shape ``(n,)``."""
        return np.array([self.init_cost(i) for i in range(self.n)], dtype=np.float64)

    def f_table(self) -> np.ndarray:
        """Dense ``f`` as an ``(n+1, n+1, n+1)`` array.

        ``F[i, k, j] = f(i, k, j)`` for valid triples ``i < k < j``;
        invalid triples hold ``+inf``. Each diagonal is written from
        one :meth:`split_cost_segment` block, so the table holds
        bitwise the costs every sweep reads.
        """
        n = self.n
        F = np.full((n + 1, n + 1, n + 1), np.inf, dtype=np.float64)
        s_i, s_k, s_j = F.strides
        steps = (s_i + s_k + s_j, s_k)  # to the next cell, to the next split
        for length in range(2, n + 1):
            cells = n + 1 - length
            # row c views F[c, c + 1 + t, c + length] for t < length - 1
            start = s_k + length * s_j
            view = np.ndarray((cells, length - 1), F.dtype, F, start, steps)
            view[...] = self.split_cost_segment(length, 0, cells)
        return F

    @cached_property
    def _validated_f_table(self) -> np.ndarray:
        F = self.f_table()
        self.validate_table(F)
        return F

    def cached_f_table(self) -> np.ndarray:
        """The validated ``f`` table, computed once per instance."""
        return self._validated_f_table

    # -- validation -----------------------------------------------------------

    def validate_table(self, F: np.ndarray) -> None:
        """Check a candidate ``f`` table against the contract of (*)."""
        n = self.n
        if F.shape != (n + 1, n + 1, n + 1):
            raise InvalidProblemError(
                f"f table must have shape {(n + 1,) * 3}, got {F.shape}"
            )
        i, k, j = np.ogrid[: n + 1, : n + 1, : n + 1]
        _check_split_costs(F[(i < k) & (k < j)])

    def validate(self) -> None:
        """Validate leaf costs and (for small n) the full split-cost table."""
        n = self.n
        init = self.init_vector()
        if init.shape != (n,):
            raise InvalidProblemError(
                f"init vector must have shape ({n},), got {init.shape}"
            )
        if np.isnan(init).any() or (init < 0).any():
            raise InvalidProblemError("init(i) must be non-negative and finite")
        self.validate_table(self.f_table())

    # -- canonical identity --------------------------------------------------

    def canonical_payload(self) -> tuple | None:
        """Family-canonical byte encoding of this instance, or ``None``.

        Two instances whose payloads compare equal define the same
        recurrence — the same ``init`` vector and the same ``f`` table —
        so a solve of one can answer for the other. The payload is a
        flat tuple of strings and ``bytes`` (family tag first) that
        :func:`repro.core.api.instance_key` folds into the instance
        hash the service-layer result cache is keyed by.

        ``None`` (the base default) means *uncacheable*: the instance
        has no canonical encoding — e.g. it is defined by arbitrary
        callables — and must never be served from a cache. Concrete
        families override this with their defining arrays.
        """
        return None

    # -- delta identity (incremental re-solves) -----------------------------

    def delta_weights(self) -> np.ndarray | None:
        """The flat defining weight vector of this instance, or ``None``.

        Two instances of the same family, size and structural settings
        whose :meth:`delta_weights` differ in a few positions define
        recurrences that differ only in a bounded *dirty region* of the
        DP triangle — the contract :mod:`repro.core.delta` exploits to
        re-sweep only dirty cells of a cached table. ``None`` (the base
        default) opts the family out of delta re-solves.
        """
        return None

    def delta_parent_payload(self) -> tuple | None:
        """Family-level probe payload for the delta-parent cache index.

        Like :meth:`canonical_payload` but with the weight values
        replaced by structural facts (family tag, size, rules): every
        instance that could serve as a delta parent for this one —
        same family, same ``n``, same structural settings, any weights
        — must produce the same payload. ``None`` opts out.
        """
        return None

    def delta_window(
        self, parent_weights: np.ndarray
    ) -> tuple[int, int] | None:
        """The dirty window ``(lo, hi)`` against a delta parent.

        Given the parent's :meth:`delta_weights`, returns ``(lo, hi)``
        such that cell ``(i, j)`` of the DP table is *clean* (bitwise
        equal to the parent's) whenever ``j < lo`` or ``i > hi``, and
        must be recomputed otherwise. Equal weights yield the empty
        window ``(n + 1, -1)``; otherwise the changed positions go to
        :meth:`dirty_window`. ``None`` means the comparison is
        impossible (not an array of this instance's weight shape and
        dtype, or the family opted out).
        """
        mine = self.delta_weights()
        if (
            mine is None
            or not isinstance(parent_weights, np.ndarray)
            or parent_weights.shape != mine.shape
            or parent_weights.dtype != mine.dtype
        ):
            return None
        changed = np.flatnonzero(parent_weights != mine)
        if changed.size == 0:
            return (self.n + 1, -1)
        return self.dirty_window(changed)

    def dirty_window(self, changed: np.ndarray) -> tuple[int, int]:
        """The window ``(lo, hi)`` of :meth:`delta_window` for a change
        at the flat positions ``changed`` (non-empty, ascending) of
        :meth:`delta_weights`.

        The default suits weights indexed by boundary, where ``f(i, k,
        j)`` reads the weights at ``i``, ``k`` and ``j`` only and
        ``init`` reads none: a change at ``t`` dirties cell ``(i, j)``
        exactly when ``i <= t <= j``. A family whose costs read its
        weights otherwise overrides it.
        """
        return (int(changed.min()), int(changed.max()))

    def split_cost_segment(self, length: int, i0: int, cells: int) -> np.ndarray:
        """``f`` over ``cells`` consecutive cells of one diagonal.

        Row ``c`` is cell ``(i, j) = (i0 + c, i0 + c + length)`` and
        holds ``f(i, k, j)`` for its interior splits ``k = i+1 .. j-1``,
        so the block has shape ``(cells, length - 1)``; an override may
        return any array that broadcasts to it (a column when ``f`` does
        not depend on ``k``, a row for one cell). This is the block
        every sweep of recurrence (*) reads
        (:func:`repro.core.sequential.sweep_window` one diagonal at a
        time, :func:`repro.core.sequential.best_split` one cell at a
        time: the sequential DP, delta re-solves, hybrid seeding and
        tree reconstruction), and :meth:`f_table` is assembled from it.
        This default evaluates :meth:`split_cost` entry by entry and
        refuses a NaN or negative cost, as :meth:`validate_table` does.
        The family overrides compute it in closed form without
        materialising the dense Θ(n³) table, so a sequential solve runs
        in O(n²) space and a delta re-sweep costs in proportion to its
        dirty region. A subclass that redefines ``f`` must redefine
        this block with it.
        """
        block = np.array(
            [
                [self.split_cost(i, k, i + length) for k in range(i + 1, i + length)]
                for i in range(i0, i0 + cells)
            ],
            dtype=np.float64,
        )
        _check_split_costs(block)
        return block

    # -- conveniences -----------------------------------------------------------

    @property
    def num_intervals(self) -> int:
        """Number of intervals (i, j): n(n+1)/2."""
        return self.n * (self.n + 1) // 2

    def describe(self) -> str:
        """One-line human description; subclasses refine."""
        return f"{type(self).__name__}(n={self.n})"

    def __repr__(self) -> str:
        return self.describe()
