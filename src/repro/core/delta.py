"""Delta re-solves: reuse a cached DP table across a small weight change.

Point updates dominate duplicate-heavy service traffic (the hp-adaptive
DLB literature makes the same observation for incremental
re-partitioning): a request often differs from an already-solved
instance in a handful of weight positions. The recurrence (*) table is
highly local in those positions — cell ``(i, j)`` reads only ``init``
and ``f`` values inside the interval — so a change confined to a
weight window leaves a large *clean* subtriangle of the parent's table
bitwise-valid for the child.

This module is that reuse path:

- each problem family describes its weight vector
  (:meth:`~repro.problems.base.ParenthesizationProblem.delta_weights`),
  a structural probe payload
  (:meth:`~repro.problems.base.ParenthesizationProblem.delta_parent_payload`)
  and the dirty window changed weights induce
  (:meth:`~repro.problems.base.ParenthesizationProblem.dirty_window`),
  which the base class's
  :meth:`~repro.problems.base.ParenthesizationProblem.delta_window`
  applies to a parent's weights;
- :func:`delta_meta_for` computes the *delta-parent key* — the instance
  key with the weight values replaced by the structural payload — under
  which delta-capable caches index stored results;
- :func:`try_delta` probes a cache for parents of a request and hands
  each to :func:`delta_resolve`, which copies the parent table and
  re-sweeps **only the dirty cells** through the sequential DP's own
  sweep (:func:`repro.core.sequential.sweep_window`).

Bitwise contract
----------------
The re-sweep recomputes every dirty cell from already-correct inputs
(clean cells are bitwise the cold child values by the window argument;
dirty dependencies are recomputed first, in length order) with the
very sweep the cold sequential DP runs. Hence a delta table is
bitwise-identical to a cold solve of the child, and — by the engine's
cross-method invariant (DESIGN.md §3) — valid for every method in
:data:`DELTA_METHODS`. The property suite pins this along a delta axis.
That invariant needs exact sums: on float costs under a ``+``-extend
algebra the iterative solvers associate each sum differently, and their
cold tables differ from the sequential one in the last bits. So a
delta answers for an iterative method only where no sum rounds (a min
or max ``extend``, or integer-valued costs in float64's exact range;
see :func:`exact_sums`) and declines otherwise.

Delta results carry no ``iterations``/``trace``/``tree`` — they are
table-and-value answers, which is all the service layer's cache serves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.core.algebra import FLOAT_EXACT_INT_MAX, SelectionSemiring, get_algebra
from repro.core.sequential import set_leaves, sweep_window
from repro.errors import InvalidProblemError
from repro.problems.base import ParenthesizationProblem

__all__ = [
    "DELTA_METHODS",
    "MAX_DIRTY_FRACTION",
    "DeltaMeta",
    "delta_meta_for",
    "exact_sums",
    "try_delta",
    "delta_resolve",
]

#: methods a delta re-solve may answer for: every method whose committed
#: ``w`` table is pinned bitwise-identical to the sequential DP's by the
#: golden/property suites wherever sums are exact (the iterative ones
#: only there: :func:`exact_sums`). ``knuth`` is pinned too (the golden
#: and property suites' Knuth axis), but stays excluded by scope: adding
#: it would change what may answer a ``knuth`` request.
DELTA_METHODS = ("sequential", "huang", "huang-banded", "huang-compact", "rytter")

#: refusal threshold: if more than this fraction of the DP cells is
#: dirty, a delta re-sweep approaches cold-solve work — it runs the same
#: diagonal passes, and a narrow window pays one Python iteration per
#: diagonal for few cells each — and the probe declines.
MAX_DIRTY_FRACTION = 0.5

#: probe kwargs a delta re-solve can vouch for; anything else (solver
#: tuning such as ``band=``) makes the probe decline rather than guess.
_SAFE_PROBE_KWARGS = frozenset({"max_n"})


@dataclass(frozen=True)
class DeltaMeta:
    """What a delta-capable cache records next to a stored result.

    ``parent_key`` is the hex delta-parent probe key (family structure +
    method + algebra, weights elided); ``weights`` is the instance's own
    :meth:`~repro.problems.base.ParenthesizationProblem.delta_weights`
    vector, which future children diff against to find the dirty window.
    """

    parent_key: str
    weights: np.ndarray


def _parent_key_hex(
    problem: ParenthesizationProblem,
    *,
    method: str,
    algebra: SelectionSemiring | str | None,
    key_kwargs: dict[str, Any],
) -> Optional[str]:
    from repro.core.api import instance_key_bytes

    kwargs = {k: v for k, v in key_kwargs.items() if k != "reconstruct"}
    raw = instance_key_bytes(
        problem, method=method, algebra=algebra, delta_parent=True, **kwargs
    )
    return None if raw is None else raw.hex()


def delta_meta_for(
    problem: ParenthesizationProblem,
    *,
    method: str = "sequential",
    algebra: SelectionSemiring | str | None = None,
    **key_kwargs,
) -> Optional[DeltaMeta]:
    """The :class:`DeltaMeta` a cache should index a stored result under,
    or ``None`` when the instance cannot serve as a delta parent (family
    opted out, method off the pinned axis, uncanonicalisable kwargs).

    ``reconstruct`` is elided from the parent key on both the put and
    probe sides — it never changes the ``w`` table, and a parent solved
    with a tree still answers (only its table is reused).
    """
    if method not in DELTA_METHODS:
        return None
    weights = problem.delta_weights()
    if weights is None:
        return None
    parent_key = _parent_key_hex(
        problem, method=method, algebra=algebra, key_kwargs=key_kwargs
    )
    if parent_key is None:
        return None
    return DeltaMeta(parent_key=parent_key, weights=np.asarray(weights))


def try_delta(
    cache: Any,
    problem: ParenthesizationProblem,
    *,
    method: str = "sequential",
    algebra: SelectionSemiring | str | None = None,
    **key_kwargs,
) -> Optional[SolveResult]:
    """Probe ``cache`` for a delta parent of ``problem`` and re-solve
    against the first workable one; ``None`` means "solve cold".

    The cache must opt in (``supports_delta`` truthy and a
    ``delta_candidates(parent_hex)`` iterator of ``(weights, result)``
    pairs — :class:`repro.service.ResultCache` and the tiered store
    both qualify). The probe declines — never errors — on requests it
    cannot vouch for: tree reconstruction, custom termination policies,
    solver-tuning kwargs, methods off the pinned axis.
    """
    if not getattr(cache, "supports_delta", False):
        return None
    candidates_fn = getattr(cache, "delta_candidates", None)
    if candidates_fn is None or method not in DELTA_METHODS:
        return None
    if key_kwargs.pop("reconstruct", False):
        return None
    from repro.core.api import _EXECUTION_ONLY_KWARGS

    key_kwargs = {
        k: v for k, v in key_kwargs.items() if k not in _EXECUTION_ONLY_KWARGS
    }
    if any(k not in _SAFE_PROBE_KWARGS for k in key_kwargs):
        return None
    if problem.delta_weights() is None:
        return None
    parent_key = _parent_key_hex(
        problem, method=method, algebra=algebra, key_kwargs=key_kwargs
    )
    if parent_key is None:
        return None
    for parent_weights, parent_result in candidates_fn(parent_key):
        try:
            result = delta_resolve(
                problem,
                parent_weights,
                parent_result,
                method=method,
                algebra=algebra,
            )
        except InvalidProblemError:
            continue
        if result is not None:
            return result
    return None


def exact_sums(problem: ParenthesizationProblem, alg: SelectionSemiring) -> bool:
    """Does every method sum ``problem``'s costs under ``alg`` without
    rounding, so that all of them commit the sequential DP's table?

    A min or max ``extend`` never rounds. Under ``+`` every value any
    method computes is a sum of at most ``2n - 1`` encoded costs (the
    nodes of one tree), so the sums are exact when every encoded cost
    is integer-valued and ``2n - 1`` times the largest magnitude stays
    within float64's exact-integer range. This reads every split cost
    once, one diagonal at a time.
    """
    if alg.extend_ufunc is not np.add:
        return True
    n = problem.n
    blocks = [alg.encode_init(problem.init_vector())]
    blocks += [
        alg.encode_f(problem.split_cost_segment(length, 0, n - length + 1))
        for length in range(2, n + 1)
    ]
    largest = 0.0
    for block in blocks:
        finite = block[np.isfinite(block)]
        if not (finite == np.floor(finite)).all():
            return False
        largest = max(largest, float(np.abs(finite).max(initial=0.0)))
    return (2 * n - 1) * largest <= FLOAT_EXACT_INT_MAX


def _dirty_cell_count(n: int, lo: int, hi: int) -> int:
    """Cells ``(i, j)``, ``0 <= i < j <= n``, with ``j >= lo`` and
    ``i <= hi`` — the region :func:`delta_resolve` re-sweeps."""
    total = 0
    for length in range(1, n + 1):
        a = max(0, lo - length)
        b = min(n - length, hi)
        if b >= a:
            total += b - a + 1
    return total


def delta_resolve(
    problem: ParenthesizationProblem,
    parent_weights: np.ndarray,
    parent_result: SolveResult,
    *,
    method: str = "sequential",
    algebra: SelectionSemiring | str | None = None,
    max_dirty: float = MAX_DIRTY_FRACTION,
) -> Optional[SolveResult]:
    """Re-solve ``problem`` from a parent's table, re-sweeping only the
    dirty window; ``None`` when the parent is unusable (window unknown,
    wrong algebra/shape, or dirty fraction above ``max_dirty``), or when
    ``method`` is iterative and the sums are not exact
    (:func:`exact_sums`).

    The returned table is bitwise-identical to a cold solve of
    ``problem`` (module docstring); ``iterations``/``trace``/``tree``
    are ``None``. Invalid leaf costs or a NaN split cost in the dirty
    window raise :class:`~repro.errors.InvalidProblemError`, as in the
    cold solve; :func:`try_delta` then moves on, and the cold solve
    reports the error.
    """
    from repro.core.api import SolveResult

    n = problem.n
    if algebra is None:
        algebra = getattr(problem, "preferred_algebra", "min_plus")
    alg = get_algebra(algebra)
    if getattr(parent_result, "algebra", None) != alg.name:
        return None
    w_parent = getattr(parent_result, "w", None)
    if (
        not isinstance(w_parent, np.ndarray)
        or w_parent.shape != (n + 1, n + 1)
        or w_parent.dtype != np.float64
    ):
        return None
    window = problem.delta_window(parent_weights)
    if window is None:
        return None
    lo, hi = window
    if lo > n or hi < 0:  # equal weights: the parent table answers as-is
        return SolveResult(
            method=method,
            value=float(alg.decode(w_parent[0, n])),
            w=w_parent.copy(),
            algebra=alg.name,
        )
    if _dirty_cell_count(n, lo, hi) > max_dirty * problem.num_intervals:
        return None
    if method != "sequential" and not exact_sums(problem, alg):
        return None

    w = w_parent.copy()
    set_leaves(problem, alg, w)
    sweep_window(problem, alg, w, lo=lo, hi=hi)
    return SolveResult(
        method=method,
        value=float(alg.decode(w[0, n])),
        w=w,
        algebra=alg.name,
    )
