"""Recover an optimal tree from a converged cost table.

Given the optimal values ``w(i, j)`` (from any solver, in any
registered algebra's domain) and the problem's ``f``/``init``, the
optimal split of ``(i, j)`` is a *witness* of the selection

    w(i, j) = COMBINE over k of  EXTEND(w(i, k), w(k, j), f(i, k, j)),

found through the algebra's argwitness channel
(:meth:`~repro.core.algebra.SelectionSemiring.argwitness` — argmin or
argmax under the algebra's selection order); descending recursively
yields a tree realising ``c(0, n)``. This works from *values alone*, so
it applies equally to the iterative parallel solvers, which do not
maintain an explicit split table — and equally to every algebra, since
a selection semiring's ``combine`` always selects an actual candidate.
"""

from __future__ import annotations

import numpy as np

from repro.core.algebra import SelectionSemiring, get_algebra
from repro.core.sequential import best_split
from repro.errors import InvalidProblemError
from repro.problems.base import ParenthesizationProblem
from repro.trees.parse_tree import ParseTree

__all__ = ["reconstruct_tree", "verify_w_table"]


def reconstruct_tree(
    problem: ParenthesizationProblem,
    w: np.ndarray,
    *,
    i: int = 0,
    j: int | None = None,
    algebra: SelectionSemiring | str = "min_plus",
    atol: float = 1e-9,
) -> ParseTree:
    """Build an optimal tree for interval ``(i, j)`` from the cost table.

    ``w`` must be in the domain of ``algebra`` (which is how every
    solver returns it). Raises
    :class:`~repro.errors.InvalidProblemError` if the table is
    inconsistent (no split reproduces ``w(i, j)`` within ``atol`` —
    e.g. when handed a half-converged table).
    """
    n = problem.n
    if j is None:
        j = n
    if w.shape != (n + 1, n + 1):
        raise InvalidProblemError(f"w must have shape {(n + 1, n + 1)}, got {w.shape}")
    alg = get_algebra(algebra)

    splits: dict[tuple[int, int], int] = {}
    stack = [(i, j)]
    while stack:
        a, b = stack.pop()
        if b - a == 1:
            continue
        k, best = best_split(problem, alg, w, a, b)
        if not alg.reachable(w[a, b]) or not (
            abs(best - w[a, b]) <= atol * max(1.0, abs(w[a, b]))
        ):
            raise InvalidProblemError(
                f"w table is inconsistent at ({a}, {b}): "
                f"w={w[a, b]!r} but best split gives {best!r}"
            )
        splits[(a, b)] = k
        stack.append((a, k))
        stack.append((k, b))

    nodes: dict[tuple[int, int], ParseTree] = {}
    for a, b in sorted(splits, key=lambda t: t[1] - t[0]):
        k = splits[(a, b)]
        left = nodes.get((a, k)) or ParseTree.leaf(a)
        right = nodes.get((k, b)) or ParseTree.leaf(k)
        nodes[(a, b)] = ParseTree(a, b, split=k, left=left, right=right)
    return nodes.get((i, j)) or ParseTree.leaf(i)


def verify_w_table(
    problem: ParenthesizationProblem,
    w: np.ndarray,
    *,
    algebra: SelectionSemiring | str = "min_plus",
    atol: float = 1e-9,
) -> bool:
    """Check that ``w`` is exactly the recurrence's fixed point under
    ``algebra``: leaves match the encoded ``init`` and every interval's
    value equals the selected split. Returns True/False rather than
    raising (tests assert on it).
    """
    n = problem.n
    if w.shape != (n + 1, n + 1):
        return False
    alg = get_algebra(algebra)
    init = alg.encode_init(problem.init_vector())
    idx = np.arange(n)
    leaves = w[idx, idx + 1]
    finite = np.isfinite(init)
    if not np.array_equal(leaves[~finite], init[~finite]):
        return False
    if not np.allclose(leaves[finite], init[finite], atol=atol):
        return False
    for length in range(2, n + 1):
        for i in range(0, n - length + 1):
            j = i + length
            _, best = best_split(problem, alg, w, i, j)
            actual = w[i, j]
            if np.isinf(best) or np.isinf(actual):
                if best != actual:
                    return False
            elif not np.isclose(actual, best, atol=atol, rtol=1e-9):
                return False
    return True
