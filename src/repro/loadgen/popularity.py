"""Instance-popularity models: which instance each trace event requests.

A trace draws its requests from a fixed **pool** of distinct problem
specs (so cache/coalescing behaviour is a property of the trace, not of
the target), then assigns each arrival a pool index under one of three
models:

``uniform``
    Every pool entry equally likely — the no-skew control.
``zipf``
    Pool entry at rank ``r`` (0-based pool order) drawn with
    probability proportional to ``(r + 1) ** -s``. The classic
    skewed-popularity law of production request streams; what the E13
    benchmark replays, and what exposes the consistent-hash ring's
    load imbalance.
``adversarial``
    Every request hammers pool entry 0 — the degenerate hotspot that
    maximises shard skew (one shard absorbs the entire stream) — and
    the pool itself is built from per-family **worst-case instance
    shapes** rather than random draws: zigzag-forcing matrix chains,
    maximally skewed BST access laws, monotone bottleneck chains (the
    E2 vine shapes that also maximise solver iterations).

Pool specs are plain JSONL problem specs (:mod:`repro.problems.specs`),
so a trace file is replayable against any service transport unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.problems.specs import FAMILIES
from repro.util.rng import SeedLike, resolve_rng

__all__ = ["POPULARITIES", "build_pool", "choose_indices"]

#: the registered popularity models (CLI choices and trace-schema values)
POPULARITIES = ("uniform", "zipf", "adversarial")


def _adversarial_spec(family: str, n: int, index: int) -> dict:
    """One worst-case-shaped explicit spec for ``family`` (pool entry
    ``index`` perturbs the size so pool entries stay distinct keys)."""
    size = n + index
    if family == "chain":
        # Alternating tall/tiny dimensions force a vine-shaped optimal
        # tree (the Fig. 2a zigzag regime): every split peels one
        # matrix, so the iterative methods see their deepest spine.
        dims = [1000 if k % 2 == 0 else 1 for k in range(size + 1)]
        return {"dims": dims}
    if family == "bst":
        # A maximally skewed access law: key weights decay geometrically
        # (each key twice as popular as the next), gaps negligible. The
        # optimal BST degenerates toward a vine.
        p = [2.0 ** -(k + 1) for k in range(size)]
        q = [2.0 ** -(size + 2)] * (size + 1)
        return {"p": p, "q": q}
    if family == "bottleneck":
        # Strictly increasing boundary weights: the minimax DP's optimal
        # tree is the left vine (every split pinned at the lightest
        # boundary).
        return {"weights": [float(k + 1) for k in range(size + 1)]}
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    # Families without an explicit-data worst-case construction fall
    # back to a seeded random draw; the adversarial *popularity* (all
    # mass on entry 0) still applies.
    return {"family": family, "n": size, "seed": index}


def build_pool(
    family: str,
    n: int,
    pool_size: int,
    *,
    seed: int = 0,
    adversarial: bool = False,
    method: str | None = None,
) -> list[dict]:
    """``pool_size`` distinct problem specs for one trace.

    Regular pools are seeded random draws from ``family`` at size ``n``
    (seed ``seed * 10_000 + index``, so pools from different trace
    seeds are disjoint); adversarial pools are explicit worst-case
    shapes (see :func:`_adversarial_spec`). ``method``, when given, is
    stamped onto every spec so the whole trace solves with one method.
    """
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    specs = []
    for index in range(pool_size):
        if adversarial:
            spec = _adversarial_spec(family, n, index)
        else:
            spec = {"family": family, "n": n, "seed": seed * 10_000 + index}
        if method is not None:
            spec["method"] = method
        specs.append(spec)
    return specs


def choose_indices(
    kind: str,
    pool_size: int,
    count: int,
    *,
    seed: SeedLike = None,
    zipf_s: float = 1.1,
) -> np.ndarray:
    """``count`` pool indices under popularity model ``kind``.

    Deterministic for a fixed integer ``seed``; ``adversarial`` is
    deterministic outright (all zeros).
    """
    if kind not in POPULARITIES:
        raise ValueError(
            f"unknown popularity model {kind!r}; choose from {POPULARITIES}"
        )
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if kind == "adversarial":
        return np.zeros(count, dtype=np.int64)
    rng = resolve_rng(seed)
    if kind == "uniform":
        return rng.integers(0, pool_size, size=count)
    if zipf_s <= 0:
        raise ValueError(f"zipf_s must be positive, got {zipf_s}")
    ranks = np.arange(1, pool_size + 1, dtype=np.float64)
    probs = ranks**-zipf_s
    probs /= probs.sum()
    return rng.choice(pool_size, size=count, p=probs)
