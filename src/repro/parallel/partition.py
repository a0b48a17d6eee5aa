"""Index-space partitioning for tiled sweeps."""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Sequence

__all__ = ["split_range", "split_weighted"]


def split_range(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into at most ``parts`` contiguous chunks of
    near-equal size (first ``total % parts`` chunks get the extra item).

    Empty chunks are never returned; ``parts > total`` yields ``total``
    single-item chunks.
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    if parts < 1:
        raise ValueError("parts must be >= 1")
    parts = min(parts, total)
    if parts == 0:
        return []
    base, extra = divmod(total, parts)
    out = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        out.append((start, start + size))
        start += size
    return out


def split_weighted(weights: Sequence[float], parts: int) -> list[tuple[int, int]]:
    """Split ``range(len(weights))`` into at most ``parts`` contiguous,
    non-empty chunks of near-equal total weight: chunk ``k`` ends after
    the first index whose running total reaches ``k / parts`` of the
    whole (a chunk that would come out empty is merged away)."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    running = list(accumulate(weights))
    total = len(running)
    bounds = [0]
    for k in range(1, min(parts, total)):
        cut = bisect_left(running, running[-1] * k / parts) + 1
        if bounds[-1] < cut < total:
            bounds.append(cut)
    if total:
        bounds.append(total)
    return list(zip(bounds, bounds[1:]))
