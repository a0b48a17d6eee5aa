#!/usr/bin/env python
"""The solve service, in process: coalescing and the result cache.

Builds a small mixed request stream with a realistic duplicate rate,
drives it through a LocalClient (the in-process face of `repro
serve`), and shows where each response came from — solved in a
coalesced batch, joined onto an identical in-flight request, or
answered from the instance-hash cache without running a solver at all.

Run:  python examples/solve_service_demo.py
"""

from collections import Counter

from repro.problems.generators import random_bst, random_matrix_chain
from repro.service import LocalClient
from repro.util.timing import Stopwatch

# --- a request stream with duplicates (what caches/coalescing exist for)
uniques = [
    (random_matrix_chain(16, seed=0), "huang", {}),
    (random_matrix_chain(12, seed=1), "huang-banded", {}),
    (random_bst(12, seed=2), "huang", {}),
    (random_matrix_chain(10, seed=3), "sequential", {}),
]
stream = [uniques[i % len(uniques)] for i in range(12)]

with LocalClient(backend="thread", workers=4, method="huang",
                 max_batch=len(stream)) as client:
    with Stopwatch() as sw:
        outcomes = client.solve_batch(stream, with_source=True)
    sources = Counter(source for _, source in outcomes)
    print(f"{len(stream)} concurrent requests in {sw.elapsed * 1e3:.0f} ms:")
    print(f"  solved in batches : {sources['batch']}")
    print(f"  coalesced (joined): {sources['coalesced']}")
    print(f"  cache hits        : {sources['cache']}")

    # A repeat of the whole stream is now pure cache traffic.
    with Stopwatch() as sw:
        repeat = client.solve_batch(stream, with_source=True)
    sources = Counter(source for _, source in repeat)
    print(f"\nsame stream again in {sw.elapsed * 1e3:.1f} ms: "
          f"{sources['cache']}/{len(stream)} from the cache")

    stats = client.status()
    print(f"\nscheduler: {stats['scheduler']['batches']} batches, "
          f"largest {stats['scheduler']['largest_batch']}")
    print(f"cache    : {stats['cache']['entries']} entries, "
          f"{stats['cache']['hits']} hits, {stats['cache']['nbytes']} bytes")

# Closing the client drained the scheduler and stopped the pool —
# `repro serve` does the same on shutdown.
print("\nservice closed: no worker threads or processes left")
