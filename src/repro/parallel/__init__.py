"""Multicore execution backends for the table sweeps and batches.

The paper's machine is a PRAM; the honest Python analogue of "p
processors execute this super-step" is tiling the index space of a sweep
across OS threads. The sweep-kernel engine (:mod:`repro.core.kernels`)
routes every iterative solver's operations through these backends —
``solve(problem, method=..., backend=...)`` is the front door, and a
sweep's tiles run on ``serial`` or ``thread``. All of them compute
*bit-identical* tables (the sweeps read a snapshot and write disjoint
tiles — exactly the CREW discipline), which the test suite verifies.
The ``process`` backend runs whole problems of a ``solve_many`` batch
on a persistent worker pool, each item pickled once.

A note on speed, per the reproduction banding ("GIL hampers true
parallel speedup demonstration"): the thread backend gets real
concurrency only to the extent numpy's ufunc loops release the GIL.
It is not claimed to demonstrate the paper's asymptotic speedup — the
PRAM simulator's counted costs are the reproduction of those claims;
these backends demonstrate that the *algorithm structure* parallelises
with no change in results.
"""

from repro.parallel.partition import split_range
from repro.parallel.backends import (
    BACKEND_NAMES,
    START_METHODS,
    Backend,
    SerialBackend,
    ThreadBackend,
    ProcessBackend,
    make_backend,
)

__all__ = [
    "split_range",
    "BACKEND_NAMES",
    "START_METHODS",
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "make_backend",
]
