"""Multicore execution backends for the table sweeps.

The paper's machine is a PRAM; the honest Python analogue of "p
processors execute this super-step" is tiling the index space of a sweep
across OS threads or processes. The sweep-kernel engine
(:mod:`repro.core.kernels`) routes every iterative solver's operations
through these backends — ``solve(problem, method=..., backend=...)`` is
the front door. All backends compute *bit-identical* tables (the sweeps
read a snapshot and write disjoint tiles — exactly the CREW discipline),
which the test suite verifies.

A note on speed, per the reproduction banding ("GIL hampers true
parallel speedup demonstration"): the thread backend gets real
concurrency only to the extent numpy's ufunc loops release the GIL; the
process backend keeps a persistent worker pool attached to a
shared-memory table store (:mod:`repro.parallel.shm`), so per-sweep
dispatch is tile tuples and slab digests, not forks or table pickles.
Neither is claimed to demonstrate the paper's asymptotic speedup — the
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
from repro.parallel.shm import TableStore

__all__ = [
    "split_range",
    "BACKEND_NAMES",
    "START_METHODS",
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "TableStore",
    "make_backend",
]
