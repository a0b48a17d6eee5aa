"""Compiled sweep plans: the one-time half of the plan/execute split.

The paper's machine compiles nothing per super-step — processors are
assigned to index tuples once, and every super-step re-runs the same
assignment against the resident tables. The executable analogue used to
re-derive its tile partitions inside every sweep; a :class:`SweepPlan`
instead freezes, once per solve, everything about a solver's schedule
that cannot change between super-steps:

* the **resolved kernel schedule** — one :class:`PlanStep` per
  ``SCHEDULE`` entry, binding the entry name to its kernel instance
  (and so to the kernel's one compute function);
* the **tile partition** of each kernel's output index space (tiles
  depend only on static solver shape — ``n``, band, tile count — never
  on table contents, which is what makes freezing them sound).

The engine (:class:`repro.core.kernels.KernelEngine`) executes plan
steps; ``solver.plan`` compiles lazily on first use and is also what
the ``repro plan`` CLI subcommand prints. Dynamic per-sweep inputs —
table snapshots, the banded pebble window, Rytter's ``useful`` index
list — stay exactly where they were: in ``kernel.arrays(solver)``,
re-read every sweep. The plan freezes the *shape* of a super-step, not
its data, so the §2 bitwise invariant is untouched.

The execution table
-------------------
How a solve runs is the code's choice, not a caller's knob. Every tile
backend commits bitwise-identical tables, but each wins somewhere, so
one measured table (:data:`EXECUTION`) picks, by method and ``n``, the
tile backend :func:`~repro.core.api.solve` and
:func:`~repro.core.api.plan_for` use when the caller names none
(:func:`choose_tile_backend`). :func:`choose_batch_pool` picks the pool
of a :func:`~repro.core.api.solve_many` batch whose caller names none,
from the batch's total predicted serial time (:func:`predict_serial_s`).
A backend or pool the caller names always wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.kernels_fused import fused_backend
from repro.parallel.backends import default_workers

__all__ = [
    "PlanStep",
    "SweepPlan",
    "compile_plan",
    "EXECUTION",
    "choose_tile_backend",
    "choose_batch_pool",
    "predict_serial_s",
]

#: Per iterative method, the ``n`` from which a solve's tiles run on
#: threads; smaller solves run them serially. Measured on 2 vCPUs with
#: the numpy engine, alternating best-of-5 solves on serial and thread
#: tiles (huang-banded: serial wins to n=30, threads by 1.17-1.25x at
#: n=32); E10's ``auto_regret`` axis times a cell on each side of every
#: switch against both.
EXECUTION: dict[str, int] = {
    "huang": 24,
    "huang-banded": 32,
    "huang-compact": 60,
    "rytter": 14,
}

#: Per method, ``(seconds, exponent)`` of the least-squares fit
#: ``seconds * n ** exponent`` to one solve on serial tiles (numpy
#: engine, 2 vCPUs; sequential at n=64-384, the iterative methods up to
#: n=32-64, huang-banded at n=8-48). The paper's shapes do not fit these
#: sizes: the vectorised sweeps are far from their asymptotes (doubling
#: n costs a sequential chain about 4x, where n³ says 8). The fits are
#: within 2x of every measured point, which is all a pool choice needs.
SERIAL_FIT: dict[str, tuple[float, float]] = {
    "sequential": (3.7e-7, 2.0),
    "knuth": (1.8e-5, 1.2),
    "huang": (3.2e-6, 3.4),
    "huang-banded": (2.0e-6, 3.41),
    "huang-compact": (3.3e-5, 2.6),
    "rytter": (2.8e-7, 4.7),
}

#: What a fresh process pool costs a batch beyond its share of the
#: work: starting and stopping the workers, and pickling the problems
#: out and the results back. Fork, 2 workers: 17-28 ms for 2-32 tiny
#: items, 20-30 ms over most probed batches (more for large tables).
POOL_OVERHEAD_S = 0.03


def _pool_size(workers: int | None) -> int:
    return workers if workers is not None else default_workers()


def choose_tile_backend(method: str, n: int, workers: int | None = None) -> str:
    """``"serial"`` or ``"thread"``: where a solve's tiles run when its
    caller names no backend. Threads need two workers to overlap, and
    numba's kernels hold the GIL, so under numba tiles run serially."""
    threads_from = EXECUTION[method]
    if n < threads_from or fused_backend() == "numba" or _pool_size(workers) < 2:
        return "serial"
    return "thread"


def predict_serial_s(method: str, n: int) -> float:
    """Predicted seconds of one solve on serial tiles (:data:`SERIAL_FIT`)."""
    seconds, exponent = SERIAL_FIT[method]
    return seconds * n**exponent


def choose_batch_pool(items: Sequence[tuple], workers: int | None = None) -> str:
    """``"serial"`` or ``"process"``: the pool a ``solve_many`` batch of
    normalised ``(problem, method, kwargs)`` items runs on when its
    caller names none. A pool of ``workers`` finishes no sooner than its
    largest item or an even share of the total, and costs
    :data:`POOL_OVERHEAD_S` on top; it runs when that beats running the
    items one after another. Threads run a batch only when named."""
    parts = min(_pool_size(workers), len(items))
    if parts < 2:
        return "serial"
    times = [predict_serial_s(method, problem.n) for problem, method, _ in items]
    total = sum(times)
    pooled = max(total / parts, max(times)) + POOL_OVERHEAD_S
    return "process" if pooled < total else "serial"


@dataclass
class PlanStep:
    """One scheduled operation: kernel + frozen tiles."""

    name: str
    kernel: Any
    tiles: tuple
    updates: str

    @classmethod
    def for_kernel(cls, name: str, kernel, solver, parts: int) -> "PlanStep":
        return cls(
            name=name,
            kernel=kernel,
            tiles=tuple(kernel.tiles(solver, parts)),
            updates=kernel.updates,
        )


class SweepPlan:
    """A solver's schedule, compiled once: what ``iterate()`` executes.

    Holds one :class:`PlanStep` per ``SCHEDULE`` entry plus the static
    facts (method, n, algebra, backend, tile count) a reader needs to
    understand the execution — :meth:`describe` renders them for the
    ``repro plan`` CLI subcommand.
    """

    def __init__(self, solver, steps: Sequence[PlanStep], tiles_per_sweep: int) -> None:
        self.method = type(solver).__name__
        self.n = solver.n
        self.algebra = getattr(solver.algebra, "name", str(solver.algebra))
        backend = solver.backend
        self.backend = getattr(backend, "name", type(backend).__name__)
        self.tiles_per_sweep = int(tiles_per_sweep)
        self.schedule = tuple(step.name for step in steps)
        self.steps = tuple(steps)
        self._by_name = {step.name: step for step in steps}

    def step(self, name: str) -> PlanStep:
        return self._by_name[name]

    def __iter__(self):
        return iter(self.steps)

    def describe(self) -> str:
        """Human-readable plan: one line per scheduled step."""
        lines = [
            f"plan: {self.method} n={self.n} algebra={self.algebra} "
            f"backend={self.backend} engine={fused_backend()} "
            f"tiles/sweep={self.tiles_per_sweep}"
        ]
        for idx, step in enumerate(self.steps, start=1):
            lines.append(
                f"  {idx}. {step.name:<9} {type(step.kernel).__name__:<22} "
                f"tiles={len(step.tiles):<3d} updates={step.updates}"
            )
        return "\n".join(lines)


def compile_plan(solver) -> SweepPlan:
    """Compile ``solver``'s schedule into a :class:`SweepPlan`.

    Called once per solve (lazily, from ``solver.plan``); requires the
    solver's kernels and engine to exist, which every concrete
    ``__init__`` guarantees before ``reset()``.
    """
    parts = solver._engine.tiles
    steps = [
        PlanStep.for_kernel(name, solver._kernels[name], solver, parts)
        for name in solver.SCHEDULE
    ]
    return SweepPlan(solver, steps, parts)
