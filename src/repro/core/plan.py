"""Compiled sweep plans: the one-time half of the plan/execute split.

The paper's machine compiles nothing per super-step — processors are
assigned to index tuples once, and every super-step re-runs the same
assignment against the resident tables. The executable analogue used to
re-derive its tile partitions inside every sweep; a :class:`SweepPlan`
instead freezes, once per solve, everything about a solver's schedule
that cannot change between super-steps:

* the **resolved kernel schedule** — one :class:`PlanStep` per
  ``SCHEDULE`` entry, binding the entry name to its kernel instance;
* the **tile partition** of each kernel's output index space (tiles
  depend only on static solver shape — ``n``, band, tile count — never
  on table contents, which is what makes freezing them sound);
* the kernel tier's **compute function** per step (slab or fused).

The engine (:class:`repro.core.kernels.KernelEngine`) executes plan
steps; ``solver.plan`` compiles lazily on first use and is also what
the ``repro plan`` CLI subcommand prints. Dynamic per-sweep inputs —
table snapshots, the banded pebble window, Rytter's ``useful`` index
list — stay exactly where they were: in ``kernel.arrays(solver)``,
re-read every sweep. The plan freezes the *shape* of a super-step, not
its data, so the §2 bitwise invariant is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

__all__ = ["PlanStep", "SweepPlan", "compile_plan"]


@dataclass
class PlanStep:
    """One scheduled operation: kernel + frozen tiles + compute tier."""

    name: str
    kernel: Any
    tiles: tuple
    updates: str
    #: the tier-resolved compute function (slab vs fused), frozen at
    #: compile time; ``None`` falls back to the kernel's slab compute
    compute_fn: Any = None

    @classmethod
    def for_kernel(
        cls, name: str, kernel, solver, parts: int, impl: str = "slab"
    ) -> "PlanStep":
        return cls(
            name=name,
            kernel=kernel,
            tiles=tuple(kernel.tiles(solver, parts)),
            updates=kernel.updates,
            compute_fn=kernel.compute_for(impl),
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
        self.kernel_impl = getattr(solver, "kernel_impl", "slab")
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
        from repro.core.kernels_fused import fused_backend

        impl = self.kernel_impl
        if impl == "fused":
            impl += f"[{fused_backend()}]"
        lines = [
            f"plan: {self.method} n={self.n} algebra={self.algebra} "
            f"backend={self.backend} kernel_impl={impl} "
            f"tiles/sweep={self.tiles_per_sweep}"
        ]
        for idx, step in enumerate(self.steps, start=1):
            fused = step.kernel.fused_compute_fn is not None
            tier = "fused" if (self.kernel_impl == "fused" and fused) else "slab"
            lines.append(
                f"  {idx}. {step.name:<9} {type(step.kernel).__name__:<22} "
                f"impl={tier:<5s} tiles={len(step.tiles):<3d} "
                f"updates={step.updates}"
            )
        return "\n".join(lines)


def compile_plan(solver) -> SweepPlan:
    """Compile ``solver``'s schedule into a :class:`SweepPlan`.

    Called once per solve (lazily, from ``solver.plan``); requires the
    solver's kernels and engine to exist, which every concrete
    ``__init__`` guarantees before ``reset()``.
    """
    parts = solver._engine.tiles
    impl = getattr(solver, "kernel_impl", "slab")
    steps = [
        PlanStep.for_kernel(name, solver._kernels[name], solver, parts, impl)
        for name in solver.SCHEDULE
    ]
    return SweepPlan(solver, steps, parts)
