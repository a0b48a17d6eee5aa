"""The paper's sublinear algorithm (Sections 2 and 4).

State: two tables initialised to +infinity except for the bases,

    w'(i, i+1) = init(i),          pw'(i, j, i, j) = 0,

then ``2 * ceil(sqrt(n))`` iterations of the three parallel operations:

a-activate  (equations 1a/1b)
    pw'(i,j,i,k) <- min(pw'(i,j,i,k), f(i,k,j) + w'(k,j))
    pw'(i,j,k,j) <- min(pw'(i,j,k,j), f(i,k,j) + w'(i,k))
a-square    (equation 2c)
    pw'(i,j,p,q) <- min over r of  pw'(i,j,r,q) + pw'(r,q,p,q)
                    and over s of  pw'(i,j,p,s) + pw'(p,s,p,q)
a-pebble    (equation 3)
    w'(i,j) <- min over (p,q) of  pw'(i,j,p,q) + w'(p,q)

Each operation is *synchronous*: it reads the tables as they were when
the operation started (exactly the CREW PRAM semantics), which the
implementation guarantees by computing every update from a pre-step
snapshot and committing all candidates at once. All updates are
monotone min-updates, so the tables decrease toward the true
``w``/``pw`` and Lemma 3.3 guarantees ``w'(0, n) = c(0, n)`` after the
full schedule.

The operations are implemented as *sweep kernels*
(:mod:`repro.core.kernels`): each kernel declares the index tiles it
sweeps and a pure tile-compute, and the shared
:class:`~repro.core.kernels.KernelEngine` runs tiles on an execution
backend (serial or a thread pool — see :mod:`repro.parallel.backends`)
and commits the min-merge. One sweep performs the identical operation
lattice a PRAM super-step would, so iteration counts and all
intermediate values match the paper's machine exactly — bitwise
identically for every backend and tiling (see DESIGN.md on the
SIMD-analogue substitution). Work per iteration is
Θ(n⁵) — the count the paper charges to O(n⁵/log n) processors ×
O(log n) time.

Memory: the pw table is ``(n+1)⁴`` float64. The solver refuses n above
``max_n`` (default 64, ~135 MiB per table) rather than silently
swapping; raise the cap explicitly for bigger machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.algebra import SelectionSemiring, get_algebra
from repro.core.kernels import (
    DenseActivateKernel,
    DensePebbleKernel,
    DenseSquareKernel,
    KernelEngine,
    SweepKernel,
)
from repro.core.plan import SweepPlan, compile_plan
from repro.core.termination import (
    FixedIterations,
    IterationState,
    TerminationPolicy,
    default_schedule_length,
)
from repro.errors import ConvergenceError, InvalidProblemError
from repro.parallel.backends import Backend
from repro.problems.base import ParenthesizationProblem

__all__ = [
    "IterativeTableSolver",
    "HuangSolver",
    "IterationTrace",
    "HuangResult",
]


@dataclass
class IterationTrace:
    """Per-iteration telemetry of a table-solver run.

    One entry per iteration: the root value ``w'(0, n)``, the number of
    finite entries in each table, and whether each table changed. The
    experiment harness reads convergence behaviour (E2–E5) off this.
    """

    root_values: list[float] = field(default_factory=list)
    w_finite: list[int] = field(default_factory=list)
    pw_finite: list[int] = field(default_factory=list)
    w_changed: list[bool] = field(default_factory=list)
    pw_changed: list[bool] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.root_values)

    def first_correct_iteration(
        self, target: float, *, atol: float = 1e-9
    ) -> int | None:
        """1-based iteration at which the root value first hit ``target``."""
        for m, v in enumerate(self.root_values):
            if np.isfinite(v) and abs(v - target) <= atol * max(1.0, abs(target)):
                return m + 1
        return None


@dataclass(frozen=True)
class HuangResult:
    """Converged output: ``value = w'(0, n)``, the full ``w`` table, the
    iteration trace, and the number of iterations executed."""

    value: float
    w: np.ndarray
    iterations: int
    trace: IterationTrace
    stopped_by: str


class IterativeTableSolver:
    """Shared engine loop for the iterative table solvers.

    Subclasses hold the tables and declare their operation set via
    :meth:`build_kernels`; this base provides the single engine-driven
    :meth:`iterate` (one activate/square/pebble round through the
    :class:`~repro.core.kernels.KernelEngine`), the policy-driven
    :meth:`run` loop, tracing, and the paper-schedule helper. Concrete
    solvers: :class:`HuangSolver` (dense Θ(n⁴) pw),
    :class:`~repro.core.banded.BandedSolver`,
    :class:`~repro.core.rytter.RytterSolver`,
    :class:`~repro.core.compact.CompactBandedSolver` (Θ(n³) storage).

    All of them accept ``backend=`` (``"serial"``, ``"thread"`` or such
    a :class:`~repro.parallel.backends.Backend` instance; a process
    pool is refused before any table exists), ``workers=`` and
    ``tiles=``; every combination commits bitwise-identical tables (the
    integration suite verifies this).

    All of them also accept ``algebra=`` — a registered
    :class:`~repro.core.algebra.SelectionSemiring` name or instance
    (default ``"min_plus"``, the paper's algebra, bit-for-bit the
    historical path). The problem's ``f``/``init`` tables are encoded
    into the algebra's domain once at construction, and every sweep and
    commit routes its compose/select operations through it, so one
    kernel set serves min-plus, max-plus, bottleneck (``minimax``),
    reliability (``maxmin``) and lexicographic objectives alike.
    """

    #: operation schedule of one iteration, in kernel order
    SCHEDULE: tuple[str, ...] = ("activate", "square", "pebble")

    problem: ParenthesizationProblem
    n: int
    w: np.ndarray
    iterations_run: int

    # -- engine plumbing -----------------------------------------------------

    def _init_engine(
        self,
        backend: Backend | str = "serial",
        workers: int | None = None,
        tiles: int | None = None,
    ) -> None:
        """Create the kernel engine and instantiate this solver's kernel
        set; concrete ``__init__`` methods call this before building any
        table, so a refused backend costs no allocation."""
        self._engine = KernelEngine(backend, workers=workers, tiles=tiles)
        self.backend = self._engine.backend
        self.tiles = self._engine.tiles
        self._kernels = self.build_kernels()
        self._plan: SweepPlan | None = None

    def build_kernels(self) -> dict[str, SweepKernel]:  # pragma: no cover - abstract
        """Map each :attr:`SCHEDULE` entry to its sweep kernel."""
        raise NotImplementedError

    def reset(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def plan(self) -> SweepPlan:
        """The compiled :class:`~repro.core.plan.SweepPlan` — resolved
        schedule and frozen tile partitions — compiled lazily once per
        solver and executed by every sweep."""
        if self._plan is None:
            self._plan = compile_plan(self)
        return self._plan

    # -- the three operations ------------------------------------------------
    #
    # Thin named entry points so variants (and test instrumentation) can
    # override a single operation; each one is a full synchronous
    # super-step through the engine.

    def a_activate(self) -> bool:
        """Equations (1a)/(1b); returns True if pw changed."""
        return self._engine.execute_step(self.plan.step("activate"), self)

    def a_square(self) -> bool:
        """Equation (2c); returns True if pw changed."""
        return self._engine.execute_step(self.plan.step("square"), self)

    def a_pebble(self) -> bool:
        """Equation (3); returns True if w changed."""
        return self._engine.execute_step(self.plan.step("pebble"), self)

    def iterate(self) -> tuple[bool, bool]:
        """One full scheduled round — executing the compiled plan's
        steps, not re-deriving tiles; returns (w_changed, pw_changed)."""
        w_changed = False
        pw_changed = False
        for name in self.SCHEDULE:
            changed = getattr(self, f"a_{name}")()
            if self._kernels[name].updates == "w":
                w_changed = w_changed or changed
            else:
                pw_changed = pw_changed or changed
        self.iterations_run += 1
        return w_changed, pw_changed

    def paper_schedule_length(self) -> int:
        return default_schedule_length(self.n)

    def run(
        self,
        policy: TerminationPolicy | None = None,
        *,
        max_iterations: int | None = None,
        trace: bool = True,
    ) -> "HuangResult":
        """Run to the policy's stopping point (default: the paper's fixed
        ``2 * ceil(sqrt(n))`` schedule).

        ``max_iterations`` is an absolute safety cap for data-dependent
        policies (default ``4 * n + 8``); exhausting it raises
        :class:`~repro.errors.ConvergenceError`.
        """
        if policy is None:
            policy = FixedIterations(self.paper_schedule_length())
        policy.reset()
        cap = max_iterations if max_iterations is not None else 4 * self.n + 8
        record = IterationTrace()
        stopped = ""
        while True:
            if self.iterations_run >= cap:
                raise ConvergenceError(
                    f"no termination after {self.iterations_run} iterations "
                    f"(cap {cap}, policy {policy.describe()})"
                )
            w_changed, pw_changed = self.iterate()
            root = float(self.w[0, self.n])
            if trace:
                record.root_values.append(root)
                record.w_changed.append(w_changed)
                record.pw_changed.append(pw_changed)
                record.w_finite.append(int(self.algebra.reachable(self.w).sum()))
                record.pw_finite.append(self._count_finite_pw())
            state = IterationState(
                iteration=self.iterations_run,
                w_changed=w_changed,
                pw_changed=pw_changed,
                root_value=root,
            )
            if policy.should_stop(state):
                stopped = policy.describe()
                break
        return HuangResult(
            value=float(self.w[0, self.n]),
            w=self.w.copy(),
            iterations=self.iterations_run,
            trace=record,
            stopped_by=stopped,
        )

    def close(self) -> None:
        """Release the engine's backend workers."""
        self._engine.close()

    def __enter__(self) -> "IterativeTableSolver":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _count_finite_pw(self) -> int:
        """Reached partial-weight entries, for the trace (``reachable``
        under the solver's algebra — exactly the finite entries for
        min-plus); subclasses with non-dense storage override."""
        pw = getattr(self, "pw", None)
        return int(self.algebra.reachable(pw).sum()) if pw is not None else 0


class HuangSolver(IterativeTableSolver):
    """The full-table solver of Sections 2/4.

    Parameters
    ----------
    problem:
        A recurrence-(*) instance.
    max_n:
        Memory guard on the Θ(n⁴) pw table; raise explicitly if you have
        the RAM (n=80 needs ~0.4 GiB per table and three tables live).
    algebra:
        Selection semiring the sweeps run over (name or
        :class:`~repro.core.algebra.SelectionSemiring`; ``None``
        resolves to the problem family's ``preferred_algebra``,
        ``"min_plus"`` for the classical families).
    backend, workers, tiles:
        Execution backend for the sweep kernels (default serial,
        single-tile — the reference path); see
        :class:`IterativeTableSolver`.
    """

    def __init__(
        self,
        problem: ParenthesizationProblem,
        *,
        max_n: int = 64,
        algebra: SelectionSemiring | str | None = None,
        backend: Backend | str = "serial",
        workers: int | None = None,
        tiles: int | None = None,
    ) -> None:
        if problem.n > max_n:
            raise InvalidProblemError(
                f"n={problem.n} exceeds max_n={max_n}; the pw table is "
                f"(n+1)^4 floats = {(problem.n + 1) ** 4 * 8 / 2**20:.0f} MiB. "
                "Pass a larger max_n explicitly to proceed."
            )
        self.problem = problem
        self.n = problem.n
        if algebra is None:
            algebra = getattr(problem, "preferred_algebra", "min_plus")
        self.algebra = get_algebra(algebra)
        self._init_engine(backend, workers, tiles)
        self._F = self.algebra.encode_f(problem.cached_f_table())
        self._init = self.algebra.encode_init(problem.init_vector())
        self.reset()

    # -- kernel set ----------------------------------------------------------

    def build_kernels(self) -> dict[str, SweepKernel]:
        return {
            "activate": DenseActivateKernel(),
            "square": DenseSquareKernel(),
            "pebble": DensePebbleKernel(),
        }

    # -- state ---------------------------------------------------------------

    def reset(self) -> None:
        """(Re)initialise w' and pw' to the paper's starting tables
        (``zero`` everywhere, leaf costs on the unit intervals, the
        extend-identity ``one`` on the trivial gaps)."""
        N = self.n + 1
        self.w = self.algebra.full((N, N))
        idx = np.arange(self.n)
        self.w[idx, idx + 1] = self._init
        self.pw = self.algebra.full((N, N, N, N))
        ii, jj = np.triu_indices(N, k=1)
        self.pw[ii, jj, ii, jj] = self.algebra.one
        self.iterations_run = 0

    # -- accounting ----------------------------------------------------------

    def work_per_iteration(self) -> dict[str, int]:
        """Exact operation counts per iteration (candidate evaluations),
        matching the paper's per-op charges (Section 4):

        * activate: one candidate per (i, k, j) triple and side — Θ(n³);
        * square: one per (i, j, p, q, anchor) composition — Θ(n⁵);
        * pebble: one per (i, j, p, q) — Θ(n⁴).

        Counts are over *valid* index tuples (the quantities a PRAM
        implementation would assign processors to).
        """
        n = self.n
        triples = n * (n * n - 1) // 6  # |{i<k<j}| = C(n+1, 3)
        quads = _count_valid_quadruples(n)
        square = _count_square_compositions(n)
        return {
            "activate": 2 * triples,
            "square": square,
            "pebble": quads,
        }


def _count_valid_quadruples(n: int) -> int:
    """|{(i,j,p,q): 0 <= i <= p < q <= j <= n}| — pw cells a PRAM touches."""
    total = 0
    for span in range(1, n + 1):  # span = j - i
        n_ij = n + 1 - span
        # gaps (p, q) inside an interval of length `span`: all sub-intervals
        # including the interval itself: span*(span+1)/2 ... over lengths
        # 1..span with (span - len + 1) positions.
        total += n_ij * (span * (span + 1) // 2)
    return total


def _count_square_compositions(n: int) -> int:
    """Number of (i,j,p,q,r/s) composition candidates in one a-square.

    For each valid (i,j,p,q): r ranges over [i, p] (right-anchored) and
    s over [q, j] (left-anchored) — including the trivial endpoints the
    implementation also evaluates.
    """
    total = 0
    for span in range(1, n + 1):
        n_ij = n + 1 - span
        sub = 0
        for glen in range(1, span + 1):  # gap length q - p
            for off in range(0, span - glen + 1):  # p - i
                r_choices = off + 1
                s_choices = (span - glen - off) + 1
                sub += r_choices + s_choices
        total += n_ij * sub
    return total
