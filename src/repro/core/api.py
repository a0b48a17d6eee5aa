"""The public solving façade.

:func:`solve` runs any of the implemented algorithms on a
recurrence-(*) problem and returns a uniform :class:`SolveResult`:
the optimal value, the cost table, an optimal tree, and (for the
iterative parallel algorithms) the iteration count and trace. The
iterative methods execute their sweeps through the kernel engine
(:mod:`repro.core.kernels`). Unless the caller names one, the
execution table (:mod:`repro.core.plan`) picks the backend the sweep
tiles run on:

    >>> from repro.problems import MatrixChainProblem
    >>> from repro.core import solve
    >>> result = solve(MatrixChainProblem([10, 20, 5, 30]), method="huang")
    >>> result.value
    2500.0
    >>> solve(MatrixChainProblem([10, 20, 5, 30]), method="huang",
    ...       backend="thread", workers=4).value
    2500.0

:func:`solve_many` is the batched service layer on top: it executes a
stream of heterogeneous problems (matrix chains, optimal BSTs, polygon
triangulations, generic instances — optionally each with its own
method) on a shared worker pool — threads or processes, whole problems
per worker — and returns the :class:`SolveResult`\\ s in submission
order. The ``repro batch`` CLI subcommand exposes it over
JSONL problem specs. A batch whose caller names no pool runs serially
or on a process pool, whichever the execution table predicts is
faster.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.core.algebra import SelectionSemiring, get_algebra
from repro.core.banded import BandedSolver
from repro.core.compact import CompactBandedSolver
from repro.core.delta import delta_meta_for, try_delta
from repro.core.huang import HuangSolver, IterationTrace
from repro.core.plan import SweepPlan, choose_batch_pool, choose_tile_backend
from repro.core.reconstruct import reconstruct_tree
from repro.core.rytter import RytterSolver
from repro.core.sequential import solve_knuth, solve_sequential
from repro.core.termination import TerminationPolicy
from repro.errors import InvalidProblemError
from repro.parallel.backends import (
    BACKEND_NAMES,
    START_METHODS,
    TILE_BACKENDS,
    Backend,
    check_tile_backend,
    make_backend,
)
from repro.problems.base import ParenthesizationProblem
from repro.trees.parse_tree import ParseTree

__all__ = [
    "solve",
    "solve_many",
    "plan_for",
    "instance_key",
    "instance_key_bytes",
    "SolveResult",
    "BatchItem",
    "METHODS",
]

#: solver class per iterative method — single source for the dispatch;
#: the CLI and the method constants below all derive from it
_SOLVER_CLASSES = {
    "huang": HuangSolver,
    "huang-banded": BandedSolver,
    "huang-compact": CompactBandedSolver,
    "rytter": RytterSolver,
}

#: methods that run through the iterative kernel engine (accept backend=)
ITERATIVE_METHODS = tuple(_SOLVER_CLASSES)

METHODS = ("sequential", "knuth") + ITERATIVE_METHODS

#: the keywords each method takes beyond solve()'s own; anything else
#: is refused before a table is built or a cache key is computed
_METHOD_KWARGS: dict[str, frozenset[str]] = {
    "sequential": frozenset(),
    "knuth": frozenset(),
    "huang": frozenset(),
    "huang-banded": frozenset({"band", "size_band"}),
    "huang-compact": frozenset({"band"}),
    "rytter": frozenset(),
}


def _check_method_kwargs(method: str, kwargs: dict) -> None:
    """Refuse keywords ``method`` does not take, with the ones it does."""
    unknown = sorted(set(kwargs) - _METHOD_KWARGS[method])
    if unknown:
        takes = sorted(_METHOD_KWARGS[method])
        raise InvalidProblemError(
            f"method {method!r} takes no keyword {', '.join(unknown)}"
            + (f"; it takes {', '.join(takes)}" if takes else "")
        )


def _validate_execution(backend, *, start_method=None, runs_tiles: bool = True) -> None:
    """Reject unknown backend / start-method names — and, where the
    backend runs sweep tiles (``runs_tiles``), a process pool — *before*
    any solver, pool or table is constructed, with the valid choices in
    the error. ``backend=None`` leaves the choice to the execution
    table."""
    if runs_tiles:
        check_tile_backend(backend)
    names = TILE_BACKENDS if runs_tiles else BACKEND_NAMES
    if isinstance(backend, str) and backend not in names:
        raise InvalidProblemError(f"unknown backend {backend!r}; choose from {names}")
    if start_method is not None:
        if start_method not in START_METHODS:
            raise InvalidProblemError(
                f"unknown start method {start_method!r}; choose from "
                f"{START_METHODS}"
            )
        if isinstance(backend, Backend):
            raise InvalidProblemError(
                "start_method applies only when the backend is given by "
                "name; a Backend instance was already constructed with "
                "its own start method"
            )
        if backend != "process":
            raise InvalidProblemError(
                "start_method applies only to backend='process' (got "
                f"backend={backend!r})"
            )


# ---------------------------------------------------------------------------
# Canonical instance hashing.
# ---------------------------------------------------------------------------

#: solve() and solve_many() keywords that select *how* a result is
#: computed, never *what* it is: every (backend, workers, tiles,
#: start_method) combination commits bitwise-identical tables
#: (DESIGN.md §3/§9). None of
#: these enter the instance hash — a result computed on one execution
#: configuration answers for all. ``max_n`` is *not* here: it only
#: guards memory, but a guard that can reject a request changes the
#: request's outcome, so it must partition the key.
_EXECUTION_ONLY_KWARGS = frozenset(
    {"backend", "workers", "tiles", "start_method", "cache"}
)


def _canonical_kwarg(value: Any) -> str:
    """A canonical string for one result-determining kwarg value.

    Only JSON-ish primitives (and flat sequences of them) canonicalise;
    anything else — a custom :class:`TerminationPolicy`, a callable —
    raises, which :func:`instance_key` maps to *uncacheable*."""
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical_kwarg(v) for v in value) + "]"
    raise TypeError(f"no canonical encoding for {type(value).__name__}")


def instance_key_bytes(
    problem: ParenthesizationProblem,
    *,
    method: str = "sequential",
    algebra: SelectionSemiring | str | None = None,
    delta_parent: bool = False,
    **solve_kwargs,
) -> Optional[bytes]:
    """Raw 16-byte digest behind :func:`instance_key`, or ``None``.

    The digest is *shard-stable*: it is a blake2b hash over canonical,
    length-prefixed byte strings — no ``repr`` of floats (they
    canonicalise via ``float.hex``), no ``PYTHONHASHSEED``-dependent
    ``hash()``, no process- or machine-local state. Two processes (or
    two machines) computing the key for the same request always get the
    same bytes, which is what lets a fleet router place a request on
    the shard whose cache and coalescer can dedupe it
    (:class:`repro.service.fleet.FleetRouter` consumes these bytes
    directly as its consistent-hash routing key).

    With ``delta_parent=True`` the digest hashes the family's
    *structural* payload
    (:meth:`~repro.problems.base.ParenthesizationProblem.delta_parent_payload`
    — weight values elided) under a distinct domain tag: the probe key
    delta-capable caches index stored results by, grouping every
    instance that could serve as a delta parent for a request
    (:mod:`repro.core.delta`)."""
    payload = (
        problem.delta_parent_payload() if delta_parent else problem.canonical_payload()
    )
    if payload is None:
        return None
    if algebra is None:
        algebra = getattr(problem, "preferred_algebra", "min_plus")
    alg_name = algebra.name if isinstance(algebra, SelectionSemiring) else str(algebra)
    # The domain tag keeps parent-probe keys disjoint from instance keys
    # even where a family's structural payload collides with a value one.
    parts = [
        type(problem).__name__,
        "delta-parent" if delta_parent else "instance",
        method,
        alg_name,
    ]
    try:
        for kw in sorted(solve_kwargs):
            if kw in _EXECUTION_ONLY_KWARGS:
                continue
            parts.append(f"{kw}={_canonical_kwarg(solve_kwargs[kw])}")
    except TypeError:
        return None
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        raw = part.encode()
        digest.update(len(raw).to_bytes(4, "little"))
        digest.update(raw)
    for part in payload:
        raw = part if isinstance(part, bytes) else str(part).encode()
        digest.update(len(raw).to_bytes(4, "little"))
        digest.update(raw)
    return digest.digest()


def instance_key(
    problem: ParenthesizationProblem,
    *,
    method: str = "sequential",
    algebra: SelectionSemiring | str | None = None,
    **solve_kwargs,
) -> Optional[str]:
    """Canonical hash of a solve request, or ``None`` if uncacheable.

    Two requests with equal keys are guaranteed the same
    :class:`SolveResult` (same tables, bit for bit), so the key is what
    the service layer's result cache — and any external memoisation —
    may safely be keyed by. The hash folds together the problem
    family's canonical byte payload
    (:meth:`~repro.problems.base.ParenthesizationProblem.canonical_payload`),
    the method, the resolved algebra name, and every result-determining
    keyword; execution-only knobs (``backend``, ``workers``, ``tiles``,
    ``start_method``) are deliberately excluded because every execution
    configuration commits identical tables. ``max_n``
    *is* part of the key — it can reject a request outright, and a
    rejection must never be coalesced with (or cached for) a request
    that would succeed.

    ``None`` means the request must not be served from a cache: the
    problem has no canonical encoding (e.g. a callable-defined
    :class:`~repro.problems.GenericProblem`) or a kwarg (a custom
    termination policy object) cannot be canonicalised.

    >>> from repro.problems import MatrixChainProblem, GenericProblem
    >>> a = instance_key(MatrixChainProblem([10, 20, 5, 30]), method="huang")
    >>> b = instance_key(MatrixChainProblem([10, 20, 5, 30]), method="huang")
    >>> c = instance_key(MatrixChainProblem([10, 20, 5, 31]), method="huang")
    >>> a == b, a == c
    (True, False)

    The backend never changes the answer, so it never changes the key:

    >>> instance_key(MatrixChainProblem([10, 20, 5, 30]), method="huang",
    ...              backend="process", workers=8) == a
    True

    Callable-defined problems are uncacheable:

    >>> p = GenericProblem(3, lambda i: 0.0, lambda i, k, j: 1.0)
    >>> instance_key(p) is None
    True
    """
    raw = instance_key_bytes(
        problem, method=method, algebra=algebra, **solve_kwargs
    )
    return None if raw is None else raw.hex()


@dataclass(frozen=True)
class SolveResult:
    """Uniform solver output.

    ``iterations``/``trace`` are ``None`` for the sequential methods.
    ``tree`` is computed lazily only when ``reconstruct=True`` was
    passed (building it costs another O(n²) pass over the table).
    ``value`` is decoded into the problem domain; ``w`` stays in the
    algebra's (encoded) domain — the domain every solver's tables live
    in, which is what the bitwise-equality suites compare.

    >>> from repro.problems import MatrixChainProblem
    >>> r = solve(MatrixChainProblem([10, 20, 5, 30]), method="huang")
    >>> r.value, r.n, r.algebra, r.iterations is not None
    (2500.0, 3, 'min_plus', True)
    >>> r.w.shape
    (4, 4)
    """

    method: str
    value: float
    w: np.ndarray
    iterations: Optional[int] = None
    trace: Optional[IterationTrace] = None
    tree: Optional[ParseTree] = None
    algebra: str = "min_plus"

    @property
    def n(self) -> int:
        return self.w.shape[0] - 1


def solve(
    problem: ParenthesizationProblem,
    *,
    method: str = "sequential",
    algebra: SelectionSemiring | str | None = None,
    policy: TerminationPolicy | None = None,
    reconstruct: bool = False,
    max_n: int | None = None,
    backend: Backend | str | None = None,
    workers: int | None = None,
    tiles: int | None = None,
    cache: Any = None,
    **solver_kwargs,
) -> SolveResult:
    """Solve ``problem`` with the chosen algorithm.

    >>> from repro.problems import MatrixChainProblem
    >>> from repro.core import solve
    >>> p = MatrixChainProblem([30, 35, 15, 5, 10, 20, 25])
    >>> solve(p, method="sequential").value
    15125.0
    >>> solve(p, method="huang", backend="thread", workers=2).value
    15125.0
    >>> solve(p, method="huang-banded", reconstruct=True).tree.size
    6

    Parameters
    ----------
    method:
        One of ``"sequential"`` (O(n³) DP), ``"knuth"`` (the same
        sweep over Knuth's split windows, O(n²), for families that
        declare ``quadrangle``, optimal BSTs: any other problem is
        refused before a table is built), ``"huang"`` (the paper's
        algorithm), ``"huang-banded"`` (Section 5 variant, Θ(n⁴)
        storage), ``"huang-compact"`` (Section 5 with Θ(n³) storage,
        scales to n ≈ 200) or ``"rytter"`` (the [8] baseline).
    algebra:
        Selection semiring the recurrence runs over — a registered name
        (``"min_plus"``, ``"max_plus"``, ``"minimax"``, ``"maxmin"``,
        ``"lex_min_plus"``) or a
        :class:`~repro.core.algebra.SelectionSemiring` instance.
        ``None`` (the default) resolves to the problem family's
        ``preferred_algebra`` — ``"min_plus"`` for the classical
        families, ``"minimax"`` for bottleneck chains, ``"maxmin"``
        for reliability trees. Supported by every method except
        ``"knuth"``, whose quadrangle-inequality speedup is specific
        to min-plus.
    policy:
        Termination policy for the iterative methods (default: the
        method's paper schedule).
    reconstruct:
        Also build an optimal :class:`~repro.trees.ParseTree`.
    max_n:
        Override the iterative solvers' memory guard.
    backend:
        Execution backend for the iterative methods' sweep tiles:
        ``"serial"``, ``"thread"``, or such a
        :class:`~repro.parallel.backends.Backend` instance, which stays
        open for the caller's next solve. ``None`` (the default) takes
        the execution table's choice for the method and ``n``
        (:func:`repro.core.plan.choose_tile_backend`). Every backend
        commits bitwise-identical tables; a string-created backend is
        closed before returning. The sequential methods construct no
        backend. A process pool (``"process"`` or a
        :class:`~repro.parallel.backends.ProcessBackend`) is refused
        for every method before any pool or table exists: it runs
        whole problems, through :func:`solve_many`.
    workers, tiles:
        Worker count for a string ``backend`` and tiles per sweep
        (default: one tile per worker).
    cache:
        A result cache — anything with ``get(key) -> SolveResult | None``
        and ``put(key, result)``, e.g. a
        :class:`repro.service.ResultCache`. The solve is keyed by
        :func:`instance_key`; a hit returns the cached result without
        compiling a plan or touching a backend, a miss populates the
        cache on the way out. Uncacheable requests (``instance_key``
        returns ``None``) bypass the cache entirely.
    solver_kwargs:
        The method's own keywords: ``band=`` for ``huang-banded`` and
        ``huang-compact``, ``size_band=`` for ``huang-banded``. Any
        other keyword raises
        :class:`~repro.errors.InvalidProblemError` before a table is
        built.
    """
    if method not in METHODS:
        raise InvalidProblemError(f"unknown method {method!r}; choose from {METHODS}")
    _check_method_kwargs(method, solver_kwargs)
    _validate_execution(backend)
    if algebra is None:
        algebra = getattr(problem, "preferred_algebra", "min_plus")
    alg = get_algebra(algebra)

    cache_key = None
    key_kwargs: dict[str, Any] = {}
    if cache is not None:
        key_kwargs = dict(solver_kwargs)
        key_kwargs["reconstruct"] = reconstruct
        if policy is not None:
            key_kwargs["policy"] = policy  # objects hash to uncacheable
        if max_n is not None:
            key_kwargs["max_n"] = max_n  # the guard can reject: partitions
        cache_key = instance_key(problem, method=method, algebra=alg, **key_kwargs)

    def _done(result: SolveResult) -> SolveResult:
        if cache_key is not None:
            if getattr(cache, "supports_delta", False):
                cache.put(
                    cache_key,
                    result,
                    delta=delta_meta_for(
                        problem, method=method, algebra=alg, **key_kwargs
                    ),
                )
            else:
                cache.put(cache_key, result)
        return result

    if cache_key is not None:
        hit = cache.get(cache_key)
        if hit is not None:
            return hit
        # Exact miss: probe for a delta parent — an already-solved
        # sibling differing only in a weight window — and, when one
        # works, populate the cache exactly like a cold solve would.
        hit = try_delta(cache, problem, method=method, algebra=alg, **key_kwargs)
        if hit is not None:
            return _done(hit)

    if method in ("sequential", "knuth"):
        if method == "sequential":
            seq = solve_sequential(problem, algebra=alg)
        elif alg.name != "min_plus":
            raise InvalidProblemError(
                "method 'knuth' supports only the min_plus algebra (the "
                "quadrangle-inequality split-window argument is specific to "
                f"it); got {alg.name!r}"
            )
        else:
            seq = solve_knuth(problem)
        tree = ParseTree.from_split_table(seq.split) if reconstruct else None
        return _done(SolveResult(
            method=method,
            value=float(alg.decode(seq.value)),
            w=seq.w,
            tree=tree,
            algebra=alg.name,
        ))

    solver_cls = _SOLVER_CLASSES[method]
    if max_n is not None:
        solver_kwargs["max_n"] = max_n
    if backend is None:
        backend = choose_tile_backend(method, problem.n, workers)
    solver = solver_cls(
        problem,
        algebra=alg,
        backend=backend,
        workers=workers,
        tiles=tiles,
        **solver_kwargs,
    )
    try:
        out = solver.run(policy)
    finally:
        if isinstance(backend, str):
            solver.close()
    tree = reconstruct_tree(problem, out.w, algebra=alg) if reconstruct else None
    return _done(SolveResult(
        method=method,
        value=float(alg.decode(out.value)),
        w=out.w,
        iterations=out.iterations,
        trace=out.trace,
        tree=tree,
        algebra=alg.name,
    ))


# ---------------------------------------------------------------------------
# Batched service layer.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchItem:
    """One problem of a :func:`solve_many` batch with per-item overrides.

    ``method=None`` inherits the batch default; ``solve_kwargs`` are
    forwarded to :func:`solve` for this item only (``policy=...``,
    ``max_n=...``, ``band=...``, ...).
    """

    problem: ParenthesizationProblem
    method: Optional[str] = None
    solve_kwargs: dict[str, Any] = field(default_factory=dict)


#: what callers may put in a solve_many batch
BatchInput = Union[ParenthesizationProblem, BatchItem, tuple]


def _solve_batch_item(spec: tuple) -> tuple[str, Any]:
    """Worker shim for one normalised ``(problem, method, kwargs)``
    batch element; module-level so the process backend can pickle a
    reference to it. Never raises: failures come back tagged so one bad
    problem cannot take down the batch."""
    problem, method, kwargs = spec
    try:
        return ("ok", solve(problem, method=method, **kwargs))
    except Exception as exc:  # noqa: BLE001 - error isolation is the contract
        return ("error", exc)


def _normalize_batch(
    problems: Sequence[BatchInput], default_method: str
) -> list[tuple]:
    specs = []
    for index, item in enumerate(problems):
        if isinstance(item, BatchItem):
            problem, method, kwargs = item.problem, item.method, dict(item.solve_kwargs)
        elif isinstance(item, tuple):
            if not 1 <= len(item) <= 3:
                raise InvalidProblemError(
                    f"batch item {index}: tuples must be (problem[, method[, kwargs]])"
                )
            problem = item[0]
            method = item[1] if len(item) >= 2 else None
            kwargs = dict(item[2]) if len(item) == 3 else {}
        else:
            problem, method, kwargs = item, None, {}
        if not isinstance(problem, ParenthesizationProblem):
            raise InvalidProblemError(
                f"batch item {index}: expected a ParenthesizationProblem, "
                f"got {type(problem).__name__}"
            )
        specs.append((problem, method or default_method, kwargs))
    return specs


def solve_many(
    problems: Sequence[BatchInput],
    *,
    method: str = "sequential",
    backend: Backend | str | None = None,
    max_workers: int | None = None,
    start_method: str | None = None,
    on_error: str = "raise",
    **solve_kwargs,
) -> list[SolveResult | Exception]:
    """Solve a batch of heterogeneous problems on a shared worker pool.

    Each element of ``problems`` is a
    :class:`~repro.problems.base.ParenthesizationProblem`, a
    ``(problem, method)`` / ``(problem, method, kwargs)`` tuple, or a
    :class:`BatchItem`; per-item settings override the batch defaults.
    Results come back **in submission order** regardless of which worker
    finished first.

    Parameters
    ----------
    method:
        Default method for items that do not name their own.
    backend:
        The shared pool the batch fans out over: ``"serial"``,
        ``"thread"`` or ``"process"`` (a persistent pool; each item is
        pickled once, and each worker solves whole problems, so
        per-item tables are never shared) — or a
        :class:`~repro.parallel.backends.Backend` instance, which
        keeps the pool warm across batches. ``None`` (the default)
        runs the batch serially, or on a fresh process pool when the
        batch's predicted serial time pays for one
        (:func:`repro.core.plan.choose_batch_pool`). Each item's own
        sweeps run on serial tiles inside its worker, unless the item
        names its own backend; pools are not nested.
    max_workers:
        Pool size for a string ``backend``.
    start_method:
        Process start method for ``backend="process"`` (``"fork"`` or
        ``"spawn"``). A batch whose specs cannot be pickled (closure-based
        cost functions) runs item by item in the calling process under
        either start method: such batches get no parallelism on the
        process backend.
    on_error:
        ``"raise"`` (default) re-raises the first failure after the
        batch completes; ``"return"`` keeps failures *in place* — the
        returned list holds the exception object at the failing index
        so one bad problem cannot take down the batch.
    solve_kwargs:
        Batch-wide defaults forwarded to :func:`solve` (``policy=...``,
        ``reconstruct=...``, ``max_n=...``, ``algebra=...``). Per-item
        ``algebra`` overrides (via :class:`BatchItem` or spec tuples)
        are validated *inside* the worker, so a bad algebra name on one
        item is isolated exactly like any other per-item failure; so is
        a keyword an item's method does not take (a batch-wide
        ``band=`` fails the batch's sequential items, in place).

    Examples
    --------
    >>> from repro.problems import MatrixChainProblem, OptimalBSTProblem
    >>> from repro.core import solve_many
    >>> batch = [
    ...     MatrixChainProblem([10, 20, 5, 30]),
    ...     (MatrixChainProblem([3, 7, 2]), "sequential"),
    ... ]
    >>> [r.value for r in solve_many(batch, method="huang")]
    [2500.0, 42.0]
    """
    if on_error not in ("raise", "return"):
        raise InvalidProblemError(
            f"on_error must be 'raise' or 'return', got {on_error!r}"
        )
    _validate_execution(backend, start_method=start_method, runs_tiles=False)
    solve_kwargs.setdefault("backend", "serial")
    specs = _normalize_batch(problems, method)
    for _, m, kw in specs:
        if m not in METHODS:
            raise InvalidProblemError(
                f"unknown method {m!r}; choose from {METHODS}"
            )
        kw.update({k: v for k, v in solve_kwargs.items() if k not in kw})
    if backend is None:
        backend = choose_batch_pool(specs, max_workers)
    pool = (
        make_backend(backend, max_workers, start_method=start_method)
        if isinstance(backend, str)
        else backend
    )
    try:
        tagged = pool.map(_solve_batch_item, specs)
    finally:
        if isinstance(backend, str):
            pool.close()
    results: list[SolveResult | Exception] = []
    first_error: Exception | None = None
    for tag, payload in tagged:
        if tag == "ok":
            results.append(payload)
        else:
            results.append(payload)
            first_error = first_error or payload
    if on_error == "raise" and first_error is not None:
        raise first_error
    return results


# ---------------------------------------------------------------------------
# Plan introspection.
# ---------------------------------------------------------------------------


def plan_for(
    problem: ParenthesizationProblem,
    *,
    method: str = "huang",
    algebra: SelectionSemiring | str | None = None,
    backend: Backend | str | None = None,
    workers: int | None = None,
    tiles: int | None = None,
    max_n: int | None = None,
    **solver_kwargs,
) -> SweepPlan:
    """Compile (without running) the :class:`~repro.core.plan.SweepPlan`
    a solve of ``problem`` would execute — the resolved kernel
    schedule and the frozen tile partition per kernel, on the backend
    :func:`solve` would pick when ``backend`` is ``None``. This is what the ``repro plan`` CLI subcommand prints.

    Only the iterative methods compile to sweep plans; the sequential
    baselines have no super-step schedule to freeze.

    >>> from repro.problems import MatrixChainProblem
    >>> plan = plan_for(MatrixChainProblem([10, 20, 5, 30, 7]), method="huang")
    >>> plan.method, plan.n, len(plan.steps) > 0
    ('HuangSolver', 4, True)
    """
    if method not in ITERATIVE_METHODS:
        raise InvalidProblemError(
            f"method {method!r} has no sweep plan; iterative methods: "
            f"{ITERATIVE_METHODS}"
        )
    _check_method_kwargs(method, solver_kwargs)
    _validate_execution(backend)
    if max_n is not None:
        solver_kwargs["max_n"] = max_n
    if backend is None:
        backend = choose_tile_backend(method, problem.n, workers)
    solver = _SOLVER_CLASSES[method](
        problem,
        algebra=algebra,
        backend=backend,
        workers=workers,
        tiles=tiles,
        **solver_kwargs,
    )
    try:
        return solver.plan
    finally:
        if isinstance(backend, str):
            solver.close()
