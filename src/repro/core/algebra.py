"""Pluggable selection-semiring algebras for the sweep engine.

The paper's construction never uses anything specific to ``(min, +)``:
every sweep computes *candidates* by composing existing table values
(``extend``) and every commit *selects* between a cell's current value
and its candidates (``combine``). The correctness argument (Lemma 3.3
and the DESIGN.md commit contract) needs exactly four properties of
that pair, which this module names the **selection-semiring contract**:

1. ``combine`` is **idempotent**, commutative and associative — it
   *selects* one of its arguments (min or max over float64 selects an
   element exactly, with no rounding). Idempotence is load-bearing: a
   candidate may be committed by several tiles, in any order, across
   any backend, and the table lands on the same value. Counting
   semirings (e.g. ``(+, ×)`` path counting) violate it — a candidate
   committed twice would count twice, making results depend on the
   tiling — so they are deliberately outside this contract.
2. ``extend`` is associative, commutative and **monotone** in each
   argument w.r.t. the selection order, so sweeping more candidates
   can only improve a cell, never overshoot past the closure.
3. ``zero`` ("unreached") is the identity of ``combine`` and absorbing
   for ``extend``: composing through an unreached cell stays unreached.
4. ``one`` is the identity of ``extend``: the value of the empty
   composition, used for the base cells ``pw'(i, j, i, j)``.

Under the contract, the fixed point of the sweeps is the closure

    w(i, j) = COMBINE over trees t of EXTEND over nodes of t,

and every (method, backend, tiling) combination commits bitwise
identical tables — the same argument DESIGN.md §1 makes for min-plus,
with the order relation supplied by the algebra.

Registered instances
--------------------
``min_plus``
    The paper's algebra (default, bitwise-identical to the historical
    hard-coded path): cheapest parenthesization.
``max_plus``
    Most expensive parenthesization (adversarial / worst-case cost).
``minimax``
    Bottleneck parenthesization: the tree minimising its *largest*
    single decomposition cost (``extend = max``, ``combine = min``).
``maxmin``
    Reliability: the tree maximising its *weakest* component
    (``extend = min``, ``combine = max``).
``lex_min_plus``
    Cost, then split-count tie-break, packed into one float64 as
    ``cost * LEX_SCALE + splits``. The packing is exact only for
    integer-valued costs with fewer than ``LEX_SCALE`` splits, so the
    encode hooks *refuse* fractional-cost or oversized instances with
    :class:`~repro.errors.InvalidProblemError` rather than silently
    truncating. Note that every *complete* tree
    on interval ``(i, j)`` has exactly ``j - i - 1`` splits, so on the
    final ``w`` table the tie-break is constant per cell; the partial
    weights (``pw``), where gap sizes vary, are where the second
    channel genuinely discriminates.

Problem tables are mapped into an algebra's domain via ``encode_f`` /
``encode_init`` — once per solver for the iterative solvers' dense
tables, one split-cost block per diagonal in the sequential sweep (the
``+inf`` invalid-triple markers of
:meth:`~repro.problems.base.ParenthesizationProblem.f_table` become the
algebra's ``zero``) — and reported values are mapped back via ``decode``.
For ``min_plus`` all three hooks are the identity, so the default path
is bit-for-bit the pre-algebra engine.

The **argwitness channel**: reconstruction does not need back-pointers,
only the ability to ask "which candidate was selected?" —
:meth:`SelectionSemiring.argwitness` answers it (argmin/argmax under
the selection order), which is what lets
:func:`repro.core.reconstruct.reconstruct_tree` recover an optimal tree
from values alone under any registered algebra.

Instances are picklable by name (``__reduce__`` round-trips through the
registry), so they ride the process backend's fork/pickle channels for
free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

import numpy as np

from repro.errors import InvalidProblemError

__all__ = [
    "SelectionSemiring",
    "KernelLowering",
    "get_algebra",
    "register_algebra",
    "list_algebras",
    "MIN_PLUS",
    "MAX_PLUS",
    "MINIMAX",
    "MAXMIN",
    "LEX_MIN_PLUS",
    "LEX_SCALE",
    "FLOAT_EXACT_INT_MAX",
    "lex_pack",
    "lex_unpack",
    "lex_range_check",
]

#: packing factor of the ``lex_min_plus`` encoded pair — supports up to
#: LEX_SCALE - 1 splits, i.e. instances with n < LEX_SCALE.
LEX_SCALE = 4096.0

#: largest integer magnitude a float64 represents exactly (2^53 - 1):
#: sums of packed integer payloads at or below this bound are computed
#: without rounding, the precondition of the sweep kernels' packed
#: ``lex_min_plus`` fast path (the chia ``fast_vdf`` range-check idiom).
FLOAT_EXACT_INT_MAX = float(2**53 - 1)


# ---------------------------------------------------------------------------
# Encode / decode hooks (module-level: picklable, and shared by the
# reference DP in tests).
# ---------------------------------------------------------------------------


def _mask_unreached(a: np.ndarray, zero: float) -> np.ndarray:
    """Map the dense tables' infinite "no such entry" markers to the
    algebra's own unreached element. A NaN is no marker: it passes
    through, so the sequential sweep's NaN test sees an invalid split
    cost under every algebra."""
    return np.where(np.isinf(a), zero, a)


def _encode_neg_inf(a: np.ndarray) -> np.ndarray:
    return _mask_unreached(np.asarray(a, dtype=np.float64), -np.inf)


def lex_pack(cost: Union[float, np.ndarray], splits: Union[int, np.ndarray]) -> Any:
    """Pack a (cost, split-count) pair into one ``lex_min_plus`` float."""
    return np.asarray(cost, dtype=np.float64) * LEX_SCALE + np.asarray(
        splits, dtype=np.float64
    )


def lex_unpack(value: Union[float, np.ndarray]) -> tuple[Any, Any]:
    """Recover ``(cost, splits)`` from a ``lex_min_plus`` value (exact
    for integer-valued primary costs). Non-finite values (unreached
    cells) unpack to a non-finite cost with zero splits."""
    v = np.asarray(value, dtype=np.float64)
    cost = np.floor(v / LEX_SCALE)
    finite = np.isfinite(v)
    splits = np.where(finite, v - np.where(finite, cost, 0.0) * LEX_SCALE, 0.0)
    return cost, splits


def _lex_check_domain(a: np.ndarray, what: str) -> None:
    """``lex_min_plus`` packs (cost, splits) into one float64, which is
    exact only for integer costs and fewer than ``LEX_SCALE`` splits.
    Refuse loudly rather than silently truncate fractional costs."""
    finite = a[np.isfinite(a)]
    if finite.size and not (finite == np.floor(finite)).all():
        raise InvalidProblemError(
            f"lex_min_plus requires integer-valued {what} costs (the packed "
            "split-count channel would corrupt fractional costs); use "
            "min_plus for this problem or scale costs to integers"
        )
    n_bound = a.shape[0]  # init: n; f table: n + 1 — both < LEX_SCALE + 1
    if n_bound > LEX_SCALE:
        raise InvalidProblemError(
            f"lex_min_plus supports n < {int(LEX_SCALE)} (split counts must "
            "fit the packed channel)"
        )


def _lex_encode_f(F: np.ndarray) -> np.ndarray:
    # Each application of f is one split: the secondary channel ticks +1.
    _lex_check_domain(F, "split")
    return np.where(np.isinf(F), np.inf, F * LEX_SCALE + 1.0)


def _lex_encode_init(init: np.ndarray) -> np.ndarray:
    _lex_check_domain(init, "leaf")
    return np.where(np.isfinite(init), init * LEX_SCALE, np.inf)


def _lex_decode(value: Any) -> Any:
    cost, _ = lex_unpack(value)
    return float(cost) if np.isscalar(value) or np.ndim(value) == 0 else cost


def lex_range_check(*arrays: np.ndarray) -> bool:
    """May packed ``lex_min_plus`` values from these operands be summed
    on the packed channel without rounding?

    The sweep kernels' fast path adds *packed* floats directly (one
    ``extend`` per candidate), which is exact iff every intermediate
    stays within float64's exact-integer window. Following the ``fast_vdf`` idiom — check the input range
    once, then run the branch-free fast path — this sums the largest
    finite magnitude of each operand and compares against
    :data:`FLOAT_EXACT_INT_MAX`. A ``True`` verdict certifies the fast
    path bitwise; ``False`` sends the tile to the exact two-channel
    fallback (no error — the fallback is merely slower).
    """
    budget = 0.0
    for a in arrays:
        finite = np.abs(a[np.isfinite(a)])
        if finite.size:
            budget += float(finite.max())
    return budget <= FLOAT_EXACT_INT_MAX


# ---------------------------------------------------------------------------
# The contract.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelLowering:
    """What a compiled kernel needs to know about an algebra — nothing
    more. The sweep computes of :mod:`repro.core.kernels_fused` and
    their numba specialisations dispatch on *names*, not ufunc objects (ufuncs do
    not lower into nopython code), so each algebra exports this small
    scalar-level description of itself:

    - ``ext_name`` / ``comb_name`` name the scalar semantics of
      ``extend`` / ``combine`` (``"add"``, ``"minimum"``,
      ``"maximum"``) — the only three that satisfy the selection
      contract with float64 exactness;
    - ``zero`` / ``one`` are the constants, verbatim;
    - ``packed`` flags multi-channel encodings (``lex_min_plus``) whose
      fast path needs a range check with an exact fallback.
    """

    ext_name: str
    comb_name: str
    zero: float
    one: float
    packed: bool = False


@dataclass(frozen=True)
class SelectionSemiring:
    """One selection algebra: the (combine, extend) pair plus its
    constants, vectorized ops, witness channel, and encode/decode hooks.

    All array operations delegate to numpy ufuncs so the engine's
    compute functions stay single-dispatch slab operations; ``min_plus``
    resolves to exactly the ufuncs the pre-algebra kernels called
    (``np.minimum`` / ``np.add``), keeping that path bitwise identical.
    """

    name: str
    #: idempotent selection (``np.minimum`` or ``np.maximum``)
    combine_ufunc: np.ufunc
    #: monotone composition (``np.add``, ``np.maximum`` or ``np.minimum``)
    extend_ufunc: np.ufunc
    #: strict "candidate beats incumbent" order (``np.less``/``np.greater``)
    improves_ufunc: np.ufunc
    #: the argwitness channel (``np.argmin`` or ``np.argmax``)
    argselect_fn: Callable[..., Any]
    #: unreached: combine identity, extend absorber
    zero: float
    #: extend identity (value of the empty composition)
    one: float
    description: str = ""
    encode_f_fn: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None)
    encode_init_fn: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None)
    decode_fn: Optional[Callable[[Any], Any]] = field(default=None)

    # -- vectorized operations ---------------------------------------------

    def combine(self, a, b, out: np.ndarray | None = None):
        """Select between candidate sets (elementwise)."""
        if out is None:
            return self.combine_ufunc(a, b)
        return self.combine_ufunc(a, b, out=out)

    def extend(self, a, b, out: np.ndarray | None = None):
        """Compose partial values (elementwise)."""
        if out is None:
            return self.extend_ufunc(a, b)
        return self.extend_ufunc(a, b, out=out)

    def improves(self, candidate, incumbent):
        """Elementwise: would committing ``candidate`` change the cell?"""
        return self.improves_ufunc(candidate, incumbent)

    def merge_inplace(
        self, view: np.ndarray, candidates, *, check: bool = True
    ) -> bool:
        """Commit ``candidates`` into ``view`` (the monotone idempotent
        merge of the DESIGN.md contract); returns whether anything
        improved. Pass ``check=False`` once a caller already knows the
        sweep changed something — the merge still happens, only the
        comparison is skipped.
        """
        improved = bool(self.improves_ufunc(candidates, view).any()) if check else False
        self.combine_ufunc(view, candidates, out=view)
        return improved

    def select(self, a: np.ndarray, axis=None) -> np.ndarray:
        """Combine-reduction along ``axis`` (the vectorized fold)."""
        return self.combine_ufunc.reduce(a, axis=axis)

    def argwitness(self, a: np.ndarray, axis=None):
        """Index of the selected candidate — the witness channel used by
        tree reconstruction (argmin/argmax under the selection order)."""
        return self.argselect_fn(a, axis=axis)

    def full(self, shape) -> np.ndarray:
        """A fresh slab of unreached cells."""
        return np.full(shape, self.zero)

    def reachable(self, a) -> np.ndarray:
        """Elementwise: has this cell ever received a genuine value?
        (``one`` — e.g. ``-inf`` under ``minimax`` — is reachable;
        only ``zero`` is not.)"""
        return np.not_equal(a, self.zero)

    # -- problem-domain mapping --------------------------------------------

    def encode_f(self, F: np.ndarray) -> np.ndarray:
        """Map a problem's dense ``f`` table (``+inf`` on invalid
        triples) into this algebra's domain."""
        return F if self.encode_f_fn is None else self.encode_f_fn(F)

    def encode_init(self, init: np.ndarray) -> np.ndarray:
        """Map a problem's leaf costs into this algebra's domain."""
        return init if self.encode_init_fn is None else self.encode_init_fn(init)

    def decode(self, value):
        """Map a table value back to the problem domain (identity except
        for packed algebras such as ``lex_min_plus``)."""
        return value if self.decode_fn is None else self.decode_fn(value)

    # -- kernel lowering -----------------------------------------------------

    def lowering(self) -> KernelLowering:
        """The scalar-level description compiled kernels dispatch on.

        Derived from the ufuncs themselves (their ``__name__``s), so a
        custom registered algebra built from the same three numpy ops
        lowers for free; ``packed`` is keyed off the presence of a
        decode hook, which only multi-channel encodings carry.
        """
        return KernelLowering(
            ext_name=self.extend_ufunc.__name__,
            comb_name=self.combine_ufunc.__name__,
            zero=self.zero,
            one=self.one,
            packed=self.decode_fn is not None,
        )

    # -- plumbing -----------------------------------------------------------

    def describe(self) -> str:
        return (
            f"{self.name}: combine={self.combine_ufunc.__name__}, "
            f"extend={self.extend_ufunc.__name__}, zero={self.zero}, "
            f"one={self.one}"
        )

    def __reduce__(self):
        # Pickle by name: tiny payloads on the process backend, and the
        # unpickled object is the registry's canonical instance.
        return (get_algebra, (self.name,))


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, SelectionSemiring] = {}


def register_algebra(
    algebra: SelectionSemiring, *, overwrite: bool = False
) -> SelectionSemiring:
    """Add an algebra to the registry (CLI listing, name lookup,
    pickling). Re-registering an existing name requires ``overwrite``."""
    if not overwrite and algebra.name in _REGISTRY:
        raise InvalidProblemError(f"algebra {algebra.name!r} is already registered")
    _REGISTRY[algebra.name] = algebra
    return algebra


def get_algebra(algebra: Union[str, SelectionSemiring, None]) -> SelectionSemiring:
    """Resolve a name or instance to a registered algebra.

    ``None`` resolves to the default ``min_plus``. Unknown names raise
    :class:`~repro.errors.InvalidProblemError` (same failure mode as an
    unknown method name, so batch error isolation treats both alike).
    """
    if algebra is None:
        return MIN_PLUS
    if isinstance(algebra, SelectionSemiring):
        return algebra
    try:
        return _REGISTRY[algebra]
    except KeyError:
        raise InvalidProblemError(
            f"unknown algebra {algebra!r}; choose from {list_algebras()}"
        ) from None


def list_algebras() -> tuple[str, ...]:
    """Registered algebra names, registration order."""
    return tuple(_REGISTRY)


MIN_PLUS = register_algebra(
    SelectionSemiring(
        name="min_plus",
        combine_ufunc=np.minimum,
        extend_ufunc=np.add,
        improves_ufunc=np.less,
        argselect_fn=np.argmin,
        zero=np.inf,
        one=0.0,
        description="cheapest parenthesization (the paper's algebra)",
    )
)

MAX_PLUS = register_algebra(
    SelectionSemiring(
        name="max_plus",
        combine_ufunc=np.maximum,
        extend_ufunc=np.add,
        improves_ufunc=np.greater,
        argselect_fn=np.argmax,
        zero=-np.inf,
        one=0.0,
        description="most expensive parenthesization (worst-case cost)",
        encode_f_fn=_encode_neg_inf,
        encode_init_fn=_encode_neg_inf,
    )
)

MINIMAX = register_algebra(
    SelectionSemiring(
        name="minimax",
        combine_ufunc=np.minimum,
        extend_ufunc=np.maximum,
        improves_ufunc=np.less,
        argselect_fn=np.argmin,
        zero=np.inf,
        one=-np.inf,
        description="bottleneck: minimise the largest single split cost",
    )
)

MAXMIN = register_algebra(
    SelectionSemiring(
        name="maxmin",
        combine_ufunc=np.maximum,
        extend_ufunc=np.minimum,
        improves_ufunc=np.greater,
        argselect_fn=np.argmax,
        zero=-np.inf,
        one=np.inf,
        description="reliability: maximise the weakest component",
        encode_f_fn=_encode_neg_inf,
        encode_init_fn=_encode_neg_inf,
    )
)

LEX_MIN_PLUS = register_algebra(
    SelectionSemiring(
        name="lex_min_plus",
        combine_ufunc=np.minimum,
        extend_ufunc=np.add,
        improves_ufunc=np.less,
        argselect_fn=np.argmin,
        zero=np.inf,
        one=0.0,
        description=(
            "cost then split-count tie-break, packed as "
            "cost * LEX_SCALE + splits (exact for integer costs)"
        ),
        encode_f_fn=_lex_encode_f,
        encode_init_fn=_lex_encode_init,
        decode_fn=_lex_decode,
    )
)
