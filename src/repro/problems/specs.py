"""JSONL problem specs: the wire format shared by ``repro batch``,
``repro request`` and the solve service.

A spec is one JSON object describing a problem instance plus optional
per-item solve settings. Explicit data wins over random families:

==================  =====================================================
keys                instance
==================  =====================================================
``dims``            :class:`~repro.problems.MatrixChainProblem`
``p`` / ``q``       :class:`~repro.problems.OptimalBSTProblem`
``points``          :class:`~repro.problems.PolygonTriangulationProblem`
                    (optional ``rule``)
``weights``         :class:`~repro.problems.BottleneckChainProblem`
``connectors`` /    :class:`~repro.problems.ReliabilityBSTProblem`
``leaves``
``family``          a random draw: ``family`` + ``n`` + ``seed``
==================  =====================================================

Optional per-item settings: ``method``, ``algebra``, ``max_n``, and
``band`` (banded methods only). A spec with none of the instance keys
is rejected — a typo'd key must not silently solve a random default
instance.

Building a problem from a spec is the expensive part of a cache hit
(a family spec runs its random generator), so each process keeps one
bounded memo from a spec's *identity* to its instance key
(:func:`spec_key`). The identity is a digest of the default method and
the fields the parser reads (:data:`IDENTITY_FIELDS`) as canonical
JSON; fields the parser ignores (``id``, a benchmark's ``rid``, typos)
stay out. Only a spec the parser accepted and that has an instance key
enters the memo, so a rejected spec is rebuilt — and rejected — on
every request. Two texts may share a key (``1`` and ``1.0``); one text
never has two. The fleet router and the solve server look keys up here
before building anything.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Optional

__all__ = [
    "FAMILIES",
    "IDENTITY_FIELDS",
    "KEY_MEMO_ENTRIES",
    "family_generators",
    "problem_from_spec",
    "batch_item_from_spec",
    "spec_identity",
    "spec_key",
    "spec_fingerprint",
    "route_key_from_spec",
]

# Single source for the random-instance families: the CLI choices, the
# service protocol and the generator dispatch all derive from this.
_FAMILY_GENERATOR_NAMES = {
    "chain": "random_matrix_chain",
    "bst": "random_bst",
    "polygon": "random_polygon",
    "generic": "random_generic",
    "bottleneck": "random_bottleneck_chain",
    "reliability": "random_reliability_bst",
}
FAMILIES = tuple(_FAMILY_GENERATOR_NAMES)


def family_generators() -> dict:
    """Family-name -> random-instance generator (imported lazily; the
    generators pull in the whole problem stack)."""
    from repro.problems import generators

    return {
        family: getattr(generators, name)
        for family, name in _FAMILY_GENERATOR_NAMES.items()
    }


def problem_from_spec(spec: dict):
    """Build a problem instance from one JSONL spec (see module docstring)."""
    from repro.problems import (
        BottleneckChainProblem,
        MatrixChainProblem,
        OptimalBSTProblem,
        PolygonTriangulationProblem,
        ReliabilityBSTProblem,
    )

    if "dims" in spec:
        return MatrixChainProblem([int(x) for x in spec["dims"]])
    if "p" in spec or "q" in spec:
        return OptimalBSTProblem(spec.get("p", []), spec.get("q", []))
    if "points" in spec:
        points = [tuple(float(c) for c in pt) for pt in spec["points"]]
        return PolygonTriangulationProblem(points, rule=spec.get("rule", "perimeter"))
    if "weights" in spec:
        return BottleneckChainProblem([float(x) for x in spec["weights"]])
    if "connectors" in spec or "leaves" in spec:
        return ReliabilityBSTProblem(
            [float(x) for x in spec.get("connectors", [])],
            [float(x) for x in spec.get("leaves", [])],
        )
    if "family" in spec:
        family = spec["family"]
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
        make = family_generators()[family]
        return make(int(spec.get("n", 12)), seed=int(spec.get("seed", 0)))
    raise ValueError(
        "spec must contain one of: dims, p/q, points, weights, "
        f"connectors/leaves, or family (got keys {sorted(spec)})"
    )


def batch_item_from_spec(
    spec: dict, *, default_method: str = "sequential"
) -> tuple[Any, str, dict]:
    """One ``(problem, method, solve_kwargs)`` batch element from a spec.

    The method name is validated here (against
    :data:`repro.core.api.METHODS`); the algebra name deliberately is
    not — algebra resolution happens inside the solve worker, so a bad
    name on one item is isolated exactly like any other per-item
    failure.
    """
    from repro.core.api import METHODS

    method = spec.get("method", default_method)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    kwargs: dict[str, Any] = {}
    if "max_n" in spec:
        kwargs["max_n"] = int(spec["max_n"])
    if "band" in spec and method in ("huang-banded", "huang-compact"):
        kwargs["band"] = int(spec["band"])
    if "algebra" in spec:
        kwargs["algebra"] = str(spec["algebra"])
    return problem_from_spec(spec), method, kwargs


#: Every spec field :func:`batch_item_from_spec` reads — the spec's
#: identity covers exactly these. A parser that learns a new field must
#: list it here, or two specs differing only in it would share a key
#: (``tests/service/test_spec_keys.py`` fails first).
IDENTITY_FIELDS = frozenset(
    "dims p q points rule weights connectors leaves "
    "family n seed method algebra max_n band".split()
)

#: Entry bound of the key memo: the L1 result cache's default entry
#: bound, so the memo can name every key a default L1 holds.
KEY_MEMO_ENTRIES = 4096

_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def spec_identity(spec: dict, *, default_method: str = "sequential") -> Optional[bytes]:
    """16-byte blake2b digest of what the parser reads from ``spec``:
    the default method and the :data:`IDENTITY_FIELDS` present, as
    canonical JSON (sorted keys, no whitespace). ``None`` when a value
    does not serialise to JSON (an in-process numpy array, say): such a
    spec skips the key memo."""
    fields = {k: v for k, v in spec.items() if k in IDENTITY_FIELDS}
    try:
        text = _CANONICAL_JSON.encode([default_method, fields])
    except (TypeError, ValueError, RecursionError):
        return None
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


class _KeyMemo:
    """Thread-safe LRU from spec identity to instance key bytes (the
    router computes keys on ``asyncio.to_thread`` workers)."""

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._keys: OrderedDict[bytes, bytes] = OrderedDict()

    def get(self, identity: Optional[bytes]) -> Optional[bytes]:
        if identity is None:
            return None
        with self._lock:
            key = self._keys.get(identity)
            if key is not None:
                self._keys.move_to_end(identity)
            return key

    def put(self, identity: Optional[bytes], key: Optional[bytes]) -> None:
        if identity is None or key is None:
            return
        with self._lock:
            self._keys[identity] = key
            self._keys.move_to_end(identity)
            if len(self._keys) > self.max_entries:
                self._keys.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._keys)

    def clear(self) -> None:
        with self._lock:
            self._keys.clear()


#: the process's one spec-key memo (see the module docstring)
KEY_MEMO = _KeyMemo(KEY_MEMO_ENTRIES)


def spec_key(
    spec: dict, *, default_method: str = "sequential"
) -> tuple[Optional[bytes], Optional[tuple]]:
    """``(instance_key, item)`` for one spec, key first.

    When the memo knows the spec's identity, the key comes from it and
    ``item`` is ``None``: no problem was built. Otherwise the spec is
    built once (:func:`batch_item_from_spec`, whose errors propagate)
    and hashed once (:func:`repro.core.api.instance_key_bytes`), the key
    is remembered, and the built ``(problem, method, kwargs)`` item is
    returned with it. The key is ``None`` for an uncacheable request.
    """
    from repro.core import api

    identity = spec_identity(spec, default_method=default_method)
    key = KEY_MEMO.get(identity)
    if key is not None:
        return key, None
    item = batch_item_from_spec(spec, default_method=default_method)
    problem, method, kwargs = item
    key = api.instance_key_bytes(problem, method=method, **kwargs)
    KEY_MEMO.put(identity, key)
    return key, item


def spec_fingerprint(spec: dict) -> bytes:
    """A stable 16-byte fingerprint of a raw spec dict.

    Canonical JSON (sorted keys, no whitespace) through blake2b — the
    same spec always fingerprints identically, in any process on any
    machine. This is the routing *fallback* for specs that have no
    :func:`repro.core.api.instance_key_bytes` (unparseable specs, or
    requests carrying uncacheable settings): they still need a
    deterministic shard, even though no cache will ever serve them.
    """
    canonical = json.dumps(
        spec, sort_keys=True, separators=(",", ":"), default=repr
    )
    return hashlib.blake2b(canonical.encode(), digest_size=16).digest()


def route_key_from_spec(spec: dict, *, default_method: str = "sequential") -> bytes:
    """The shard-routing key for one JSONL spec: stable bytes such that
    equal *requests* (same instance, method and result-determining
    settings — not necessarily the same JSON text) get equal keys.

    Prefers the canonical instance digest (:func:`spec_key`, so a spec
    the memo knows is routed without building its problem), so
    duplicate requests always land on the shard whose cache/coalescer
    can dedupe them; any spec that cannot produce one falls back to
    :func:`spec_fingerprint`. Never raises — a malformed spec routes
    deterministically to the shard that will reject it.
    """
    try:
        key, _ = spec_key(spec, default_method=default_method)
    except Exception:  # noqa: BLE001 - malformed specs still need a shard
        key = None
    return key if key is not None else spec_fingerprint(spec)
