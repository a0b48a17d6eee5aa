"""In-memory span recording around the public calls of each layer.

The traced run wraps, from outside the package, the functions each
layer exposes: the benchmark process wraps the client, the fleet front
end and the router; a startup hook (``hook/sitecustomize.py``) installs
the same wrappers inside every shard process, which inherits the traced
run's ``PYTHONPATH``. Nothing under ``src/`` changes.

A span is ``(name, start_ns, end_ns, rids, extra)``. Times come from
``time.monotonic_ns()``, the system-wide ``CLOCK_MONOTONIC`` on Linux, so
spans from the benchmark process and the shards share one time axis.
``rids`` are the request ids (the trace index the traced run stamps into
each spec as ``"rid"``) the span worked for. Spans stay in a list and
are written out once: the shards dump theirs at exit, the benchmark
process hands its list straight to the ledger.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import json
import os
import threading
import time
from collections import defaultdict

#: environment variable naming the directory shards dump spans into
TRACE_DIR_ENV = "SERVEBENCH_TRACE_DIR"

#: the request the current task or thread is working for
RID = contextvars.ContextVar("servebench_rid", default=None)

#: attribute the traced run stores a parsed problem's request id under
_PROBLEM_RID = "_servebench_rid"


class Recorder:
    """The span list of one process plus the lookup tables that carry
    request ids across calls that do not pass them."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        #: instance key (hex) -> request ids that computed it
        self.key_rids: dict[str, set] = defaultdict(set)
        self._local = threading.local()

    def add(self, name, start, end, rids, extra=None) -> None:
        self.spans.append((name, start, end, tuple(r for r in rids if r is not None), extra))

    def local(self):
        """Per-thread state: wire id -> request id maps and the send
        times of requests in flight to a shard."""
        local = self._local
        if not hasattr(local, "ids"):
            local.ids = {}
            local.sent = {}
            local.candidates = 0
            local.last_rid = None
        return local

    def dump(self, directory: str) -> None:
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": [list(s[:3]) + [list(s[3]), s[4]] for s in self.spans],
                 "missing": self.missing},
                fh,
            )


REC = Recorder()


def _ctx_rid(*_):
    rid = RID.get()
    return (rid,)


def _problem_rid(problem):
    return getattr(problem, _PROBLEM_RID, None)


def _wrap(owner, attr: str, make) -> None:
    """Replace ``owner.attr`` with ``make(original)``; a missing target
    is noted (it shows up as unattributed time in the ledger)."""
    original = getattr(owner, attr, None)
    label = f"{getattr(owner, '__name__', owner)}.{attr}"
    if original is None:
        REC.missing.append(label)
        return
    setattr(owner, attr, functools.wraps(original)(make(original)))


def _timed(name, rids_of=_ctx_rid, extra_of=None, bind=None):
    """A wrapper factory for synchronous calls. ``rids_of(args, kwargs,
    result)`` names the requests served; ``bind(args, kwargs)`` returns
    a request id to make current for nested calls."""

    def make(fn):
        def wrapper(*args, **kwargs):
            token = None
            if bind is not None:
                rid = bind(args, kwargs)
                if rid is not None:
                    token = RID.set(rid)
            start = time.monotonic_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic_ns()
                extra = extra_of(args, kwargs, result) if extra_of else None
                REC.add(name, start, end, rids_of(args, kwargs, result), extra)
                if token is not None:
                    RID.reset(token)

        return wrapper

    return make


def _timed_async(name, rid_of):
    """A wrapper factory for coroutine methods that serve one request:
    the request id becomes current for everything the call awaits."""

    def make(fn):
        async def wrapper(*args, **kwargs):
            rid = rid_of(args, kwargs)
            token = RID.set(rid) if rid is not None else None
            start = time.monotonic_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                REC.add(name, start, time.monotonic_ns(), (rid if rid is not None else RID.get(),))
                if token is not None:
                    RID.reset(token)

        return wrapper

    return make


# -- wire framing -------------------------------------------------------------


def _wire_rid(record, local) -> object:
    """The request id of a wire record: stamped in request specs, looked
    up by wire ``id`` for responses (which carry no ``rid``)."""
    if not isinstance(record, dict):
        return None
    rid = record.get("rid")
    wire_id = record.get("id")
    if rid is not None:
        if wire_id is not None:
            local.ids[wire_id] = rid
        return rid
    return local.ids.pop(wire_id, None) if wire_id is not None else None


def _framing(name, is_encode):
    def make(fn):
        def wrapper(arg):
            local = REC.local()
            start = time.monotonic_ns()
            result = fn(arg)
            end = time.monotonic_ns()
            REC.add(name, start, end, (_wire_rid(arg if is_encode else result, local),))
            return result

        return wrapper

    return make


def _router_framing(is_encode):
    """The router's own framing calls: besides the encode/decode spans,
    they bracket each request's shard round trip (send start to the
    decoded response), carrying the shard's reported ``elapsed_ms``."""

    def make(fn):
        def wrapper(arg):
            local = REC.local()
            start = time.monotonic_ns()
            result = fn(arg)
            end = time.monotonic_ns()
            if is_encode:
                rid = arg.get("rid") if isinstance(arg, dict) else None
                if rid is not None:
                    local.sent[arg.get("id")] = (rid, start)
                REC.add("transport.encode", start, end, (rid,))
            else:
                sent = local.sent.pop(result.get("id"), None) if isinstance(result, dict) else None
                rid = sent[0] if sent else None
                REC.add("transport.decode", start, end, (rid,))
                if sent is not None:
                    REC.add("fleet.rtt", sent[1], end, (rid,), {"server_ms": result.get("elapsed_ms")})
            return result

        return wrapper

    return make


# -- helpers for the per-layer extras ---------------------------------------


def _dirty_cells(n: int, lo: int, hi: int) -> int:
    """Cells ``(i, j)`` with ``j >= lo`` and ``i <= hi``: what a delta
    re-sweep over the dirty window ``(lo, hi)`` recomputes."""
    total = 0
    for length in range(1, n + 1):
        a = max(0, lo - length)
        b = min(n - length, hi)
        if b >= a:
            total += b - a + 1
    return total


def _resolve_extra(args, kwargs, result):
    REC.local().candidates += 1
    if result is None:
        return {"ok": False}
    problem, parent_weights = args[0], args[1]
    window = problem.delta_window(parent_weights)
    dirty = 0.0
    if window is not None and window[0] <= problem.n and window[1] >= 0:
        dirty = _dirty_cells(problem.n, window[0], window[1]) / problem.num_intervals
    return {"ok": True, "dirty": dirty}


def _probe_bind(args, kwargs):
    REC.local().candidates = 0
    return _problem_rid(args[1])


def _probe_extra(args, kwargs, result):
    return {"hit": result is not None, "candidates": REC.local().candidates}


def _tag_problem(args, kwargs, result):
    spec = args[0] if args else kwargs.get("spec")
    rid = spec.get("rid") if isinstance(spec, dict) else None
    if rid is None:
        rid = RID.get()
    if rid is not None and result is not None:
        try:
            setattr(result[0], _PROBLEM_RID, rid)
        except AttributeError:
            pass
    return (rid,)


def _key_rids(args, kwargs, result):
    rid = RID.get()
    if result is not None and not kwargs.get("delta_parent") and rid is not None:
        REC.key_rids[result.hex()].add(rid)
    return (rid,)


def _route_rid(args, kwargs, result):
    # The router places each request right after computing its key, on
    # the same thread: the policy's choose() is charged to this request.
    rid = args[0].get("rid")
    REC.local().last_rid = rid
    return (rid,)


def _rids_for_key(key):
    return tuple(REC.key_rids.get(key, ()))


def _batch_rids(args, kwargs, result):
    rids: set = set()
    for entry in args[1]:
        if entry.key is not None:
            rids |= REC.key_rids.get(entry.key, set())
        rid = _problem_rid(entry.problem)
        if rid is not None:
            rids.add(rid)
    return tuple(rids)


def _items_rids(args, kwargs, result):
    items = args[0] if args else kwargs.get("problems", ())
    return tuple(_problem_rid(item[0] if isinstance(item, tuple) else item) for item in items)


def _ftable(fn):
    def wrapper(self):
        if "_validated_f_table" in self.__dict__:
            return fn(self)
        start = time.monotonic_ns()
        result = fn(self)
        REC.add("problems.ftable", start, time.monotonic_ns(), (_problem_rid(self),), {"n": self.n})
        return result

    return wrapper


# -- installation -------------------------------------------------------------


def install() -> Recorder:
    """Wrap every layer boundary the ledger reads, in this process."""
    from repro.core import api, delta
    from repro.problems import base, specs
    from repro.service import cache, client, fleet, routing, scheduler, server, transport

    _wrap(client.AsyncClient, "submit", _timed_async("client.submit", lambda a, k: a[1].get("rid")))
    for module in (transport, client):
        _wrap(module, "encode_record", _framing("transport.encode", True))
    _wrap(transport, "decode_record", _framing("transport.decode", False))
    _wrap(fleet, "encode_record", _router_framing(True))
    _wrap(fleet, "decode_record", _router_framing(False))

    _wrap(fleet.FleetRouter, "request_many", _timed(
        "fleet.round",
        rids_of=lambda a, k, r: tuple(s.get("rid") for s in a[1]),
        extra_of=lambda a, k, r: {"size": len(a[1])},
    ))
    _wrap(fleet, "route_key_from_spec", _timed(
        "specs.route_key", bind=lambda a, k: a[0].get("rid"), rids_of=_route_rid,
    ))
    for policy in ("RingPolicy", "BoundedLoadPolicy", "PowerOfTwoPolicy"):
        cls = getattr(routing, policy, None)
        if cls is not None:
            _wrap(cls, "choose", _timed(
                "routing.choose", rids_of=lambda a, k, r: (REC.local().last_rid,),
            ))

    for module in (specs, server):
        _wrap(module, "batch_item_from_spec", _timed("specs.parse", rids_of=_tag_problem))
    _wrap(api, "instance_key_bytes", _timed("api.key", rids_of=_key_rids))

    _wrap(server.SolveService, "handle_spec", _timed_async("server.handle", lambda a, k: a[1].get("rid")))
    _wrap(scheduler.CoalescingScheduler, "submit", _timed_async("scheduler.submit", lambda a, k: None))
    _wrap(scheduler.CoalescingScheduler, "_solve_batch", _timed(
        "scheduler.batch", rids_of=_batch_rids, extra_of=lambda a, k, r: {"size": len(a[1])},
    ))
    _wrap(scheduler, "try_delta", _timed(
        "delta.probe", bind=_probe_bind,
        rids_of=lambda a, k, r: (_problem_rid(a[1]),), extra_of=_probe_extra,
    ))
    _wrap(delta, "delta_resolve", _timed(
        "delta.resolve", rids_of=lambda a, k, r: (_problem_rid(a[0]),), extra_of=_resolve_extra,
    ))

    _wrap(cache.TieredResultCache, "get", _timed("cache.get"))
    _wrap(cache.ResultCache, "get", _timed("cache.l1_get"))
    _wrap(cache.L2DiskCache, "get_with_meta", _timed("cache.l2_get"))
    _wrap(cache.TieredResultCache, "put", _timed(
        "cache.put", rids_of=lambda a, k, r: _rids_for_key(a[1]),
        bind=lambda a, k: next(iter(_rids_for_key(a[1])), None),
    ))
    _wrap(cache.ResultCache, "put", _timed("cache.l1_put"))
    _wrap(cache.L2DiskCache, "put", _timed("cache.l2_put"))
    _wrap(cache.ResultCache, "delta_entries", _timed("cache.l1_delta_scan"))
    _wrap(cache.L2DiskCache, "delta_entries", _timed("cache.l2_delta_scan"))

    problem_bind = lambda a, k: _problem_rid(a[0])  # noqa: E731
    for module in (server, api):
        _wrap(module, "solve", _timed(
            "api.solve", bind=problem_bind, rids_of=lambda a, k, r: (_problem_rid(a[0]),),
        ))
    _wrap(server, "solve_many", _timed("api.solve_many", rids_of=_items_rids))
    _wrap(api, "solve_sequential", _timed(
        "sequential.dp", rids_of=lambda a, k, r: (_problem_rid(a[0]),),
        extra_of=lambda a, k, r: {"n": a[0].n},
    ))
    _wrap(base.ParenthesizationProblem, "cached_f_table", _ftable)
    return REC


def install_from_env() -> None:
    """The shard-side entry point: install and dump at exit when the
    traced run named a span directory."""
    directory = os.environ.get(TRACE_DIR_ENV)
    if not directory:
        return
    install()
    atexit.register(REC.dump, directory)
