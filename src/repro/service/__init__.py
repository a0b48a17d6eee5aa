"""The solve service: a long-lived server over the batched solve layer.

Everything below this package exists so that *no request pays cold-start
costs twice*: a :class:`SolveService` owns a warm worker-pool backend,
coalesces concurrent requests into
:func:`repro.core.solve_many` batches under a group-commit scheduler
(requests that arrive while one batch runs form the next), and fronts
the whole pipeline with an instance-hash result cache whose hit path
never compiles a plan or touches a pool.

Layers (each usable on its own):

* :class:`ResultCache` — byte-bounded LRU keyed by
  :func:`repro.core.api.instance_key`, with a delta-sibling index for
  :mod:`repro.core.delta` re-solves;
* :class:`L2DiskCache` / :class:`TieredResultCache` — the disk-backed
  L2 tier and the L1+L2 composite (``--cache-dir``): entries survive
  restarts and are shared by every process mounting the directory;
* :class:`CoalescingScheduler` — asyncio request coalescing (duplicate
  requests join the in-flight entry; distinct requests batch);
* :class:`SolveService` — owns backend + cache + scheduler;
* :func:`serve` / :func:`serve_unix` / :func:`serve_tcp` — the JSONL
  front end on either transport (``repro serve``), over the shared
  framing in :mod:`repro.service.transport`;
* :class:`LocalClient` / :class:`ServiceClient` / :class:`AsyncClient`
  — in-process, synchronous-socket and asyncio clients
  (``repro request``, the load harness), unix or TCP;
* :class:`FleetRouter` / :func:`serve_fleet` — the scale-out layer:
  N shard processes behind a consistent-hash router that respawns dead
  shards and re-dispatches their in-flight requests (``repro fleet``),
  loaded on first use: a shard never routes, so it never imports them.
"""

from repro.service.cache import L2DiskCache, ResultCache, TieredResultCache
from repro.service.client import AsyncClient, LocalClient, ServiceClient
from repro.service.scheduler import CoalescingScheduler
from repro.service.server import SolveService, serve, serve_tcp, serve_unix
from repro.service.transport import Address, parse_address

__all__ = [
    "ResultCache",
    "L2DiskCache",
    "TieredResultCache",
    "CoalescingScheduler",
    "SolveService",
    "serve",
    "serve_unix",
    "serve_tcp",
    "AsyncClient",
    "LocalClient",
    "ServiceClient",
    "FleetRouter",
    "serve_fleet",
    "Address",
    "parse_address",
]


def __getattr__(name: str):
    if name in ("FleetRouter", "serve_fleet"):
        from repro.service import fleet

        return getattr(fleet, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
