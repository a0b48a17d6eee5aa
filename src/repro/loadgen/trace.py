"""Replayable workload traces: seeded generation + a versioned JSONL schema.

A trace is the unit of reproducible load: **the same
:class:`TraceConfig` and seed always serialise to byte-identical
lines** (pinned by a hypothesis property test), so a latency
measurement names exactly the workload that produced it and a
regression can be replayed request-for-request months later.

File schema (version |version|) — one JSON object per line, canonical
encoding (sorted keys, no whitespace), ``\\n`` newlines:

* line 1, the **header**::

      {"config": {...TraceConfig...}, "count": N,
       "format": "repro-trace", "version": 1}

* lines 2..N+1, one **event** each::

      {"at_s": <arrival offset, seconds>, "i": <0-based index>,
       "spec": {...JSONL problem spec...}}

``at_s`` is non-decreasing; for a ``closed`` trace it is all zeros (the
harness replays closed traces sequentially). ``spec`` is a plain
:mod:`repro.problems.specs` problem spec, so any service transport can
replay the file unchanged. Readers accept any file whose ``format``
matches and whose ``version`` is not newer than :data:`TRACE_VERSION`;
the version only bumps on incompatible schema changes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from repro.errors import ReproError
from repro.loadgen.arrivals import ARRIVALS, generate_arrivals
from repro.loadgen.popularity import POPULARITIES, build_pool, choose_indices
from repro.problems.specs import FAMILIES

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TraceConfig",
    "TraceEvent",
    "generate_trace",
    "read_trace",
    "trace_lines",
    "write_trace",
]

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1


def _canonical(obj: dict) -> str:
    """The one JSON encoding every trace byte passes through: sorted
    keys, no whitespace. CPython's float repr is shortest-roundtrip and
    platform-stable, so equal configs give equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class TraceConfig:
    """Everything that determines a trace, and nothing else.

    Two configs that compare equal generate byte-identical trace files
    for equal seeds; every field lands in the trace header verbatim.
    """

    arrival: str = "poisson"  # one of ARRIVALS
    rate: float = 50.0  # mean requests/second (open-loop kinds)
    count: int = 100  # total requests
    popularity: str = "zipf"  # one of POPULARITIES
    pool: int = 16  # distinct instances in the pool
    zipf_s: float = 1.1  # Zipf exponent (popularity="zipf")
    burst_factor: float = 8.0  # burst-state rate multiplier (arrival="bursty")
    burst_enter: float = 0.05  # quiet -> burst switch probability
    burst_exit: float = 0.25  # burst -> quiet switch probability
    family: str = "chain"  # problem family the pool draws from
    n: int = 24  # instance size
    method: Optional[str] = None  # per-spec method override, if any
    seed: int = 0  # the master seed

    def validate(self) -> "TraceConfig":
        if self.arrival not in ARRIVALS:
            raise ReproError(
                f"unknown arrival process {self.arrival!r}; choose from {ARRIVALS}"
            )
        if self.popularity not in POPULARITIES:
            raise ReproError(
                f"unknown popularity model {self.popularity!r}; "
                f"choose from {POPULARITIES}"
            )
        if self.family not in FAMILIES:
            raise ReproError(
                f"unknown family {self.family!r}; choose from {FAMILIES}"
            )
        if self.count < 1:
            raise ReproError(f"count must be >= 1, got {self.count}")
        if self.pool < 1:
            raise ReproError(f"pool must be >= 1, got {self.pool}")
        if self.arrival != "closed" and self.rate <= 0:
            raise ReproError(f"rate must be positive, got {self.rate}")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TraceConfig":
        fields = cls.__dataclass_fields__  # type: ignore[attr-defined]
        known = set(fields)
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"unknown trace-config keys {sorted(unknown)} "
                "(a newer trace schema? see TRACE_VERSION)"
            )
        return cls(**data).validate()


@dataclass(frozen=True)
class TraceEvent:
    """One replayable request: when it arrives and what it asks for."""

    index: int
    at_s: float
    spec: dict

    def to_dict(self) -> dict:
        return {"at_s": self.at_s, "i": self.index, "spec": self.spec}


def generate_trace(config: TraceConfig) -> list[TraceEvent]:
    """The deterministic event list for ``config``.

    The master seed spawns two independent child streams (arrivals,
    popularity) via :class:`numpy.random.SeedSequence`, so changing one
    model's parameters never perturbs the other's draws.
    """
    config = config.validate()
    arrival_seed, popularity_seed = np.random.SeedSequence(config.seed).spawn(2)
    offsets = generate_arrivals(
        config.arrival,
        config.rate,
        config.count,
        seed=arrival_seed,
        burst_factor=config.burst_factor,
        burst_enter=config.burst_enter,
        burst_exit=config.burst_exit,
    )
    pool = build_pool(
        config.family,
        config.n,
        config.pool,
        seed=config.seed,
        adversarial=config.popularity == "adversarial",
        method=config.method,
    )
    picks = choose_indices(
        config.popularity,
        config.pool,
        config.count,
        seed=popularity_seed,
        zipf_s=config.zipf_s,
    )
    return [
        TraceEvent(index=i, at_s=float(offsets[i]), spec=pool[int(picks[i])])
        for i in range(config.count)
    ]


def trace_lines(
    config: TraceConfig, events: Optional[Iterable[TraceEvent]] = None
) -> list[str]:
    """The exact serialised lines of the trace file (no newlines) —
    header first, then one line per event. This is the byte-determinism
    surface the property suite pins: equal config => equal lines."""
    config = config.validate()
    if events is None:
        events = generate_trace(config)
    events = list(events)
    header = {
        "config": config.to_dict(),
        "count": len(events),
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
    }
    return [_canonical(header)] + [_canonical(ev.to_dict()) for ev in events]


def write_trace(
    path: Union[str, Path],
    config: TraceConfig,
    events: Optional[Iterable[TraceEvent]] = None,
) -> Path:
    """Generate (unless ``events`` is given) and write one trace file."""
    path = Path(path)
    path.write_text("\n".join(trace_lines(config, events)) + "\n", encoding="utf-8")
    return path


def read_trace(path: Union[str, Path]) -> tuple[TraceConfig, list[TraceEvent]]:
    """Parse one trace file back into ``(config, events)``.

    Validates the format marker, the schema version (newer files are
    refused with a pointer at this reader's version), the advertised
    event count and the non-decreasing arrival offsets — a truncated or
    hand-edited file fails loudly, not as a silently shorter workload.
    """
    path = Path(path)
    lines = [
        line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()
    ]
    if not lines:
        raise ReproError(f"{path} is empty — not a trace file")
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise ReproError(f"{path} line 1 is not JSON: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise ReproError(f"{path} is not a {TRACE_FORMAT!r} file")
    version = header.get("version")
    if not isinstance(version, int) or version > TRACE_VERSION:
        raise ReproError(
            f"{path} has trace schema version {version!r}; this reader "
            f"supports <= {TRACE_VERSION}"
        )
    config = TraceConfig.from_dict(header.get("config") or {})
    declared = header.get("count")
    events: list[TraceEvent] = []
    previous = -np.inf
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise ReproError(f"{path} line {lineno} is not JSON: {exc}") from None
        try:
            event = TraceEvent(
                index=int(rec["i"]), at_s=float(rec["at_s"]), spec=dict(rec["spec"])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(
                f"{path} line {lineno} is not a trace event: {exc}"
            ) from None
        if event.index != len(events):
            raise ReproError(
                f"{path} line {lineno}: event index {event.index} out of order"
            )
        if event.at_s < previous:
            raise ReproError(
                f"{path} line {lineno}: arrival offsets must be non-decreasing"
            )
        previous = event.at_s
        events.append(event)
    if declared != len(events):
        raise ReproError(
            f"{path} declares {declared} events but carries {len(events)} "
            "(truncated file?)"
        )
    return config, events
