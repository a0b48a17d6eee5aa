"""How fast this machine's CPUs run during a timed window.

The host slows and speeds up the guest's CPUs for minutes at a time
(clock scaling, other guests on the same cores), and every CPU-time
figure moves with it. A :class:`SpeedProbe` runs, in a process of its
own, a fixed pure-Python chunk every ``PERIOD_S`` and times it in CPU
time; the mean chunk time over the window says how fast the same code
ran then. The benchmark rescales the fleet's CPU time by it, so a slow
phase of the host does not read as a slower program. The probe takes
under 1% of one CPU.

The probe pins itself to each CPU in turn. Left to the scheduler it
would run on whichever CPU is idle, which is not the one a busy shard
runs on, and the CPUs of one guest do not always run at one speed.

Run as a script (``python3 speed.py``) it samples until SIGINT and then
prints its chunk times, in nanoseconds, as one JSON list.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import subprocess
import sys
import time
from statistics import fmean

#: seconds between two chunks
PERIOD_S = 0.05

#: mean chunk CPU time (us) on the 2-vCPU reference guest: a run at that
#: speed reports its CPU time unchanged
REFERENCE_CHUNK_US = 600.0


def _chunk() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(3000):
        table[i & 63] = i
        acc += table.get((i * 7) & 63, 0) ^ i
    return acc


def _sample() -> None:
    samples = []
    cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))
    try:
        while True:
            os.sched_setaffinity(0, {next(cpus)})
            time.sleep(PERIOD_S)
            start = time.thread_time_ns()
            _chunk()
            samples.append(time.thread_time_ns() - start)
    except KeyboardInterrupt:
        pass
    print(json.dumps(samples))


class SpeedProbe:
    """Start with :meth:`start`; :meth:`stop` returns the mean chunk CPU
    time in microseconds and always ends the sampling process."""

    def __init__(self) -> None:
        self._proc: subprocess.Popen | None = None

    def start(self) -> "SpeedProbe":
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdout=subprocess.PIPE, text=True
        )
        return self

    def stop(self) -> float:
        proc, self._proc = self._proc, None
        if proc is None:
            raise RuntimeError("speed probe was not started")
        try:
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        samples = json.loads(out)
        if not samples:
            raise RuntimeError("speed probe took no samples")
        return fmean(samples) / 1e3


if __name__ == "__main__":
    _sample()
