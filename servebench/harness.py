"""A live 2-shard fleet behind its unix front end, plus its hygiene check.

The fleet runs as users run it: one ``python -m repro fleet`` process
(the :class:`~repro.service.fleet.FleetRouter` behind
:func:`~repro.service.fleet.serve_fleet`) that spawns its shard
processes. The benchmark process only generates load, over the front
end's unix socket, so the load generator never competes with the front
end for one interpreter lock.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.service import ServiceClient

#: the fleet under test: two shards (one per CPU of the reference
#: machine), each solving serially with the sequential DP
FLEET_ARGS = ["--shards", "2", "--backend", "serial", "--method", "sequential"]

#: seconds a fleet may take to accept connections
START_TIMEOUT_S = 60.0

#: unix socket paths are limited to 107 bytes on Linux
_MAX_SOCKET_PATH = 107


def _shm() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_s(pid: int) -> float:
    """CPU time (user + system) one process has used so far, in seconds.

    Time the hypervisor gives to other guests (steal) is not charged to
    the process, so a busy host moves this far less than wall-clock time.
    """
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        # the command name (field 2) may hold spaces: split after it
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class LiveFleet:
    """One ``repro fleet`` process: start, seed, measure shard memory,
    stop, and check that nothing was left behind.

    The front-end socket and log go to a fresh directory under
    ``TMPDIR``; the router creates its own state directory there (shard
    sockets, logs, the shared L2) and must remove it on shutdown.
    """

    def __init__(self, src: Path) -> None:
        self._tmp_before = set(Path(tempfile.gettempdir()).iterdir())
        self.workdir = Path(tempfile.mkdtemp(prefix="fleet-"))
        self.front = str(self.workdir / "front.sock")
        if len(self.front) > _MAX_SOCKET_PATH:
            raise RuntimeError(
                f"socket path {self.front!r} is too long for a unix socket; "
                "run the benchmark from a shorter directory"
            )
        self._src = src
        self._shm_before = _shm()
        self.proc: subprocess.Popen | None = None
        self.shard_pids: list[int] = []

    def start(self) -> "LiveFleet":
        """Launch the fleet and wait until its front end accepts."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self._src), env.get("PYTHONPATH", "")) if p
        )
        with open(self.workdir / "fleet.log", "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "fleet", "--socket", self.front, *FLEET_ARGS],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"fleet exited during startup (rc={self.proc.returncode}); "
                    f"see {self.workdir / 'fleet.log'}"
                )
            try:
                client = ServiceClient(self.front, timeout=START_TIMEOUT_S)
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("fleet front end did not come up") from None
                time.sleep(0.01)
                continue
            with client:
                status = client.status()
            break
        self.shard_pids = [s["pid"] for s in status["per_shard"] if s.get("pid")]
        return self

    def seed(self, specs: list[dict]) -> None:
        """Pre-solve ``specs`` through the front end (pipelined)."""
        if not specs:
            return
        with ServiceClient(self.front) as client:
            records = client.request_many(specs)
        bad = [r for r in records if not r.get("ok")]
        if bad:
            raise RuntimeError(f"warm-up failed: {bad[0]}")

    def status(self) -> dict:
        with ServiceClient(self.front) as client:
            return client.status()

    def peak_rss_mb(self) -> float:
        return max(vm_hwm_mb(pid) for pid in self.shard_pids)

    def cpu_s(self) -> float:
        """CPU seconds used so far by the front end and every shard."""
        return sum(cpu_s(pid) for pid in (self.proc.pid, *self.shard_pids))

    def close(self) -> list[str]:
        """Stop the fleet; return every hygiene failure."""
        problems: list[str] = []
        if self.proc is None:
            return problems
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            try:
                with ServiceClient(self.front, timeout=30.0) as client:
                    client.shutdown()
            except OSError as exc:
                problems.append(f"shutdown request failed: {exc}")
            try:
                proc.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                problems.append("fleet did not exit after shutdown")
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            problems.append(f"fleet exited with rc={proc.returncode}")
        deadline = time.monotonic() + 5.0
        while any(_alive(p) for p in self.shard_pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        problems += [f"shard pid {p} survived" for p in self.shard_pids if _alive(p)]
        problems += [f"new /dev/shm segment {s}" for s in sorted(_shm() - self._shm_before)]
        if os.path.exists(self.front):
            problems.append(f"front socket {self.front} left behind")
        leftovers = set(Path(tempfile.gettempdir()).iterdir()) - self._tmp_before - {self.workdir}
        problems += [f"fleet state {p} left behind" for p in sorted(leftovers)]
        return problems
