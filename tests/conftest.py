"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import os
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# One moderate profile for everything: the solvers under test do Θ(n⁴)
# work per example, so examples must stay small and few.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def clrs_chain():
    """The classic CLRS matrix-chain instance; optimal cost 15125."""
    from repro.problems import MatrixChainProblem

    return MatrixChainProblem([30, 35, 15, 5, 10, 20, 25])


@pytest.fixture
def clrs_bst():
    """The CLRS optimal-BST instance; optimal expected cost 2.75."""
    from repro.problems import OptimalBSTProblem

    return OptimalBSTProblem(
        [0.15, 0.10, 0.05, 0.10, 0.20], [0.05, 0.10, 0.05, 0.05, 0.05, 0.10]
    )


@pytest.fixture
def square_polygon():
    """Unit square: two triangulations, both with total perimeter-weight
    2·(1 + 1 + sqrt(2)) = twice a right triangle's perimeter."""
    from repro.problems import PolygonTriangulationProblem

    return PolygonTriangulationProblem(
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], rule="perimeter"
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _wait_until_listening(path: str, deadline: float, proc=None) -> None:
    """Wait until a server accepts connections on the unix socket
    ``path``, up to ``deadline`` (a ``time.monotonic()`` value). The
    socket file appears when the server binds, before it listens, so a
    connect in between is refused: it is retried. ``proc``, when given,
    is the server's process, which must not exit meanwhile."""
    while True:
        if proc is not None:
            assert proc.poll() is None, "the server exited during startup"
        if os.path.exists(path):
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(path)
                return
            except (ConnectionRefusedError, FileNotFoundError):
                pass  # bound, not yet listening (or just reclaimed)
            finally:
                probe.close()
        assert time.monotonic() < deadline, f"no server listening on {path}"
        time.sleep(0.02)


@pytest.fixture
def wait_until_listening():
    """``wait_until_listening(path, deadline, proc=None)``: return once
    a server accepts connections on the unix socket ``path``."""
    return _wait_until_listening


def _within(seconds: float, fn):
    """``fn()`` on a daemon thread: its result, or a test failure when it
    has not returned in ``seconds``, so a wedged pool fails a test
    instead of hanging it."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"did not return within {seconds} s"
    if "error" in box:
        raise box["error"]
    return box.get("value")


@pytest.fixture
def within():
    """:func:`_within`: run a call that might hang under a time bound."""
    return _within
