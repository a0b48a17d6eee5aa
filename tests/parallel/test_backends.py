"""Unit tests for the execution backends."""

import os
import signal
import socket

import numpy as np
import pytest

from repro.errors import BackendError
from repro.parallel.backends import (
    BACKEND_NAMES,
    START_METHODS,
    ProcessBackend,
    ThreadBackend,
    make_backend,
)


def _tile_sum(tile, *, data):
    lo, hi = tile
    return float(data[lo:hi].sum())


class TestFactory:
    def test_names(self):
        assert make_backend("serial").name == "serial"
        assert make_backend("thread", workers=2).name == "thread"

    def test_unknown(self):
        with pytest.raises(BackendError):
            make_backend("gpu")

    def test_unknown_error_lists_valid_choices(self):
        with pytest.raises(BackendError) as err:
            make_backend("gpu")
        for name in BACKEND_NAMES:
            assert name in str(err.value)

    def test_invalid_workers(self):
        with pytest.raises(BackendError):
            ThreadBackend(workers=0)

    def test_unknown_start_method_lists_choices(self):
        with pytest.raises(BackendError) as err:
            make_backend("process", start_method="greenlet")
        for name in START_METHODS:
            assert name in str(err.value)

    def test_start_method_rejected_for_non_process(self):
        with pytest.raises(BackendError, match="process"):
            make_backend("thread", start_method="fork")


class TestContextManager:
    @pytest.mark.parametrize("backend_name", ["serial", "thread", "process"])
    def test_with_block_closes(self, backend_name):
        data = np.arange(6.0)
        with make_backend(backend_name, workers=2) as be:
            out = be.map_with_arrays(_tile_sum, [(0, 6)], {"data": data})
        assert out == [15.0]

    def test_thread_pool_released_on_exit(self):
        with make_backend("thread", workers=1) as be:
            pass
        with pytest.raises(RuntimeError):
            be.map_with_arrays(_tile_sum, [(0, 1)], {"data": np.zeros(1)})


@pytest.mark.parametrize("backend_name", ["serial", "thread", "process"])
class TestMapWithArrays:
    def test_results_in_order(self, backend_name):
        be = make_backend(backend_name, workers=2)
        data = np.arange(10.0)
        tiles = [(0, 3), (3, 7), (7, 10)]
        try:
            out = be.map_with_arrays(_tile_sum, tiles, {"data": data})
        finally:
            be.close()
        assert out == [3.0, 18.0, 24.0]

    def test_empty_tiles(self, backend_name):
        be = make_backend(backend_name, workers=2)
        try:
            assert be.map_with_arrays(_tile_sum, [], {"data": np.zeros(1)}) == []
        finally:
            be.close()


class TestUnpicklablePayload:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_unpicklable_payload_runs_in_caller(self, start_method):
        """A closure payload cannot be pickled into a store blob; under
        either start method it runs tile by tile in the calling process
        and starts no pool."""
        ran_in = []

        def hook(x):
            ran_in.append(os.getpid())
            return x + 41

        with ProcessBackend(workers=2, start_method=start_method) as be:
            out = be.map_with_arrays(_call_hook, [0, 1], {"hook": hook})
            assert be.health()["started"] is False
        assert out == [41, 42]
        assert ran_in == [os.getpid(), os.getpid()]


class TestProcessBackendConcurrency:
    def test_concurrent_maps_do_not_cross_arrays(self):
        """Threads fanning out process maps with different keyword sets
        on one backend must each get back their own arrays: every map
        call owns a separate table store, so concurrent calls cannot
        interleave payloads."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.parallel.backends import ProcessBackend

        be = ProcessBackend(workers=2)
        a = np.arange(10.0)
        b = np.arange(10.0) * 2

        def run(arrays, key):
            return be.map_with_arrays(
                _tile_sum_keyed, [(0, 5), (5, 10)], {key: arrays}
            )

        with ThreadPoolExecutor(4) as ex:
            futures = [
                ex.submit(run, a, "alpha") if i % 2 == 0 else ex.submit(run, b, "beta")
                for i in range(8)
            ]
            results = [f.result() for f in futures]
        for i, res in enumerate(results):
            expected = [a[:5].sum(), a[5:].sum()] if i % 2 == 0 else [b[:5].sum(), b[5:].sum()]
            assert res == pytest.approx(expected)


def _tile_sum_keyed(tile, **arrays):
    """Sum over whichever single keyword array arrives (module-level so
    the process backend can pickle a reference)."""
    ((_, data),) = arrays.items()
    lo, hi = tile
    return float(data[lo:hi].sum())


def _call_hook(tile, *, hook):
    """Apply an (unpicklable) callable payload — exercises the
    in-caller path of the process backend."""
    return hook(tile)


def _ignore_sigterm(signum, frame):
    """A caller's own SIGTERM handler (module-level so a worker can
    pickle a reference to it back)."""


def _sigterm_state(tile):
    """The SIGTERM action and wakeup fd the worker found, both reset to
    the defaults afterwards, so the pool can be terminated either way."""
    action = signal.signal(signal.SIGTERM, signal.SIG_DFL)
    return action, signal.set_wakeup_fd(-1)


class TestWorkerSignals:
    @pytest.mark.skipif("fork" not in START_METHODS, reason="needs fork")
    def test_fork_workers_start_with_default_sigterm(self):
        """A caller's SIGTERM handler and wakeup fd do not reach a
        fork-started worker: with them, a worker could miss the SIGTERM
        of ``Pool.terminate()`` and ``close()`` would wait forever."""
        reader, writer = socket.socketpair()
        writer.setblocking(False)
        previous = signal.signal(signal.SIGTERM, _ignore_sigterm)
        previous_fd = signal.set_wakeup_fd(writer.fileno())
        try:
            with ProcessBackend(workers=1, start_method="fork") as be:
                [(action, wakeup_fd)] = be.map_with_arrays(_sigterm_state, [0], {})
        finally:
            signal.set_wakeup_fd(previous_fd)
            signal.signal(signal.SIGTERM, previous)
            reader.close()
            writer.close()
        assert action == signal.SIG_DFL
        assert wakeup_fd == -1
