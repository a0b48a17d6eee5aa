"""Unit tests for the execution backends."""

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from functools import partial

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
            out = be.map(partial(_tile_sum, data=data), [(0, 6)])
        assert out == [15.0]

    def test_thread_pool_released_on_exit(self):
        with make_backend("thread", workers=1) as be:
            pass
        with pytest.raises(RuntimeError):
            be.map(partial(_tile_sum, data=np.zeros(1)), [(0, 1)])


@pytest.mark.parametrize("backend_name", ["serial", "thread", "process"])
class TestMap:
    def test_results_in_order(self, backend_name):
        be = make_backend(backend_name, workers=2)
        data = np.arange(10.0)
        tiles = [(0, 3), (3, 7), (7, 10)]
        try:
            out = be.map(partial(_tile_sum, data=data), tiles)
        finally:
            be.close()
        assert out == [3.0, 18.0, 24.0]

    def test_empty_tiles(self, backend_name):
        be = make_backend(backend_name, workers=2)
        try:
            assert be.map(partial(_tile_sum, data=np.zeros(1)), []) == []
        finally:
            be.close()


class TestUnpicklablePayload:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_unpicklable_payload_runs_in_caller(self, start_method):
        """A closure payload cannot be pickled; under either start
        method the whole batch runs item by item in the calling process
        and starts no pool."""
        ran_in = []

        def hook(x):
            ran_in.append(os.getpid())
            return x + 41

        with ProcessBackend(workers=2, start_method=start_method) as be:
            out = be.map(partial(_call_hook, hook=hook), [0, 1])
            assert be.health()["started"] is False
        assert out == [41, 42]
        assert ran_in == [os.getpid(), os.getpid()]

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_one_unpicklable_item_keeps_the_batch_in_the_caller(self, start_method):
        """One item that will not pickle keeps every item of the batch
        in the caller, under either start method."""
        with ProcessBackend(workers=2, start_method=start_method) as be:
            out = be.map(_call_item, [lambda: os.getpid(), 7])
            assert be.health()["started"] is False
        assert out == [os.getpid(), 7]


class TestPickledItems:
    def test_each_item_is_pickled_once(self, monkeypatch):
        """``map`` pickles each item once, in the caller, and sends the
        bytes: the pool pickles only a pair of byte strings per item."""
        import pickle

        import repro.parallel.backends as backends

        counted = []
        dumps = pickle.dumps

        def counting_dumps(obj, *args, **kwargs):
            if isinstance(obj, _Counted):
                counted.append(obj.value)
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(backends.pickle, "dumps", counting_dumps)
        with ProcessBackend(workers=2, start_method="fork") as be:
            out = be.map(_counted_value, [_Counted(v) for v in range(5)])
        assert out == [0, 1, 2, 3, 4]
        assert sorted(counted) == [0, 1, 2, 3, 4]

    def test_items_run_in_the_workers(self):
        with ProcessBackend(workers=2, start_method="fork") as be:
            pids = set(be.map(_worker_pid, range(8)))
            assert pids <= set(be.worker_pids())
        assert os.getpid() not in pids


class TestOneTransport:
    @pytest.mark.parametrize(
        "module", ["repro.service.server", "repro.cli", "repro.core", "repro.parallel"]
    )
    def test_import_leaves_shared_memory_out(self, module):
        """Work crosses into pool workers pickled, so no module imports
        ``multiprocessing.shared_memory`` (checked in a fresh
        interpreter)."""
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        code = f"import sys, {module}; print('multiprocessing.shared_memory' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestProcessBackendConcurrency:
    def test_concurrent_maps_do_not_cross_arrays(self):
        """Threads fanning out maps with different payloads over one
        pool each get back their own results."""
        from concurrent.futures import ThreadPoolExecutor

        a = np.arange(10.0)
        b = np.arange(10.0) * 2

        with ProcessBackend(workers=2) as be:

            def run(data):
                return be.map(partial(_tile_sum, data=data), [(0, 5), (5, 10)])

            with ThreadPoolExecutor(4) as ex:
                futures = [ex.submit(run, a if i % 2 == 0 else b) for i in range(8)]
                results = [f.result() for f in futures]
        for i, res in enumerate(results):
            data = a if i % 2 == 0 else b
            assert res == pytest.approx([data[:5].sum(), data[5:].sum()])


def _waiting_on_the_task_lock(pid: int) -> bool:
    """An idle pool worker either reads the task pipe, holding the
    queue's read lock, or waits for that lock: True for the waiter."""
    with open(f"/proc/{pid}/wchan") as fh:
        return "pipe" not in fh.read()


class TestWorkerReplacement:
    @pytest.mark.skipif(
        not os.path.exists(f"/proc/{os.getpid()}/wchan"), reason="needs /proc wchan"
    )
    def test_a_dead_worker_is_replaced_on_the_next_lease(self):
        """A killed worker (one not holding the task queue's read lock:
        a worker killed while it holds it wedges the pool) is replaced
        on the next lease, and the pool runs batches again."""
        with ProcessBackend(workers=2, start_method="fork") as be:
            pids = be.worker_pids()
            deadline = time.monotonic() + 10.0
            while not any(map(_waiting_on_the_task_lock, pids)):
                assert time.monotonic() < deadline, "no worker waits for the lock"
                time.sleep(0.02)
            victim = next(p for p in pids if _waiting_on_the_task_lock(p))
            os.kill(victim, signal.SIGKILL)
            while be.health()["alive"] and victim in be.worker_pids():
                assert time.monotonic() < deadline, "the killed worker lives on"
                time.sleep(0.02)
            with be.lease():
                assert be.health()["alive"] is True
                assert sorted(be.map(_square, range(6))) == [0, 1, 4, 9, 16, 25]
                assert victim not in be.worker_pids()

    def test_pool_revives_after_close(self):
        with ProcessBackend(workers=1) as be:
            first = be.map(_worker_pid, [0])
            be.close()
            assert be.health()["started"] is False
            second = be.map(_worker_pid, [0])
        assert os.getpid() not in first + second and first != second


def _mark_and_sleep(path):
    """Name this worker in ``path`` (atomically), then stay busy."""
    with open(path + ".tmp", "w") as fh:
        fh.write(str(os.getpid()))
    os.replace(path + ".tmp", path)
    time.sleep(30)


class TestWorkerDeath:
    """A dead worker breaks the pool instead of wedging it: the map in
    flight raises, ``close()`` returns, and the next lease answers."""

    @pytest.mark.skipif(
        not os.path.exists(f"/proc/{os.getpid()}/wchan"), reason="needs /proc wchan"
    )
    def test_a_killed_task_pipe_reader_does_not_wedge_the_pool(self, within):
        """The idle worker reading the task pipe holds the queue's read
        lock; killing it must not block the next lease or close()."""
        be = ProcessBackend(workers=2, start_method="fork")
        try:
            pids = be.worker_pids()
            deadline = time.monotonic() + 10.0
            while all(map(_waiting_on_the_task_lock, pids)):
                assert time.monotonic() < deadline, "no worker reads the task pipe"
                time.sleep(0.02)
            reader = next(p for p in pids if not _waiting_on_the_task_lock(p))
            os.kill(reader, signal.SIGKILL)
            while be.health()["alive"]:
                assert time.monotonic() < deadline, "the killed worker lives on"
                time.sleep(0.02)

            def next_lease():
                with be.lease():
                    return sorted(be.map(_square, range(6)))

            assert within(10, next_lease) == [0, 1, 4, 9, 16, 25]
            assert reader not in be.worker_pids()
        finally:
            within(10, be.close)

    def test_a_worker_killed_mid_map_fails_the_map(self, tmp_path, within):
        be = ProcessBackend(workers=2, start_method="fork")
        try:
            marks = [str(tmp_path / "a"), str(tmp_path / "b")]
            failure = {}

            def run():
                try:
                    be.map(_mark_and_sleep, marks)
                except BackendError as exc:
                    failure["error"] = exc

            mapper = threading.Thread(target=run, daemon=True)
            mapper.start()
            deadline = time.monotonic() + 10.0
            while not any(os.path.exists(m) for m in marks):
                assert time.monotonic() < deadline, "no task started"
                time.sleep(0.02)
            busy = next(m for m in marks if os.path.exists(m))
            with open(busy) as fh:
                os.kill(int(fh.read()), signal.SIGKILL)
            mapper.join(10)
            assert not mapper.is_alive(), "the map waited on a dead worker"
            assert isinstance(failure.get("error"), BackendError)

            def next_lease():
                with be.lease():
                    return be.map(_square, [3, 4])

            assert within(10, next_lease) == [9, 16]
        finally:
            within(10, be.close)


class _Counted:
    """A picklable item whose pickling ``map`` can count."""

    def __init__(self, value):
        self.value = value


def _counted_value(item):
    return item.value


def _worker_pid(_item):
    return os.getpid()


def _square(x):
    return x * x


def _call_item(item):
    """Call the item when it is callable (a closure), else return it."""
    return item() if callable(item) else item


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
                [(action, wakeup_fd)] = be.map(_sigterm_state, [0])
        finally:
            signal.set_wakeup_fd(previous_fd)
            signal.signal(signal.SIGTERM, previous)
            reader.close()
            writer.close()
        assert action == signal.SIG_DFL
        assert wakeup_fd == -1
