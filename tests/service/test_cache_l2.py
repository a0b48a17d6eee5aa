"""L2DiskCache + TieredResultCache: atomicity, sharing, crash safety."""

import hashlib
import json
import os
import pickle
import struct
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.core import solve
from repro.core.api import SolveResult, instance_key
from repro.core.delta import DeltaMeta, delta_meta_for
from repro.problems import MatrixChainProblem
from repro.problems.generators import random_matrix_chain
from repro.service import L2DiskCache, TieredResultCache
from repro.service import cache as cache_module


def _result(n: int, value: float = 1.0) -> SolveResult:
    return SolveResult(
        method="sequential",
        value=value,
        w=np.full((n + 1, n + 1), value),
        algebra="min_plus",
    )


class TestL2Disk:
    def test_roundtrip(self, tmp_path):
        cache = L2DiskCache(tmp_path)
        cache.put("k", _result(4, 7.0))
        hit = cache.get("k")
        assert hit is not None and hit.value == 7.0
        np.testing.assert_array_equal(hit.w, _result(4, 7.0).w)
        assert "k" in cache
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["writes"] == 1
        assert stats["hits"] == 1

    def test_miss_counts(self, tmp_path):
        cache = L2DiskCache(tmp_path)
        assert cache.get("absent") is None
        assert cache.stats()["misses"] == 1

    def test_shared_across_instances(self, tmp_path):
        L2DiskCache(tmp_path).put("k", _result(4, 3.0))
        # a second instance on the same directory (a "respawned shard")
        # sees the entry written by the first
        other = L2DiskCache(tmp_path)
        hit = other.get("k")
        assert hit is not None and hit.value == 3.0

    def test_corrupt_entry_is_miss_and_removed(self, tmp_path):
        cache = L2DiskCache(tmp_path)
        cache.put("k", _result(4))
        path = tmp_path / "k.l2"
        path.write_bytes(b"not an L2 entry")
        assert cache.get("k") is None
        assert not path.exists()  # the half-entry is never served twice

    def test_checksum_mismatch_is_miss(self, tmp_path):
        cache = L2DiskCache(tmp_path)
        cache.put("k", _result(4, 2.0))
        # rewrite the entry with a tampered table but the old header
        # and metadata (the table is the file's last 5 x 5 floats)
        data = bytearray((tmp_path / "k.l2").read_bytes())
        w = np.frombuffer(data, "<f8", 25, len(data) - 25 * 8)
        w[0] += 1.0
        (tmp_path / "k.l2").write_bytes(data)
        assert cache.get("k") is None
        assert not (tmp_path / "k.l2").exists()

    def test_tree_results_are_not_written(self, tmp_path):
        cache = L2DiskCache(tmp_path)
        r = solve(
            MatrixChainProblem([10, 20, 5, 30]), method="sequential",
            reconstruct=True,
        )
        assert r.tree is not None
        cache.put("k", r)
        assert "k" not in cache

    def test_delta_index_roundtrip(self, tmp_path):
        cache = L2DiskCache(tmp_path)
        problem = MatrixChainProblem([10, 20, 5, 30])
        meta = delta_meta_for(problem, method="sequential")
        cache.put("k", _result(3, 4.0), delta=meta)
        got = list(cache.delta_candidates(meta.parent_key))
        assert len(got) == 1
        weights, result = got[0]
        np.testing.assert_array_equal(weights, meta.weights)
        assert result.value == 4.0

    def test_dead_marker_is_garbage_collected(self, tmp_path):
        cache = L2DiskCache(tmp_path)
        meta = DeltaMeta(parent_key="p" * 32, weights=np.arange(4))
        cache.put("k", _result(3), delta=meta)
        (tmp_path / "k.l2").unlink()
        assert list(cache.delta_candidates(meta.parent_key)) == []
        assert not (tmp_path / "by-parent" / meta.parent_key / "k").exists()

    def test_byte_budget_evicts_oldest(self, tmp_path):
        one = _result(8)
        cache = L2DiskCache(tmp_path, max_bytes=1)  # everything is over budget
        cache.put("a", one)
        assert cache.stats()["entries"] == 0 and cache.stats()["evictions"] >= 1

    def test_temp_files_are_neither_counted_nor_evicted(self, tmp_path):
        cache = L2DiskCache(tmp_path, max_bytes=3000)
        writing = tmp_path / ".tmp-k-123-cafebabe.l2"  # a live writer's
        writing.write_bytes(b"x" * 5000)
        old = time.time() - 60  # older than the entry, younger than stale
        os.utime(writing, (old, old))
        cache.put("a", _result(8))
        stats = cache.stats()
        entry = (tmp_path / "a.l2").stat().st_size
        assert (stats["entries"], stats["nbytes"]) == (1, entry) and entry < 3000
        assert stats["evictions"] == 0 and writing.exists()

    def test_stale_tmp_files_swept_on_init(self, tmp_path):
        stale = tmp_path / ".tmp-k-123-deadbeef.l2"
        fresh = tmp_path / ".tmp-k-124-cafebabe.l2"
        stale.write_bytes(b"x")
        fresh.write_bytes(b"x")
        old = time.time() - 3600
        os.utime(stale, (old, old))
        L2DiskCache(tmp_path)
        assert not stale.exists() and fresh.exists()


def _published(directory):
    """A cache holding one entry with delta weights: the cache, the
    entry's delta meta, its path and its bytes."""
    cache = L2DiskCache(directory)
    meta = DeltaMeta(parent_key="p" * 32, weights=np.array([3, 9, 2, 7]))
    cache.put("k", _result(3, 4.0), delta=meta)
    path = Path(directory) / "k.l2"
    return cache, meta, path, path.read_bytes()


def _forge(meta: dict, payload: bytes) -> bytes:
    """An entry in the documented layout whose digest is correct for
    whatever ``meta`` and ``payload`` say."""
    text = json.dumps(meta).encode()
    body = struct.pack("<Q", len(text)) + text + payload
    return cache_module._MAGIC + hashlib.blake2b(body, digest_size=16).digest() + body


def _forged_meta(**overrides) -> dict:
    meta = {
        "method": "sequential", "value": 2.0, "iterations": None,
        "algebra": "min_plus", "parent": "p" * 32, "shape": [4, 4],
        "weights_dtype": "<i8", "weights_shape": [4],
    }
    meta.update(overrides)
    return meta


_FORGED_PAYLOAD = np.full((4, 4), 2.0).tobytes() + np.arange(4).tobytes()


class TestEntryLayout:
    def test_hit_is_private_writable_and_keeps_weights(self, tmp_path):
        cache, meta, _, _ = _published(tmp_path)
        result, delta = cache.get_with_meta("k")
        np.testing.assert_array_equal(delta.weights, meta.weights)
        assert delta.weights.dtype == meta.weights.dtype
        # L1 keeps the weights: they must not pin the read buffer
        assert delta.weights.flags.owndata
        assert result.w.flags.writeable and result.w.dtype == np.float64
        result.w[0, 0] = -1.0
        assert cache.get("k").w[0, 0] == 4.0

    def test_every_byte_flip_is_a_miss_that_removes_the_file(self, tmp_path):
        cache, meta, path, good = _published(tmp_path)
        marker = tmp_path / "by-parent" / meta.parent_key / "k"
        for offset in range(len(good)):
            bad = bytearray(good)
            bad[offset] ^= 0xFF
            path.write_bytes(bad)
            assert cache.get("k") is None, offset
            assert not path.exists(), offset
            path.write_bytes(bad)
            marker.touch()
            assert list(cache.delta_candidates(meta.parent_key)) == [], offset
            assert not path.exists(), offset
        path.write_bytes(good)
        assert cache.get("k").value == 4.0

    def test_every_truncation_is_a_miss_that_removes_the_file(self, tmp_path):
        cache, _, path, good = _published(tmp_path)
        for length in range(len(good)):
            path.write_bytes(good[:length])
            assert cache.get("k") is None, length
            assert not path.exists(), length

    def test_forged_entry_loads(self, tmp_path):
        # the forgery above follows the documented layout
        (tmp_path / "k.l2").write_bytes(_forge(_forged_meta(), _FORGED_PAYLOAD))
        result, delta = L2DiskCache(tmp_path).get_with_meta("k")
        assert result.value == 2.0 and (result.w == 2.0).all()
        np.testing.assert_array_equal(delta.weights, np.arange(4))

    def test_meta_the_bytes_cannot_hold_is_a_miss_without_allocating(self, tmp_path):
        cache = L2DiskCache(tmp_path)
        path = tmp_path / "k.l2"
        for meta in (
            _forged_meta(shape=[4000, 4000]),  # 122 MiB claimed
            _forged_meta(weights_shape=[10**7]),
            _forged_meta(shape=[4, 5]),
            _forged_meta(shape=[3, 3]),  # leaves bytes unaccounted for
            _forged_meta(shape=[-4, -4]),
            _forged_meta(shape=[16]),
            _forged_meta(weights_dtype="<U2"),
            _forged_meta(weights_dtype="V8"),
        ):
            path.write_bytes(_forge(meta, _FORGED_PAYLOAD))
            tracemalloc.start()
            try:
                assert cache.get("k") is None, meta
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, meta
            assert not path.exists(), meta

    def test_object_dtype_is_a_miss_and_nothing_is_unpickled(
        self, tmp_path, monkeypatch
    ):
        payload = np.full((4, 4), 2.0).tobytes() + pickle.dumps(0)[:8].ljust(8)
        unpickled = []

        def refuse(*args, **kwargs):
            unpickled.append(args)
            raise AssertionError("an L2 read unpickled")

        monkeypatch.setattr(pickle, "loads", refuse)
        monkeypatch.setattr(pickle, "load", refuse)
        cache = L2DiskCache(tmp_path)
        path = tmp_path / "k.l2"
        marker = tmp_path / "by-parent" / ("p" * 32) / "k"
        marker.parent.mkdir(parents=True)
        for dtype in ("|O", "O"):
            meta = _forged_meta(weights_dtype=dtype, weights_shape=[1])
            entry = _forge(meta, payload)
            path.write_bytes(entry)
            assert cache.get("k") is None
            assert not path.exists()
            path.write_bytes(entry)
            marker.touch()
            assert list(cache.delta_candidates("p" * 32)) == []
            assert not path.exists()
        assert unpickled == []

    def test_open_removes_previous_layout_entries(self, tmp_path):
        np.savez(tmp_path / "a.npz", w=np.zeros((3, 3)))
        (tmp_path / "b.npz").write_bytes(b"x" * 100)
        stale = tmp_path / ".tmp-c-1-deadbeef.npz"
        fresh = tmp_path / ".tmp-c-2-cafebabe.npz"
        stale.write_bytes(b"x")
        fresh.write_bytes(b"x")
        old = time.time() - 3600
        os.utime(stale, (old, old))
        cache = L2DiskCache(tmp_path)
        assert not (tmp_path / "a.npz").exists() and not (tmp_path / "b.npz").exists()
        assert not stale.exists() and fresh.exists()
        assert cache.stats()["entries"] == 0 and cache.get("a") is None


class TestLedger:
    def test_two_writers_stay_within_the_budget_plus_the_bound(
        self, tmp_path, monkeypatch
    ):
        every = 4
        monkeypatch.setattr(cache_module, "_RESCAN_EVERY", every)
        delta = DeltaMeta("p" * 32, np.arange(9))
        L2DiskCache(tmp_path / "probe").put("x", _result(8), delta=delta)
        size = (tmp_path / "probe" / "x.l2").stat().st_size
        budget = 10
        directory = tmp_path / "shared"
        writers = [L2DiskCache(directory, max_bytes=budget * size) for _ in range(2)]
        # what stats() must not count: a live writer's temp file, a
        # dotfile and the parent-index markers
        (directory / ".tmp-z-1-cafebabe.l2").write_bytes(b"x" * size)
        (directory / ".hidden.l2").write_bytes(b"x")
        start = time.time() - 1000
        keys = [f"k{i:03d}" for i in range(3 * budget)]
        for i, key in enumerate(keys):
            writers[i % 2].put(key, _result(8), delta=delta)
            # distinct mtimes in write order (file times are coarse)
            os.utime(directory / f"{key}.l2", (start + i, start + i))
            on_disk = sum(p.stat().st_size for p in directory.glob("[!.]*.l2"))
            # P = 2 processes share the directory, each K = 4 puts apart
            assert on_disk <= (budget + 2 * every) * size, i
        survivors = sorted(p.stem for p in directory.glob("[!.]*.l2"))
        assert survivors == keys[len(keys) - len(survivors):]  # oldest went first
        evictions = sum(w.stats()["evictions"] for w in writers)
        assert evictions == len(keys) - len(survivors)
        for writer in writers:
            stats = writer.stats()
            assert stats["entries"] == len(survivors)
            assert stats["nbytes"] == len(survivors) * size

    def test_puts_scan_only_at_rescans(self, tmp_path, monkeypatch):
        every = 4
        monkeypatch.setattr(cache_module, "_RESCAN_EVERY", every)
        scans = []  # the sweep flag of each directory scan
        original = L2DiskCache._scan

        def recording(self, sweep=False):
            scans.append(sweep)
            return original(self, sweep)

        monkeypatch.setattr(L2DiskCache, "_scan", recording)
        cache = L2DiskCache(tmp_path)
        assert scans == [True]  # the seed at open
        for i in range(2 * every):
            cache.put(f"k{i}", _result(4))
        assert scans == [True, False, False]  # one rescan per K puts
        small = L2DiskCache(tmp_path / "small", max_bytes=1)
        small.put("a", _result(4))  # over budget at once
        assert scans == [True, False, False, True, False]
        assert small.stats()["evictions"] == 1

    def test_at_budget_puts_rescan_only_past_the_low_water_mark(
        self, tmp_path, monkeypatch
    ):
        """A directory filled to exactly its budget: a rescan evicts down
        to 7/8 of it, so the following puts fit again instead of each
        crossing the budget and rescanning."""
        monkeypatch.setattr(cache_module, "_RESCAN_EVERY", 1000)
        L2DiskCache(tmp_path / "probe").put("x", _result(4))
        size = (tmp_path / "probe" / "x.l2").stat().st_size
        budget = 64
        directory = tmp_path / "full"
        cache = L2DiskCache(directory, max_bytes=budget * size)
        start = time.time() - 1000
        keys = [f"k{i:03d}" for i in range(budget + 32)]
        for i, key in enumerate(keys[:budget]):
            cache.put(key, _result(4))
            os.utime(directory / f"{key}.l2", (start + i, start + i))
        assert cache.stats()["evictions"] == 0
        scans = []
        original = L2DiskCache._scan

        def recording(self, sweep=False):
            scans.append(sweep)
            return original(self, sweep)

        monkeypatch.setattr(L2DiskCache, "_scan", recording)
        for i, key in enumerate(keys[budget:], start=budget):
            cache.put(key, _result(4))
            os.utime(directory / f"{key}.l2", (start + i, start + i))
        assert len(scans) == 4  # puts 1, 10, 19 and 28; each evicts 9
        survivors = sorted(p.stem for p in directory.glob("[!.]*.l2"))
        assert len(survivors) <= budget
        assert survivors == keys[len(keys) - len(survivors):]  # the newest


    def test_ledger_counts_every_concurrent_put(self, tmp_path):
        cache = L2DiskCache(tmp_path)
        threads, each = 8, 25  # fewer puts than K: no rescan resets the total

        def writer(t):
            for i in range(each):
                cache.put(f"t{t}-{i}", _result(4, float(i)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(threads) as pool:
                for future in [pool.submit(writer, t) for t in range(threads)]:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        stats = cache.stats()
        assert stats["writes"] == stats["entries"] == threads * each
        assert cache._ledger == stats["nbytes"]


class TestCrashConsistency:
    _WRITER = """
import sys, time
sys.path.insert(0, {src!r})
import numpy as np
from repro.core.api import SolveResult
from repro.service import L2DiskCache

cache = L2DiskCache({directory!r})
i = 0
print("ready", flush=True)
while True:
    # big-ish tables so a SIGKILL has a real chance to land mid-write
    r = SolveResult(method="sequential", value=float(i),
                    w=np.full((257, 257), float(i)), algebra="min_plus")
    cache.put(f"key{{i % 8}}", r)
    i += 1
"""

    def test_sigkill_mid_write_never_leaves_a_torn_entry(self, tmp_path):
        src = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", self._WRITER.format(src=src, directory=str(tmp_path))],
            stdout=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline().strip() == b"ready"
            deadline = time.monotonic() + 10.0
            while not list(tmp_path.glob("*.l2")) and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.05)  # let a few overwrite cycles run
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        reader = L2DiskCache(tmp_path)
        served = 0
        for path in sorted(tmp_path.glob("*.l2")):
            hit = reader.get(path.stem)
            if hit is None:
                continue  # a detected-and-discarded partial: acceptable
            # anything served must be internally consistent
            assert (hit.w == hit.value).all()
            served += 1
        assert served > 0, "the writer never published a complete entry"

    def test_respawned_reader_ignores_stale_tmp(self, tmp_path):
        cache = L2DiskCache(tmp_path)
        cache.put("k", _result(4, 5.0))
        # simulate a writer that died mid-stream long ago
        corpse = tmp_path / ".tmp-k-999-feedface.l2"
        corpse.write_bytes(b"partial")
        old = time.time() - 3600
        os.utime(corpse, (old, old))
        fresh = L2DiskCache(tmp_path)
        assert not corpse.exists()
        assert fresh.get("k").value == 5.0


class TestTiered:
    def test_put_writes_through_and_l1_serves(self, tmp_path):
        cache = TieredResultCache(tmp_path)
        cache.put("k", _result(4, 2.0))
        assert cache.get("k").value == 2.0
        stats = cache.stats()
        assert stats["l1"]["hits"] == 1 and stats["l2"]["hits"] == 0
        assert stats["l2"]["writes"] == 1

    def test_l2_hit_promotes_into_l1(self, tmp_path):
        TieredResultCache(tmp_path).put("k", _result(4, 3.0))
        fresh = TieredResultCache(tmp_path)  # empty L1, shared L2
        assert fresh.get("k").value == 3.0
        stats = fresh.stats()
        assert stats["l2"]["hits"] == 1
        assert fresh.get("k").value == 3.0  # now from L1
        assert fresh.stats()["l1"]["hits"] == 1

    def test_promotion_preserves_delta_indexing(self, tmp_path):
        problem = MatrixChainProblem([10, 20, 5, 30])
        meta = delta_meta_for(problem, method="sequential")
        TieredResultCache(tmp_path).put("k", _result(3, 4.0), delta=meta)
        fresh = TieredResultCache(tmp_path)
        fresh.get("k")  # promote
        got = list(fresh.l1.delta_candidates(meta.parent_key))
        assert len(got) == 1 and got[0][1].value == 4.0

    def test_candidates_merge_l1_and_l2_without_duplicates(self, tmp_path):
        metas = [
            delta_meta_for(MatrixChainProblem([10 + i, 20, 5, 30]), method="sequential")
            for i in range(3)
        ]
        parent = metas[0].parent_key
        writer = TieredResultCache(tmp_path)
        for i, meta in enumerate(metas):
            writer.put(f"k{i}", _result(3, float(i)), delta=meta)
        fresh = TieredResultCache(tmp_path)
        fresh.get("k0")  # k0 now lives in both tiers
        values = sorted(r.value for _, r in fresh.delta_candidates(parent))
        assert values == [0.0, 1.0, 2.0]

    def test_l2_probe_reads_only_keys_l1_did_not_yield(self, tmp_path, monkeypatch):
        metas = [
            delta_meta_for(MatrixChainProblem([10 + i, 20, 5, 30]), method="sequential")
            for i in range(3)
        ]
        parent = metas[0].parent_key
        writer = TieredResultCache(tmp_path)
        for i, meta in enumerate(metas):
            writer.put(f"k{i}", _result(3, float(i)), delta=meta)
        fresh = TieredResultCache(tmp_path)
        fresh.get("k0")  # k0 now lives in both tiers
        loads = []
        original = L2DiskCache._load

        def counting(self, path):
            loads.append(path.name)
            return original(self, path)

        monkeypatch.setattr(L2DiskCache, "_load", counting)
        values = sorted(r.value for _, r in fresh.delta_candidates(parent))
        assert values == [0.0, 1.0, 2.0]
        assert sorted(loads) == ["k1.l2", "k2.l2"]

    def test_probe_passes_over_a_marker_whose_stat_fails(self, tmp_path):
        cache = L2DiskCache(tmp_path)
        parent = "p" * 32
        for i in range(2):
            meta = DeltaMeta(parent_key=parent, weights=np.arange(4) + i)
            cache.put(f"k{i}", _result(3, float(i)), delta=meta)
        # stat of a dangling symlink raises, as it does for a marker that
        # another shard collects between the listing and the stat
        (tmp_path / "by-parent" / parent / "gone").symlink_to(tmp_path / "nowhere")
        values = sorted(r.value for _, r in cache.delta_candidates(parent))
        assert values == [0.0, 1.0]

    def test_clear_keeps_l2(self, tmp_path):
        cache = TieredResultCache(tmp_path)
        cache.put("k", _result(4, 6.0))
        cache.clear()
        assert len(cache.l1) == 0
        assert cache.get("k").value == 6.0  # re-served from disk

    def test_flat_stats_shape_for_fleet_aggregation(self, tmp_path):
        cache = TieredResultCache(tmp_path)
        cache.put("k", _result(4))
        cache.get("k")
        cache.get("absent")
        stats = cache.stats()
        for key in ("entries", "nbytes", "max_bytes", "hits", "misses",
                    "hit_rate", "evictions", "lifetime", "l1", "l2"):
            assert key in stats
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_solve_hook_and_delta_through_tiers(self, tmp_path):
        cache = TieredResultCache(tmp_path)
        parent = random_matrix_chain(12, seed=4)
        solve(parent, method="sequential", cache=cache)
        dims = parent.delta_weights()
        dims[-1] += 2
        child = MatrixChainProblem([int(x) for x in dims])
        # a fresh tiered cache on the same directory: the delta parent
        # must be discoverable from disk alone
        fresh = TieredResultCache(tmp_path)
        via_cache = solve(child, method="sequential", cache=fresh)
        cold = solve(child, method="sequential")
        assert via_cache.value == cold.value
        np.testing.assert_array_equal(via_cache.w, cold.w)
        # solve() folds reconstruct into its cache key
        key = instance_key(child, method="sequential", reconstruct=False)
        assert key in fresh  # the delta answer was re-cached
