"""L2DiskCache + TieredResultCache: atomicity, sharing, crash safety."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import solve
from repro.core.api import SolveResult, instance_key
from repro.core.delta import DeltaMeta, delta_meta_for
from repro.problems import MatrixChainProblem
from repro.problems.generators import random_matrix_chain
from repro.service import L2DiskCache, TieredResultCache


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
        path = tmp_path / "k.npz"
        path.write_bytes(b"not an npz archive")
        assert cache.get("k") is None
        assert not path.exists()  # the half-entry is never served twice

    def test_checksum_mismatch_is_miss(self, tmp_path):
        cache = L2DiskCache(tmp_path)
        cache.put("k", _result(4, 2.0))
        # rewrite the entry with a tampered table but the old metadata
        with np.load(tmp_path / "k.npz", allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"][()]))
            w = np.array(archive["w"])
        w[0, 0] += 1.0
        np.savez(tmp_path / "k.npz", w=w, meta=np.array(json.dumps(meta)))
        assert cache.get("k") is None
        assert not (tmp_path / "k.npz").exists()

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
        (tmp_path / "k.npz").unlink()
        assert list(cache.delta_candidates(meta.parent_key)) == []
        assert not (tmp_path / "by-parent" / meta.parent_key / "k").exists()

    def test_byte_budget_evicts_oldest(self, tmp_path):
        one = _result(8)
        cache = L2DiskCache(tmp_path, max_bytes=1)  # everything is over budget
        cache.put("a", one)
        assert cache.stats()["entries"] == 0 and cache.stats()["evictions"] >= 1

    def test_temp_files_are_neither_counted_nor_evicted(self, tmp_path):
        cache = L2DiskCache(tmp_path, max_bytes=3000)
        writing = tmp_path / ".tmp-k-123-cafebabe.npz"  # a live writer's
        writing.write_bytes(b"x" * 5000)
        old = time.time() - 60  # older than the entry, younger than stale
        os.utime(writing, (old, old))
        cache.put("a", _result(8))
        stats = cache.stats()
        entry = (tmp_path / "a.npz").stat().st_size
        assert (stats["entries"], stats["nbytes"]) == (1, entry) and entry < 3000
        assert stats["evictions"] == 0 and writing.exists()

    def test_stale_tmp_files_swept_on_init(self, tmp_path):
        stale = tmp_path / ".tmp-k-123-deadbeef.npz"
        fresh = tmp_path / ".tmp-k-124-cafebabe.npz"
        stale.write_bytes(b"x")
        fresh.write_bytes(b"x")
        old = time.time() - 3600
        os.utime(stale, (old, old))
        L2DiskCache(tmp_path)
        assert not stale.exists() and fresh.exists()


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
            while not list(tmp_path.glob("*.npz")) and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.05)  # let a few overwrite cycles run
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        reader = L2DiskCache(tmp_path)
        served = 0
        for path in sorted(tmp_path.glob("*.npz")):
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
        corpse = tmp_path / ".tmp-k-999-feedface.npz"
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
