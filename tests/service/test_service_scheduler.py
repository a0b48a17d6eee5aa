"""CoalescingScheduler: dedup, group-commit batching, error isolation."""

import asyncio
import threading

import numpy as np
import pytest

from repro.core.api import SolveResult
from repro.problems import MatrixChainProblem
from repro.service import CoalescingScheduler, LocalClient, ResultCache
from repro.service import scheduler as scheduler_module
from repro.service.scheduler import ServiceClosedError


class RecordingRunner:
    """Runner double: records every batch, answers with stub results."""

    def __init__(self, fail_on=None):
        self.batches = []
        self.fail_on = fail_on  # problem n values that should "fail"

    def __call__(self, items):
        self.batches.append(items)
        out = []
        for problem, method, kwargs in items:
            if self.fail_on and problem.n in self.fail_on:
                out.append(ValueError(f"boom n={problem.n}"))
            else:
                out.append(
                    SolveResult(
                        method=method,
                        value=float(problem.n),
                        w=np.zeros((problem.n + 1, problem.n + 1)),
                    )
                )
        return out


class GatedRunner(RecordingRunner):
    """A RecordingRunner whose batches wait until ``release`` is set."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()

    def __call__(self, items):
        assert self.release.wait(timeout=5.0), "test never released the runner"
        return super().__call__(items)


def chain(*dims):
    return MatrixChainProblem(list(dims))


def sized(n):
    """A chain of ``n`` matrices; the stub runners answer ``n``."""
    return chain(*range(2, n + 3))


def batch_sizes(runner):
    """Each batch the runner saw, as the ``n`` of its problems."""
    return [[problem.n for problem, _, _ in batch] for batch in runner.batches]


def run(coro):
    return asyncio.run(coro)


class TestCoalescing:
    def test_duplicates_share_one_solve(self):
        runner = RecordingRunner()

        async def main():
            sched = CoalescingScheduler(runner, max_batch=16)
            p = chain(10, 20, 5, 30)
            outcomes = await asyncio.gather(
                *(sched.submit(p, "huang", {}) for _ in range(5))
            )
            await sched.close()
            return outcomes

        outcomes = run(main())
        assert len(runner.batches) == 1 and len(runner.batches[0]) == 1
        sources = sorted(source for _, source in outcomes)
        assert sources == ["batch"] + ["coalesced"] * 4
        assert {result.value for result, _ in outcomes} == {3.0}

    def test_distinct_requests_batch_together(self):
        runner = RecordingRunner()

        async def main():
            sched = CoalescingScheduler(runner, max_batch=16)
            problems = [chain(*(10 + i, 20, 5, 30)) for i in range(4)]
            await asyncio.gather(*(sched.submit(p, "huang", {}) for p in problems))
            await sched.close()

        run(main())
        assert len(runner.batches) == 1 and len(runner.batches[0]) == 4

    def test_max_batch_flushes_early(self):
        runner = RecordingRunner()

        async def main():
            sched = CoalescingScheduler(runner, max_batch=2)
            problems = [chain(10 + i, 20, 5, 30) for i in range(4)]
            await asyncio.gather(*(sched.submit(p, "huang", {}) for p in problems))
            await sched.close()

        run(main())
        assert all(len(batch) <= 2 for batch in runner.batches)
        assert sum(len(b) for b in runner.batches) == 4

    def test_deadline_flushes_partial_batch(self):
        runner = RecordingRunner()

        async def main():
            sched = CoalescingScheduler(runner, max_batch=64)
            result, source = await sched.submit(chain(10, 20, 5), "huang", {})
            await sched.close()
            return result, source

        result, source = run(main())
        assert source == "batch" and result.value == 2.0


class TestGroupCommit:
    """On a one-worker runner no timer: an idle scheduler runs a request
    at once, and whatever arrives while a batch runs forms the next
    batch."""

    def test_lone_request_executes_without_waiting(self):
        runner = GatedRunner()

        async def main():
            sched = CoalescingScheduler(runner, max_batch=16)
            task = asyncio.ensure_future(sched.submit(sized(2), "huang", {}))
            await asyncio.sleep(0)  # the submit queues it and starts the drain
            await asyncio.sleep(0)  # the drain detaches it into a batch
            executing = sched.stats()["executing"]
            runner.release.set()
            await task
            await sched.close()
            return executing

        assert run(main()) == 1

    def test_arrivals_during_a_batch_form_the_next_batch(self):
        """Distinct arrivals form exactly one next batch, in arrival
        order; a duplicate of the running entry joins it, and a
        duplicate of a pending entry joins that one."""
        runner = GatedRunner()

        async def main():
            sched = CoalescingScheduler(runner, max_batch=16)
            running = asyncio.ensure_future(sched.submit(sized(2), "huang", {}))
            while sched.stats()["executing"] == 0:
                await asyncio.sleep(0.001)
            later = [
                asyncio.ensure_future(sched.submit(sized(n), "huang", {}))
                for n in (3, 4, 5, 2, 3)
            ]
            await asyncio.sleep(0.01)
            mid = sched.stats()
            runner.release.set()
            outcomes = await asyncio.gather(running, *later)
            await sched.close()
            return mid, outcomes

        mid, outcomes = run(main())
        assert batch_sizes(runner) == [[2], [3, 4, 5]]
        assert mid["executing"] == 1 and mid["pending"] == 3
        assert mid["coalesced"] == 2
        assert [(r.value, source) for r, source in outcomes] == [
            (2.0, "batch"), (3.0, "batch"), (4.0, "batch"), (5.0, "batch"),
            (2.0, "coalesced"), (3.0, "coalesced"),
        ]

    def test_backlog_drains_in_max_batch_slices(self):
        """A backlog of 2 * max_batch + 1 runs as max_batch, max_batch,
        1 — and once idle, no scheduler task is left."""
        runner = RecordingRunner()

        async def main():
            sched = CoalescingScheduler(runner, max_batch=3)
            await asyncio.gather(
                *(sched.submit(sized(n), "huang", {}) for n in range(2, 9))
            )
            leftover = asyncio.all_tasks() - {asyncio.current_task()}
            await sched.close()
            return leftover

        assert run(main()) == set()
        assert batch_sizes(runner) == [[2, 3, 4], [5, 6, 7], [8]]


class TestPoolGather:
    """On a pool, a batch starting from idle short of max_batch waits
    for company; a full one starts at once."""

    def test_underfilled_pool_batch_waits_for_company(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "_GATHER_S", 0.2)
        runner = RecordingRunner()

        async def main():
            sched = CoalescingScheduler(runner, max_batch=16, workers=4)
            first = asyncio.ensure_future(sched.submit(sized(2), "huang", {}))
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            gathering = sched.stats()
            later = [
                asyncio.ensure_future(sched.submit(sized(n), "huang", {}))
                for n in (3, 4)
            ]
            await asyncio.gather(first, *later)
            await sched.close()
            return gathering

        gathering = run(main())
        assert gathering["executing"] == 0 and gathering["pending"] == 1
        assert batch_sizes(runner) == [[2, 3, 4]]

    def test_full_batch_starts_at_once(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "_GATHER_S", 10.0)
        runner = GatedRunner()

        async def main():
            sched = CoalescingScheduler(runner, max_batch=3, workers=4)
            burst = [
                asyncio.ensure_future(sched.submit(sized(n), "huang", {}))
                for n in (2, 3, 4)
            ]
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            executing = sched.stats()["executing"]
            runner.release.set()
            await asyncio.gather(*burst)
            await sched.close()
            return executing

        assert run(main()) == 3
        assert batch_sizes(runner) == [[2, 3, 4]]

    def test_service_passes_its_pool_width(self):
        with LocalClient(backend="thread", workers=3) as client:
            assert client.service.scheduler.workers == 3
        with LocalClient(backend="serial") as client:
            assert client.service.scheduler.workers == 1


class TestExecutingJoin:
    def test_late_duplicate_joins_executing_batch(self):
        """The coalescing gap: a duplicate arriving after its twin was
        detached into the in-flight batch must join that solve, not
        re-solve from scratch."""
        release = threading.Event()
        batches = []

        def runner(items):
            batches.append(items)
            assert release.wait(timeout=5.0), "test never released the runner"
            return [
                SolveResult(
                    method=method,
                    value=float(problem.n),
                    w=np.zeros((problem.n + 1, problem.n + 1)),
                )
                for problem, method, _ in items
            ]

        async def main():
            sched = CoalescingScheduler(runner, max_batch=4)
            p = chain(10, 20, 5, 30)
            first = asyncio.ensure_future(sched.submit(p, "huang", {}))
            while sched.stats()["executing"] == 0:  # batch now in flight
                await asyncio.sleep(0.001)
            late = asyncio.ensure_future(sched.submit(p, "huang", {}))
            await asyncio.sleep(0.02)  # the duplicate reaches the join
            stats_mid = sched.stats()
            release.set()
            outcomes = await asyncio.gather(first, late)
            await sched.close()
            return outcomes, stats_mid

        (first, late), stats_mid = run(main())
        assert len(batches) == 1 and len(batches[0]) == 1  # one solve total
        assert first[1] == "batch" and late[1] == "coalesced"
        assert first[0].value == late[0].value
        assert stats_mid["executing"] == 1 and stats_mid["pending"] == 0

    def test_duplicate_after_results_land_is_a_fresh_solve(self):
        """Once a batch's results land the executing index is empty: a
        later duplicate without a cache re-solves (no stale joins)."""
        runner = RecordingRunner()

        async def main():
            sched = CoalescingScheduler(runner, max_batch=4)
            p = chain(10, 20, 5, 30)
            _, s1 = await sched.submit(p, "huang", {})
            _, s2 = await sched.submit(p, "huang", {})
            await sched.close()
            return s1, s2

        assert run(main()) == ("batch", "batch")
        assert len(runner.batches) == 2


class TestDeltaRide:
    def test_delta_candidate_rides_batch(self):
        """A miss whose cached sibling differs only in a weight suffix
        is answered by the in-batch delta probe, not the cold runner."""
        runner = RecordingRunner()
        cache = ResultCache()

        async def main():
            sched = CoalescingScheduler(runner, max_batch=4, cache=cache)
            _, s1 = await sched.submit(chain(10, 20, 5, 30), "huang", {})
            _, s2 = await sched.submit(chain(10, 20, 5, 31), "huang", {})
            _, s3 = await sched.submit(chain(10, 20, 5, 31), "huang", {})
            stats = sched.stats()
            await sched.close()
            return (s1, s2, s3), stats

        (s1, s2, s3), stats = run(main())
        assert (s1, s2, s3) == ("batch", "delta", "cache")
        assert stats["delta_hits"] == 1 and stats["cache_hits"] == 1
        # only the parent went through the runner; the sibling did not
        assert sum(len(b) for b in runner.batches) == 1

    def test_delta_result_is_recached(self):
        runner = RecordingRunner()
        cache = ResultCache()

        async def main():
            sched = CoalescingScheduler(runner, max_batch=4, cache=cache)
            await sched.submit(chain(10, 20, 5, 30), "huang", {})
            await sched.submit(chain(10, 20, 5, 31), "huang", {})
            await sched.close()

        run(main())
        assert cache.stats()["entries"] == 2


class TestCacheFront:
    def test_second_wave_hits_cache(self):
        runner = RecordingRunner()
        cache = ResultCache()

        async def main():
            sched = CoalescingScheduler(runner, max_batch=8, cache=cache)
            p = chain(10, 20, 5, 30)
            _, first = await sched.submit(p, "huang", {})
            _, second = await sched.submit(p, "huang", {})
            await sched.close()
            return first, second

        first, second = run(main())
        assert (first, second) == ("batch", "cache")
        assert len(runner.batches) == 1
        assert cache.stats()["hits"] == 1 and cache.stats()["entries"] == 1


class TestFailureAndLifecycle:
    def test_per_item_errors_stay_isolated(self):
        runner = RecordingRunner(fail_on={4})

        async def main():
            sched = CoalescingScheduler(runner, max_batch=16)
            good = sched.submit(chain(10, 20, 5, 30), "huang", {})       # n=3
            bad = sched.submit(chain(10, 20, 5, 30, 7), "huang", {})     # n=4
            results = await asyncio.gather(good, bad, return_exceptions=True)
            await sched.close()
            return results

        ok, err = run(main())
        assert ok[0].value == 3.0
        assert isinstance(err, ValueError) and "boom" in str(err)

    def test_runner_crash_fails_every_waiter(self):
        def exploding(items):
            raise RuntimeError("pool died")

        async def main():
            sched = CoalescingScheduler(exploding, max_batch=8)
            results = await asyncio.gather(
                sched.submit(chain(10, 20, 5), "huang", {}),
                sched.submit(chain(10, 20, 5, 30), "huang", {}),
                return_exceptions=True,
            )
            await sched.close()
            return results

        results = run(main())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_submit_after_close_raises(self):
        runner = RecordingRunner()

        async def main():
            sched = CoalescingScheduler(runner)
            await sched.close()
            with pytest.raises(ServiceClosedError):
                await sched.submit(chain(10, 20, 5), "huang", {})

        run(main())

    def test_stats_shape(self):
        runner = RecordingRunner()

        async def main():
            sched = CoalescingScheduler(runner, max_batch=8)
            p = chain(10, 20, 5, 30)
            await asyncio.gather(*(sched.submit(p, "huang", {}) for _ in range(3)))
            await sched.close()
            return sched.stats()

        stats = run(main())
        assert stats["requests"] == 3
        assert stats["coalesced"] == 2
        assert stats["batches"] == 1 and stats["batch_items"] == 1
        # pending and executing report separately (executing entries
        # used to be folded into neither while a batch ran)
        assert stats["pending"] == 0
        assert stats["executing"] == 0
        assert stats["queue_depth"] == 0
        assert stats["delta_hits"] == 0


class TestQueueDepth:
    def test_queue_depth_counts_pending_plus_executing(self):
        """The backlog gauge a load monitor polls: entries detached
        into the in-flight batch AND entries still waiting both count,
        and the gauge returns to zero once everything resolves."""
        release = threading.Event()

        def runner(items):
            assert release.wait(timeout=5.0), "test never released the runner"
            return [
                SolveResult(
                    method=method,
                    value=float(problem.n),
                    w=np.zeros((problem.n + 1, problem.n + 1)),
                )
                for problem, method, _ in items
            ]

        async def main():
            sched = CoalescingScheduler(runner, max_batch=1)
            first = asyncio.ensure_future(sched.submit(chain(10, 20, 5), "huang", {}))
            while sched.stats()["executing"] == 0:  # first batch in flight
                await asyncio.sleep(0.001)
            second = asyncio.ensure_future(sched.submit(chain(3, 7, 2), "huang", {}))
            await asyncio.sleep(0.005)  # second lands in pending
            mid = sched.stats()
            release.set()
            await asyncio.gather(first, second)
            settled = sched.stats()
            await sched.close()
            return mid, settled

        mid, settled = run(main())
        assert mid["pending"] == 1 and mid["executing"] == 1
        assert mid["queue_depth"] == 2
        assert settled["queue_depth"] == 0
