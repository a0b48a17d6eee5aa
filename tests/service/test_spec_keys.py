"""The key-addressed hit path: spec identity, the spec-key memo, and the
solve server answering hits without building a problem."""

import asyncio
import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import api, solve
from repro.problems import MatrixChainProblem, specs
from repro.problems.specs import (
    FAMILIES,
    IDENTITY_FIELDS,
    KEY_MEMO,
    KEY_MEMO_ENTRIES,
    _KeyMemo,
    batch_item_from_spec,
    route_key_from_spec,
    spec_fingerprint,
    spec_identity,
    spec_key,
)
from repro.service import LocalClient, ResultCache, SolveService
from repro.service import server as server_module


@pytest.fixture(autouse=True)
def _fresh_memo():
    """The memo is per process: start and leave every test with it empty."""
    KEY_MEMO.clear()
    yield
    KEY_MEMO.clear()


# -- spec strategies ----------------------------------------------------------

_numbers = st.floats(0.5, 50.0, allow_nan=False)
_dims = st.lists(st.integers(1, 40), min_size=2, max_size=8)
_float_dims = _dims.map(lambda d: [float(x) for x in d])
_bst = st.integers(1, 6).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "p": st.lists(_numbers, min_size=n, max_size=n),
            "q": st.lists(_numbers, min_size=n + 1, max_size=n + 1),
        }
    )
)
_polygon = st.fixed_dictionaries(
    {"points": st.lists(st.tuples(_numbers, _numbers), min_size=3, max_size=7)},
    optional={"rule": st.sampled_from(["perimeter", "product"])},
)
_reliability = st.integers(1, 6).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "connectors": st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1),
            "leaves": st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n),
        }
    )
)
_family = st.fixed_dictionaries(
    {"family": st.sampled_from(FAMILIES)},
    optional={"n": st.integers(1, 10), "seed": st.integers(0, 5)},
)
_instances = st.one_of(
    st.builds(lambda d: {"dims": d}, st.one_of(_dims, _float_dims)),
    _bst,
    _polygon,
    st.builds(lambda w: {"weights": w}, st.lists(_numbers, min_size=2, max_size=7)),
    _reliability,
    _family,
)
_settings = st.fixed_dictionaries(
    {},
    optional={
        "method": st.sampled_from(["sequential", "huang", "huang-banded"]),
        "algebra": st.sampled_from(["min_plus", "max_plus", "minimax"]),
        "max_n": st.integers(4, 64),
        "band": st.integers(1, 4),
    },
)
_noise = st.fixed_dictionaries(
    {},
    optional={
        "id": st.integers(0, 99),
        "rid": st.integers(0, 99),
        "typo_dims": st.integers(0, 9),
    },
)


def _reordered(spec: dict, order: list) -> dict:
    """``spec`` with its keys in another order, sent through JSON text
    the way a wire request arrives."""
    keys = sorted(spec, key=lambda k: order.index(k) if k in order else -1)
    return json.loads(json.dumps({k: spec[k] for k in keys}))


# -- the identity -------------------------------------------------------------


class _Recording(dict):
    """A spec that records every field the parser reads."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


_EVERY_FORM = [
    {"dims": [10, 20, 5, 30]},
    {"p": [0.2, 0.3], "q": [0.1, 0.2, 0.2]},
    {"points": [[0, 0], [1, 0], [1, 1], [0, 1]], "rule": "perimeter"},
    {"weights": [3, 9, 2, 7]},
    {"connectors": [0.9], "leaves": [0.8, 0.7]},
    {"family": "chain", "n": 5, "seed": 2},
]
_EVERY_SETTING = {"method": "huang-banded", "algebra": "min_plus", "max_n": 64, "band": 2}


class TestIdentity:
    @pytest.mark.parametrize("form", _EVERY_FORM, ids=lambda f: sorted(f)[0])
    def test_every_field_the_parser_reads_is_in_the_identity(self, form):
        for extra in ({}, _EVERY_SETTING):
            spec = _Recording({**form, **extra, "id": 1, "rid": 2, "typo": 3})
            batch_item_from_spec(spec)
            assert spec.read <= IDENTITY_FIELDS, spec.read - IDENTITY_FIELDS

    def test_the_forms_together_read_every_identity_field(self):
        read = set()
        for form in _EVERY_FORM:
            spec = _Recording({**form, **_EVERY_SETTING})
            batch_item_from_spec(spec)
            read |= spec.read
        assert read == IDENTITY_FIELDS

    def test_ignored_fields_and_key_order_do_not_change_it(self):
        base = spec_identity({"family": "chain", "n": 24, "seed": 3})
        noisy = spec_identity(
            {"rid": 7, "seed": 3, "id": "x", "n": 24, "typo": 1, "family": "chain"}
        )
        assert base == noisy and len(base) == 16

    def test_default_method_and_read_fields_do(self):
        spec = {"dims": [10, 20, 5, 30]}
        assert spec_identity(spec) != spec_identity(spec, default_method="huang")
        assert spec_identity(spec) != spec_identity({**spec, "max_n": 8})
        assert spec_identity(spec) != spec_identity({"dims": [10, 20, 5, 31]})

    def test_a_value_json_cannot_encode_skips_the_memo(self):
        spec = {"dims": np.array([10, 20, 5, 30])}
        assert spec_identity(spec) is None
        for _ in range(2):
            key, item = spec_key(spec)
            want = MatrixChainProblem([10, 20, 5, 30])
            assert key == api.instance_key_bytes(want, method="sequential")
            assert item is not None
        assert len(KEY_MEMO) == 0


# -- the memo -----------------------------------------------------------------


class TestMemo:
    def test_bound_matches_the_l1_default_and_evicts_lru(self):
        assert KEY_MEMO.max_entries == KEY_MEMO_ENTRIES == ResultCache().max_entries
        memo = _KeyMemo(2)
        memo.put(b"a", b"A")
        memo.put(b"b", b"B")
        assert memo.get(b"a") == b"A"  # refresh a: b is now coldest
        memo.put(b"c", b"C")
        assert (memo.get(b"a"), memo.get(b"b"), memo.get(b"c")) == (b"A", None, b"C")
        assert len(memo) == 2

    def test_nothing_without_an_identity_or_a_key_enters(self):
        memo = _KeyMemo(4)
        memo.put(None, b"K")
        memo.put(b"i", None)
        assert len(memo) == 0 and memo.get(None) is None

    def test_concurrent_get_put_keeps_the_bound_and_the_mapping(self):
        memo = _KeyMemo(16)
        errors = []

        def worker(tid):
            try:
                for i in range(2000):
                    identity = bytes([(tid * 7 + i) % 40])
                    if i % 3 == 0:
                        memo.put(identity, identity * 2)
                    else:
                        key = memo.get(identity)
                        assert key is None or key == identity * 2
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors and len(memo) <= 16


#: settings that make any instance's spec fail to parse
_BREAKAGES = st.sampled_from(
    [
        {"max_n": "big"},
        {"max_n": None},
        {"method": "bogus"},
        {"band": "wide", "method": "huang-banded"},
    ]
)


class TestSpecKey:
    @settings(max_examples=120)
    @given(
        instance=_instances,
        extra=_settings,
        noise=_noise,
        default_method=st.sampled_from(["sequential", "huang"]),
        order=st.permutations(
            sorted(IDENTITY_FIELDS | {"id", "rid", "typo_dims"})
        ),
    )
    def test_memoised_key_is_the_instance_key(
        self, instance, extra, noise, default_method, order
    ):
        KEY_MEMO.clear()
        spec = _reordered({**instance, **extra, **noise}, order)
        try:
            problem, method, kwargs = batch_item_from_spec(
                spec, default_method=default_method
            )
        except Exception:
            self._assert_rejected_every_time(spec, default_method)
            return
        want = api.instance_key_bytes(problem, method=method, **kwargs)
        first, built = spec_key(spec, default_method=default_method)
        again, rebuilt = spec_key(spec, default_method=default_method)
        assert first == again == want
        assert built is not None
        if want is not None:
            assert rebuilt is None  # answered from the memo
        # Another text of the same request: reordered, other id/rid.
        twin = _reordered({**spec, "id": "other", "rid": -1}, order[::-1])
        assert spec_key(twin, default_method=default_method)[0] == want
        route = route_key_from_spec(spec, default_method=default_method)
        assert route == (want if want is not None else spec_fingerprint(spec))

    @settings(max_examples=60)
    @given(instance=_instances, breakage=_BREAKAGES)
    def test_rejected_spec_is_rejected_every_time(self, instance, breakage):
        self._assert_rejected_every_time({**instance, **breakage}, "sequential")

    @pytest.mark.parametrize(
        "spec",
        [
            {"bogus": 1},
            {"family": "nope"},
            {"family": "chain", "seed": "x"},
            {"family": "chain", "n": "x"},
            {"dims": [10, "x", 5]},
            {"dims": [10]},
            {"p": [0.1], "q": [0.1]},
        ],
    )
    def test_malformed_instance_is_rejected_every_time(self, spec):
        self._assert_rejected_every_time(spec, "sequential")

    @staticmethod
    def _assert_rejected_every_time(spec, default_method):
        for _ in range(3):
            with pytest.raises(Exception):
                spec_key(spec, default_method=default_method)
        assert KEY_MEMO.get(spec_identity(spec, default_method=default_method)) is None
        assert route_key_from_spec(spec, default_method=default_method) == (
            spec_fingerprint(spec)
        )

    def test_router_answers_a_known_spec_without_building(self, monkeypatch):
        builds = []
        original = specs.batch_item_from_spec

        def counting(spec, **kwargs):
            builds.append(spec.get("rid"))
            return original(spec, **kwargs)

        monkeypatch.setattr(specs, "batch_item_from_spec", counting)
        spec = {"family": "chain", "n": 24, "seed": 3}
        keys = {route_key_from_spec({**spec, "rid": rid}) for rid in range(5)}
        assert len(keys) == 1 and builds == [0]
        bogus = {"bogus": 1}
        assert route_key_from_spec(bogus) == route_key_from_spec(bogus)
        assert builds == [0, None, None]  # a rejected spec is rebuilt


# -- the solve server ---------------------------------------------------------


def _service(**kwargs) -> SolveService:
    return SolveService(method="sequential", backend="serial", **kwargs)


class TestServer:
    @settings(max_examples=25)
    @given(instance=_instances, breakage=_BREAKAGES)
    def test_rejected_twin_of_a_cached_instance_gets_an_error(self, instance, breakage):
        async def main():
            service = _service()
            try:
                first = await service.handle_spec({"id": 1, **instance})
                again = await service.handle_spec({"id": 2, **instance})
                if first["ok"]:
                    assert again["source"] == "cache"
                for i in range(2):
                    record = await service.handle_spec({"id": i, **instance, **breakage})
                    assert record["ok"] is False and "error" in record
            finally:
                await service.aclose()

        asyncio.run(main())

    def test_a_hit_builds_and_hashes_nothing(self, monkeypatch):
        builds, hashes = [], []
        for module in (specs, server_module):
            original = module.batch_item_from_spec

            def counting(spec, _original=original, **kwargs):
                builds.append(spec.get("rid"))
                return _original(spec, **kwargs)

            monkeypatch.setattr(module, "batch_item_from_spec", counting)
        original_key = api.instance_key_bytes

        def counting_key(problem, **kwargs):
            if not kwargs.get("delta_parent"):
                hashes.append(1)
            return original_key(problem, **kwargs)

        monkeypatch.setattr(api, "instance_key_bytes", counting_key)
        spec = {"family": "chain", "n": 12, "seed": 4}

        async def main():
            service = _service()
            try:
                cold = await service.handle_spec({**spec, "rid": 0})
                assert cold["source"] == "batch"
                assert (len(builds), len(hashes)) == (1, 1)  # once each
                for rid in range(1, 4):
                    hit = await service.handle_spec({**spec, "rid": rid, "id": rid})
                    assert hit["source"] == "cache" and hit["value"] == cold["value"]
                assert (len(builds), len(hashes)) == (1, 1)
                # Evicted answer, remembered key: built again, not hashed.
                service.cache.clear()
                redo = await service.handle_spec({**spec, "rid": 9})
                assert redo["source"] == "batch" and redo["value"] == cold["value"]
                assert (len(builds), len(hashes)) == (2, 1)
                stats = service.scheduler.stats()
                assert (stats["requests"], stats["cache_hits"]) == (5, 3)
            finally:
                await service.aclose()

        asyncio.run(main())

    @pytest.mark.parametrize("tiered", [False, True])
    def test_one_lookup_per_request(self, tiered, tmp_path):
        specs_stream = [
            {"dims": [10, 20, 5, 30]},
            {"dims": [10, 20, 5, 30], "id": 7},
            {"family": "bst", "n": 6, "seed": 1},
            {"bogus": 1},
            {"dims": [10.0, 20.0, 5.0, 30.0], "rid": 3},
            {"family": "bst", "seed": 1, "n": 6},
            {"dims": [10, 20, 5, 31]},
            {"weights": [3, 9, 2, 7], "method": "no-such-method"},
        ]

        async def main():
            service = _service(cache_dir=str(tmp_path) if tiered else None)
            try:
                # pipelined (misses coalesce), then one by one (hits)
                first = await asyncio.gather(
                    *(service.handle_spec(dict(s)) for s in specs_stream)
                )
                second = [await service.handle_spec(dict(s)) for s in specs_stream]
                return first + second, service.status()
            finally:
                await service.aclose()

        records, status = asyncio.run(main())
        keyed = sum(1 for r in records if r["ok"])
        l1 = status["cache"]["l1"] if tiered else status["cache"]
        assert keyed == 12
        assert l1["hits"] + l1["misses"] == keyed
        assert status["scheduler"]["requests"] == keyed
        assert status["scheduler"]["cache_hits"] == sum(
            1 for r in records if r.get("source") == "cache"
        )
        assert status["requests"] == len(records)

    def test_a_wire_hit_copies_no_table(self):
        spec = {"family": "chain", "n": 160, "seed": 1}

        async def main():
            service = _service()
            try:
                cold = await service.handle_spec(dict(spec))
                await service.handle_spec(dict(spec))  # warm every path
                table = (spec["n"] + 1) ** 2 * 8
                tracemalloc.start()
                try:
                    hit = await service.handle_spec(dict(spec))
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert hit["source"] == "cache" and hit["value"] == cold["value"]
                assert peak < table // 4, (peak, table)
            finally:
                await service.aclose()

        asyncio.run(main())

    def test_in_process_hits_get_private_writable_tables(self):
        spec = {"dims": [30, 35, 15, 5, 10, 20, 25]}
        with LocalClient(backend="serial", method="sequential") as client:
            client.solve(spec)
            hit, source = client.solve(spec, with_source=True)
            assert source == "cache" and hit.w.flags.writeable
            hit.w[0, 1] = -1.0
            assert client.solve(spec).w[0, 1] != -1.0
        cache = ResultCache()
        problem, _, _ = batch_item_from_spec(spec)
        solve(problem, cache=cache)
        hit = solve(problem, cache=cache)
        assert cache.stats()["hits"] == 1 and hit.w.flags.writeable
        hit.w[0, 1] = -1.0
        assert solve(problem, cache=cache).w[0, 1] != -1.0
