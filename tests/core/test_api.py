"""Unit tests for the solve() façade."""

import pytest

from repro.core import plan_for, solve, solve_many
from repro.core.termination import UntilValue, WStable
from repro.errors import InvalidProblemError
from repro.problems.generators import random_bst, random_generic
from repro.service import ResultCache


class TestMethods:
    def test_all_methods_agree(self):
        p = random_generic(9, seed=0)
        values = {
            m: solve(p, method=m).value
            for m in ("sequential", "huang", "huang-banded", "rytter")
        }
        ref = values["sequential"]
        for m, v in values.items():
            assert v == pytest.approx(ref), m

    def test_knuth_on_bst(self):
        p = random_bst(8, seed=1)
        assert solve(p, method="knuth").value == pytest.approx(
            solve(p, method="sequential").value
        )

    def test_unknown_method(self):
        with pytest.raises(InvalidProblemError, match="unknown method"):
            solve(random_generic(4, seed=0), method="magic")


class TestResultContents:
    def test_sequential_has_no_iterations(self):
        r = solve(random_generic(5, seed=0), method="sequential")
        assert r.iterations is None and r.trace is None
        assert r.n == 5

    def test_iterative_has_trace(self):
        r = solve(random_generic(5, seed=0), method="huang")
        assert r.iterations >= 1
        assert r.trace is not None and r.trace.iterations == r.iterations

    def test_reconstruct_flag(self, clrs_chain):
        r = solve(clrs_chain, method="huang", reconstruct=True)
        assert r.tree is not None
        assert r.tree.weight(clrs_chain) == pytest.approx(r.value)
        r2 = solve(clrs_chain, method="huang")
        assert r2.tree is None

    def test_w_table_returned(self, clrs_chain):
        r = solve(clrs_chain, method="sequential")
        assert r.w[0, 6] == 15125.0


class TestOptions:
    def test_policy_forwarded(self, clrs_chain):
        ref = solve(clrs_chain, method="sequential").value
        r = solve(clrs_chain, method="huang", policy=UntilValue(ref))
        assert r.iterations <= 6

    def test_max_n_forwarded(self):
        p = random_generic(10, seed=0)
        with pytest.raises(InvalidProblemError, match="max_n"):
            solve(p, method="huang", max_n=8)

    def test_solver_kwargs_forwarded(self):
        p = random_generic(8, seed=0)
        r = solve(p, method="huang-banded", band=4, policy=WStable())
        assert r.value == pytest.approx(solve(p, method="sequential").value)


class TestAlgebraOption:
    def test_default_is_min_plus(self, clrs_chain):
        r = solve(clrs_chain, method="huang")
        assert r.algebra == "min_plus" and r.value == 15125.0

    def test_unknown_algebra_rejected(self, clrs_chain):
        with pytest.raises(InvalidProblemError, match="unknown algebra"):
            solve(clrs_chain, algebra="tropical-typo")

    def test_knuth_rejects_non_min_plus(self, clrs_bst):
        with pytest.raises(InvalidProblemError, match="min_plus"):
            solve(clrs_bst, method="knuth", algebra="minimax")

    def test_lex_value_is_decoded_primary_cost(self, clrs_chain):
        r = solve(clrs_chain, method="huang", algebra="lex_min_plus")
        assert r.value == 15125.0  # decoded: the min-plus cost channel
        assert r.algebra == "lex_min_plus"

    def test_reconstruct_under_minimax(self, clrs_chain):
        r = solve(clrs_chain, method="huang", algebra="minimax", reconstruct=True)
        worst = max(
            clrs_chain.split_cost(t.i, t.split, t.j)
            for t in r.tree.internal_nodes()
        )
        assert worst == r.value

    def test_algebra_instance_accepted(self, clrs_chain):
        from repro.core import get_algebra

        r = solve(clrs_chain, algebra=get_algebra("max_plus"))
        assert r.algebra == "max_plus" and r.value == 58000.0

    def test_preferred_algebra_picked_up_when_unspecified(self):
        from repro.problems import BottleneckChainProblem, ReliabilityBSTProblem

        bottleneck = BottleneckChainProblem([3, 9, 2, 7])
        assert solve(bottleneck).algebra == "minimax"
        assert solve(bottleneck, method="huang").value == 14.0
        reliability = ReliabilityBSTProblem([0.9, 0.8], [0.99, 0.95, 0.97])
        assert solve(reliability).algebra == "maxmin"
        # Explicit algebra always overrides the family preference.
        assert solve(bottleneck, algebra="min_plus").algebra == "min_plus"


class TestMethodKeywords:
    """Every method refuses a keyword it does not take, with one error
    type, before a table is built or a cache key is computed."""

    @pytest.mark.parametrize(
        "method,kwargs",
        [
            ("sequential", {"band": 3, "bogus": 1}),
            ("knuth", {"band": 3}),
            ("huang", {"band": 3}),
            ("huang-banded", {"bogus": 1}),
            ("huang-compact", {"size_band": True}),
            ("rytter", {"kernel_impl": "fused"}),
        ],
    )
    def test_unknown_keyword_refused(self, method, kwargs):
        p = random_bst(6, seed=0)
        with pytest.raises(InvalidProblemError, match="takes no keyword"):
            solve(p, method=method, **kwargs)

    def test_refused_before_the_cache_sees_the_request(self):
        cache = ResultCache(max_bytes=1 << 20)
        with pytest.raises(InvalidProblemError, match="takes no keyword bogus"):
            solve(random_generic(5, seed=0), method="sequential", cache=cache, bogus=1)
        assert cache.stats()["entries"] == 0

    def test_the_error_names_what_the_method_takes(self):
        with pytest.raises(InvalidProblemError, match="it takes band, size_band"):
            solve(random_generic(5, seed=0), method="huang-banded", bogus=1)

    def test_plan_for_refuses_too(self):
        with pytest.raises(InvalidProblemError, match="takes no keyword band"):
            plan_for(random_generic(5, seed=0), method="rytter", band=2)

    def test_a_batchwide_keyword_fails_only_the_items_that_refuse_it(self):
        p = random_generic(6, seed=2)
        results = solve_many(
            [(p, "sequential"), (p, "huang-banded")],
            backend="serial",
            on_error="return",
            band=3,
        )
        assert isinstance(results[0], InvalidProblemError)
        assert results[1].value == pytest.approx(solve(p, method="sequential").value)
