"""Tests for the NumPy revenue engine and the incremental group cache.

Three layers of guarantees:

* kernel equivalence -- the vectorized memory / probability / revenue kernels
  reproduce the pure-Python reference functions to floating-point round-off
  on randomized groups (property tests);
* model equivalence -- ``RevenueModel(backend="numpy")`` and
  ``RevenueModel(backend="python")`` agree on revenues and marginal revenues,
  and the greedy algorithms produce *identical strategies* under either
  backend on the seed test instances;
* cache correctness -- interleaved ``add`` / ``marginal_revenue`` calls give
  the same answers with and without the cache, and the evaluation counter
  counts kernel work only (cache hits are reported separately).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.entities import Triple
from repro.core.revenue import (
    RevenueModel,
    group_dynamic_probability,
    group_revenue,
    memory_term,
)
from repro.core.strategy import Strategy
from repro.core.vectorized import (
    BACKENDS,
    GroupArrays,
    resolve_backend,
    vectorized_group_probabilities,
    vectorized_group_revenue,
    vectorized_memory_terms,
)
from repro.algorithms.global_greedy import GlobalGreedy
from repro.algorithms.local_greedy import SequentialLocalGreedy

from tests.conftest import build_random_instance


def _random_strategy(instance, size, seed):
    """A random subset of the instance's candidate triples."""
    candidates = list(instance.candidate_triples())
    rng = np.random.default_rng(seed)
    rng.shuffle(candidates)
    return candidates[:size], candidates[size:]


class TestBackendSelection:
    def test_default_backend_is_numpy(self):
        assert RevenueModel(build_random_instance()).backend == "numpy"

    def test_explicit_backend_wins(self):
        instance = build_random_instance()
        assert RevenueModel(instance, backend="python").backend == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("fortran")
        with pytest.raises(ValueError):
            RevenueModel(build_random_instance(), backend="fortran")


class TestKernelEquivalence:
    def test_memory_terms_match_reference(self):
        group = [Triple(0, 0, 0), Triple(0, 1, 1), Triple(0, 0, 3), Triple(0, 2, 3)]
        times = np.array([z.t for z in group])
        vectorized = vectorized_memory_terms(times)
        for j, triple in enumerate(group):
            assert vectorized[j] == pytest.approx(
                memory_term(group, triple.t), abs=1e-12
            )

    def test_empty_group(self):
        instance = build_random_instance()
        assert vectorized_group_revenue(instance, []) == 0.0
        assert vectorized_memory_terms(np.zeros(0, dtype=int)).shape == (0,)

    def test_probabilities_match_paper_example_1(self):
        """Example 1 of the paper, cross-checked against the closed form."""
        a, beta = 0.3, 0.6
        instance = build_random_instance(
            num_users=1, num_items=2, num_classes=1, horizon=3, seed=0
        )
        # Overwrite with the deterministic Example-1 numbers.
        instance.betas[:] = beta
        instance.adoption.set(0, 0, [a, a, a])
        instance.adoption.set(0, 1, [a, a, a])
        group = [Triple(0, 0, 0), Triple(0, 1, 1), Triple(0, 0, 2)]
        arrays = GroupArrays.from_group(instance, group)
        probabilities = vectorized_group_probabilities(arrays)
        assert probabilities[0] == pytest.approx(a)
        assert probabilities[1] == pytest.approx((1 - a) * a * beta)
        assert probabilities[2] == pytest.approx((1 - a) ** 2 * a * beta ** 1.5)

    @given(seed=st.integers(0, 1000), size=st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_property_group_revenue_matches_python(self, seed, size):
        instance = build_random_instance(
            num_users=3, num_items=6, num_classes=2, horizon=4, seed=seed
        )
        chosen, _ = _random_strategy(instance, size, seed)
        strategy = Strategy(instance.catalog, chosen)
        for _, group in strategy.groups():
            assert vectorized_group_revenue(instance, group) == pytest.approx(
                group_revenue(instance, group), abs=1e-9
            )
            arrays = GroupArrays.from_group(instance, group)
            probabilities = vectorized_group_probabilities(arrays)
            for j, triple in enumerate(group):
                assert probabilities[j] == pytest.approx(
                    group_dynamic_probability(instance, group, triple), abs=1e-12
                )


class TestModelEquivalence:
    @given(seed=st.integers(0, 1000), size=st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_property_backends_agree(self, seed, size):
        """python- and numpy-backend revenues agree to 1e-9 (ISSUE gate)."""
        instance = build_random_instance(seed=seed)
        chosen, rest = _random_strategy(instance, size, seed)
        strategy = Strategy(instance.catalog, chosen)
        python_model = RevenueModel(instance, backend="python", cache=False)
        numpy_model = RevenueModel(instance, backend="numpy")
        assert numpy_model.revenue(strategy) == pytest.approx(
            python_model.revenue(strategy), abs=1e-9
        )
        for triple in rest[:4]:
            assert numpy_model.marginal_revenue(strategy, triple) == pytest.approx(
                python_model.marginal_revenue(strategy, triple), abs=1e-9
            )

    @pytest.mark.parametrize("algorithm_factory", [
        lambda backend: GlobalGreedy(backend=backend),
        lambda backend: GlobalGreedy(use_lazy_forward=False, backend=backend),
        lambda backend: SequentialLocalGreedy(backend=backend),
    ])
    def test_identical_strategies_across_backends(self, algorithm_factory):
        """Both backends drive the greedy to the *same* strategy."""
        for seed in range(4):
            instance = build_random_instance(
                num_users=6, num_items=6, num_classes=2, horizon=4, seed=seed
            )
            strategies = {}
            for backend in BACKENDS:
                result = algorithm_factory(backend).run(instance)
                strategies[backend] = result.strategy.triples()
            assert strategies["numpy"] == strategies["python"]

    def test_identical_strategies_on_pipeline_instance(self, tiny_amazon_pipeline):
        instance = tiny_amazon_pipeline.instance
        numpy_result = GlobalGreedy(backend="numpy").run(instance)
        python_result = GlobalGreedy(backend="python").run(instance)
        assert numpy_result.strategy.triples() == python_result.strategy.triples()
        assert numpy_result.revenue == pytest.approx(python_result.revenue, abs=1e-9)


class TestIncrementalCache:
    def test_interleaved_add_and_marginal_calls(self):
        """Cache answers stay correct while the strategy mutates under it."""
        instance = build_random_instance(seed=3)
        cached = RevenueModel(instance, backend="numpy", cache=True)
        uncached = RevenueModel(instance, backend="python", cache=False)
        candidates = list(instance.candidate_triples())
        rng = np.random.default_rng(3)
        rng.shuffle(candidates)
        strategy = Strategy(instance.catalog)
        for step, triple in enumerate(candidates[:12]):
            for probe in candidates[: 12 + 4]:
                if probe in strategy:
                    continue
                assert cached.marginal_revenue(strategy, probe) == pytest.approx(
                    uncached.marginal_revenue(strategy, probe), abs=1e-9
                )
            strategy.add(triple)
            assert cached.revenue(strategy) == pytest.approx(
                uncached.revenue(strategy), abs=1e-9
            )
            if step == 5:  # removing triples must also be answered correctly
                strategy.remove(triple)
        assert cached.cache_hits > 0

    def test_cache_hits_do_not_count_as_evaluations(self):
        instance = build_random_instance(seed=1)
        model = RevenueModel(instance, backend="numpy", cache=True)
        triples, _ = _random_strategy(instance, 5, seed=1)
        strategy = Strategy(instance.catalog, triples)
        model.revenue(strategy)
        first = model.evaluations
        assert first == len(list(strategy.groups()))
        assert model.cache_hits == 0
        model.revenue(strategy)  # answered entirely from the cache
        assert model.evaluations == first
        assert model.cache_hits == first
        info = model.cache_info()
        assert info["size"] == first
        assert info["hits"] == first
        assert info["evaluations"] == first

    def test_marginal_before_value_is_reused(self):
        instance = build_random_instance(seed=2)
        model = RevenueModel(instance, backend="numpy", cache=True)
        candidates = list(instance.candidate_triples())
        target = candidates[0]
        same_group = [
            z for z in candidates
            if z.user == target.user
            and instance.class_of(z.item) == instance.class_of(target.item)
        ]
        assert len(same_group) >= 2
        strategy = Strategy(instance.catalog, [same_group[0]])
        model.reset_counters()
        model.marginal_revenue(strategy, same_group[1])  # before + after: 2 kernels
        assert model.evaluations == 2
        # Second probe against the same group: "before" is a cache hit.
        probe = Triple(target.user, same_group[1].item,
                       (same_group[1].t + 1) % instance.horizon)
        if probe not in strategy and probe != same_group[1]:
            model.marginal_revenue(strategy, probe)
            assert model.evaluations == 3
            assert model.cache_hits >= 1

    def test_clear_cache_and_reset_counters(self):
        instance = build_random_instance(seed=4)
        model = RevenueModel(instance, backend="numpy", cache=True)
        triples, _ = _random_strategy(instance, 4, seed=4)
        strategy = Strategy(instance.catalog, triples)
        model.revenue(strategy)
        model.revenue(strategy)
        assert model.cache_info()["size"] > 0
        model.clear_cache()
        assert model.cache_info()["size"] == 0
        model.reset_counters()
        assert model.evaluations == 0
        assert model.cache_hits == 0
        # Still correct after the clear.
        assert model.revenue(strategy) == pytest.approx(
            RevenueModel(instance, backend="python", cache=False).revenue(strategy),
            abs=1e-9,
        )

    def test_cache_size_bound_triggers_wholesale_clear(self):
        instance = build_random_instance(seed=5)
        model = RevenueModel(instance, backend="numpy", cache=True,
                             max_cache_entries=2)
        candidates = list(instance.candidate_triples())
        for triple in candidates[:6]:
            model.group_revenue([triple])
        assert model.cache_info()["size"] <= 2
        # Values survive the evictions.
        assert model.group_revenue([candidates[0]]) == pytest.approx(
            group_revenue(instance, [candidates[0]]), abs=1e-12
        )

    def test_uncached_python_model_matches_seed_semantics(self):
        """backend='python', cache=False counts every call (seed behaviour)."""
        instance = build_random_instance(seed=6)
        model = RevenueModel(instance, backend="python", cache=False)
        triples, _ = _random_strategy(instance, 3, seed=6)
        strategy = Strategy(instance.catalog, triples)
        model.revenue(strategy)
        model.revenue(strategy)
        groups = len(list(strategy.groups()))
        assert model.evaluations == 2 * groups
        assert model.cache_hits == 0
