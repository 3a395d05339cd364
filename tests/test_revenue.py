"""Tests for the dynamic revenue model (Definitions 1-3 of the paper)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.entities import Triple
from repro.core.problem import RevMaxInstance
from repro.core import revenue as revenue_module
from repro.core.revenue import (
    VECTORIZE_MIN_GROUP,
    RevenueModel,
    group_dynamic_probability,
    group_revenue,
    memory_term,
)
from repro.core.strategy import Strategy

from tests.conftest import build_random_instance


class TestMemoryTerm:
    def test_no_earlier_triples(self):
        assert memory_term([Triple(0, 0, 2)], 1) == 0.0
        assert memory_term([], 3) == 0.0

    def test_single_earlier_triple(self):
        # One recommendation one step earlier contributes 1 / 1.
        assert memory_term([Triple(0, 0, 1)], 2) == pytest.approx(1.0)

    def test_equation_1_weights(self):
        # Recommendations at t=0 and t=1, memory evaluated at t=2:
        # 1/(2-0) + 1/(2-1) = 0.5 + 1 = 1.5
        group = [Triple(0, 0, 0), Triple(0, 1, 1)]
        assert memory_term(group, 2) == pytest.approx(1.5)

    def test_same_time_does_not_count(self):
        group = [Triple(0, 0, 2), Triple(0, 1, 2)]
        assert memory_term(group, 2) == 0.0


def _single_class_instance(primitive: float, beta: float, horizon: int = 3):
    """One user, two items of the same class, constant primitive probability."""
    return RevMaxInstance.from_dense_adoption(
        prices=np.ones((2, horizon)),
        adoption={
            (0, 0): [primitive] * horizon,
            (0, 1): [primitive] * horizon,
        },
        item_class=[0, 0],
        capacities=5,
        betas=beta,
        display_limit=2,
        num_users=1,
    )


class TestDynamicAdoptionProbability:
    def test_example_1_from_paper(self):
        """Example 1: S = {(u,i,1), (u,j,2), (u,i,3)}, same class, prob a."""
        a, beta = 0.3, 0.6
        instance = _single_class_instance(a, beta)
        # 0-based times: 0, 1, 2.
        triples = [Triple(0, 0, 0), Triple(0, 1, 1), Triple(0, 0, 2)]
        strategy = Strategy(instance.catalog, triples)
        model = RevenueModel(instance)
        assert model.dynamic_probability(strategy, triples[0]) == pytest.approx(a)
        assert model.dynamic_probability(strategy, triples[1]) == pytest.approx(
            (1 - a) * a * beta ** 1.0
        )
        assert model.dynamic_probability(strategy, triples[2]) == pytest.approx(
            (1 - a) ** 2 * a * beta ** (1.0 + 0.5)
        )

    def test_absent_triple_has_zero_probability(self):
        instance = _single_class_instance(0.5, 0.5)
        strategy = Strategy(instance.catalog, [Triple(0, 0, 0)])
        model = RevenueModel(instance)
        assert model.dynamic_probability(strategy, Triple(0, 1, 1)) == 0.0

    def test_single_triple_equals_primitive(self):
        instance = _single_class_instance(0.4, 0.2)
        strategy = Strategy(instance.catalog, [Triple(0, 0, 1)])
        model = RevenueModel(instance)
        assert model.dynamic_probability(strategy, Triple(0, 0, 1)) == pytest.approx(0.4)

    def test_same_time_competition(self):
        """Two same-class items at the same time discount each other."""
        a = 0.5
        instance = _single_class_instance(a, 1.0)
        strategy = Strategy(instance.catalog, [Triple(0, 0, 0), Triple(0, 1, 0)])
        model = RevenueModel(instance)
        assert model.dynamic_probability(strategy, Triple(0, 0, 0)) == pytest.approx(
            a * (1 - a)
        )
        assert model.dynamic_probability(strategy, Triple(0, 1, 0)) == pytest.approx(
            a * (1 - a)
        )

    def test_different_classes_do_not_interact(self):
        instance = RevMaxInstance.from_dense_adoption(
            prices=np.ones((2, 2)),
            adoption={(0, 0): [0.5, 0.5], (0, 1): [0.7, 0.7]},
            item_class=[0, 1],
            capacities=5,
            betas=0.1,
            display_limit=2,
            num_users=1,
        )
        strategy = Strategy(instance.catalog, [Triple(0, 0, 0), Triple(0, 1, 1)])
        model = RevenueModel(instance)
        # Item 1 at time 1 is unaffected by the class-0 recommendation.
        assert model.dynamic_probability(strategy, Triple(0, 1, 1)) == pytest.approx(0.7)

    def test_lemma_1_probability_non_increasing_in_strategy(self):
        instance = _single_class_instance(0.4, 0.5)
        target = Triple(0, 0, 2)
        small = Strategy(instance.catalog, [target])
        large = Strategy(instance.catalog, [target, Triple(0, 1, 0), Triple(0, 1, 2)])
        model = RevenueModel(instance)
        assert model.dynamic_probability(large, target) <= model.dynamic_probability(
            small, target
        )


class TestRevenueFunction:
    def test_empty_strategy_has_zero_revenue(self, small_instance):
        model = RevenueModel(small_instance)
        assert model.revenue(Strategy(small_instance.catalog)) == 0.0

    def test_paper_non_monotonicity_example(self, paper_example_instance):
        """Rev({(u,i,2)}) = 0.57 > Rev({(u,i,1), (u,i,2)}) = 0.5285."""
        model = RevenueModel(paper_example_instance)
        catalog = paper_example_instance.catalog
        late_only = Strategy(catalog, [Triple(0, 0, 1)])
        both = Strategy(catalog, [Triple(0, 0, 0), Triple(0, 0, 1)])
        assert model.revenue(late_only) == pytest.approx(0.57)
        assert model.revenue(both) == pytest.approx(0.5285)
        assert model.revenue(both) < model.revenue(late_only)

    def test_revenue_of_triples_helper(self, paper_example_instance):
        model = RevenueModel(paper_example_instance)
        assert model.revenue_of_triples([(0, 0, 1)]) == pytest.approx(0.57)

    def test_revenue_is_nonnegative_on_random_instances(self):
        for seed in range(5):
            instance = build_random_instance(seed=seed)
            model = RevenueModel(instance)
            triples = list(instance.candidate_triples())[:8]
            assert model.revenue_of_triples(triples) >= 0.0

    def test_group_revenue_matches_manual_sum(self):
        instance = _single_class_instance(0.3, 0.6)
        triples = [Triple(0, 0, 0), Triple(0, 1, 1)]
        expected = sum(
            instance.price(z.item, z.t)
            * group_dynamic_probability(instance, triples, z)
            for z in triples
        )
        assert group_revenue(instance, triples) == pytest.approx(expected)


class TestMarginalRevenue:
    def test_marginal_of_existing_triple_is_zero(self, small_instance):
        model = RevenueModel(small_instance)
        triple = next(iter(small_instance.candidate_triples()))
        strategy = Strategy(small_instance.catalog, [triple])
        assert model.marginal_revenue(strategy, triple) == 0.0

    def test_marginal_matches_revenue_difference(self, small_instance):
        model = RevenueModel(small_instance)
        candidates = list(small_instance.candidate_triples())
        strategy = Strategy(small_instance.catalog, candidates[:4])
        for triple in candidates[4:10]:
            expected = model.revenue_of_triples(candidates[:4] + [triple]) - (
                model.revenue_of_triples(candidates[:4])
            )
            assert model.marginal_revenue(strategy, triple) == pytest.approx(expected)

    def test_components_sum_to_marginal(self, small_instance):
        model = RevenueModel(small_instance)
        candidates = list(small_instance.candidate_triples())
        strategy = Strategy(small_instance.catalog, candidates[:5])
        for triple in candidates[5:12]:
            gain, loss = model.marginal_revenue_components(strategy, triple)
            assert gain >= 0.0
            assert loss <= 1e-12
            assert gain + loss == pytest.approx(
                model.marginal_revenue(strategy, triple)
            )

    def test_evaluation_counter(self, small_instance):
        model = RevenueModel(small_instance)
        assert model.evaluations == 0
        triple = next(iter(small_instance.candidate_triples()))
        model.marginal_revenue(Strategy(small_instance.catalog), triple)
        assert model.evaluations >= 1
        model.reset_counters()
        assert model.evaluations == 0

    @given(seed=st.integers(0, 1000), size=st.integers(0, 8))
    @settings(max_examples=30, deadline=None)
    def test_property_marginal_equals_difference(self, seed, size):
        instance = build_random_instance(seed=seed)
        model = RevenueModel(instance)
        candidates = list(instance.candidate_triples())
        rng = np.random.default_rng(seed)
        rng.shuffle(candidates)
        base = candidates[:size]
        strategy = Strategy(instance.catalog, base)
        remaining = [z for z in candidates[size:size + 3]]
        for triple in remaining:
            difference = model.revenue_of_triples(base + [triple]) - (
                model.revenue_of_triples(base)
            )
            assert model.marginal_revenue(strategy, triple) == pytest.approx(
                difference, abs=1e-9
            )


def _definition_revenue(instance, group):
    """Definitions 1-2 transcribed literally: per-target lookups, in order."""
    total = 0.0
    for target in group:
        user, item, t = target
        primitive = instance.probability(user, item, t)
        probability = 0.0
        if primitive > 0.0:
            memory = memory_term(group, t)
            saturation = instance.beta(item) ** memory if memory > 0.0 else 1.0
            survival = 1.0
            for other in group:
                if other == target:
                    continue
                if other.t < t or (other.t == t and other.item != item):
                    survival *= 1.0 - instance.probability(*other)
            probability = primitive * saturation * survival
        total += instance.price(item, t) * probability
    return total


def _exactness_instance():
    """One class, user 0 with zero and absent primitives among its triples."""
    rng = np.random.default_rng(7)
    horizon = 6
    adoption = {(user, item): rng.uniform(0.05, 0.95, size=horizon).tolist()
                for user in range(3) for item in range(4)}
    adoption[(0, 1)][2] = 0.0
    adoption[(0, 2)][0] = 0.0
    adoption[(0, 0)][4] = 1.0
    # Item 4 has no pair for user 0: its primitives are absent.
    adoption[(1, 4)] = rng.uniform(0.05, 0.95, size=horizon).tolist()
    return RevMaxInstance.from_dense_adoption(
        prices=rng.uniform(5.0, 100.0, size=(5, horizon)),
        adoption=adoption, item_class=[0] * 5, capacities=5,
        betas=np.array([0.5, 0.0, 1.0, 0.7, 0.3]), display_limit=5,
        name="exactness",
    )


def _user_zero_triples(instance, seed=3):
    """User 0's triples in a shuffled order, zero and absent ones included.

    Triples (0, 1, 2) and (0, 2, 0) have zero primitives, (0, 4, *) absent
    ones; one of each is always among the first four.
    """
    special = [Triple(0, 1, 2), Triple(0, 4, 1)]
    rest = [Triple(0, item, t) for item in range(5)
            for t in range(instance.horizon)]
    rest = [z for z in rest if z not in special]
    np.random.default_rng(seed).shuffle(rest)
    return rest[:2] + special + rest[2:]


class TestGatheredArithmetic:
    """The gather-once arithmetic is Definitions 1-2, bit for bit."""

    @pytest.fixture(params=["dict", "columnar"])
    def instance(self, request):
        instance = _exactness_instance()
        if request.param == "columnar":
            instance = instance.compiled().as_instance(catalog=instance.catalog)
        return instance

    @pytest.mark.parametrize("size", [1, 2, 9, 10, 11])
    def test_group_revenue_is_the_definition(self, instance, size):
        for seed in range(20):
            group = _user_zero_triples(instance, seed)[:size]
            expected = _definition_revenue(instance, group)
            assert group_revenue(instance, group) == expected
            gathered = revenue_module._CompiledGather(
                instance, instance.compiled())(group)
            assert revenue_module._gathered_group_revenue(*gathered) == expected
        for target in group:
            assert group_dynamic_probability(instance, group, target) == (
                revenue_module._dynamic_probability(
                    instance.probability(*target), instance.beta(target.item),
                    target.item, target.t, [z.item for z in group],
                    [z.t for z in group],
                    [instance.probability(*z) for z in group],
                )
            )

    @pytest.mark.parametrize("size", [0, 8, 9, 10])
    def test_batch_matches_kernel_path(self, instance, size):
        triples = _user_zero_triples(instance)
        strategy = Strategy(instance.catalog, triples[:size])
        candidates = triples[size:]
        gathered = RevenueModel(instance)
        kernel = RevenueModel(instance, compiled=False)
        values = gathered.marginal_revenue_batch(strategy, candidates)
        assert values == kernel.marginal_revenue_batch(strategy, candidates)
        assert gathered.evaluations == kernel.evaluations
        assert gathered.lookups == kernel.lookups
        # One-candidate batches below the batched-kernel threshold run the
        # scalar body: the definition itself.
        group = strategy.group(0, 0)
        before = _definition_revenue(instance, group) if group else 0.0
        for candidate in candidates[:2]:
            single = gathered.marginal_revenue_batch(strategy, [candidate])
            if size + 1 < VECTORIZE_MIN_GROUP:
                assert single == [
                    _definition_revenue(instance, group + [candidate]) - before
                ]
            assert single == [gathered.marginal_revenue(strategy, candidate)]

    def test_scalar_paths_look_each_member_up_once(self, monkeypatch):
        instance = _exactness_instance()
        group = _user_zero_triples(instance)[:7]
        lookups = []
        original = type(instance.adoption).probability

        def counting(table, user, item, t):
            lookups.append((user, item, t))
            return original(table, user, item, t)

        monkeypatch.setattr(type(instance.adoption), "probability", counting)
        group_revenue(instance, group)
        assert sorted(lookups) == sorted(group)

        # The compiled model reads no adoption table at all, and looks each
        # distinct (user, item) up once per call.
        compiled = instance.compiled()
        rows = []
        original_row = compiled.pair_row
        monkeypatch.setattr(
            compiled, "pair_row",
            lambda user, item: rows.append((user, item))
            or original_row(user, item),
        )
        model = RevenueModel(instance)
        lookups.clear()
        model.marginal_revenue_batch(Strategy(instance.catalog, group[:3]),
                                     group[3:])
        assert sorted(rows) == sorted({(z.user, z.item) for z in group})
        rows.clear()
        # A scalar marginal is two group revenues, each gathered once.
        model.marginal_revenue(Strategy(instance.catalog, group[1:]), group[0])
        pairs = {(z.user, z.item) for z in group[1:]}
        assert len(rows) == len(pairs) + len(pairs | {group[0][:2]})
        assert lookups == []

    def test_model_reads_tensors_patched_by_a_delta(self, tmp_path):
        from repro import io as repro_io
        from repro.dynamic import InstanceDelta, apply_delta

        path = tmp_path / "plan.npz"
        repro_io.save_instance_npz(_exactness_instance(), path)
        instance = repro_io.load_instance_npz(path)
        assert not instance.compiled().pair_probs.flags.writeable
        triples = _user_zero_triples(instance)
        strategy = Strategy(instance.catalog, triples[:4])
        candidates = triples[4:]
        model = RevenueModel(instance)
        before = model.marginal_revenue_batch(strategy, candidates)
        apply_delta(instance, InstanceDelta(
            probability_updates={(0, 0): [0.9] * instance.horizon},
            new_users={instance.num_users: {0: [0.5] * instance.horizon,
                                            3: [0.25] * instance.horizon}},
        ))
        # The delta copied the read-only tensor; the live model must see it.
        assert instance.compiled().pair_probs.flags.writeable
        new_user = instance.num_users - 1
        candidates = candidates + [Triple(new_user, 0, 1),
                                   Triple(new_user, 3, 2)]
        after = model.marginal_revenue_batch(strategy, candidates)
        assert after[:len(before)] != before
        assert after == RevenueModel(instance).marginal_revenue_batch(
            strategy, candidates)
        twin = instance.compiled().to_instance(catalog=instance.catalog)
        assert after == RevenueModel(twin, compiled=False).marginal_revenue_batch(
            strategy, candidates)
        assert after[-2:] == [
            _definition_revenue(twin, [z]) for z in candidates[-2:]
        ]
