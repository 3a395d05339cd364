"""Tests for the shared selection engine and the batched scoring path.

Two equivalence ladders anchor the refactor:

* ``marginal_revenue_batch`` must agree with scalar ``marginal_revenue``
  to 1e-9 on random instances, on both backends;
* every solver built on :class:`LazyGreedySelector` must reproduce, triple
  for triple, both a transparent reference greedy (argmax re-scoring every
  candidate at every step -- no heaps, no laziness) and its own output
  under the other backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.global_greedy import GlobalGreedy, GlobalGreedyNoSaturation
from repro.algorithms.local_greedy import RandomizedLocalGreedy, SequentialLocalGreedy
from repro.core.constraints import ConstraintChecker
from repro.core.revenue import RevenueModel
from repro.core.selection import (
    SEED_ISOLATED,
    SEED_MARGINAL,
    LazyGreedySelector,
    SelectionTrace,
)
from repro.core.strategy import Strategy
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_columnar

from tests.conftest import build_random_instance


def _random_strategy(instance, rng, size):
    """A valid random strategy of roughly ``size`` triples."""
    checker = ConstraintChecker(instance)
    strategy = Strategy(instance.catalog)
    candidates = sorted(instance.candidate_triples())
    rng.shuffle(candidates)
    for triple in candidates:
        if len(strategy) >= size:
            break
        if checker.can_add(strategy, triple):
            strategy.add(triple)
    return strategy


class TestMarginalRevenueBatch:
    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_matches_scalar_on_random_instances(self, backend):
        for seed in range(8):
            instance = build_random_instance(
                num_users=4, num_items=6, num_classes=2, horizon=4,
                display_limit=3, capacity=5, density=0.8, seed=seed,
            )
            rng = np.random.default_rng(seed)
            strategy = _random_strategy(instance, rng, size=6)
            candidates = sorted(instance.candidate_triples())
            scalar_model = RevenueModel(instance, backend=backend)
            batch_model = RevenueModel(instance, backend=backend)
            scalar = [
                scalar_model.marginal_revenue(strategy, z) for z in candidates
            ]
            batch = batch_model.marginal_revenue_batch(strategy, candidates)
            assert batch == pytest.approx(scalar, rel=1e-9, abs=1e-12)

    def test_in_strategy_triples_score_zero(self, small_instance):
        model = RevenueModel(small_instance)
        candidates = sorted(small_instance.candidate_triples())
        strategy = Strategy(small_instance.catalog, candidates[:3])
        values = model.marginal_revenue_batch(strategy, candidates[:5])
        assert values[:3] == [0.0, 0.0, 0.0]

    def test_batch_counts_one_lookup_per_scored_candidate(self, small_instance):
        model = RevenueModel(small_instance)
        candidates = sorted(small_instance.candidate_triples())
        strategy = Strategy(small_instance.catalog, candidates[:2])
        model.reset_counters()
        model.marginal_revenue_batch(strategy, candidates)
        # The two already-selected triples are answered without scoring.
        assert model.lookups == len(candidates) - 2

    def test_repeated_batch_recomputes_every_row(self, small_instance):
        model = RevenueModel(small_instance)
        candidates = sorted(small_instance.candidate_triples())
        strategy = Strategy(small_instance.catalog)
        first = model.marginal_revenue_batch(strategy, candidates)
        computed = model.evaluations
        assert computed > 0
        # Nothing is memoised: a second identical batch computes every row
        # again and returns the same values.
        second = model.marginal_revenue_batch(strategy, candidates)
        assert second == first
        assert model.evaluations == 2 * computed
        # Lookups still count every requested candidate of both batches.
        assert model.lookups == 2 * len(candidates)

    def test_scalar_lookup_semantics_unchanged(self, small_instance):
        """A scalar marginal is still two lookups (before + after group)."""
        model = RevenueModel(small_instance)
        candidate = sorted(small_instance.candidate_triples())[0]
        strategy = Strategy(small_instance.catalog)
        model.reset_counters()
        model.marginal_revenue(strategy, candidate)
        # Empty "before" group short-circuits, so exactly one lookup here.
        assert model.lookups == 1
        strategy.add(candidate)
        other = next(
            z for z in sorted(small_instance.candidate_triples())
            if z != candidate
        )
        model.reset_counters()
        model.marginal_revenue(strategy, other)
        expected = 2 if strategy.group_of_triple(other) else 1
        assert model.lookups == expected


def _reference_global_greedy(instance, ignore_saturation=False):
    """Transparent G-Greedy: re-score every candidate at every step."""
    selection_instance = (
        instance.with_betas(1.0) if ignore_saturation else instance
    )
    model = RevenueModel(selection_instance)
    checker = ConstraintChecker(instance)
    strategy = Strategy(instance.catalog)
    candidates = list(instance.candidate_triples())
    while True:
        best, best_value = None, 0.0
        for triple in candidates:
            if triple in strategy or not checker.can_add(strategy, triple):
                continue
            value = model.marginal_revenue(strategy, triple)
            if value > best_value:
                best, best_value = triple, value
        if best is None:
            return strategy
        strategy.add(best)


def _reference_local_greedy(instance, order):
    """Transparent SL-Greedy: per-step argmax re-scoring every candidate."""
    model = RevenueModel(instance)
    checker = ConstraintChecker(instance)
    strategy = Strategy(instance.catalog)
    for time_step in order:
        step_candidates = [
            z for z in instance.candidate_triples() if z.t == time_step
        ]
        while True:
            best, best_value = None, 0.0
            for triple in step_candidates:
                if triple in strategy or not checker.can_add(strategy, triple):
                    continue
                value = model.marginal_revenue(strategy, triple)
                if value > best_value:
                    best, best_value = triple, value
            if best is None:
                break
            strategy.add(best)
    return strategy


class TestSolverEquivalence:
    """The refactored solvers against the reference greedy and across backends."""

    @pytest.mark.parametrize("seed", range(4))
    def test_global_greedy_matches_reference(self, seed):
        instance = build_random_instance(
            num_users=5, num_items=5, num_classes=2, horizon=3,
            display_limit=2, capacity=3, beta=0.5, density=0.8, seed=seed,
        )
        reference = _reference_global_greedy(instance)
        for kwargs in (
            {},
            {"use_lazy_forward": False},
            {"use_two_level_heap": False},
            {"use_lazy_forward": False, "use_two_level_heap": False},
        ):
            strategy = GlobalGreedy(**kwargs).build_strategy(instance)
            assert strategy.triples() == reference.triples(), kwargs

    @pytest.mark.parametrize("seed", range(4))
    def test_local_greedy_matches_reference(self, seed):
        instance = build_random_instance(
            num_users=5, num_items=5, num_classes=2, horizon=3,
            display_limit=2, capacity=3, beta=0.5, density=0.8, seed=seed,
        )
        order = list(range(instance.horizon))
        reference = _reference_local_greedy(instance, order)
        strategy = SequentialLocalGreedy().build_strategy(instance)
        assert strategy.triples() == reference.triples()

    def test_global_no_matches_reference(self, small_instance):
        reference = _reference_global_greedy(
            small_instance, ignore_saturation=True
        )
        strategy = GlobalGreedyNoSaturation().build_strategy(small_instance)
        assert strategy.triples() == reference.triples()

    @pytest.mark.parametrize("algorithm_factory", [
        lambda backend: GlobalGreedy(backend=backend),
        lambda backend: GlobalGreedyNoSaturation(backend=backend),
        lambda backend: SequentialLocalGreedy(backend=backend),
        lambda backend: RandomizedLocalGreedy(
            num_permutations=4, seed=0, backend=backend
        ),
    ])
    def test_backends_produce_identical_strategies(
        self, tiny_amazon_pipeline, algorithm_factory
    ):
        instance = tiny_amazon_pipeline.instance
        numpy_strategy = algorithm_factory("numpy").build_strategy(instance)
        python_strategy = algorithm_factory("python").build_strategy(instance)
        assert numpy_strategy.triples() == python_strategy.triples()


class TestLazyGreedySelector:
    def test_rejects_unknown_seeding_rule(self, small_instance):
        model = RevenueModel(small_instance)
        with pytest.raises(ValueError):
            LazyGreedySelector(
                small_instance, model, ConstraintChecker(small_instance),
                seed_priorities="optimistic",
            )

    def test_max_selections_caps_strategy_size(self, small_instance):
        model = RevenueModel(small_instance)
        strategy = Strategy(small_instance.catalog)
        selector = LazyGreedySelector(
            small_instance, model, ConstraintChecker(small_instance),
            seed_priorities=SEED_MARGINAL, max_selections=3,
        )
        admitted = selector.select(
            strategy, small_instance.candidate_triples()
        )
        assert admitted == 3
        assert len(strategy) == 3

    def test_on_admit_hook_sees_every_admission(self, small_instance):
        model = RevenueModel(small_instance)
        strategy = Strategy(small_instance.catalog)
        admissions = []
        selector = LazyGreedySelector(
            small_instance, model, ConstraintChecker(small_instance),
            seed_priorities=SEED_ISOLATED,
            on_admit=lambda triple, gain: admissions.append((triple, gain)),
        )
        growth_curve = []
        selector.select(strategy, small_instance.candidate_triples(),
                        growth_curve=growth_curve)
        assert len(admissions) == len(strategy)
        assert all(gain > 0.0 for _, gain in admissions)
        assert [round(g, 12) for _, g in admissions] == [
            round(b - a, 12) for (_, a), (_, b) in
            zip([(0, 0.0)] + growth_curve[:-1], growth_curve)
        ]

    def test_growth_curve_continues_across_calls(self, small_instance):
        """SL-Greedy's per-step calls accumulate one cumulative curve."""
        model = RevenueModel(small_instance)
        checker = ConstraintChecker(small_instance)
        strategy = Strategy(small_instance.catalog)
        selector = LazyGreedySelector(
            small_instance, model, checker, seed_priorities=SEED_MARGINAL,
            use_two_level_heap=False,
        )
        curve = []
        for t in range(small_instance.horizon):
            selector.select(
                strategy,
                (z for z in small_instance.candidate_triples() if z.t == t),
                growth_curve=curve,
            )
        sizes = [size for size, _ in curve]
        revenues = [revenue for _, revenue in curve]
        assert sizes == list(range(1, len(strategy) + 1))
        assert revenues == sorted(revenues)
        assert revenues[-1] == pytest.approx(
            RevenueModel(small_instance).revenue(strategy), rel=1e-6
        )

    def test_selection_skips_triples_already_in_strategy(self, small_instance):
        model = RevenueModel(small_instance)
        candidates = sorted(small_instance.candidate_triples())
        strategy = Strategy(small_instance.catalog, candidates[:2])
        selector = LazyGreedySelector(
            small_instance, model, ConstraintChecker(small_instance),
            seed_priorities=SEED_MARGINAL,
        )
        selector.select(strategy, candidates)
        # No duplicate admissions: Strategy.add would have raised otherwise.
        assert set(candidates[:2]) <= strategy.triples()



def _traced_run(instance, *, columnar, allowed_times=None, initial=(),
                ignore_saturation=False, max_selections=None):
    """One isolated-seeded lazy G-Greedy selection with a trace.

    ``columnar=True`` runs the row-keyed columnar loop on ``instance``;
    ``columnar=False`` runs the object path (``backend="python"`` models,
    the executable specification) on a dict-backed twin of it.
    """
    source = (instance if columnar
              else instance.compiled().to_instance(catalog=instance.catalog))
    selection_instance = (
        source.with_betas(1.0) if ignore_saturation else source
    )
    backend = "numpy" if columnar else "python"
    model = RevenueModel(selection_instance, backend=backend)
    true_model = (RevenueModel(source, backend=backend)
                  if ignore_saturation else None)
    trace = SelectionTrace()
    selector = LazyGreedySelector(
        source, model, ConstraintChecker(source), true_model=true_model,
        seed_priorities=SEED_ISOLATED, max_selections=max_selections,
        trace=trace,
    )
    strategy = Strategy(source.catalog, initial)
    curve = []
    selector.select(strategy, None, allowed_times=allowed_times,
                    growth_curve=curve)
    return {
        "triples": sorted(strategy.triples()),
        "admissions": trace.admissions,
        "curve": curve,
        "events": trace.events,
        "flags": {"truncated": trace.truncated, "capped": trace.capped,
                  "capacity_blocked": trace.capacity_blocked},
    }


def _synthetic(seed, **overrides):
    config = dict(num_users=80, num_items=24, num_classes=4,
                  candidates_per_user=6, horizon=4, display_limit=2,
                  capacity_fraction=0.25, beta=0.5, seed=seed)
    config.update(overrides)
    return generate_synthetic_columnar(SyntheticConfig(**config))


class TestColumnarLoopDifferential:
    """The row-keyed columnar loop against the object path, bit for bit.

    Admissions (triples and float gains), growth curves and every
    ``SelectionTrace`` event must be ``==``-equal, not approximately equal.
    """

    @pytest.fixture(autouse=True)
    def _count_columnar_runs(self, monkeypatch):
        self.columnar_runs = 0
        original = LazyGreedySelector._select_columnar

        def counting(selector, *args, **kwargs):
            self.columnar_runs += 1
            return original(selector, *args, **kwargs)

        monkeypatch.setattr(LazyGreedySelector, "_select_columnar", counting)

    def _assert_agree(self, instance, **kwargs):
        columnar = _traced_run(instance, columnar=True, **kwargs)
        runs = self.columnar_runs
        object_path = _traced_run(instance, columnar=False, **kwargs)
        assert runs >= 1 and self.columnar_runs == runs
        assert columnar == object_path
        assert columnar["admissions"]
        return columnar

    @pytest.mark.parametrize("seed", range(3))
    def test_default_configuration(self, seed):
        self._assert_agree(_synthetic(seed))

    @pytest.mark.parametrize("seed", range(3))
    def test_binding_capacities_drop_whole_rows(self, seed):
        run = self._assert_agree(_synthetic(seed, capacity_fraction=0.05))
        assert run["flags"]["capacity_blocked"]

    @pytest.mark.parametrize("allowed", [{0, 2, 3}, {1}, {3, 7}])
    def test_allowed_times_subsets(self, allowed):
        run = self._assert_agree(_synthetic(4), allowed_times=allowed)
        assert {z.t for z, _ in run["admissions"]} <= allowed

    @pytest.mark.parametrize("seed", range(2))
    def test_non_empty_initial_strategy(self, seed):
        # The sub-horizon protocol of SubHorizonWrapper: the first
        # sub-horizon's strategy seeds the second one's run (the wrapper
        # itself is compared end to end in test_compiled.py).
        instance = _synthetic(seed, capacity_fraction=0.1)
        first = _traced_run(instance, columnar=True, allowed_times={0, 1})
        initial = first["triples"]
        assert initial
        self._assert_agree(instance, allowed_times={1, 2, 3},
                           initial=initial)

    @pytest.mark.parametrize("seed", range(2))
    def test_global_no(self, seed):
        self._assert_agree(_synthetic(seed, capacity_fraction=0.1),
                           ignore_saturation=True)

    @pytest.mark.parametrize("cap", [1, 25, 60])
    def test_max_selections_cap(self, cap):
        run = self._assert_agree(_synthetic(6), max_selections=cap)
        assert len(run["admissions"]) == cap
        assert run["flags"]["capped"]
