"""Tests for SL-Greedy and RL-Greedy (Algorithm 2)."""

from __future__ import annotations

import pytest

from repro.algorithms.global_greedy import GlobalGreedy
from repro.algorithms.local_greedy import (
    RandomizedLocalGreedy,
    SequentialLocalGreedy,
    greedy_single_step,
    step_candidates,
)
from repro.core.constraints import ConstraintChecker
from repro.core.entities import Triple
from repro.core.revenue import RevenueModel
from repro.core.strategy import Strategy

from tests.conftest import build_random_instance


class TestGreedySingleStep:
    def test_only_selected_time_step_used(self, small_instance):
        model = RevenueModel(small_instance)
        checker = ConstraintChecker(small_instance)
        strategy = Strategy(small_instance.catalog)
        greedy_single_step(small_instance, model, checker, strategy,
                           step_candidates(small_instance)[1])
        assert len(strategy) > 0
        assert all(triple.t == 1 for triple in strategy)
        checker.check(strategy)

    def test_growth_curve_is_cumulative(self, small_instance):
        model = RevenueModel(small_instance)
        checker = ConstraintChecker(small_instance)
        strategy = Strategy(small_instance.catalog)
        curve = []
        greedy_single_step(small_instance, model, checker, strategy,
                           step_candidates(small_instance)[0], curve)
        revenues = [revenue for _, revenue in curve]
        assert revenues == sorted(revenues)
        assert revenues[-1] == pytest.approx(model.revenue(strategy), rel=1e-6)


class TestSequentialLocalGreedy:
    def test_output_is_valid(self, small_instance):
        result = SequentialLocalGreedy().run(small_instance)
        ConstraintChecker(small_instance).check(result.strategy)
        assert result.revenue > 0

    def test_chronological_order_recorded(self, small_instance):
        algorithm = SequentialLocalGreedy()
        algorithm.run(small_instance)
        assert algorithm.last_extras["time_order"] == list(range(small_instance.horizon))

    def test_explicit_time_order_respected(self, small_instance):
        algorithm = SequentialLocalGreedy()
        reversed_order = list(range(small_instance.horizon))[::-1]
        strategy = algorithm.build_strategy(small_instance, time_order=reversed_order)
        ConstraintChecker(small_instance).check(strategy)
        assert algorithm.last_extras["time_order"] == reversed_order

    def test_example_4_chronological_is_suboptimal(self, paper_example_instance):
        """Example 4: SL-Greedy picks both triples (revenue 0.5285) whereas the
        reverse order keeps only (u, i, 2) (revenue 0.57)."""
        slg = SequentialLocalGreedy()
        chronological = slg.build_strategy(paper_example_instance)
        model = RevenueModel(paper_example_instance)
        assert chronological.triples() == {Triple(0, 0, 0), Triple(0, 0, 1)}
        assert model.revenue(chronological) == pytest.approx(0.5285)
        reverse = slg.build_strategy(paper_example_instance, time_order=[1, 0])
        assert reverse.triples() == {Triple(0, 0, 1)}
        assert model.revenue(reverse) == pytest.approx(0.57)


class TestTimeOrderValidation:
    def test_out_of_range_step_rejected(self, small_instance):
        order = list(range(1, small_instance.horizon + 1))
        with pytest.raises(ValueError, match="time_order"):
            SequentialLocalGreedy().build_strategy(small_instance, time_order=order)

    def test_repeated_step_rejected(self, small_instance):
        order = [0] + list(range(small_instance.horizon - 1))
        with pytest.raises(ValueError, match="time_order"):
            SequentialLocalGreedy().build_strategy(small_instance, time_order=order)


class TestCandidateScan:
    """Each build scans the candidate ground set once, not once per step."""

    @pytest.fixture
    def scans(self, monkeypatch, small_instance):
        calls = []
        cls = type(small_instance)
        original = cls.candidate_triples

        def counting(instance):
            calls.append(instance)
            return original(instance)

        monkeypatch.setattr(cls, "candidate_triples", counting)
        return calls

    def test_one_scan_per_sequential_build(self, small_instance, scans):
        assert small_instance.horizon > 1
        SequentialLocalGreedy().build_strategy(small_instance)
        assert len(scans) == 1

    def test_one_scan_per_randomized_order(self, small_instance, scans):
        algorithm = RandomizedLocalGreedy(num_permutations=4, seed=0)
        algorithm.build_strategy(small_instance)
        assert len(scans) == len(algorithm._sample_permutations(
            small_instance.horizon
        )) == 4


class TestRandomizedLocalGreedy:
    def test_output_is_valid(self, small_instance):
        result = RandomizedLocalGreedy(num_permutations=4, seed=0).run(small_instance)
        ConstraintChecker(small_instance).check(result.strategy)
        assert result.revenue > 0

    def test_invalid_permutation_count_rejected(self):
        with pytest.raises(ValueError):
            RandomizedLocalGreedy(num_permutations=0)

    def test_at_least_as_good_as_sequential(self, small_instance):
        """RL-Greedy samples the chronological order too, so it can never do
        worse than SL-Greedy."""
        sequential = SequentialLocalGreedy().run(small_instance)
        randomized = RandomizedLocalGreedy(num_permutations=6, seed=1).run(small_instance)
        assert randomized.revenue >= sequential.revenue - 1e-9

    def test_beats_sequential_on_paper_example(self, paper_example_instance):
        """On Example 4 the 2! = 2 permutations are enumerated exhaustively, so
        RL-Greedy finds the better reverse order."""
        randomized = RandomizedLocalGreedy(num_permutations=5, seed=0).run(
            paper_example_instance
        )
        sequential = SequentialLocalGreedy().run(paper_example_instance)
        assert randomized.revenue == pytest.approx(0.57)
        assert randomized.revenue > sequential.revenue

    def test_enumerates_all_permutations_when_few(self, paper_example_instance):
        algorithm = RandomizedLocalGreedy(num_permutations=100, seed=0)
        permutations = algorithm._sample_permutations(3)
        assert len(permutations) == 6
        assert len(set(permutations)) == 6

    def test_samples_distinct_permutations(self):
        algorithm = RandomizedLocalGreedy(num_permutations=10, seed=3)
        permutations = algorithm._sample_permutations(7)
        assert len(permutations) == 10
        assert len(set(permutations)) == 10
        assert tuple(range(7)) in permutations

    def test_best_order_reported(self, small_instance):
        algorithm = RandomizedLocalGreedy(num_permutations=4, seed=2)
        algorithm.run(small_instance)
        best_order = algorithm.last_extras["best_order"]
        assert sorted(best_order) == list(range(small_instance.horizon))


class TestAlgorithmHierarchy:
    def test_paper_ranking_on_random_instances(self):
        """The qualitative ordering GG >= RLG >= SLG (within tolerance) should
        hold on most instances; check it holds on average over several seeds."""
        gg_wins, rlg_wins = 0, 0
        trials = 5
        for seed in range(trials):
            instance = build_random_instance(
                num_users=6, num_items=5, num_classes=2, horizon=4,
                display_limit=2, capacity=4, beta=0.4, seed=seed,
            )
            gg = GlobalGreedy().run(instance).revenue
            rlg = RandomizedLocalGreedy(num_permutations=6, seed=seed).run(instance).revenue
            slg = SequentialLocalGreedy().run(instance).revenue
            if gg >= rlg - 1e-9:
                gg_wins += 1
            if rlg >= slg - 1e-9:
                rlg_wins += 1
        assert gg_wins >= trials - 1
        assert rlg_wins == trials
