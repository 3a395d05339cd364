"""Tests for the experiment harness, reporting helpers and figure functions.

The figure functions are exercised at the smallest reproduction scale; the
assertions check output *structure* and the qualitative relationships the
paper reports (full sweeps live in ``benchmarks/``).
"""

from __future__ import annotations

import pytest

from repro.datasets.synthetic import SyntheticConfig
from repro.experiments.figures import (
    extension_random_prices,
    figure1_revenue_by_capacity_distribution,
    figure2_revenue_by_saturation,
    figure3_revenue_by_saturation_singleton,
    figure4_revenue_growth_curves,
    figure5_repeat_histograms,
    figure6_scalability,
    figure7_incomplete_prices,
    table1_dataset_statistics,
    table2_running_times,
    theory_small_instances,
)
from repro.experiments.harness import (
    SCALES,
    predicted_ratings_map,
    prepare_dataset,
    run_algorithms,
    standard_algorithms,
)
from repro.experiments.reporting import (
    format_grouped_bars,
    format_histogram,
    format_series,
    format_table,
)


class TestHarness:
    def test_scales_defined(self):
        assert {"tiny", "small", "medium"} <= set(SCALES)

    def test_prepare_dataset_caching(self):
        first = prepare_dataset("amazon", scale="tiny", seed=0)
        second = prepare_dataset("amazon", scale="tiny", seed=0)
        assert first is second
        third = prepare_dataset("amazon", scale="tiny", seed=0, use_cache=False)
        assert third is not first

    def test_prepare_dataset_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            prepare_dataset("netflix", scale="tiny")
        with pytest.raises(ValueError):
            prepare_dataset("amazon", scale="galactic")

    def test_predicted_ratings_map(self, tiny_amazon_pipeline):
        mapping = predicted_ratings_map(tiny_amazon_pipeline)
        assert mapping
        assert all(isinstance(key, tuple) and len(key) == 2 for key in mapping)
        assert all(1.0 <= value <= 5.0 for value in mapping.values())

    def test_standard_algorithms_full_suite(self):
        suite = standard_algorithms()
        names = [algorithm.name for algorithm in suite]
        assert names == ["G-Greedy", "GlobalNo", "RL-Greedy", "SL-Greedy",
                         "TopRE", "TopRA"]

    def test_standard_algorithms_subset(self):
        suite = standard_algorithms(include=["GG", "SLG"])
        assert [algorithm.name for algorithm in suite] == ["G-Greedy", "SL-Greedy"]
        with pytest.raises(ValueError):
            standard_algorithms(include=["nope"])

    def test_run_algorithms(self, tiny_amazon_pipeline):
        suite = standard_algorithms(include=["GG", "TopRev"])
        results = run_algorithms(tiny_amazon_pipeline.instance, suite,
                                 settings={"tag": "unit-test"})
        assert set(results) == {"G-Greedy", "TopRE"}
        assert all(result.revenue > 0 for result in results.values())
        assert results["G-Greedy"].extras["tag"] == "unit-test"


class TestReporting:
    def test_format_table_alignment_and_floats(self):
        text = format_table(["name", "value"], [["a", 1.2345], ["bb", 2.0]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.23" in text
        assert "----" in lines[1]

    def test_format_grouped_bars(self):
        data = {"normal": {"GG": 10.0, "SLG": 8.0}, "power": {"GG": 12.0}}
        text = format_grouped_bars(data, group_label="capacity")
        assert "capacity" in text
        assert "GG" in text and "SLG" in text
        assert "-" in text.splitlines()[-1]  # missing value placeholder

    def test_format_histogram(self):
        text = format_histogram({1: 10, 2: 5, 3: 1}, label="repeats")
        assert "repeats" in text
        assert "#" in text
        assert format_histogram({}, label="repeats") == "(no repeats)"

    def test_format_series_downsamples(self):
        points = [(i, float(i * i)) for i in range(100)]
        text = format_series(points, max_points=10)
        assert len(text.splitlines()) <= 16
        assert "99" in text  # last point always kept
        assert format_series([]) == "(empty series)"


@pytest.fixture(scope="module")
def tiny_pipelines():
    return {
        "amazon": prepare_dataset("amazon", scale="tiny", seed=0),
        "epinions": prepare_dataset("epinions", scale="tiny", seed=0),
    }


class TestTables:
    def test_table1(self, tiny_pipelines):
        result = table1_dataset_statistics(
            tiny_pipelines,
            synthetic_config=SyntheticConfig(num_users=50, num_items=30,
                                             candidates_per_user=10, seed=0),
        )
        assert "amazon" in result.text
        assert "synthetic" in result.text
        assert len(result.data["rows"]) == 3

    def test_table2(self, tiny_pipelines):
        result = table2_running_times(
            {"amazon": tiny_pipelines["amazon"]}, rl_permutations=2
        )
        times = result.data["amazon"]
        assert set(times) == {"G-Greedy", "GlobalNo", "RL-Greedy", "SL-Greedy",
                              "TopRE", "TopRA"}
        assert all(value >= 0 for value in times.values())
        # Baselines are much cheaper than the greedy algorithms.
        assert times["TopRE"] <= times["G-Greedy"]


class TestFigures:
    def test_figure1_structure_and_ordering(self, tiny_pipelines):
        result = figure1_revenue_by_capacity_distribution(
            {"amazon": tiny_pipelines["amazon"]},
            capacity_distributions=("normal",),
            rl_permutations=2,
        )
        revenues = result.data["amazon"]["normal"]
        assert revenues["G-Greedy"] >= revenues["TopRE"]
        assert revenues["G-Greedy"] >= revenues["TopRA"]
        assert "G-Greedy" in result.text

    def test_figure2_saturation_settings(self, tiny_pipelines):
        result = figure2_revenue_by_saturation(
            {"amazon": tiny_pipelines["amazon"]},
            betas=(0.1, 0.9),
            capacity_distributions=("normal",),
            rl_permutations=2,
        )
        block = result.data["amazon/normal"]
        assert set(block) == {"beta=0.1", "beta=0.9"}
        for revenues in block.values():
            assert revenues["G-Greedy"] >= revenues["TopRA"]

    def test_figure3_uses_singleton_classes(self, tiny_pipelines):
        result = figure3_revenue_by_saturation_singleton(
            {"amazon": tiny_pipelines["amazon"]},
            betas=(0.5,),
            capacity_distributions=("normal",),
            rl_permutations=2,
        )
        assert result.name == "Figure 3"
        assert "singleton" in result.description

    def test_figure4_growth_curves(self, tiny_pipelines):
        result = figure4_revenue_growth_curves(tiny_pipelines["amazon"],
                                               rl_permutations=2)
        curves = result.data["curves"]
        assert set(curves) == {"G-Greedy", "SL-Greedy", "RL-Greedy"}
        for curve in curves.values():
            revenues = [revenue for _, revenue in curve]
            assert revenues == sorted(revenues)

    def test_figure5_histograms(self, tiny_pipelines):
        result = figure5_repeat_histograms(tiny_pipelines["amazon"], betas=(0.1, 0.9))
        histograms = result.data["histograms"]
        assert set(histograms) == {0.1, 0.9}
        for counts in histograms.values():
            assert sum(counts.values()) > 0
        # Stronger saturation (0.1) should push mass toward fewer repeats:
        # compare the share of single recommendations.
        def single_share(counts):
            total = sum(counts.values())
            return counts.get(1, 0) / total

        assert single_share(histograms[0.1]) >= single_share(histograms[0.9]) - 0.05

    def test_figure6_scalability_points(self):
        config = SyntheticConfig(num_items=30, num_classes=5, candidates_per_user=5,
                                 horizon=3, seed=0)
        result = figure6_scalability(user_counts=(20, 40), base_config=config)
        points = result.data["points"]
        assert len(points) == 2
        assert points[0][0] < points[1][0]
        assert all(runtime >= 0 for _, runtime in points)

    def test_figure7_incomplete_prices(self, tiny_pipelines):
        result = figure7_incomplete_prices(
            {"amazon": tiny_pipelines["amazon"]},
            cutoffs=(2,),
            capacity_distributions=("normal",),
            rl_permutations=2,
        )
        revenues = result.data["amazon/normal"]
        assert {"GG", "GG_2", "SLG", "RLG", "RLG_2"} <= set(revenues)
        # Losing look-ahead should not help (allow heuristic slack).
        assert revenues["GG_2"] <= revenues["GG"] * 1.05

    def test_extension_random_prices(self):
        result = extension_random_prices(num_users=6, num_items=4, horizon=3,
                                         num_mc_samples=2000, seed=0)
        data = result.data
        assert data["strategy_size"] > 0
        # With enough Monte-Carlo samples the second-order Taylor estimate is
        # closer to the ground truth than the naive mean-price estimate.
        assert data["taylor_abs_error"] <= data["mean_abs_error"] + 1e-6

    def test_theory_small_instances(self):
        result = theory_small_instances(seed=0)
        data = result.data
        assert data["t1_exact_revenue"] >= data["t1_greedy_revenue"] - 1e-9
        assert data["t3_local_search_revenue"] >= 0
        assert "Exact Max-DCS" in result.text

