"""Experiment harness, per-figure regeneration functions and reporting."""

# NOTE: repro.experiments.parallel is deliberately NOT imported here, and
# RandomizedLocalGreedy imports it lazily: importing it at load time would
# cycle through this package -> harness -> algorithms.local_greedy.
from repro.experiments.harness import (
    SCALES,
    ExperimentRecord,
    experiment_records,
    predicted_ratings_map,
    prepare_dataset,
    run_algorithms,
    standard_algorithms,
)
from repro.experiments.figures import (
    FigureResult,
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
from repro.experiments.reporting import (
    format_grouped_bars,
    format_histogram,
    format_series,
    format_table,
)

__all__ = [
    "SCALES",
    "ExperimentRecord",
    "FigureResult",
    "extension_random_prices",
    "figure1_revenue_by_capacity_distribution",
    "figure2_revenue_by_saturation",
    "figure3_revenue_by_saturation_singleton",
    "figure4_revenue_growth_curves",
    "figure5_repeat_histograms",
    "figure6_scalability",
    "figure7_incomplete_prices",
    "format_grouped_bars",
    "format_histogram",
    "format_series",
    "format_table",
    "experiment_records",
    "predicted_ratings_map",
    "prepare_dataset",
    "run_algorithms",
    "standard_algorithms",
    "table1_dataset_statistics",
    "table2_running_times",
    "theory_small_instances",
]
