"""repro -- reproduction of "Show Me the Money: Dynamic Recommendations for
Revenue Maximization" (Lu, Chen, Li, Lakshmanan; VLDB 2014).

The package implements the paper's dynamic revenue model (prices, valuations,
competition, saturation), the REVMAX optimization problem, its greedy /
approximate / exact solvers, the data-preparation substrates (matrix
factorization, KDE valuation estimation, dataset simulators) and an
experiment harness regenerating every table and figure of the evaluation.

Typical usage::

    from repro import prepare_dataset, GlobalGreedy

    pipeline = prepare_dataset("amazon", scale="small")
    result = GlobalGreedy().run(pipeline.instance)
    print(result.summary())
"""

from repro.core import (
    AdoptionTable,
    CompiledInstance,
    ConstraintChecker,
    EffectiveRevenueModel,
    ItemCatalog,
    PriceDistribution,
    RevMaxInstance,
    RevenueModel,
    Strategy,
    TaylorRevenueModel,
    Triple,
)
from repro.algorithms import (
    AlgorithmResult,
    GlobalGreedy,
    GlobalGreedyNoSaturation,
    LocalSearchApproximation,
    RandomizedLocalGreedy,
    SequentialLocalGreedy,
    SingleStepExactSolver,
    SubHorizonWrapper,
    TopRatingBaseline,
    TopRevenueBaseline,
)
from repro.datasets import (
    build_instance,
    generate_amazon_like,
    generate_epinions_like,
    generate_synthetic_columnar,
    generate_synthetic_instance,
    run_pipeline,
)
from repro.experiments import prepare_dataset, run_algorithms, standard_algorithms
from repro.simulation import AdoptionSimulator

__version__ = "1.0.0"

__all__ = [
    "AdoptionSimulator",
    "AdoptionTable",
    "AlgorithmResult",
    "CompiledInstance",
    "ConstraintChecker",
    "EffectiveRevenueModel",
    "GlobalGreedy",
    "GlobalGreedyNoSaturation",
    "ItemCatalog",
    "LocalSearchApproximation",
    "PriceDistribution",
    "RandomizedLocalGreedy",
    "RevMaxInstance",
    "RevenueModel",
    "SequentialLocalGreedy",
    "SingleStepExactSolver",
    "Strategy",
    "SubHorizonWrapper",
    "TaylorRevenueModel",
    "TopRatingBaseline",
    "TopRevenueBaseline",
    "Triple",
    "__version__",
    "build_instance",
    "generate_amazon_like",
    "generate_epinions_like",
    "generate_synthetic_columnar",
    "generate_synthetic_instance",
    "prepare_dataset",
    "run_algorithms",
    "run_pipeline",
    "standard_algorithms",
]
