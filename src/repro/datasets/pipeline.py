"""End-to-end preprocessing pipeline: dataset -> REVMAX instance.

This is the reproduction of the §6.1 preparation steps:

1. train a matrix-factorization model on the observed ratings;
2. for every user, keep the top-N items by predicted rating as candidates;
3. fit a per-item valuation model:
   * Epinions style -- a Gaussian implied by the KDE over reported prices,
     which also yields the sampled price series;
   * Amazon style -- the observed price series plays the role of the reported
     prices (the paper does not spell out the Amazon valuation fit; using the
     price history keeps acceptance probabilities well-calibrated against the
     actual price range, which is the property the experiments rely on);
4. compute primitive adoption probabilities
   ``q(u, i, t) = Pr[val >= p(i, t)] * r_hat / r_max``;
5. draw per-item capacities and saturation factors;
6. assemble the :class:`~repro.core.problem.RevMaxInstance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.problem import RevMaxInstance
from repro.datasets.capacities import sample_betas, sample_capacities
from repro.datasets.schema import MarketDataset
from repro.pricing.adoption import AdoptionEstimator
from repro.pricing.price_series import prices_from_kde
from repro.pricing.valuation import GaussianValuation, ValuationModel
from repro.recsys.mf import MatrixFactorization, MFConfig
from repro.recsys.topk import Candidate, top_candidates

__all__ = ["PipelineConfig", "PipelineResult", "run_pipeline", "build_instance"]


@dataclass
class PipelineConfig:
    """Configuration of the dataset -> instance pipeline.

    Attributes:
        display_limit: the display constraint ``k``.
        num_candidates: per-user candidate count (the paper uses 100; the
            default is scaled down with the datasets).
        min_predicted_rating: candidates predicted below this are dropped.
        mf_config: hyper-parameters of the matrix-factorization model.
        capacity_distribution: ``"normal"``, ``"power"``, ``"uniform"`` or
            ``"exponential"``.
        capacity_mean_fraction: mean capacity as a fraction of the user count.
        beta_mode: ``"uniform"`` (random in [0,1]) or ``"fixed"``.
        beta_value: the fixed saturation factor when ``beta_mode == "fixed"``.
        seed: seed shared by the samplers of this pipeline run.
    """

    display_limit: int = 3
    num_candidates: int = 25
    min_predicted_rating: float = 2.0
    mf_config: Optional[MFConfig] = None
    capacity_distribution: str = "normal"
    capacity_mean_fraction: float = 0.2
    beta_mode: str = "uniform"
    beta_value: Optional[float] = None
    seed: Optional[int] = 0


@dataclass
class PipelineResult:
    """Everything produced while turning a dataset into an instance.

    Attributes:
        instance: the ready-to-solve REVMAX instance.
        model: the fitted matrix-factorization model.
        candidates: per-user candidate lists.
        valuations: per-item valuation models.
        prices: the exact price matrix used by the instance.
        dataset: the source dataset (kept for statistics / reporting).
    """

    instance: RevMaxInstance
    model: MatrixFactorization
    candidates: Dict[int, List[Candidate]]
    valuations: Dict[int, ValuationModel]
    prices: np.ndarray
    dataset: Optional[MarketDataset] = None


def _fit_valuations(dataset: MarketDataset, prices: np.ndarray
                    ) -> Dict[int, ValuationModel]:
    """Fit one valuation model per item from reported prices or price history."""
    valuations: Dict[int, ValuationModel] = {}
    for item in range(dataset.num_items):
        if dataset.reported_prices and item in dataset.reported_prices:
            samples = dataset.reported_prices[item]
        else:
            samples = prices[item, :].tolist()
        valuations[item] = GaussianValuation.from_reported_prices(samples)
    return valuations


def run_pipeline(dataset: MarketDataset,
                 config: Optional[PipelineConfig] = None) -> PipelineResult:
    """Run the full §6.1 preprocessing pipeline on a dataset.

    Args:
        dataset: the source market dataset.
        config: pipeline knobs (defaults used when ``None``).
    """
    config = config or PipelineConfig()
    rng = np.random.default_rng(config.seed)

    model = MatrixFactorization(config.mf_config or MFConfig(seed=config.seed))
    model.fit(dataset.ratings)

    candidates = top_candidates(
        model,
        dataset.ratings,
        num_candidates=config.num_candidates,
        min_predicted_rating=config.min_predicted_rating,
    )

    if dataset.has_exact_prices():
        prices = np.asarray(dataset.prices, dtype=float)
    else:
        prices = prices_from_kde(
            dataset.reported_prices or {},
            dataset.num_items,
            dataset.horizon,
            rng=rng,
        )

    valuations = _fit_valuations(dataset, prices)
    estimator = AdoptionEstimator(
        valuations=valuations, max_rating=dataset.ratings.max_rating
    )

    capacities = sample_capacities(
        dataset.num_items,
        dataset.num_users,
        distribution=config.capacity_distribution,
        mean_fraction=config.capacity_mean_fraction,
        seed=config.seed,
    )
    betas = sample_betas(
        dataset.num_items,
        mode=config.beta_mode,
        value=config.beta_value,
        seed=config.seed,
    )

    instance = RevMaxInstance(
        num_users=dataset.num_users,
        catalog=dataset.catalog,
        horizon=dataset.horizon,
        display_limit=config.display_limit,
        prices=prices,
        capacities=capacities,
        betas=betas,
        adoption=estimator.build_table(candidates, prices),
        name=dataset.name,
    )
    return PipelineResult(
        instance=instance,
        model=model,
        candidates=candidates,
        valuations=valuations,
        prices=prices,
        dataset=dataset,
    )


def build_instance(dataset: MarketDataset,
                   config: Optional[PipelineConfig] = None) -> RevMaxInstance:
    """Convenience wrapper returning only the REVMAX instance."""
    return run_pipeline(dataset, config).instance
