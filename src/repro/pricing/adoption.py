"""Primitive adoption-probability estimation (§6 of the paper).

The estimator combines the two signals the paper identifies as driving a
purchase decision:

* *interest* -- the predicted rating ``r_hat(u, i)`` from the rating model,
  normalised by the maximum rating ``r_max``;
* *affordability* -- the probability that the user's private valuation clears
  the offered price, ``Pr[val_ui >= p(i, t)]`` from a per-item valuation model.

The primitive adoption probability of a candidate triple is their product:

``q(u, i, t) = Pr[val_ui >= p(i, t)] * r_hat(u, i) / r_max``

These probabilities are *primitive* in the paper's sense: they ignore
competition and saturation, which the dynamic model of
:mod:`repro.core.revenue` layers on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.problem import AdoptionTable
from repro.pricing.valuation import ValuationModel
from repro.recsys.topk import Candidate

__all__ = ["AdoptionEstimator"]


@dataclass
class AdoptionEstimator:
    """Turns rating predictions, valuations and prices into an adoption table.

    Attributes:
        valuations: per-item valuation models (``item -> ValuationModel``).
        max_rating: the rating scale's maximum ``r_max``.
        min_probability: probabilities below this threshold are clamped to
            zero, mirroring the paper's remark that items predicted to be of
            little interest are dropped from consideration.
    """

    valuations: Mapping[int, ValuationModel]
    max_rating: float
    min_probability: float = 1e-4

    def probability(self, predicted_rating: float, item: int, price: float) -> float:
        """Return ``q`` for a single (predicted rating, item, price) combination."""
        if self.max_rating <= 0:
            raise ValueError("max_rating must be positive")
        valuation = self.valuations.get(item)
        if valuation is None:
            return 0.0
        acceptance = valuation.acceptance_probability(price)
        interest = min(1.0, max(0.0, predicted_rating / self.max_rating))
        probability = acceptance * interest
        if probability < self.min_probability:
            return 0.0
        return min(1.0, probability)

    def build_table(
        self,
        candidates: Mapping[int, Sequence[Candidate]],
        prices: np.ndarray,
    ) -> AdoptionTable:
        """Build the sparse adoption table for all candidate (user, item) pairs.

        Args:
            candidates: per-user candidate lists from
                :func:`repro.recsys.topk.top_candidates`.
            prices: the ``(num_items, T)`` exact price matrix.

        Returns:
            An :class:`~repro.core.problem.AdoptionTable` holding
            ``q(u, i, t)`` for every candidate pair and every time step.
        """
        prices = np.asarray(prices, dtype=float)
        horizon = prices.shape[1]
        table = AdoptionTable(horizon)
        for user, user_candidates in candidates.items():
            for candidate in user_candidates:
                vector = [
                    self.probability(
                        candidate.predicted_rating,
                        candidate.item,
                        float(prices[candidate.item, t]),
                    )
                    for t in range(horizon)
                ]
                if any(v > 0.0 for v in vector):
                    table.set(user, candidate.item, vector)
        return table
