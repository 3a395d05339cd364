"""The 1/(4+eps) local-search approximation for R-REVMAX (§4.2).

The relaxed problem R-REVMAX keeps only the display constraint as a hard
constraint -- a partition matroid by Lemma 2 -- and pushes the capacity
constraint into the objective through the effective dynamic adoption
probability of Definition 4.  The resulting objective is non-negative,
non-monotone and submodular, so the Lee-et-al. local search (implemented
generically in :mod:`repro.matroid.local_search`) yields a
``1/(4 + eps)``-approximate solution.

The paper stresses that the algorithm's ``O(|X|^4 log |X| / eps)`` complexity
makes it impractical at scale; it is included here for completeness and used
only on small instances (the theory benchmarks), exactly as the paper uses it
as a yard-stick rather than a production algorithm.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.core.effective import EffectiveRevenueModel
from repro.core.entities import Triple
from repro.core.problem import RevMaxInstance
from repro.core.strategy import Strategy
from repro.matroid.local_search import non_monotone_local_search
from repro.matroid.partition import display_constraint_matroid
from repro.algorithms.base import RevMaxAlgorithm

__all__ = ["LocalSearchApproximation"]


class LocalSearchApproximation(RevMaxAlgorithm):
    """Local-search approximation algorithm for R-REVMAX.

    Args:
        epsilon: slack of the approximate-improvement threshold (the paper's
            ``eps``); smaller values give better solutions but more moves.
        capacity_oracle: optional oracle for the capacity factor
            ``B_S(i, t)``; defaults to the exact Poisson-binomial oracle.
        max_iterations: safety cap on the number of improving moves.
        backend: revenue-engine backend forwarded to the effective revenue
            model; ``None`` means numpy.
    """

    name = "LocalSearch-1/(4+eps)"

    def __init__(self, epsilon: float = 0.25, capacity_oracle=None,
                 max_iterations: int = 5000,
                 backend: Optional[str] = None) -> None:
        self._epsilon = epsilon
        self._capacity_oracle = capacity_oracle
        self._max_iterations = max_iterations
        self.backend = backend
        self.last_extras: Dict[str, object] = {}
        self.last_evaluations: int = 0

    def build_strategy(self, instance: RevMaxInstance) -> Strategy:
        model = EffectiveRevenueModel(
            instance, self._capacity_oracle, backend=self.backend
        )
        matroid = display_constraint_matroid(instance)

        def objective(subset: Iterable[Triple]) -> float:
            strategy = Strategy(instance.catalog, subset)
            return model.revenue(strategy)

        result = non_monotone_local_search(
            objective,
            matroid,
            epsilon=self._epsilon,
            max_iterations=self._max_iterations,
        )
        self.last_extras = {
            "moves": result.moves,
            "objective_value": result.value,
            "epsilon": self._epsilon,
        }
        self.last_evaluations = result.evaluations
        return Strategy(instance.catalog, result.solution)

    def run(self, instance: RevMaxInstance, validate: bool = False):
        """Solve the instance; validation is off by default because R-REVMAX
        strategies may intentionally exceed item capacities."""
        return super().run(instance, validate=validate)
