"""Gradually-available prices: solving the horizon one sub-horizon at a time.

§6.3 of the paper studies the realistic setting where prices are not all known
up front: the horizon ``[T]`` is split into sub-horizons
``[T1], [T2], ..., [Tr]`` and the prices of a sub-horizon only become known
when it starts.  A holistic algorithm such as G-Greedy or RL-Greedy must then
commit to the recommendations of ``[T1]`` before seeing later prices, carry
those commitments forward, and repeat on ``[T2]`` -- which costs revenue
compared to planning the whole horizon at once (SL-Greedy is unaffected since
it already proceeds chronologically).

:class:`SubHorizonWrapper` reproduces that protocol around any base algorithm
that accepts ``allowed_times`` and ``initial_strategy`` (G-Greedy) or around a
per-time-step algorithm run on the restricted steps (SL-/RL-Greedy).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.constraints import ConstraintChecker
from repro.core.entities import Triple
from repro.core.problem import RevMaxInstance
from repro.core.revenue import RevenueModel
from repro.core.strategy import Strategy
from repro.algorithms.base import RevMaxAlgorithm
from repro.algorithms.global_greedy import GlobalGreedy
from repro.algorithms.local_greedy import (
    RandomizedLocalGreedy,
    greedy_single_step,
    step_candidates,
)

__all__ = ["split_horizon", "SubHorizonWrapper"]


def split_horizon(horizon: int, cutoffs: Sequence[int]) -> List[List[int]]:
    """Split ``0..horizon-1`` into sub-horizons at the given cut-off steps.

    A cut-off of ``c`` (1-based, as in the paper: "cut-off time at 2, 4, 5")
    means the first sub-horizon contains time steps ``0 .. c-1``.

    Args:
        horizon: the total number of time steps.
        cutoffs: increasing cut-off positions strictly inside the horizon.

    Returns:
        The list of sub-horizons, each a list of 0-based time steps.
    """
    cuts = sorted(set(int(c) for c in cutoffs))
    if any(c <= 0 or c >= horizon for c in cuts):
        raise ValueError("cut-offs must lie strictly inside the horizon")
    boundaries = [0] + cuts + [horizon]
    return [
        list(range(boundaries[index], boundaries[index + 1]))
        for index in range(len(boundaries) - 1)
    ]


class SubHorizonWrapper(RevMaxAlgorithm):
    """Run a base algorithm sub-horizon by sub-horizon (§6.3 protocol).

    Args:
        base: the algorithm to wrap -- an instance of
            :class:`~repro.algorithms.global_greedy.GlobalGreedy`,
            :class:`~repro.algorithms.local_greedy.SequentialLocalGreedy` or
            :class:`~repro.algorithms.local_greedy.RandomizedLocalGreedy`.
        cutoffs: 1-based cut-off time steps splitting the horizon.
    """

    def __init__(self, base: RevMaxAlgorithm, cutoffs: Sequence[int]) -> None:
        self._base = base
        self._cutoffs = list(cutoffs)
        self.name = f"{base.name}@cut{'-'.join(str(c) for c in self._cutoffs)}"
        self.backend = getattr(base, "backend", None)
        self.last_extras: Dict[str, object] = {}

    def build_strategy(self, instance: RevMaxInstance) -> Strategy:
        sub_horizons = split_horizon(instance.horizon, self._cutoffs)
        strategy = Strategy(instance.catalog)
        model = RevenueModel(instance, backend=self.backend)
        checker = ConstraintChecker(instance)
        buckets = (
            None if isinstance(self._base, GlobalGreedy)
            else step_candidates(instance)
        )

        for steps in sub_horizons:
            if isinstance(self._base, GlobalGreedy):
                strategy = self._base.build_strategy(
                    instance, allowed_times=steps, initial_strategy=strategy
                )
            elif isinstance(self._base, RandomizedLocalGreedy):
                strategy = self._best_permutation_over_steps(
                    instance, model, checker, strategy, steps, buckets
                )
            else:
                # Sequential (chronological) processing of the sub-horizon.
                for time_step in steps:
                    greedy_single_step(instance, model, checker, strategy,
                                       buckets[time_step])

        self.last_extras = {
            "cutoffs": list(self._cutoffs),
            "num_sub_horizons": len(sub_horizons),
        }
        return strategy

    def _best_permutation_over_steps(
        self,
        instance: RevMaxInstance,
        model: RevenueModel,
        checker: ConstraintChecker,
        strategy: Strategy,
        steps: Sequence[int],
        buckets: List[List[Triple]],
    ) -> Strategy:
        """RL-Greedy restricted to a sub-horizon: best permutation of its steps."""
        import itertools
        import math

        import numpy as np

        base: RandomizedLocalGreedy = self._base  # type: ignore[assignment]
        num_permutations = base._num_permutations
        total = math.factorial(len(steps))
        if total <= num_permutations:
            orders = [list(p) for p in itertools.permutations(steps)]
        else:
            rng = np.random.default_rng(base._seed)
            seen = {tuple(steps)}
            while len(seen) < num_permutations:
                seen.add(tuple(rng.permutation(list(steps)).tolist()))
            orders = [list(order) for order in sorted(seen)]

        best_strategy: Optional[Strategy] = None
        best_revenue = -float("inf")
        for order in orders:
            candidate = strategy.copy()
            for time_step in order:
                greedy_single_step(instance, model, checker, candidate,
                                   buckets[time_step])
            revenue = model.revenue(candidate)
            if revenue > best_revenue:
                best_revenue = revenue
                best_strategy = candidate
        return best_strategy if best_strategy is not None else strategy
