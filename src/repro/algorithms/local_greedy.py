"""Local greedy algorithms: SL-Greedy and RL-Greedy (Algorithm 2 of the paper).

Both algorithms finalise the recommendations of one *time step* at a time
(unlike G-Greedy, which mixes time steps freely):

* **Sequential Local Greedy (SL-Greedy)** processes the time steps in natural
  chronological order ``0, 1, ..., T-1``;
* **Randomized Local Greedy (RL-Greedy)** samples ``N`` random permutations of
  the time steps, runs the per-step greedy under each permutation, and keeps
  the permutation whose strategy earns the most revenue (Example 4 of the
  paper shows why chronological order can be suboptimal).

Within a single time step the selection is the same lazy-forward greedy used
globally -- :class:`repro.core.selection.LazyGreedySelector` restricted to
that step's candidates, seeded with batched marginal revenues against the
*full* strategy built so far, so recommendations fixed at other
(earlier-processed) time steps are correctly accounted for.

RL-Greedy's permutations are embarrassingly parallel: pass ``jobs=N`` to fan
the per-permutation runs out across worker processes (the permutations are
sampled up front in the parent, so results are identical for any job count).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.constraints import ConstraintChecker
from repro.core.entities import Triple
from repro.core.problem import RevMaxInstance
from repro.core.revenue import RevenueModel
from repro.core.selection import SEED_MARGINAL, LazyGreedySelector
from repro.core.strategy import Strategy
from repro.parallel import default_jobs
from repro.algorithms.base import RevMaxAlgorithm

__all__ = ["SequentialLocalGreedy", "RandomizedLocalGreedy", "greedy_single_step"]


def greedy_single_step(
    instance: RevMaxInstance,
    model: RevenueModel,
    checker: ConstraintChecker,
    strategy: Strategy,
    time_step: int,
    growth_curve: Optional[List[Tuple[int, float]]] = None,
    true_model: Optional[RevenueModel] = None,
) -> None:
    """Greedily add this time step's triples to ``strategy`` (in place).

    Implements lines 5-15 of Algorithm 2 through the shared selection engine:
    a flat max-heap over the step's candidate triples is seeded with their
    (batch-scored) marginal revenue given the current strategy, and
    candidates are admitted best-first (with lazy re-evaluation) while their
    marginal revenue stays positive and no constraint is violated.

    Args:
        instance: the REVMAX instance.
        model: revenue model used for selection decisions.
        checker: constraint checker enforcing validity.
        strategy: the strategy built so far; modified in place.
        time_step: the time step whose recommendations are being finalised.
        growth_curve: optional list receiving ``(size, revenue)`` checkpoints.
        true_model: model used for the growth-curve revenue (defaults to
            ``model``).
    """
    selector = LazyGreedySelector(
        instance, model, checker,
        true_model=true_model,
        use_two_level_heap=False,
        seed_priorities=SEED_MARGINAL,
    )
    candidates = (
        triple for triple in instance.candidate_triples()
        if triple.t == time_step
    )
    selector.select(strategy, candidates, growth_curve=growth_curve)


class SequentialLocalGreedy(RevMaxAlgorithm):
    """SL-Greedy: per-time-step greedy in chronological order.

    Args:
        backend: revenue-engine backend ("numpy" / "python"); ``None`` means
            numpy.
    """

    name = "SL-Greedy"

    def __init__(self, backend: Optional[str] = None) -> None:
        self.backend = backend
        self.last_growth_curve: List[Tuple[int, float]] = []
        self.last_evaluations: int = 0
        self.last_lookups: int = 0
        self.last_extras: Dict[str, object] = {}

    def build_strategy(self, instance: RevMaxInstance,
                       time_order: Optional[Sequence[int]] = None) -> Strategy:
        """Build a strategy processing time steps in the given order.

        Args:
            instance: the REVMAX instance.
            time_order: explicit processing order of the time steps; defaults
                to chronological order (which is what SL-Greedy does).
        """
        model = RevenueModel(instance, backend=self.backend)
        checker = ConstraintChecker(instance)
        strategy = Strategy(instance.catalog)
        growth_curve: List[Tuple[int, float]] = []
        order = list(time_order) if time_order is not None else list(
            range(instance.horizon)
        )
        for time_step in order:
            greedy_single_step(
                instance, model, checker, strategy, time_step, growth_curve
            )
        self.last_growth_curve = growth_curve
        self.last_evaluations = model.evaluations
        self.last_lookups = model.lookups
        self.last_extras = {"time_order": order}
        return strategy


class RandomizedLocalGreedy(RevMaxAlgorithm):
    """RL-Greedy: per-time-step greedy over ``N`` random time permutations.

    Args:
        num_permutations: number of distinct permutations to sample (the
            paper uses ``N = 20``).
        seed: random seed controlling the sampled permutations.
        backend: revenue-engine backend ("numpy" / "python"); ``None`` means
            numpy.
        jobs: number of worker processes evaluating permutations (``None`` or
            1: run serially in-process; ``0``: one per core, in-process on a
            single core).  Permutations are sampled up front, so the
            selected strategy is identical for every job count.
    """

    name = "RL-Greedy"

    def __init__(self, num_permutations: int = 20, seed: Optional[int] = 0,
                 backend: Optional[str] = None,
                 jobs: Optional[int] = None) -> None:
        if num_permutations <= 0:
            raise ValueError("num_permutations must be positive")
        self._num_permutations = num_permutations
        self._seed = seed
        self.backend = backend
        self.jobs = jobs
        self.last_growth_curve: List[Tuple[int, float]] = []
        self.last_evaluations: int = 0
        self.last_lookups: int = 0
        self.last_extras: Dict[str, object] = {}

    def _sample_permutations(self, horizon: int) -> List[Tuple[int, ...]]:
        """Sample up to ``N`` *distinct* permutations of the time steps."""
        total = math.factorial(horizon)
        if total <= self._num_permutations:
            return [tuple(p) for p in itertools.permutations(range(horizon))]
        rng = np.random.default_rng(self._seed)
        permutations = set()
        # Always include chronological order so RL-Greedy never does worse
        # than SL-Greedy by more than sampling noise on the other orders.
        permutations.add(tuple(range(horizon)))
        while len(permutations) < self._num_permutations:
            permutations.add(tuple(rng.permutation(horizon).tolist()))
        return sorted(permutations)

    def build_strategy(self, instance: RevMaxInstance) -> Strategy:
        orders = self._sample_permutations(instance.horizon)
        # Same jobs convention as repro.parallel: None/1 serial, 0 per-core.
        jobs = self.jobs
        if jobs is not None and jobs != 1:
            outcomes, evaluations, lookups = self._run_parallel(
                instance, orders, jobs
            )
        else:
            outcomes, evaluations, lookups = self._run_serial(instance, orders)

        best: Optional[Tuple[float, Strategy, List[Tuple[int, float]], Tuple[int, ...]]] = None
        for order, strategy, revenue, curve in outcomes:
            if best is None or revenue > best[0]:
                best = (revenue, strategy, curve, tuple(order))

        self.last_evaluations = evaluations
        self.last_lookups = lookups
        self.last_extras = {
            "num_permutations": self._num_permutations,
            "best_order": best[3] if best is not None else (),
            "jobs": default_jobs() if jobs == 0 else (jobs or 1),
        }
        if best is None:
            self.last_growth_curve = []
            return Strategy(instance.catalog)
        self.last_growth_curve = list(best[2])
        return best[1]

    def _run_serial(self, instance: RevMaxInstance,
                    orders: Sequence[Tuple[int, ...]]):
        """Evaluate every permutation in-process.

        The counters add each permutation's selection work to the scoring
        of its strategy, exactly as the parallel path sums its workers'.
        """
        model = RevenueModel(instance, backend=self.backend)
        runner = SequentialLocalGreedy(backend=self.backend)
        outcomes = []
        evaluations = lookups = 0
        for order in orders:
            strategy = runner.build_strategy(instance, time_order=order)
            revenue = model.revenue(strategy)
            outcomes.append(
                (order, strategy, revenue, list(runner.last_growth_curve))
            )
            evaluations += runner.last_evaluations
            lookups += runner.last_lookups
        return (outcomes, evaluations + model.evaluations,
                lookups + model.lookups)

    def _run_parallel(self, instance: RevMaxInstance,
                      orders: Sequence[Tuple[int, ...]], jobs: int):
        """Fan the permutations out across worker processes.

        Imported lazily: the parallel runner lives in the experiments layer
        (it is experiment infrastructure, not algorithm logic), and the
        experiments layer imports this module at load time.
        """
        from repro.experiments.parallel import run_permutations_parallel

        runs = run_permutations_parallel(
            instance, orders, backend=self.backend, jobs=jobs
        )
        outcomes = []
        evaluations = 0
        lookups = 0
        for order, run in zip(orders, runs):
            strategy = Strategy(
                instance.catalog, (Triple(*z) for z in run.triples)
            )
            outcomes.append((order, strategy, run.revenue, run.growth_curve))
            evaluations += run.evaluations
            lookups += run.lookups
        return outcomes, evaluations, lookups
