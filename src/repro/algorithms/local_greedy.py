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
(earlier-processed) time steps are correctly accounted for.  Each build
scans the candidate ground set once (:func:`step_candidates`) and hands
every step its own bucket, instead of rescanning the ground set per step.

RL-Greedy evaluates its permutations through
:func:`repro.experiments.parallel.run_permutations_parallel` for every job
count: ``jobs=N`` fans the runs out across worker processes, ``None``/1 runs
them in-process.  The permutations are sampled up front and each run comes
back as its group-ordered triples, so the selected strategy is identical for
any job count.
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

__all__ = [
    "SequentialLocalGreedy", "RandomizedLocalGreedy", "greedy_single_step",
    "step_candidates",
]


def step_candidates(instance: RevMaxInstance) -> List[List[Triple]]:
    """The instance's candidate triples bucketed by time step.

    One pass over :meth:`RevMaxInstance.candidate_triples`; each bucket keeps
    the canonical candidate order, which fixes the flat heap's tie-breaks.
    """
    buckets: List[List[Triple]] = [[] for _ in range(instance.horizon)]
    for triple in instance.candidate_triples():
        buckets[triple.t].append(triple)
    return buckets


def greedy_single_step(
    instance: RevMaxInstance,
    model: RevenueModel,
    checker: ConstraintChecker,
    strategy: Strategy,
    candidates: Sequence[Triple],
    growth_curve: Optional[List[Tuple[int, float]]] = None,
    true_model: Optional[RevenueModel] = None,
) -> None:
    """Greedily add one time step's triples to ``strategy`` (in place).

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
        candidates: the candidate triples of the time step being finalised,
            in canonical order -- one bucket of :func:`step_candidates`.
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
            time_order: explicit processing order of the time steps, a
                permutation of ``range(instance.horizon)``; defaults to
                chronological order (which is what SL-Greedy does).

        Raises:
            ValueError: if ``time_order`` is not a permutation of the steps.
        """
        steps = list(range(instance.horizon))
        order = steps if time_order is None else list(time_order)
        if sorted(order) != steps:
            raise ValueError(
                f"time_order must be a permutation of range({instance.horizon})"
                f", got {order!r}"
            )
        model = RevenueModel(instance, backend=self.backend)
        checker = ConstraintChecker(instance)
        strategy = Strategy(instance.catalog)
        growth_curve: List[Tuple[int, float]] = []
        buckets = step_candidates(instance)
        for time_step in order:
            greedy_single_step(
                instance, model, checker, strategy, buckets[time_step],
                growth_curve,
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
            1: in-process; ``0``: one per core, in-process on a single
            core).  Permutations are sampled up front, so the selected
            strategy is identical for every job count.
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
        # Imported lazily: repro.experiments imports this module (through
        # the harness) while it loads.
        from repro.experiments.parallel import run_permutations_parallel

        orders = self._sample_permutations(instance.horizon)
        runs = run_permutations_parallel(
            instance, orders, backend=self.backend, jobs=self.jobs
        )
        # max() keeps the first run among equal revenues.
        best = max(runs, key=lambda run: run.revenue)
        self.last_evaluations = sum(run.evaluations for run in runs)
        self.last_lookups = sum(run.lookups for run in runs)
        self.last_growth_curve = list(best.growth_curve)
        self.last_extras = {
            "num_permutations": self._num_permutations,
            "best_order": best.order,
            "jobs": default_jobs() if self.jobs == 0 else (self.jobs or 1),
        }
        return Strategy(instance.catalog, (Triple(*z) for z in best.triples))
