"""RL-Greedy's permutation fan-out (Algorithm 2).

Each sampled time-step order is an independent SL-Greedy run; RL-Greedy
keeps the best-revenue one.  :func:`run_permutations_parallel` evaluates
the orders through :func:`repro.parallel.parallel_map` -- in-process or
across worker processes, the same code either way -- and returns one
:class:`PermutationRun` per order.  The orders are sampled up front by the
caller, every run computes with its own ``RevenueModel`` and the arithmetic
is deterministic, so revenues, strategies and summed counters are identical
for every job count.

:class:`~repro.algorithms.local_greedy.RandomizedLocalGreedy` calls this
module's ``parallel_map`` through the module attribute, which is where a
tracer can wrap the fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.algorithms.local_greedy import SequentialLocalGreedy
from repro.core.problem import RevMaxInstance
from repro.core.revenue import RevenueModel
from repro.parallel import parallel_map

__all__ = ["PermutationRun", "run_permutations_parallel"]


@dataclass
class PermutationRun:
    """Result of one SL-Greedy run under one time-step permutation.

    Attributes:
        order: the time-step processing order that was evaluated.
        revenue: revenue of the resulting strategy.
        triples: the strategy's triples, listed group by group in admission
            order so the caller can rebuild a :class:`Strategy` whose group
            lists -- and therefore every downstream kernel summation --
            match the run's exactly.
        growth_curve: the run's ``(size, revenue)`` checkpoints.
        evaluations: kernel evaluations of the run: its selection plus the
            scoring of its strategy.
        lookups: group-revenue lookups of the run, counted the same way.
    """

    order: Tuple[int, ...]
    revenue: float
    triples: List[Tuple[int, int, int]]
    growth_curve: List[Tuple[int, float]]
    evaluations: int
    lookups: int


def _run_permutation(
    instance: RevMaxInstance,
    task: Tuple[Tuple[int, ...], Optional[str]],
) -> PermutationRun:
    order, backend = task
    runner = SequentialLocalGreedy(backend=backend)
    strategy = runner.build_strategy(instance, time_order=list(order))
    model = RevenueModel(instance, backend=backend)
    revenue = model.revenue(strategy)
    return PermutationRun(
        order=order,
        revenue=revenue,
        triples=[tuple(z) for _, group in strategy.groups() for z in group],
        growth_curve=list(runner.last_growth_curve),
        evaluations=runner.last_evaluations + model.evaluations,
        lookups=runner.last_lookups + model.lookups,
    )


def run_permutations_parallel(
    instance: RevMaxInstance,
    orders: Sequence[Sequence[int]],
    backend: Optional[str] = None,
    jobs: Optional[int] = None,
) -> List[PermutationRun]:
    """Evaluate SL-Greedy under every permutation, fanned out over workers.

    Args:
        instance: the REVMAX instance (sent to each worker once).
        orders: time-step permutations, sampled by the caller (seed-stable).
        backend: revenue-engine backend of every run.
        jobs: worker count (``None``/1: in-process; 0: one per core).

    Returns:
        One :class:`PermutationRun` per order, in order.
    """
    return parallel_map(
        _run_permutation,
        [(tuple(order), backend) for order in orders],
        jobs=jobs,
        shared=instance,
    )
