"""Parallel experiment runners: RL-Greedy permutations and algorithm suites.

Two fan-out points dominate the wall-clock of the paper's evaluation loops,
and both are embarrassingly parallel:

* **RL-Greedy's permutations** (Algorithm 2): each sampled time-step order
  is an independent SL-Greedy run; only the best-revenue strategy is kept.
  :func:`run_permutations_parallel` evaluates the orders across worker
  processes and returns per-order results the caller merges exactly like
  the serial loop (orders are sampled up front by the caller, so results
  are identical for every job count).
* **The six-algorithm suite** of the figures:
  :func:`run_algorithms_parallel` runs each solver in its own worker and
  merges the :class:`~repro.algorithms.base.AlgorithmResult` objects into
  the same name-keyed mapping -- and, via :func:`experiment_records`, into
  the existing :class:`~repro.experiments.harness.ExperimentRecord` rows --
  that the serial :func:`~repro.experiments.harness.run_algorithms`
  produces.

Workers receive the (large) instance once through the pool initializer, not
once per task.  Every worker computes with its own ``RevenueModel``; the
arithmetic is deterministic, so revenues agree bit-for-bit with the serial
path.  Evaluation *counters* may differ from a serial run (workers do not
share the parent's incremental group cache); compare revenues and
strategies across job counts, not counter totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.algorithms.base import AlgorithmResult, RevMaxAlgorithm
from repro.core.problem import RevMaxInstance
from repro.parallel import parallel_map

__all__ = [
    "PermutationRun",
    "run_permutations_parallel",
    "run_algorithms_parallel",
]


#: Per-worker shared state installed by the pool initializers (with the
#: ``fork`` start method this costs one pickle per worker, not per task).
_WORKER_STATE: Dict[str, object] = {}


@dataclass
class PermutationRun:
    """Result of one SL-Greedy run under one time-step permutation.

    Attributes:
        order: the time-step processing order that was evaluated.
        revenue: revenue of the resulting strategy (computed in the worker,
            bit-identical to the serial loop's score).
        triples: the strategy's triples, listed group by group in admission
            order so the parent can rebuild a :class:`Strategy` whose group
            lists -- and therefore every downstream kernel summation --
            match the worker's exactly.
        growth_curve: the run's ``(size, revenue)`` checkpoints.
        evaluations: kernel evaluations of the worker's scoring model.
        lookups: group-revenue lookups of the worker's scoring model.
    """

    order: Tuple[int, ...]
    revenue: float
    triples: List[Tuple[int, int, int]]
    growth_curve: List[Tuple[int, float]]
    evaluations: int
    lookups: int


def _init_permutation_worker(instance: RevMaxInstance,
                             backend: Optional[str]) -> None:
    _WORKER_STATE["instance"] = instance
    _WORKER_STATE["backend"] = backend


def _run_permutation(order: Tuple[int, ...]) -> PermutationRun:
    # Imported here: workers under non-fork start methods import this module
    # fresh, and the algorithms layer lazily imports this module in turn.
    from repro.algorithms.local_greedy import SequentialLocalGreedy
    from repro.core.revenue import RevenueModel

    instance: RevMaxInstance = _WORKER_STATE["instance"]
    backend: Optional[str] = _WORKER_STATE["backend"]
    runner = SequentialLocalGreedy(backend=backend)
    strategy = runner.build_strategy(instance, time_order=list(order))
    model = RevenueModel(instance, backend=backend)
    revenue = model.revenue(strategy)
    return PermutationRun(
        order=tuple(order),
        revenue=revenue,
        triples=[tuple(z) for _, group in strategy.groups() for z in group],
        growth_curve=list(runner.last_growth_curve),
        evaluations=model.evaluations,
        lookups=model.lookups,
    )


def run_permutations_parallel(
    instance: RevMaxInstance,
    orders: Sequence[Sequence[int]],
    backend: Optional[str] = None,
    jobs: Optional[int] = None,
) -> List[PermutationRun]:
    """Evaluate SL-Greedy under every permutation, fanned out over workers.

    Args:
        instance: the REVMAX instance (shipped to each worker once).
        orders: time-step permutations, sampled by the caller (seed-stable).
        backend: revenue-engine backend for the workers.
        jobs: worker count (``None``/1: in-process; 0: one per core).

    Returns:
        One :class:`PermutationRun` per order, in order.
    """
    return parallel_map(
        _run_permutation,
        [tuple(order) for order in orders],
        jobs=jobs,
        initializer=_init_permutation_worker,
        initargs=(instance, backend),
    )


def _init_suite_worker(instance: RevMaxInstance) -> None:
    _WORKER_STATE["instance"] = instance


def _run_suite_algorithm(algorithm: RevMaxAlgorithm) -> AlgorithmResult:
    instance: RevMaxInstance = _WORKER_STATE["instance"]
    return algorithm.run(instance)


def run_algorithms_parallel(
    instance: RevMaxInstance,
    algorithms: Iterable[RevMaxAlgorithm],
    settings: Optional[Dict[str, object]] = None,
    jobs: Optional[int] = None,
) -> Dict[str, AlgorithmResult]:
    """Parallel drop-in for :func:`repro.experiments.harness.run_algorithms`.

    Each algorithm solves the instance in its own worker process; results
    come back keyed by algorithm name in the same order -- and with
    bit-identical revenues -- as the serial loop.  Runtime fields measure
    the worker's wall-clock, so they remain meaningful per algorithm even
    though the suite overlaps in time.
    """
    algorithms = list(algorithms)
    results: Dict[str, AlgorithmResult] = {}
    for algorithm, result in zip(
        algorithms,
        parallel_map(
            _run_suite_algorithm,
            algorithms,
            jobs=jobs,
            initializer=_init_suite_worker,
            initargs=(instance,),
        ),
    ):
        if settings:
            result.extras.update(settings)
        results[result.algorithm] = result
    return results
