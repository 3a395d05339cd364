"""Experiment harness: prepared datasets, algorithm suites, result records.

The evaluation section of the paper repeatedly runs the same six algorithms
(G-Greedy, GlobalNo, RL-Greedy, SL-Greedy, TopRE, TopRA) on instances derived
from the Amazon and Epinions datasets under varying saturation factors,
capacity distributions and class settings.  This module centralises

* the *reproduction scales* (tiny / small / medium dataset sizes, so tests and
  benchmarks pick the cost they can afford),
* dataset preparation (generator + §6.1 pipeline) with caching,
* the standard algorithm suite and the loop that runs it on an instance and
  audits the outputs.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.algorithms.base import AlgorithmResult, RevMaxAlgorithm
from repro.algorithms.baselines import TopRatingBaseline, TopRevenueBaseline
from repro.algorithms.global_greedy import GlobalGreedy, GlobalGreedyNoSaturation
from repro.algorithms.local_greedy import RandomizedLocalGreedy, SequentialLocalGreedy
from repro.core.problem import RevMaxInstance
from repro.datasets.amazon_like import AmazonLikeConfig, generate_amazon_like
from repro.datasets.epinions_like import EpinionsLikeConfig, generate_epinions_like
from repro.datasets.pipeline import PipelineConfig, PipelineResult, run_pipeline
from repro.parallel import parallel_map
from repro.recsys.mf import MFConfig

__all__ = [
    "SCALES",
    "prepare_dataset",
    "predicted_ratings_map",
    "standard_algorithms",
    "run_algorithms",
    "experiment_records",
    "ExperimentRecord",
]


@dataclass(frozen=True)
class _ScalePreset:
    """Dataset sizes and pipeline knobs of one reproduction scale."""

    amazon_users: int
    amazon_items: int
    epinions_users: int
    epinions_items: int
    num_candidates: int
    mf_epochs: int
    rl_permutations: int


#: Reproduction scales.  "tiny" keeps unit tests fast; "small" is the default
#: benchmark scale; "medium" approaches 1/20 of the paper's sizes.
SCALES: Dict[str, _ScalePreset] = {
    "tiny": _ScalePreset(
        amazon_users=60, amazon_items=30, epinions_users=50, epinions_items=24,
        num_candidates=8, mf_epochs=5, rl_permutations=4,
    ),
    "small": _ScalePreset(
        amazon_users=250, amazon_items=80, epinions_users=200, epinions_items=60,
        num_candidates=15, mf_epochs=10, rl_permutations=8,
    ),
    "medium": _ScalePreset(
        amazon_users=800, amazon_items=200, epinions_users=600, epinions_items=120,
        num_candidates=25, mf_epochs=15, rl_permutations=12,
    ),
}

#: Bounded LRU of prepared pipelines.  The key includes the process id: a
#: forked worker inherits a *copy* of the parent's entries, but pid-keying
#: guarantees it never serves an object the parent (or a sibling) also holds
#: a reference to -- ``PipelineResult`` is mutable, and the one-owner rule
#: makes concurrent harness use safe without deep-copying on every hit.
_DATASET_CACHE: "OrderedDict[Tuple[str, str, int, int], PipelineResult]" = (
    OrderedDict()
)
_DATASET_CACHE_LOCK = threading.Lock()
_DATASET_CACHE_LIMIT = 8


def prepare_dataset(name: str, scale: str = "small", seed: int = 0,
                    use_cache: bool = True) -> PipelineResult:
    """Generate a dataset and run the §6.1 pipeline at the given scale.

    Args:
        name: ``"amazon"`` or ``"epinions"``.
        scale: one of :data:`SCALES`.
        seed: master seed (affects generation and the pipeline samplers).
        use_cache: reuse a previously prepared result for the same key.

    Returns:
        The full :class:`~repro.datasets.pipeline.PipelineResult`.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {sorted(SCALES)}")
    key = (name, scale, seed, os.getpid())
    if use_cache:
        with _DATASET_CACHE_LOCK:
            cached = _DATASET_CACHE.get(key)
            if cached is not None:
                _DATASET_CACHE.move_to_end(key)
                return cached
    preset = SCALES[scale]
    if name == "amazon":
        dataset = generate_amazon_like(AmazonLikeConfig(
            num_users=preset.amazon_users,
            num_items=preset.amazon_items,
            seed=seed + 7,
        ))
    elif name == "epinions":
        dataset = generate_epinions_like(EpinionsLikeConfig(
            num_users=preset.epinions_users,
            num_items=preset.epinions_items,
            seed=seed + 11,
        ))
    else:
        raise ValueError(f"unknown dataset {name!r}; expected 'amazon' or 'epinions'")
    config = PipelineConfig(
        num_candidates=preset.num_candidates,
        mf_config=MFConfig(num_factors=8, num_epochs=preset.mf_epochs, seed=seed),
        seed=seed,
    )
    result = run_pipeline(dataset, config)
    if use_cache:
        with _DATASET_CACHE_LOCK:
            _DATASET_CACHE[key] = result
            _DATASET_CACHE.move_to_end(key)
            while len(_DATASET_CACHE) > _DATASET_CACHE_LIMIT:
                _DATASET_CACHE.popitem(last=False)
    return result


def predicted_ratings_map(pipeline: PipelineResult) -> Dict[Tuple[int, int], float]:
    """Extract the ``(user, item) -> predicted rating`` map for TopRA."""
    mapping: Dict[Tuple[int, int], float] = {}
    for user, candidates in pipeline.candidates.items():
        for candidate in candidates:
            mapping[(user, candidate.item)] = candidate.predicted_rating
    return mapping


def standard_algorithms(
    predicted_ratings: Optional[Mapping[Tuple[int, int], float]] = None,
    rl_permutations: int = 8,
    include: Optional[Sequence[str]] = None,
    seed: int = 0,
    backend: Optional[str] = None,
    rl_jobs: Optional[int] = None,
) -> List[RevMaxAlgorithm]:
    """Build the six-algorithm suite the paper's figures compare.

    Args:
        predicted_ratings: optional rating map handed to TopRA.
        rl_permutations: number of permutations for RL-Greedy.
        include: optional subset of algorithm names (e.g. ``["GG", "SLG"]``);
            recognised keys are GG, GG-No, RLG, SLG, TopRev, TopRat.
        seed: seed of the randomized components.
        backend: revenue-engine backend forwarded to every solver ("numpy" /
            "python"; ``None`` means numpy).  Handy for
            benchmarking the engines against each other on identical suites.
        rl_jobs: worker processes for RL-Greedy's permutation fan-out
            (``None``: in-process; ``0``: one per core).  Leave unset when
            the suite runs under ``run_algorithms(jobs=...)``: RL-Greedy
            then already has a worker of its own, and a pool inside that
            worker only competes with the suite's other workers.
    """
    suite: Dict[str, RevMaxAlgorithm] = {
        "GG": GlobalGreedy(backend=backend),
        "GG-No": GlobalGreedyNoSaturation(backend=backend),
        "RLG": RandomizedLocalGreedy(num_permutations=rl_permutations, seed=seed,
                                     backend=backend, jobs=rl_jobs),
        "SLG": SequentialLocalGreedy(backend=backend),
        "TopRev": TopRevenueBaseline(),
        "TopRat": TopRatingBaseline(predicted_ratings),
    }
    if include is None:
        return list(suite.values())
    unknown = [key for key in include if key not in suite]
    if unknown:
        raise ValueError(f"unknown algorithm keys: {unknown}")
    return [suite[key] for key in include]


@dataclass
class ExperimentRecord:
    """One (instance, algorithm) measurement."""

    instance_name: str
    algorithm: str
    revenue: float
    runtime_seconds: float
    strategy_size: int
    settings: Dict[str, object] = field(default_factory=dict)


def _run_algorithm(instance: RevMaxInstance,
                   algorithm: RevMaxAlgorithm) -> AlgorithmResult:
    return algorithm.run(instance)


def run_algorithms(instance: RevMaxInstance,
                   algorithms: Iterable[RevMaxAlgorithm],
                   settings: Optional[Dict[str, object]] = None,
                   jobs: Optional[int] = None,
                   ) -> Dict[str, AlgorithmResult]:
    """Run every algorithm on the instance and return results keyed by name.

    Args:
        instance: the REVMAX instance to solve.
        algorithms: the solvers to run.
        settings: optional experiment settings merged into every result's
            extras (capacity distribution, beta, ... -- figure bookkeeping).
        jobs: worker processes, one solver per task (``None``/1:
            in-process; ``0``: one per core, in-process on a single core).
            Every job count returns bit-identical revenues and strategies.
            Runtime fields measure each solver's own wall-clock, so they
            stay meaningful even when the suite overlaps in time.
    """
    results: Dict[str, AlgorithmResult] = {}
    for result in parallel_map(_run_algorithm, algorithms, jobs,
                               shared=instance):
        if settings:
            result.extras.update(settings)
        results[result.algorithm] = result
    return results


def experiment_records(results: Mapping[str, AlgorithmResult],
                       settings: Optional[Dict[str, object]] = None,
                       ) -> List[ExperimentRecord]:
    """Flatten a ``run_algorithms`` result map into :class:`ExperimentRecord` rows.

    Serial and parallel runs flow through the same conversion, so a
    ``jobs=4`` suite merges into records identical (runtimes aside) to a
    ``jobs=1`` suite.
    """
    return [
        ExperimentRecord(
            instance_name=result.instance_name,
            algorithm=result.algorithm,
            revenue=result.revenue,
            runtime_seconds=result.runtime_seconds,
            strategy_size=result.strategy_size,
            settings=dict(settings or {}),
        )
        for result in results.values()
    ]
