"""Batched candidate scoring and the parallel RL-Greedy runner.

Two measurements, recorded to ``BENCH_selection.json`` so the roadmap's BENCH
trajectory can track the selection engine over time:

* **batched seeding** -- the exact workload heap seeding performs in the
  selection engine (score every remaining candidate against the strategy
  built so far), run once as the pre-refactor scalar loop (one
  ``marginal_revenue`` call per candidate) and once as a single
  ``marginal_revenue_batch`` call.  Both paths use a fresh numpy-backend
  model; the batch wins by bucketing candidates per (user, class) group --
  one shared "before" revenue and one broadcasted kernel launch per bucket
  instead of two launches per candidate.  Gate: >=3x
  at the default (small) benchmark scale.
* **serial vs parallel RL-Greedy** -- the same permutation set evaluated
  with ``jobs=1`` and ``jobs>1``, asserting identical outputs and recording
  both wall-clocks.  No speed gate: the win scales with the machine's core
  count, which CI runners do not guarantee (a single-core box pays pure
  process overhead).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import bench_scale, run_once, write_bench_json
from repro.algorithms.global_greedy import GlobalGreedy
from repro.algorithms.local_greedy import RandomizedLocalGreedy
from repro.core.problem import AdoptionTable, RevMaxInstance
from repro.core.revenue import RevenueModel
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_instance

#: Figure-6 generator knobs, biased towards dense same-class competition
#: (scale-independent on purpose, so the recorded trajectory stays comparable
#: across runs).
FIGURE6_CONFIG = SyntheticConfig(
    num_users=40, num_items=60, num_classes=4, candidates_per_user=30,
    horizon=10, display_limit=6, beta=0.6, seed=0,
)

#: Factor applied to the generator's adoption probabilities so the greedy
#: builds dense (user, class) groups before marginals turn negative.
ADOPTION_SCALE = 0.15

_RECORD_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_selection.json",
)


#: The sections this module writes; nothing else is carried forward, so keys
#: of a deleted measurement do not linger in the record.
_SECTIONS = ("batched_seeding", "parallel_rl_greedy")


def _record(section: str, payload: dict) -> None:
    """Merge one section into ``BENCH_selection.json`` (atomic write)."""
    previous = {}
    if os.path.exists(_RECORD_PATH):
        with open(_RECORD_PATH) as handle:
            previous = json.load(handle)
    document = {name: previous[name] for name in _SECTIONS if name in previous}
    document[section] = payload
    document["scale"] = bench_scale()
    write_bench_json(_RECORD_PATH, document)


def _dense_instance() -> RevMaxInstance:
    instance = generate_synthetic_instance(FIGURE6_CONFIG)
    table = AdoptionTable(instance.horizon)
    for user, item in instance.adoption.pairs():
        table.set(user, item, instance.adoption.get(user, item) * ADOPTION_SCALE)
    return RevMaxInstance(
        num_users=instance.num_users,
        catalog=instance.catalog,
        horizon=instance.horizon,
        display_limit=instance.display_limit,
        prices=instance.prices,
        capacities=instance.capacities,
        betas=instance.betas,
        adoption=table,
        name=f"{instance.name}-sparse-adoption",
    )


def _seeding_comparison(instance):
    """Time the scalar and batched seeding sweeps over the same frontier."""
    strategy = GlobalGreedy().build_strategy(instance)
    candidates = [z for z in instance.candidate_triples() if z not in strategy]

    def scalar_sweep():
        model = RevenueModel(instance, backend="numpy")
        start = time.perf_counter()
        values = [model.marginal_revenue(strategy, z) for z in candidates]
        return time.perf_counter() - start, values

    def batched_sweep():
        model = RevenueModel(instance, backend="numpy")
        start = time.perf_counter()
        values = model.marginal_revenue_batch(strategy, candidates)
        return time.perf_counter() - start, values

    # Warm both paths once (array allocators, code paths), then measure.
    scalar_sweep()
    batched_sweep()
    scalar_seconds, scalar_values = scalar_sweep()
    batched_seconds, batched_values = batched_sweep()
    return {
        "strategy_size": len(strategy),
        "candidates": len(candidates),
        "scalar_seconds": scalar_seconds,
        "batched_seconds": batched_seconds,
        "speedup": scalar_seconds / batched_seconds,
        "scalar_values": scalar_values,
        "batched_values": batched_values,
    }


def test_batched_seeding_speedup(benchmark):
    instance = _dense_instance()
    stats = run_once(benchmark, _seeding_comparison, instance)

    print(
        f"\nseeding sweep on {instance.name}: {stats['candidates']:,} candidates "
        f"against a {stats['strategy_size']:,}-triple strategy"
    )
    print(
        f"scalar:  {stats['scalar_seconds'] * 1e3:8.1f}ms   "
        f"batched: {stats['batched_seconds'] * 1e3:8.1f}ms   "
        f"speedup: {stats['speedup']:.1f}x"
    )
    _record("batched_seeding", {
        key: stats[key]
        for key in ("strategy_size", "candidates", "scalar_seconds",
                    "batched_seconds", "speedup")
    })

    # Same numbers, candidate for candidate.
    assert stats["batched_values"] == pytest.approx(
        stats["scalar_values"], rel=1e-9, abs=1e-12
    )
    # The ISSUE acceptance gate (relaxed to a sanity bound in smoke mode,
    # where CI machine variance matters more than the trajectory).
    gate = 3.0 if bench_scale() != "tiny" else 1.2
    assert stats["speedup"] >= gate


def _rl_greedy_comparison(instance, permutations, jobs):
    serial = RandomizedLocalGreedy(num_permutations=permutations, seed=0)
    parallel = RandomizedLocalGreedy(num_permutations=permutations, seed=0,
                                     jobs=jobs)
    start = time.perf_counter()
    serial_strategy = serial.build_strategy(instance)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    parallel_strategy = parallel.build_strategy(instance)
    parallel_seconds = time.perf_counter() - start
    return {
        "permutations": permutations,
        "jobs": jobs,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / parallel_seconds,
        "identical": serial_strategy.triples() == parallel_strategy.triples(),
        "best_order_match": (
            serial.last_extras["best_order"] == parallel.last_extras["best_order"]
        ),
    }


def test_parallel_rl_greedy_wall_clock(benchmark, bench_pipelines):
    instance = bench_pipelines["amazon"].instance
    jobs = min(4, os.cpu_count() or 1)
    stats = run_once(benchmark, _rl_greedy_comparison, instance, 6, max(2, jobs))

    print(
        f"\nRL-Greedy ({stats['permutations']} permutations) on {instance.name}: "
        f"serial {stats['serial_seconds']:.3f}s, "
        f"jobs={stats['jobs']} {stats['parallel_seconds']:.3f}s "
        f"({stats['speedup']:.2f}x, {os.cpu_count()} cores)"
    )
    _record("parallel_rl_greedy", {
        key: stats[key]
        for key in ("permutations", "jobs", "serial_seconds",
                    "parallel_seconds", "speedup", "identical")
    })

    # Correctness is the gate; the speedup is hardware-dependent telemetry.
    assert stats["identical"]
    assert stats["best_order_match"]
