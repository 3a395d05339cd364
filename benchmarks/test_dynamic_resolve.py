"""Dynamic re-solve benchmark -- warm incremental G-Greedy vs cold solve.

The dynamic recommendation setting re-solves every cycle after a small
drift: prices move on a few items, adoption estimates refresh for recently
active users, stock is adjusted.  This suite drives the incremental engine
(:mod:`repro.dynamic`) at production scale -- **100k users / 1M candidate
pairs** at the default benchmark scale -- and gates the tentpole's win:

* an instance is solved cold once (the warm state is recorded), then a
  **1%-of-pairs delta** is applied (every candidate pair of 1% of users
  gets a fresh probability vector, plus a few price cells);
* the **incremental re-solve** (stream merge over the recorded per-user
  pop sequences) must be **>= 5x** faster than a cold solve of the
  identically mutated instance, with **bit-identical** strategies and
  revenue growth curves.

Results are recorded to ``BENCH_dynamic.json`` (uploaded by the nightly
scale workflow).  In CI smoke mode (``REPRO_BENCH_SCALE=tiny``) the
instance shrinks and the gate relaxes -- machine variance matters more
than the trajectory there.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.conftest import bench_scale, run_once, write_bench_json
from repro.algorithms.global_greedy import GlobalGreedy
from repro.core.compiled import CompiledInstance
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_columnar
from repro.dynamic import InstanceDelta, IncrementalSolver, apply_delta

_RECORD_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_dynamic.json",
)

#: Fraction of candidate pairs whose probability vectors the delta rewrites
#: (all pairs of a 1% user sample -- the "recently active users" shape).
DELTA_PAIR_FRACTION = 0.01

#: Price cells rewritten by the delta (each dirties one item's audience).
DELTA_PRICE_CELLS = 3


def _settings():
    """(user count, speedup gate) for the current scale."""
    if bench_scale() == "tiny":
        return 4_000, 1.5
    return 100_000, 5.0


def _config(num_users: int) -> SyntheticConfig:
    return SyntheticConfig(
        num_users=num_users, num_items=2_000, num_classes=100,
        candidates_per_user=10, horizon=3, display_limit=2,
        capacity_fraction=0.25, beta=0.5, seed=7,
    )


def _build_delta(instance) -> InstanceDelta:
    """The 1%-of-pairs drift: fresh vectors for 1% of users + price moves."""
    compiled = instance.compiled()
    rng = np.random.default_rng(3)
    refreshed_users = rng.choice(
        compiled.num_users,
        size=max(1, int(compiled.num_users * DELTA_PAIR_FRACTION)),
        replace=False,
    )
    probability_updates = {}
    for user in refreshed_users:
        start, stop = compiled.user_ptr[user], compiled.user_ptr[user + 1]
        for row in range(int(start), int(stop)):
            probability_updates[(int(user), int(compiled.pair_item[row]))] = (
                rng.uniform(0.0, 1.0, size=compiled.horizon)
            )
    price_updates = {
        (int(item), int(rng.integers(0, compiled.horizon))):
            float(rng.uniform(10.0, 1000.0))
        for item in rng.choice(compiled.num_items, size=DELTA_PRICE_CELLS,
                               replace=False)
    }
    return InstanceDelta(price_updates=price_updates,
                         probability_updates=probability_updates,
                         name="bench-1pct-drift")


def _bare_copy(instance):
    """The mutated instance with every cache dropped (a true cold start)."""
    compiled = instance.compiled()
    return CompiledInstance(
        num_users=compiled.num_users,
        horizon=compiled.horizon,
        display_limit=compiled.display_limit,
        user_ptr=compiled.user_ptr,
        pair_item=compiled.pair_item,
        pair_probs=compiled.pair_probs,
        prices=compiled.prices,
        capacities=compiled.capacities,
        betas=compiled.betas,
        item_class=compiled.item_class,
        name=compiled.name,
        validate=False,
    ).as_instance()


def _copy_delta(delta: InstanceDelta) -> InstanceDelta:
    return InstanceDelta.from_dict(delta.to_dict())


def _run():
    num_users, gate = _settings()
    config = _config(num_users)
    instance = generate_synthetic_columnar(config)
    compiled = instance.compiled()
    delta = _build_delta(instance)

    solver = IncrementalSolver(instance)
    start = time.perf_counter()
    solver.solve()
    initial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    solver.resolve(_copy_delta(delta))
    # Read inside the timed region: the cold baseline builds its strategy
    # too, so the ratio compares like with like.
    warm_strategy = solver.strategy
    resolve_seconds = time.perf_counter() - start
    stats = dict(solver.last_stats)

    # Cold baseline: the identically mutated instance, every cache dropped.
    mutated = generate_synthetic_columnar(config)
    apply_delta(mutated, _copy_delta(delta))
    cold = GlobalGreedy(backend="numpy")
    start = time.perf_counter()
    cold_strategy = cold.build_strategy(_bare_copy(mutated))
    cold_seconds = time.perf_counter() - start

    return {
        "users": num_users,
        "gate": gate,
        "pairs": compiled.num_pairs,
        "delta_pairs": len(delta.probability_updates),
        "delta_price_cells": len(delta.price_updates),
        "initial_seconds": initial_seconds,
        "resolve_seconds": resolve_seconds,
        "cold_seconds": cold_seconds,
        "speedup": cold_seconds / resolve_seconds,
        "stats": stats,
        "warm_triples": sorted(warm_strategy.triples()),
        "cold_triples": sorted(cold_strategy.triples()),
        "warm_curve": solver.growth_curve,
        "cold_curve": cold.last_growth_curve,
        "revenue": solver.revenue,
    }


def test_dynamic_resolve_speedup(benchmark):
    result = run_once(benchmark, _run)

    print(
        f"\ndynamic re-solve at {result['users']:,} users "
        f"({result['pairs']:,} pairs, "
        f"{result['delta_pairs']:,} pair vectors + "
        f"{result['delta_price_cells']} price cells changed):"
    )
    print(
        f"  initial cold solve: {result['initial_seconds']:7.2f}s"
    )
    print(
        f"  incremental resolve: {result['resolve_seconds']:6.2f}s "
        f"(mode={result['stats']['mode']}, "
        f"dirty_users={result['stats'].get('dirty_users', 'n/a')})"
    )
    print(
        f"  cold re-solve:      {result['cold_seconds']:7.2f}s "
        f"-> {result['speedup']:.1f}x (gate >= {result['gate']}x)"
    )

    write_bench_json(_RECORD_PATH, {
        "scale": bench_scale(),
        "users": result["users"],
        "pairs": result["pairs"],
        "delta_pairs": result["delta_pairs"],
        "delta_price_cells": result["delta_price_cells"],
        "initial_seconds": result["initial_seconds"],
        "resolve_seconds": result["resolve_seconds"],
        "cold_seconds": result["cold_seconds"],
        "speedup": result["speedup"],
        "mode": result["stats"]["mode"],
        "dirty_users": result["stats"].get("dirty_users"),
        "reused_events": result["stats"].get("reused_events"),
        "revenue": result["revenue"],
        "bit_identical": (
            result["warm_triples"] == result["cold_triples"]
            and result["warm_curve"] == result["cold_curve"]
        ),
    })

    # The acceptance gates: production size at the default scale ...
    if bench_scale() != "tiny":
        assert result["users"] >= 100_000
        assert result["pairs"] >= 1_000_000
    # ... a ~1%-of-pairs delta ...
    assert result["delta_pairs"] >= DELTA_PAIR_FRACTION * result["pairs"] * 0.5
    # ... the fast merge path actually ran ...
    assert result["stats"]["mode"] == "merge"
    # ... warm and cold agree bit for bit (set, order and gains) ...
    assert result["warm_triples"] == result["cold_triples"]
    assert result["warm_curve"] == result["cold_curve"]
    assert result["revenue"] > 0.0
    # ... and the incremental path pays at least the gated factor.
    assert result["speedup"] >= result["gate"]
