"""Columnar scalability sweep -- Figure-6-style seeding at production scale.

The paper's Figure 6 demonstrates G-Greedy scaling to 100K-500K users (50M+
candidate triples).  This suite drives the columnar instance core
(:mod:`repro.core.compiled`) at the lower end of that range -- **>= 100k
users and >= 1M candidate (user, item) pairs** at the default benchmark
scale -- and gates the refactor's win:

* the **sweep** generates columnar synthetic instances of growing user
  count (the pair dict is never materialized) and runs G-Greedy seeding
  plus a fixed number of admissions on each, recording wall-clock per
  candidate triple;
* the **head-to-head** at the largest size runs the identical selection on
  the object path (dict-backed adoption table, per-triple seeding loop over
  an explicit candidate pool) and asserts the columnar path is **>= 3x**
  faster with **bit-identical** revenue growth curves.

Results are recorded to ``BENCH_scale.json`` so the roadmap's BENCH
trajectory can track the columnar core over time.  In CI smoke mode
(``REPRO_BENCH_SCALE=tiny``) the sweep shrinks and the gate relaxes --
machine variance matters more than the trajectory there.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import bench_scale, run_once, write_bench_json
from repro.core.constraints import ConstraintChecker
from repro.core.revenue import RevenueModel
from repro.core.selection import SEED_ISOLATED, LazyGreedySelector
from repro.core.strategy import Strategy
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_columnar

#: Admissions after seeding; keeps the timed region dominated by the seeding
#: sweep (the quantity under test) while proving the full loop end to end.
ADMISSIONS = 100

_RECORD_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_scale.json",
)


def _sweep_settings():
    """User counts and the acceptance gate for the current scale."""
    if bench_scale() == "tiny":
        return (1_000, 2_000, 4_000), 1.5
    return (25_000, 50_000, 100_000), 3.0


def _config(num_users: int) -> SyntheticConfig:
    return SyntheticConfig(
        num_users=num_users, num_items=2_000, num_classes=100,
        candidates_per_user=10, horizon=3, display_limit=2,
        capacity_fraction=0.25, beta=0.5, seed=7,
    )


def _timed_selection(instance, candidates=None):
    """Seed the G-Greedy frontier and admit ``ADMISSIONS`` triples.

    ``candidates=None`` runs the columnar loop over the whole ground set;
    an explicit candidate iterator runs the per-triple object loop, whose
    seeding consumes it inside the timed region.
    """
    strategy = Strategy(instance.catalog)
    model = RevenueModel(instance, backend="numpy")
    selector = LazyGreedySelector(
        instance, model, ConstraintChecker(instance),
        seed_priorities=SEED_ISOLATED, max_selections=ADMISSIONS,
    )
    growth_curve = []
    start = time.perf_counter()
    selector.select(strategy, candidates, growth_curve=growth_curve)
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "growth_curve": growth_curve,
        "revenue": growth_curve[-1][1] if growth_curve else 0.0,
        "admitted": len(strategy),
        "lookups": model.lookups,
    }


def _run_sweep():
    user_counts, gate = _sweep_settings()
    points = []
    largest = None
    for num_users in user_counts:
        instance = generate_synthetic_columnar(_config(num_users))
        compiled = instance.compiled()
        result = _timed_selection(instance)
        points.append({
            "users": num_users,
            "pairs": compiled.num_pairs,
            "triples": compiled.num_candidate_triples(),
            "seconds": result["seconds"],
            "revenue": result["revenue"],
            "tensor_bytes": compiled.memory_footprint()["total"],
        })
        largest = (instance, result)
    instance, compiled_result = largest

    # Head-to-head against the object path: identical data materialized as a
    # dict-backed adoption table, selection run on the per-triple engine.
    object_instance = instance.compiled().to_instance(catalog=instance.catalog)
    object_result = _timed_selection(object_instance,
                                     object_instance.candidate_triples())
    return {
        "points": points,
        "gate": gate,
        "compiled": compiled_result,
        "object": object_result,
        "speedup": object_result["seconds"] / compiled_result["seconds"],
    }


def test_columnar_scalability_sweep(benchmark):
    stats = run_once(benchmark, _run_sweep)
    points = stats["points"]

    print(f"\ncolumnar G-Greedy seeding sweep (+{ADMISSIONS} admissions):")
    for point in points:
        per_triple = point["seconds"] / point["triples"] * 1e9
        print(
            f"  {point['users']:>8,} users  {point['pairs']:>10,} pairs  "
            f"{point['triples']:>10,} triples  {point['seconds']:7.2f}s  "
            f"({per_triple:6.1f} ns/triple, "
            f"{point['tensor_bytes'] / 1e6:6.1f} MB tensors)"
        )
    print(
        f"head-to-head at {points[-1]['users']:,} users: "
        f"object {stats['object']['seconds']:.2f}s vs "
        f"compiled {stats['compiled']['seconds']:.2f}s "
        f"-> {stats['speedup']:.1f}x (gate >= {stats['gate']}x)"
    )

    write_bench_json(_RECORD_PATH, {
        "scale": bench_scale(),
        "admissions": ADMISSIONS,
        "sweep": points,
        "head_to_head": {
            "users": points[-1]["users"],
            "pairs": points[-1]["pairs"],
            "object_seconds": stats["object"]["seconds"],
            "compiled_seconds": stats["compiled"]["seconds"],
            "speedup": stats["speedup"],
            "revenue": stats["compiled"]["revenue"],
            "bit_identical": (
                stats["compiled"]["growth_curve"]
                == stats["object"]["growth_curve"]
            ),
        },
    })

    # Acceptance gates: the default-scale sweep reaches production size ...
    if bench_scale() != "tiny":
        assert points[-1]["users"] >= 100_000
        assert points[-1]["pairs"] >= 1_000_000
    # ... the sweep grows monotonically and the revenue is real ...
    assert all(b["pairs"] > a["pairs"] for a, b in zip(points, points[1:]))
    assert stats["compiled"]["revenue"] > 0.0
    assert stats["compiled"]["admitted"] == ADMISSIONS
    # ... both engines make the same decisions, bit for bit ...
    assert stats["compiled"]["growth_curve"] == stats["object"]["growth_curve"]
    assert stats["compiled"]["lookups"] == stats["object"]["lookups"]
    # ... and compilation pays at least the gated factor.
    assert stats["speedup"] >= stats["gate"]
