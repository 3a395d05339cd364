"""Command-line interface for the REVMAX reproduction.

The CLI wraps the experiment harness so the main workflows can be run without
writing Python:

``python -m repro.cli solve --dataset amazon --algorithm gg``
    Prepare a dataset at the chosen scale, run one algorithm, print the
    summary and (optionally) write the plan / result JSON.

``python -m repro.cli compare --dataset amazon``
    Run the paper's six-algorithm suite on one instance and print the revenue
    / size / time comparison table.

``python -m repro.cli exhibit table1|table2|figure1|...``
    Regenerate one table or figure of the paper's evaluation and print its
    data (the same functions the benchmarks call).

``python -m repro.cli info --dataset amazon`` / ``info --load plan.npz``
    Print instance statistics (users, items, classes, candidate pairs,
    horizon) and the memory footprint of the compiled columnar tensors.

``python -m repro.cli resolve --load plan.npz --delta deltas.json``
    The dynamic re-solve workflow: load a saved instance, apply a JSON
    delta in place and repair the G-Greedy strategy incrementally.  With
    ``--state state.json`` (written by an earlier ``resolve
    --save-state``), untouched users' admission streams are reused instead
    of re-solved; the result is bit-identical to a cold solve either way.
    Delta cycles must re-save the instance alongside the state
    (``--save-instance plan.npz``): the state carries a digest of the
    tensors it was computed on and a mismatched pairing is rejected.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.algorithms.base import RevMaxAlgorithm
from repro.algorithms.baselines import TopRatingBaseline, TopRevenueBaseline
from repro.algorithms.global_greedy import GlobalGreedy, GlobalGreedyNoSaturation
from repro.algorithms.local_greedy import RandomizedLocalGreedy, SequentialLocalGreedy
from repro.core.vectorized import BACKENDS
from repro.datasets.synthetic import SyntheticConfig
from repro.experiments import figures
from repro.experiments.harness import (
    SCALES,
    predicted_ratings_map,
    prepare_dataset,
    run_algorithms,
    standard_algorithms,
)
from repro.experiments.reporting import format_table
from repro import io as repro_io

__all__ = ["main", "build_parser"]

_ALGORITHM_KEYS = ("gg", "gg-no", "slg", "rlg", "topre", "topra")

_EXHIBITS = (
    "table1", "table2", "figure1", "figure2", "figure3", "figure4",
    "figure5", "figure6", "figure7", "random-prices", "theory",
)

#: Exhibits that run the full algorithm suite and honour ``--jobs``.
_SUITE_EXHIBITS = ("table2", "figure1", "figure2", "figure3")


def _make_algorithm(key: str, pipeline, seed: int,
                    backend: Optional[str] = None,
                    jobs: Optional[int] = None) -> RevMaxAlgorithm:
    """Instantiate one algorithm by its CLI key."""
    key = key.lower()
    if key == "gg":
        return GlobalGreedy(backend=backend)
    if key == "gg-no":
        return GlobalGreedyNoSaturation(backend=backend)
    if key == "slg":
        return SequentialLocalGreedy(backend=backend)
    if key == "rlg":
        return RandomizedLocalGreedy(num_permutations=8, seed=seed,
                                     backend=backend, jobs=jobs)
    if key == "topre":
        return TopRevenueBaseline()
    if key == "topra":
        return TopRatingBaseline(predicted_ratings_map(pipeline))
    raise ValueError(f"unknown algorithm {key!r}; expected one of {_ALGORITHM_KEYS}")


def _add_engine_arguments(parser: argparse.ArgumentParser, jobs_help: str) -> None:
    """Attach the revenue-engine knobs of the solver subcommands."""
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="revenue-engine backend (default: numpy)")
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help=jobs_help)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="REVMAX reproduction: revenue-maximizing dynamic recommendations",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser("solve", help="run one algorithm on one dataset")
    solve.add_argument("--dataset", choices=("amazon", "epinions"), default="amazon")
    solve.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    solve.add_argument("--algorithm", choices=_ALGORITHM_KEYS, default="gg")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--save-result", metavar="PATH", default=None,
                       help="write the result (summary + plan) as JSON")
    solve.add_argument("--save-instance", metavar="PATH", default=None,
                       help="write the solved instance as JSON")
    _add_engine_arguments(
        solve,
        jobs_help="worker processes for RL-Greedy's permutations (default "
                  "0: one per core, in-process on a single core; other "
                  "algorithms run in-process)",
    )

    compare = subparsers.add_parser(
        "compare", help="run the paper's six-algorithm suite on one dataset"
    )
    compare.add_argument("--dataset", choices=("amazon", "epinions"), default="amazon")
    compare.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--permutations", type=int, default=8,
                         help="number of RL-Greedy permutations")
    _add_engine_arguments(
        compare,
        jobs_help="worker processes running the suite (0: one per core; "
                  "results are identical to a serial run)",
    )

    exhibit = subparsers.add_parser(
        "exhibit", help="regenerate one table/figure of the paper's evaluation"
    )
    exhibit.add_argument("name", choices=_EXHIBITS)
    exhibit.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    exhibit.add_argument("--seed", type=int, default=0)
    exhibit.add_argument("--jobs", type=int, default=0, metavar="N",
                         help="worker processes for the suite-running "
                              f"exhibits ({', '.join(_SUITE_EXHIBITS)}); "
                              "ignored by the rest")

    resolve = subparsers.add_parser(
        "resolve",
        help="apply an instance delta and incrementally re-solve G-Greedy",
    )
    resolve.add_argument("--load", metavar="PATH", required=True,
                         help="instance to solve (.json or .npz)")
    resolve.add_argument("--delta", metavar="PATH", default=None,
                         help="JSON delta to apply before solving "
                              "(omit for a cold solve that primes --save-state)")
    resolve.add_argument("--state", metavar="PATH", default=None,
                         help="warm solver state from a previous resolve "
                              "(must match the loaded instance)")
    resolve.add_argument("--save-state", metavar="PATH", default=None,
                         help="write the updated solver state as JSON")
    resolve.add_argument("--save-strategy", metavar="PATH", default=None,
                         help="write the repaired strategy as JSON")
    resolve.add_argument("--save-instance", metavar="PATH", default=None,
                         help="write the mutated instance (.json or .npz)")

    info = subparsers.add_parser(
        "info", help="print instance statistics and compiled-tensor footprint"
    )
    info.add_argument("--dataset", choices=("amazon", "epinions"),
                      default="amazon")
    info.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    info.add_argument("--seed", type=int, default=0)
    info.add_argument("--load", metavar="PATH", default=None,
                      help="inspect a saved instance instead of preparing a "
                           "dataset (.json or .npz)")

    return parser


def _command_solve(args: argparse.Namespace) -> int:
    pipeline = prepare_dataset(args.dataset, scale=args.scale, seed=args.seed)
    algorithm = _make_algorithm(args.algorithm, pipeline, args.seed,
                                backend=args.backend, jobs=args.jobs)
    result = algorithm.run(pipeline.instance)
    print(result.summary())
    if args.save_instance:
        if str(args.save_instance).endswith(".npz"):
            repro_io.save_instance_npz(pipeline.instance, args.save_instance)
        else:
            repro_io.save_instance(pipeline.instance, args.save_instance)
        print(f"instance written to {args.save_instance}")
    if args.save_result:
        repro_io.save_result(result, args.save_result)
        print(f"result written to {args.save_result}")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    pipeline = prepare_dataset(args.dataset, scale=args.scale, seed=args.seed)
    suite = standard_algorithms(
        predicted_ratings=predicted_ratings_map(pipeline),
        rl_permutations=args.permutations,
        seed=args.seed,
        backend=args.backend,
    )
    results = run_algorithms(pipeline.instance, suite, jobs=args.jobs)
    rows = [
        [name, result.revenue, result.strategy_size, result.runtime_seconds]
        for name, result in sorted(results.items(), key=lambda item: -item[1].revenue)
    ]
    print(format_table(["algorithm", "expected revenue", "plan size", "seconds"], rows))
    return 0


def _command_exhibit(args: argparse.Namespace) -> int:
    name = args.name
    if name in ("figure6", "random-prices", "theory"):
        if name == "figure6":
            result = figures.figure6_scalability(
                user_counts=(200, 400, 800),
                base_config=SyntheticConfig(num_items=100, num_classes=20,
                                            candidates_per_user=10, seed=args.seed),
            )
        elif name == "random-prices":
            result = figures.extension_random_prices(seed=args.seed)
        else:
            result = figures.theory_small_instances(seed=args.seed)
        print(result)
        return 0

    pipelines = {
        "amazon": prepare_dataset("amazon", scale=args.scale, seed=args.seed),
        "epinions": prepare_dataset("epinions", scale=args.scale, seed=args.seed),
    }
    if name == "table1":
        result = figures.table1_dataset_statistics(pipelines)
    elif name == "table2":
        result = figures.table2_running_times(pipelines, jobs=args.jobs)
    elif name == "figure1":
        result = figures.figure1_revenue_by_capacity_distribution(
            pipelines, jobs=args.jobs
        )
    elif name == "figure2":
        result = figures.figure2_revenue_by_saturation(pipelines, jobs=args.jobs)
    elif name == "figure3":
        result = figures.figure3_revenue_by_saturation_singleton(
            pipelines, jobs=args.jobs
        )
    elif name == "figure4":
        result = figures.figure4_revenue_growth_curves(pipelines["amazon"])
    elif name == "figure5":
        result = figures.figure5_repeat_histograms(pipelines["amazon"])
    elif name == "figure7":
        result = figures.figure7_incomplete_prices(pipelines)
    else:  # pragma: no cover - choices exhausted above
        raise ValueError(f"unknown exhibit {name!r}")
    print(result)
    return 0


def _load_instance(path: str):
    """Read ``--load``'s instance (``.npz`` or JSON by suffix).

    Returns ``None`` after printing a one-line error when the file cannot
    be read as an instance (a truncated or empty archive, say).
    """
    try:
        if str(path).endswith(".npz"):
            return repro_io.load_instance_npz(path)
        return repro_io.load_instance(path)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return None


def _command_resolve(args: argparse.Namespace) -> int:
    import time

    from repro.dynamic import IncrementalSolver, load_delta

    instance = _load_instance(args.load)
    if instance is None:
        return 2
    delta = load_delta(args.delta) if args.delta else None
    if args.state:
        try:
            solver = IncrementalSolver.from_state(
                instance, repro_io.load_solver_state(args.state)
            )
        except ValueError as error:
            # A state saved against other tensors (a stale plan.npz next to
            # a newer state.json): report it as a CLI error, not a traceback.
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        solver = IncrementalSolver(instance)
    if delta is not None:
        print(delta.summary())
    start = time.perf_counter()
    if delta is None and args.state is None:
        strategy = solver.solve()
    else:
        strategy = solver.resolve(delta)
    seconds = time.perf_counter() - start
    stats = solver.last_stats
    detail = ""
    if stats.get("mode") == "merge":
        detail = (f"  dirty_users={stats['dirty_users']:,}"
                  f"  reused_events={stats['reused_events']:,}")
    elif "fallback_reason" in stats:
        detail = f"  fallback: {stats['fallback_reason']}"
    print(f"re-solve mode={stats['mode']}{detail}")
    print(
        f"strategy: {len(strategy):,} triples  "
        f"revenue={solver.revenue:,.2f}  ({seconds:.2f}s)"
    )
    if args.save_state:
        repro_io.save_solver_state(solver.state(), args.save_state)
        print(f"solver state written to {args.save_state}")
    if args.save_strategy:
        repro_io.save_strategy(strategy, args.save_strategy,
                               instance_name=instance.name)
        print(f"strategy written to {args.save_strategy}")
    if args.save_instance:
        if str(args.save_instance).endswith(".npz"):
            repro_io.save_instance_npz(instance, args.save_instance)
        else:
            repro_io.save_instance(instance, args.save_instance)
        print(f"instance written to {args.save_instance}")
    return 0


def _format_bytes(count: int) -> str:
    """Human-readable byte count (binary units)."""
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024.0 or unit == "GiB":
            return f"{size:,.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024.0
    return f"{int(count)} B"  # pragma: no cover - loop always returns


def _command_info(args: argparse.Namespace) -> int:
    if args.load is not None:
        instance = _load_instance(args.load)
        if instance is None:
            return 2
    else:
        instance = prepare_dataset(
            args.dataset, scale=args.scale, seed=args.seed
        ).instance
    compiled = instance.compiled()
    sizes = instance.catalog.class_sizes().values()
    rows = [
        ["instance", instance.name],
        ["users", f"{instance.num_users:,}"],
        ["items", f"{instance.num_items:,}"],
        ["item classes", f"{instance.catalog.num_classes:,} "
                         f"(largest {max(sizes):,})"],
        ["horizon", f"{instance.horizon:,}"],
        ["display limit", f"{instance.display_limit:,}"],
        ["candidate (user, item) pairs", f"{compiled.num_pairs:,}"],
        ["candidate triples (positive q)",
         f"{compiled.num_candidate_triples():,}"],
        ["(user, class) groups", f"{compiled.num_groups:,}"],
    ]
    print(format_table(["statistic", "value"], rows))
    footprint = compiled.memory_footprint()
    total = footprint.pop("total")
    print("\ncompiled tensor footprint:")
    tensor_rows = [
        [name, _format_bytes(size)]
        for name, size in sorted(footprint.items(), key=lambda kv: -kv[1])
    ]
    tensor_rows.append(["total", _format_bytes(total)])
    print(format_table(["tensor", "bytes"], tensor_rows))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve":
        return _command_solve(args)
    if args.command == "compare":
        return _command_compare(args)
    if args.command == "exhibit":
        return _command_exhibit(args)
    if args.command == "resolve":
        return _command_resolve(args)
    if args.command == "info":
        return _command_info(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
