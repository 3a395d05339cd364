"""The benchmark's workloads; ``bench/run.py`` runs each in its own process.

Direct use, from the repository root with ``src`` on ``PYTHONPATH``::

    python3 -m bench.workloads --workload gg-cold --seed 0 --seconds 40 \\
        --trace 0 --result out.json

Every workload is a closed loop with one client: the next op starts only
after the previous one returned.  An op is one full solve, one CLI re-solve
cycle or one algorithm run; a round is the fixed sequence of ops the
workload repeats while another iteration fits in ``--seconds``.  Inputs
come from ``--seed`` alone.

An untraced run repeats iterations of a few set-ups and one or two rounds,
so the set-up samples spread over the whole run like the op samples do; it
reports the end-to-end metrics.  A traced run times one untraced set-up and
round as the baseline, installs :class:`bench.trace.Tracer`, then repeats
traced iterations of one set-up and one round; it reports the per-layer
metrics per iteration.

The speed of a shared machine drifts by tens of percent over a minute, and
every op slows with it.  So an untraced run also times a fixed calibration
slice before every set-up and op, and reports each end-to-end time at the
reference speed: the wall-clock median times ``REFERENCE_SLICE_S`` over the
median slice.  The wall-clock medians are kept as notes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional

import numpy as np

from bench import trace as layer_trace
from repro import cli
from repro import io as repro_io
from repro import parallel as repro_parallel
from repro.algorithms.global_greedy import GlobalGreedy
from repro.core.constraints import ConstraintChecker
from repro.core.entities import Triple
from repro.core.revenue import RevenueModel
from repro.core.strategy import Strategy
from repro.datasets import synthetic
from repro.dynamic import InstanceDelta, save_delta
from repro.experiments import harness

ROOT = Path(__file__).resolve().parents[1]

#: Growth-curve tails are running float sums; the recomputed revenue sums
#: the same terms per group, so the two agree to rounding only.
REVENUE_RTOL = 1e-9

END_TO_END = ("setup_s", "op_p50_s", "round_s", "peak_rss_mb")

#: What :func:`calibration_slice` takes, in seconds, at the reference
#: speed: its median on the machine of the README's baseline.
REFERENCE_SLICE_S = 0.0275

_CORE_LAYERS = (
    "datasets.generate_s", "compiled.pair_row_calls",
    "compiled.pair_row_self_s", "compiled.isolated_revenues_s",
    "selection.seed_s", "selection.select_self_s", "selection.pops",
    "selection.admissions", "selection.admit_ratio",
    "selection.us_per_admission", "heaps.peek_calls", "heaps.update_calls",
    "heaps.columnar_self_s", "heaps.object_self_s", "revenue.batch_calls",
    "revenue.batch_self_s", "revenue.evaluations", "revenue.cache_hits",
    "revenue.lookups", "revenue.cache_hit_ratio",
    "constraints.can_add_calls", "constraints.can_add_self_s",
    "constraints.blocked", "strategy.self_s", "trace.overhead_ratio",
)


class CheckFailed(Exception):
    """An op's output is wrong."""


class Op(NamedTuple):
    """One timed call plus the untimed check of its output.

    ``check`` returns the output's digest or raises :class:`CheckFailed`.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], str]


def calibration_slice() -> float:
    """Seconds a fixed slice of interpreter and NumPy work takes now.

    The slice does what the solvers spend their time on -- heap pushes and
    pops, dict stores, small NumPy reductions -- and calls no ``repro``
    code, so only the machine's speed moves it, never a change to the
    program.
    """
    start = time.perf_counter()
    heap: List[tuple] = []
    table: Dict[int, int] = {}
    values = np.linspace(1.0, 2.0, 2048)
    total = 0.0
    for step in range(30_000):
        heapq.heappush(heap, ((step * 7919) % 10007, step))
        if len(heap) > 512:
            table[heapq.heappop(heap)[1] & 1023] = step
        if step % 40 == 0:
            total += float(np.dot(values, values[::-1]))
    return time.perf_counter() - start


def _digest(*parts) -> str:
    """sha256 of a JSON encoding; floats encode exactly (``repr``)."""
    text = json.dumps(parts, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _check_revenue(tail: float, revenue: float, what: str) -> None:
    if abs(tail - revenue) > REVENUE_RTOL * max(1.0, abs(revenue)):
        raise CheckFailed(f"{what}: growth-curve tail {tail!r} != "
                          f"recomputed revenue {revenue!r}")


def _check_result(instance, result) -> str:
    """Constraints, curve tail and digest of an ``AlgorithmResult``."""
    ConstraintChecker(instance).check(result.strategy)
    if result.growth_curve:
        _check_revenue(result.growth_curve[-1][1], result.revenue,
                       result.algorithm)
    return _digest([list(z) for z in result.strategy.sorted_triples()],
                   [list(point) for point in result.growth_curve],
                   result.revenue)


def _synthetic_config(users: int, seed: int) -> synthetic.SyntheticConfig:
    """The Figure-6 family: users/5 items in 100 classes, 10 pairs a user."""
    return synthetic.SyntheticConfig(
        num_users=users, num_items=users // 5, num_classes=100,
        candidates_per_user=10, horizon=5, display_limit=2,
        capacity_fraction=0.25, beta=0.5, seed=seed,
    )


class _Workload:
    """Inputs come from ``seed``; subclasses define the set-up, the round
    and the per-layer metrics a traced run must see fire."""

    name = ""
    #: Set-ups, then rounds, per untraced iteration; the last set-up
    #: feeds the rounds.
    setups = 1
    rounds = 1
    layers: tuple = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def notes(self) -> List[str]:
        return []


class GGCold(_Workload):
    """One full, uncapped G-Greedy solve per round; the admit loop dominates."""

    name = "gg-cold"
    setups = 10
    users = 2_000
    layers = _CORE_LAYERS + ("algorithms.materialise_s",)

    def setup(self, directory: Path):
        instance = synthetic.generate_synthetic_columnar(
            _synthetic_config(self.users, self.seed))
        instance.compiled().isolated_revenues()
        return instance

    def round(self, instance, index: int) -> Iterator[Op]:
        # Library defaults and no parallel arguments, as a user would call it.
        yield Op("solve", lambda: GlobalGreedy().run(instance),
                 lambda result: _check_result(instance, result))


def _run_cli(argv: List[object]) -> str:
    """``repro.cli.main`` in-process; returns what it printed."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main([str(arg) for arg in argv])
    if code != 0:
        raise CheckFailed(f"repro {argv[0]} exited with code {code}")
    return printed.getvalue()


class ResolveCycle(_Workload):
    """The documented ``repro resolve`` cycle, persisted state included."""

    name = "resolve-cycle"
    rounds = 2
    users = 2_000
    cycles = 4
    layers = _CORE_LAYERS + (
        "compiled.apply_delta_s", "dynamic.resolve_s", "dynamic.from_state_s",
        "dynamic.export_state_s", "dynamic.merge_cycles",
        "dynamic.fallback_cycles", "dynamic.dirty_users",
        "dynamic.reused_events", "io.load_instance_s", "io.save_instance_s",
        "io.load_state_s", "io.save_state_s", "io.load_delta_s",
        "io.state_bytes", "io.instance_bytes", "cli.self_s",
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._deltas: List[Path] = []
        self._modes: List[str] = []

    def setup(self, directory: Path) -> Path:
        instance = synthetic.generate_synthetic_columnar(
            _synthetic_config(self.users, self.seed))
        repro_io.save_instance_npz(instance, directory / "plan0.npz")
        _run_cli(["resolve", "--load", directory / "plan0.npz",
                  "--save-state", directory / "state0.json"])
        return directory

    def round(self, directory: Path, index: int) -> Iterator[Op]:
        # Every cycle writes fresh paths: saving over the memory-mapped
        # instance it loaded would truncate it.
        plan, state = directory / "plan0.npz", directory / "state0.json"
        out = directory / f"round{index}"
        out.mkdir()
        for k in range(self.cycles):
            if k == len(self._deltas):
                self._deltas.append(self._write_delta(plan, k, directory))
            next_plan = out / f"plan{k + 1}.npz"
            next_state = out / f"state{k + 1}.json"
            argv = ["resolve", "--load", plan, "--state", state,
                    "--delta", self._deltas[k], "--save-state", next_state,
                    "--save-instance", next_plan]
            yield Op(f"cycle{k}", lambda argv=argv: _run_cli(argv),
                     lambda printed, k=k, plan=next_plan, state=next_state:
                     self._check_cycle(k, index, printed, plan, state))
            plan, state = next_plan, next_state

    def _write_delta(self, plan: Path, k: int, directory: Path) -> Path:
        """1% of users get N(0, 0.1) noise on every pair; 3 prices move."""
        compiled = repro_io.load_compiled_npz(plan)
        rng = np.random.default_rng([self.seed, k])
        users = rng.choice(compiled.num_users, replace=False,
                           size=max(1, round(0.01 * compiled.num_users)))
        probabilities = {}
        for user in sorted(users.tolist()):
            for row in range(int(compiled.user_ptr[user]),
                             int(compiled.user_ptr[user + 1])):
                noisy = compiled.pair_probs[row] + rng.normal(
                    0.0, 0.1, compiled.horizon)
                probabilities[(user, int(compiled.pair_item[row]))] = (
                    np.clip(noisy, 0.01, 1.0))
        prices = {}
        for cell in rng.choice(compiled.num_items * compiled.horizon, size=3,
                               replace=False).tolist():
            item, t = divmod(cell, compiled.horizon)
            prices[(item, t)] = float(compiled.prices[item, t]) * float(
                rng.uniform(0.9, 1.1))
        path = directory.parent / f"delta{k}.json"
        save_delta(InstanceDelta(price_updates=prices,
                                 probability_updates=probabilities), path)
        return path

    def _check_cycle(self, k: int, index: int, printed: str, plan: Path,
                     state: Path) -> str:
        with state.open() as handle:
            admits = json.load(handle)["admits"]
        if index > 0:
            # Later rounds must repeat round 0's digest, which makes round
            # 0's checks hold for them too; the run spends its time on ops.
            return _digest(admits)
        instance = repro_io.load_instance_npz(plan)
        strategy = Strategy(instance.catalog,
                            (Triple(u, i, t) for u, i, t, _ in admits))
        ConstraintChecker(instance).check(strategy)
        curve, total = [], 0.0
        for size, (_, _, _, gain) in enumerate(admits, start=1):
            total += gain
            curve.append((size, total))
        _check_revenue(total, RevenueModel(instance).revenue(strategy),
                       f"cycle {k}")
        self._modes.append(next(
            (line for line in printed.splitlines()
             if line.startswith("re-solve")), "re-solve mode=?"))
        if k == self.cycles - 1:
            # The warm chain must equal a cold solve of the final plan.
            cold = GlobalGreedy().run(instance)
            if (cold.growth_curve != curve
                    or cold.strategy.triples() != strategy.triples()):
                raise CheckFailed(f"cycle {k}: warm re-solve differs "
                                  "from a cold solve of the same plan")
        return _digest(admits)

    def notes(self) -> List[str]:
        return [f"cycle{k}: {mode}" for k, mode in enumerate(self._modes)]


class PaperSuite(_Workload):
    """The six-algorithm suite on Epinions-like data through the harness."""

    name = "paper-suite"
    setups = 2
    keys = ("GG", "GG-No", "RLG", "SLG", "TopRev", "TopRat")
    layers = _CORE_LAYERS + (
        "heaps.drop_group_calls", "algorithms.materialise_s",
        "algorithms.GG_s", "algorithms.GG-No_s", "algorithms.RLG_s",
        "algorithms.SLG_s", "algorithms.TopRev_s", "algorithms.TopRat_s",
        "parallel.map_calls", "parallel.map_s", "parallel.worker_rss_mb",
    )

    def setup(self, directory: Path):
        return harness.prepare_dataset("epinions", "small", self.seed,
                                       use_cache=False)

    def round(self, pipeline, index: int) -> Iterator[Op]:
        suite = harness.standard_algorithms(
            predicted_ratings=harness.predicted_ratings_map(pipeline),
            rl_permutations=12, seed=self.seed, rl_jobs=2, include=self.keys,
        )
        instance = pipeline.instance
        for key, algorithm in zip(self.keys, suite):
            yield Op(key,
                     lambda algorithm=algorithm: harness.run_algorithms(
                         instance, [algorithm])[algorithm.name],
                     lambda result: _check_result(instance, result))


WORKLOADS = {cls.name: cls for cls in (GGCold, ResolveCycle, PaperSuite)}


class Outcome:
    """Ops attempted and failed, failure messages and output digests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.digests: Dict[str, str] = {}

    def fail(self, message: str) -> None:
        print(f"bench: {message}", file=sys.stderr)
        self.failures.append(message)


def _run_round(workload, context, index: int, outcome: Outcome,
               tracer: Optional[layer_trace.Tracer] = None,
               slices: Optional[List[float]] = None
               ) -> Optional[Dict[str, float]]:
    """Run one round; returns its op times by label, ``None`` once an op
    failed.  With ``slices``, a calibration slice is timed into it before
    each op.
    """
    times = {}
    for op in workload.round(context, index):
        outcome.attempted += 1
        if slices is not None:
            slices.append(calibration_slice())
        recording = tracer.op(op.label) if tracer else contextlib.nullcontext()
        with recording:
            start = time.perf_counter()
            try:
                output = op.call()
            except Exception as error:  # noqa: BLE001 - reported by name
                traceback.print_exc()
                outcome.fail(f"{op.label}: {type(error).__name__}: {error}")
                return None
            elapsed = time.perf_counter() - start
        try:
            digest = op.check(output)
        except Exception as error:  # noqa: BLE001 - reported by name
            traceback.print_exc()
            outcome.fail(f"{op.label}: {type(error).__name__}: {error}")
            return None
        if outcome.digests.setdefault(op.label, digest) != digest:
            outcome.fail(f"{op.label}: output changed between rounds")
            return None
        times[op.label] = elapsed
    return times


def _timed_setup(workload, workdir: Path, tracer=None):
    """One set-up in a fresh directory; returns its context and seconds."""
    directory = workdir / f"setup{sum(1 for _ in workdir.glob('setup*'))}"
    directory.mkdir(parents=True)
    recording = tracer.op("setup") if tracer else contextlib.nullcontext()
    with recording:
        start = time.perf_counter()
        context = workload.setup(directory)
        return context, time.perf_counter() - start


def _clear_setups(workdir: Path) -> None:
    # The previous iteration's files: its context is no longer used.
    for old in workdir.glob("setup*"):
        shutil.rmtree(old)
    # Instances hold reference cycles; collecting them here keeps the peak
    # RSS from depending on when the cyclic collector happens to run.
    gc.collect()


def _another_fits(run_begin: float, last_begin: Optional[float],
                  seconds: float) -> bool:
    """Whether one more iteration, as long as the last one (begun at
    ``last_begin``), still ends within ``seconds`` of the run's start.
    The first iteration always runs."""
    if last_begin is None:
        return True
    now = time.perf_counter()
    return 2 * now - run_begin - last_begin <= seconds


def _untraced(workload, workdir: Path, seconds: float, outcome: Outcome,
              result: Dict) -> None:
    samples: Dict[str, List[float]] = {"setup_s": [], "round_s": [],
                                       "slice_s": []}
    op_s: Dict[str, List[float]] = {}
    begin = time.perf_counter()
    last = None
    while _another_fits(begin, last, seconds):
        last = time.perf_counter()
        _clear_setups(workdir)
        for _ in range(workload.setups):
            samples["slice_s"].append(calibration_slice())
            context, elapsed = _timed_setup(workload, workdir)
            samples["setup_s"].append(elapsed)
        for _ in range(workload.rounds):
            times = _run_round(workload, context, len(samples["round_s"]),
                               outcome, slices=samples["slice_s"])
            if times is None:
                return
            samples["round_s"].append(sum(times.values()))
            for label, elapsed in times.items():
                op_s.setdefault(label, []).append(elapsed)
    # Each op label counts once, by its median over the run: pooling every
    # sample of a round of unlike ops (the suite's six algorithms) lets
    # single noisy samples decide which algorithm the median lands on.
    wall = {"setup_s": statistics.median(samples["setup_s"]),
            "op_p50_s": statistics.median(
                statistics.median(times) for times in op_s.values()),
            "round_s": statistics.median(samples["round_s"])}
    slice_s = statistics.median(samples["slice_s"])
    result["metrics"] = {name: value * REFERENCE_SLICE_S / slice_s
                         for name, value in wall.items()}
    result["metrics"]["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    result["wall"] = dict(wall, slice_s=slice_s, ops={
        label: statistics.median(times) for label, times in op_s.items()})
    result["notes"].append(
        f"{sum(map(len, op_s.values()))} ops in {len(samples['round_s'])} "
        f"rounds, {len(samples['setup_s'])} set-ups")
    result["notes"].append(
        "wall-clock medians: " + ", ".join(
            f"{name} {value:.4f} s" for name, value in wall.items())
        + f"; calibration slice {slice_s * 1e3:.2f} ms against "
        f"{REFERENCE_SLICE_S * 1e3:.2f} ms at the reference speed")


def _traced(workload, workdir: Path, seconds: float, outcome: Outcome,
            result: Dict, count_metrics: List[str]) -> None:
    run_begin = time.perf_counter()
    context, elapsed = _timed_setup(workload, workdir)
    times = _run_round(workload, context, 0, outcome)
    if times is None:
        return
    base = elapsed + sum(times.values())
    tracer = layer_trace.Tracer()
    tracer.install()
    iterations: List[float] = []
    counts: List[Dict[str, float]] = []
    try:
        start = tracer.snapshot()
        last = None
        while _another_fits(run_begin, last, seconds):
            last = time.perf_counter()
            _clear_setups(workdir)
            before = tracer.snapshot()
            context, elapsed = _timed_setup(workload, workdir, tracer)
            times = _run_round(workload, context, len(iterations) + 1,
                               outcome, tracer)
            if times is None:
                return
            iterations.append(elapsed + sum(times.values()))
            one = layer_trace.per_layer_metrics(
                layer_trace.per_iteration(before, tracer.snapshot()))
            counts.append({name: one[name] for name in count_metrics})
        end = tracer.snapshot()
    finally:
        tracer.restore()
    values = layer_trace.per_iteration(start, end, len(iterations))
    traced = statistics.median(iterations)
    values[("counter", "trace.overhead_ratio")] = traced / base
    _shutdown_pools()
    values[("counter", "parallel.worker_rss_mb")] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    result["metrics"] = layer_trace.per_layer_metrics(values)
    for name in layer_trace.silent_metrics(values, workload.layers):
        outcome.fail(f"trace self-check: {name} never fired")
    for name in count_metrics:
        if len({iteration[name] for iteration in counts}) > 1:
            outcome.fail(f"trace self-check: {name} differs between "
                         "iterations")
    result["notes"].extend(layer_trace.ratio_bases(values))
    result["notes"].append(
        f"trace.overhead_ratio = {traced:.3f} s traced / {base:.3f} s "
        f"untraced per set-up plus round ({len(iterations)} traced)")
    result["notes"].extend(f"not wrapped (missing): {name}"
                           for name in tracer.missing)
    result["spans"] = tracer.export_spans()
    result["phase_self_s"] = layer_trace.span_self_seconds(result["spans"])


def _shutdown_pools() -> None:
    # Reaps RL-Greedy's reused worker processes, so RUSAGE_CHILDREN sees them.
    getattr(repro_parallel, "shutdown_persistent_pools", lambda: None)()


def _stamps() -> Dict[str, object]:
    try:
        from repro.core.kernels import kernel_info
        kernel = kernel_info()["kernel"]
    except ImportError:
        kernel = "numpy"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "kernel": kernel}


def run(name: str, seed: int, seconds: float, traced: bool) -> Dict:
    """Run one workload; returns the result document ``bench/run.py`` reads."""
    with (ROOT / "BENCHMARK.json").open() as handle:
        spec = json.load(handle)
    count_metrics = [metric["name"] for metric in spec["per_layer"]
                     if metric["unit"] == "count"]
    workload = WORKLOADS[name](seed)
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    outcome = Outcome()
    result: Dict = {"workload": name, "seed": seed, "trace": traced,
                    "metrics": {}, "notes": [], "stamps": _stamps()}
    try:
        if traced:
            _traced(workload, workdir, seconds, outcome, result, count_metrics)
        else:
            _untraced(workload, workdir, seconds, outcome, result)
    except Exception as error:  # noqa: BLE001 - a failed set-up is reported
        traceback.print_exc()
        outcome.attempted += 1
        outcome.fail(f"set-up: {type(error).__name__}: {error}")
    finally:
        _shutdown_pools()
        shutil.rmtree(workdir, ignore_errors=True)
    result["notes"].extend(workload.notes())
    result.update(attempted=max(outcome.attempted, 1),
                  failed=len(outcome.failures), failures=outcome.failures,
                  digests=outcome.digests)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True,
                        help="where to write the result document (JSON)")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
