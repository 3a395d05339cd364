"""Run the REVMAX benchmark: every workload in a fresh child process.

Usage, from anywhere::

    python3 bench/run.py [--workload NAME ...] [--seed N] [--trace [0|1]]
                         [--out FILE] [--seconds S]

Prints every metric as ``workload metric value unit`` (end-to-end metrics
untraced, per-layer metrics with ``--trace``), then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits non-zero when
any output check fails or a child crashes.  ``--out`` keeps the full result
documents (and, traced, the spans in ``<out>.trace.json``) for
``bench/compare.py``.

``--seconds`` and the ``--trace 0|1`` spelling belong to the command line
every benchmark in this format accepts
(``<command> --workload W --seed N --seconds S --trace 0|1``).  The run
length is part of the benchmark, so ``--seconds`` must equal
``run_seconds`` in ``BENCHMARK.json``.

Seed 0 is also checked against the output digests in
``bench/reference.json``; ``bench/regenerate_reference.py`` rewrites them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
REFERENCE_SEED = 0

#: Applies to each child in turn.  A run of one workload, as the standard
#: command line asks for, thus ends within 180 s; a run of all of them
#: takes up to this long per workload.
CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              result_path: Path) -> Dict:
    """Run one workload in a fresh interpreter and read its result.

    A child that crashes, times out or leaves no result counts as one
    failed op of its workload, named by what happened.
    """
    # A fixed hash seed keeps string-keyed iteration orders, and so the
    # per-layer counts, identical from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "bench.workloads", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace)), "--result", str(result_path)]
    try:
        # The child's own output goes to stderr: stdout carries only results.
        completed = subprocess.run(command, cwd=ROOT, env=env,
                                   stdout=sys.stderr, timeout=CHILD_TIMEOUT_S,
                                   check=False)
        problem = (None if completed.returncode == 0
                   else f"child exited with code {completed.returncode}")
    except subprocess.TimeoutExpired:
        problem = f"child timed out after {CHILD_TIMEOUT_S} s"
    if problem is None and result_path.exists():
        try:
            return json.loads(result_path.read_text())
        finally:
            result_path.unlink()
    result_path.unlink(missing_ok=True)
    problem = problem or "child wrote no result"
    print(f"bench: {workload}: {problem}", file=sys.stderr)
    return {"workload": workload, "metrics": {}, "notes": [],
            "failures": [problem], "attempted": 1, "failed": 1, "digests": {}}


def _check_reference(result: Dict, reference: Dict) -> None:
    """Count every op whose digest differs from the seed-0 reference."""
    expected = reference.get(result["workload"])
    if expected is None:
        result["notes"].append("no reference digests for this workload")
        return
    for label, digest in sorted(expected.items()):
        if result["digests"].get(label, digest) != digest:
            result["failures"].append(f"{label}: output differs from the "
                                      "seed-0 reference digest")
            result["failed"] += 1


def main(argv: List[str] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics (--trace alone is 1)")
    parser.add_argument("--out", type=Path,
                        default=ROOT / ".bench_work" / "last-run.json",
                        help="where to keep the full result documents")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured time per workload; must equal "
                             "run_seconds in BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        parser.error(f"the run length is fixed at {spec['run_seconds']} s "
                     "by BENCHMARK.json")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    results = {
        name: run_child(name, args.seed, args.seconds, bool(args.trace),
                        work / f"result-{name}-{os.getpid()}.json")
        for name in args.workload or names
    }

    if args.seed == REFERENCE_SEED:
        reference = json.loads(REFERENCE.read_text())
        for result in results.values():
            _check_reference(result, reference)

    kind = "per_layer" if args.trace else "end_to_end"
    summary: Dict[str, Dict] = {}
    for name, result in results.items():
        prefix = f"{name}:" if len(results) > 1 else ""
        for metric in spec[kind]:
            if metric["name"] not in result["metrics"]:
                continue
            value = result["metrics"][metric["name"]]
            print(f"{name} {metric['name']} {value} {metric['unit']}")
            summary[prefix + metric["name"]] = {"value": value,
                                                "unit": metric["unit"]}
        print(f"{name} error_rate {result['failed'] / result['attempted']} "
              f"ratio")
        for note in result["notes"]:
            print(f"# {name}: {note}")
        for failure in result["failures"]:
            print(f"# {name}: FAILED {failure}")

    stamps = [result.pop("stamps") for result in results.values()
              if "stamps" in result]
    spans = {name: result.pop("spans", []) for name, result in results.items()}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
        "stamps": stamps[0] if stamps else {}, "workloads": results,
    }, indent=1))
    if args.trace:
        args.out.with_suffix(".trace.json").write_text(json.dumps(spans))

    correct = all(not result["failures"] for result in results.values())
    complete = all(set(metric["name"] for metric in spec[kind])
                   <= set(result["metrics"]) for result in results.values())
    print(json.dumps({
        "correct": correct and complete,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": summary,
    }))
    return 0 if correct and complete else 1


if __name__ == "__main__":
    sys.exit(main())
