"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Usage::

    python3 bench/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a result document written by ``bench/run.py --out``; side A is
the baseline, side B the change.  One row per (metric, workload) shows each
side's median and quartiles and a verdict on B:

* ``worse``: B's median is worse than A's by more than the metric's bound;
* ``improved``: B's median is better than A's by more than A's quartile
  distance;
* ``unresolved``: either side's quartile distance, as a share of its median,
  exceeds the bound -- unless every B run beats every A run (``improved``);
* ``unchanged``: anything else.

Per-layer metrics have no bound; their rows carry the numbers and ``-``.
Exits 2 without comparing when the runs' ``nproc``, ``python``, ``numpy``
or ``kernel`` stamps differ, and 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
STAMPS = ("nproc", "python", "numpy", "kernel")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(median)


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: Optional[float]) -> str:
    """The verdict on side ``b`` against baseline ``a`` (see module doc)."""
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    q1, base, q3 = quartiles(a)
    _, new, _ = quartiles(b)
    worsening = sign * (new - base)  # > 0: B reads worse than A
    if spread(a) > bound or spread(b) > bound:
        beats = all(sign * x < sign * y for x in b for y in a)
        return "improved" if beats else "unresolved"
    if worsening > bound * abs(base):
        return "worse"
    if -worsening > q3 - q1:
        return "improved"
    return "unchanged"


def stamp_mismatch(documents: Sequence[Dict]) -> Optional[str]:
    """Describe the first stamp that differs between runs, if any."""
    for key in STAMPS:
        seen = {str(document["stamps"].get(key)) for document in documents}
        if len(seen) > 1:
            return f"runs differ in {key}: {sorted(seen)}"
    return None


def collect(documents: Sequence[Dict]) -> Dict[Tuple[str, str], List[float]]:
    """Every (workload, metric) value across runs."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for document in documents:
        for workload, result in document["workloads"].items():
            for metric, value in result["metrics"].items():
                values.setdefault((workload, metric), []).append(value)
    return values


def compare(baseline: Sequence[Dict], change: Sequence[Dict],
            spec: Dict) -> List[Tuple[str, str, Tuple, Tuple, str]]:
    """Rows ``(workload, metric, A quartiles, B quartiles, verdict)``."""
    rules = {metric["name"]: (metric["better"], metric.get("bound"))
             for metric in spec["end_to_end"] + spec["per_layer"]}
    a_values, b_values = collect(baseline), collect(change)
    rows = []
    for key in sorted(a_values.keys() & b_values.keys()):
        workload, metric = key
        better, bound = rules.get(metric, ("lower", None))
        rows.append((workload, metric, quartiles(a_values[key]),
                     quartiles(b_values[key]),
                     verdict(a_values[key], b_values[key], better, bound)))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    paths_a, paths_b = argv[:split], argv[split + 1:]
    if not paths_a or not paths_b:
        print("compare: both sides need at least one run", file=sys.stderr)
        return 2
    baseline = [json.loads(Path(path).read_text()) for path in paths_a]
    change = [json.loads(Path(path).read_text()) for path in paths_b]
    problem = stamp_mismatch(baseline + change)
    if problem is not None:
        print(f"compare: refusing to compare: {problem}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(baseline, change, spec)
    print(f"{'workload':<14} {'metric':<30} {'A median [q1, q3]':<36} "
          f"{'B median [q1, q3]':<36} verdict")
    for workload, metric, (a1, am, a3), (b1, bm, b3), result in rows:
        print(f"{workload:<14} {metric:<30} "
              f"{f'{am:.6g} [{a1:.6g}, {a3:.6g}]':<36} "
              f"{f'{bm:.6g} [{b1:.6g}, {b3:.6g}]':<36} {result}")
    return 1 if any(row[4] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
