"""Golden regression fixtures: canonical instances with frozen solutions.

``tests/golden/`` holds three small instances (serialized JSON, so they
are independent of the generators staying bit-stable) and the expected
strategy, revenue and growth curve of each solver on each of them.  The
test re-solves every (instance, solver) pair and fails with a **readable
triple-level diff** when anything drifts -- which turns "some refactor
silently changed what G-Greedy picks" from a benchmarking surprise into a
red unit test naming the exact triples that moved.

Drift that is *intentional* (an algorithm fix that changes solutions) is
recorded by regenerating the fixtures::

    PYTHONPATH=src python tests/golden/regenerate.py

and committing the result together with an explanation.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

import pytest

from repro import io as repro_io
from repro.algorithms.baselines import TopRevenueBaseline
from repro.algorithms.global_greedy import GlobalGreedy, GlobalGreedyNoSaturation
from repro.algorithms.local_greedy import SequentialLocalGreedy

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")

#: The frozen instances (see ``tests/golden/regenerate.py``).
GOLDEN_INSTANCES = ("golden-paper-like", "golden-dense",
                    "golden-tight-capacity")

#: Revenue / growth-curve tolerance: loose enough to ignore last-bit noise
#: from e.g. a NumPy upgrade changing reduction order, tight enough that
#: any behavioural change (a different triple, a different admission
#: order) blows straight through it.
REL_TOLERANCE = 1e-9


def instance_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.instance.json")


def expected_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.expected.json")


def _solvers():
    """The solver configurations frozen by the fixtures."""
    return {
        "g-greedy": GlobalGreedy(backend="numpy"),
        "g-greedy-object-path": GlobalGreedy(backend="python"),
        "global-no": GlobalGreedyNoSaturation(backend="numpy"),
        "sl-greedy": SequentialLocalGreedy(backend="numpy"),
        "top-re": TopRevenueBaseline(),
    }


def solver_signatures(instance) -> Dict[str, Dict]:
    """Solve ``instance`` with every frozen solver; JSON-ready signatures."""
    signatures = {}
    for key, algorithm in _solvers().items():
        result = algorithm.run(instance)
        signatures[key] = {
            "triples": [[z.user, z.item, z.t]
                        for z in result.strategy.sorted_triples()],
            "revenue": float(result.revenue),
            "growth_curve": [[int(size), float(revenue)]
                             for size, revenue in result.growth_curve],
        }
    return signatures


def _format_triples(rows: List[List[int]]) -> str:
    return "\n".join(f"    (u{user}, i{item}, t{t})"
                     for user, item, t in rows) or "    (none)"


def _diff_message(instance_name: str, solver: str, expected: Dict,
                  actual: Dict) -> List[str]:
    """Human-readable description of a golden drift (empty if none)."""
    problems: List[str] = []
    expected_triples = [tuple(row) for row in expected["triples"]]
    actual_triples = [tuple(row) for row in actual["triples"]]
    if expected_triples != actual_triples:
        missing = sorted(set(expected_triples) - set(actual_triples))
        extra = sorted(set(actual_triples) - set(expected_triples))
        lines = [f"strategy drift ({len(expected_triples)} expected "
                 f"triples, {len(actual_triples)} produced):"]
        if missing:
            lines.append("  expected but not produced:")
            lines.append(_format_triples([list(row) for row in missing]))
        if extra:
            lines.append("  produced but not expected:")
            lines.append(_format_triples([list(row) for row in extra]))
        if not missing and not extra:
            lines.append("  same triples, different presentation order "
                         "(sorted_triples changed?)")
        problems.append("\n".join(lines))
    if actual["revenue"] != pytest.approx(expected["revenue"],
                                          rel=REL_TOLERANCE):
        problems.append(
            f"revenue drift: expected {expected['revenue']!r}, "
            f"got {actual['revenue']!r}"
        )
    expected_curve = expected["growth_curve"]
    actual_curve = actual["growth_curve"]
    if len(expected_curve) != len(actual_curve):
        problems.append(
            f"growth-curve length drift: expected {len(expected_curve)} "
            f"checkpoints, got {len(actual_curve)}"
        )
    else:
        for index, ((exp_size, exp_rev), (act_size, act_rev)) in enumerate(
            zip(expected_curve, actual_curve)
        ):
            if exp_size != act_size or act_rev != pytest.approx(
                exp_rev, rel=REL_TOLERANCE
            ):
                problems.append(
                    f"growth-curve drift at checkpoint {index}: expected "
                    f"({exp_size}, {exp_rev!r}), got ({act_size}, {act_rev!r})"
                )
                break
    if problems:
        header = (f"golden drift for instance {instance_name!r}, solver "
                  f"{solver!r} -- if intentional, regenerate with "
                  f"`PYTHONPATH=src python tests/golden/regenerate.py` "
                  f"and commit the diff:")
        return [header] + problems
    return []


@pytest.mark.parametrize("name", GOLDEN_INSTANCES)
def test_golden_instances(name):
    instance = repro_io.load_instance(instance_path(name))
    with open(expected_path(name), "r", encoding="utf-8") as fh:
        expected = json.load(fh)
    actual = solver_signatures(instance)
    assert set(actual) == set(expected["solvers"]), (
        "solver set drifted; regenerate the golden fixtures"
    )
    failures: List[str] = []
    for solver in sorted(expected["solvers"]):
        failures.extend(_diff_message(name, solver,
                                      expected["solvers"][solver],
                                      actual[solver]))
    assert not failures, "\n\n".join(failures)
