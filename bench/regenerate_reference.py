"""Regenerate the seed-0 output digests in ``bench/reference.json``.

Run from anywhere after an *intentional* change of the outputs::

    python3 bench/regenerate_reference.py

Each workload runs one untraced round at seed 0 in a fresh child, exactly
as ``bench/run.py`` runs it.  Commit the rewritten file together with the
change that moved the outputs and say why in the commit message:
``bench/run.py`` fails any seed-0 op whose digest differs.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from bench.run import REFERENCE, REFERENCE_SEED, ROOT, run_child  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    reference = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        # Zero seconds: the child still runs its one round.
        result = run_child(name, REFERENCE_SEED, 0, False,
                           work / f"reference-{name}-{os.getpid()}.json")
        if result["failures"]:
            print(f"{name}: not regenerated: {result['failures']}",
                  file=sys.stderr)
            return 1
        reference[name] = result["digests"]
        print(f"{name}: {', '.join(sorted(result['digests']))}")
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
