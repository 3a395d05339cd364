"""Shared fixtures and helpers for the reproduction benchmarks.

Every benchmark regenerates one exhibit (table or figure) of the paper's
evaluation at *reproduction scale* and prints the resulting numbers, so that
``pytest benchmarks/ --benchmark-only`` both measures running time and leaves
a textual record of the reproduced data (collected into EXPERIMENTS.md).

The dataset scale is controlled by the ``REPRO_BENCH_SCALE`` environment
variable (``tiny`` / ``small`` / ``medium``; default ``small``).  Figures that
sweep many configurations drop to the next-smaller scale automatically so the
whole suite stays laptop-friendly.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments.harness import prepare_dataset  # noqa: E402
from repro.io import atomic_write  # noqa: E402

_SWEEP_FALLBACK = {"medium": "small", "small": "tiny", "tiny": "tiny"}


def bench_scale() -> str:
    """Scale used by single-configuration benchmarks.

    Read lazily (at fixture time, not import time) so that the root
    conftest's ``--run-benchmarks`` smoke mode -- which pins the scale env
    variables in ``pytest_configure``, *after* this module is imported as an
    initial conftest -- takes effect.
    """
    return os.environ.get("REPRO_BENCH_SCALE", "small")


def sweep_scale() -> str:
    """Scale used by benchmarks that sweep many configurations (lazy)."""
    return os.environ.get("REPRO_BENCH_SWEEP_SCALE", _SWEEP_FALLBACK[bench_scale()])


def write_bench_json(path: str, document: dict) -> None:
    """Atomically write a ``BENCH_*.json`` record (:func:`repro.io.atomic_write`).

    The benchmark records double as roadmap telemetry, so a crashed or
    concurrent run (the smoke job and a local sweep racing, say) must never
    leave a truncated or half-updated file: the document is serialized to a
    sibling temp file and atomically renamed over the target.  Keys are
    sorted so reruns produce byte-stable, diffable records.

    Every record is stamped with the machine's core count, so numbers from
    serial and parallel configurations are never compared without their
    context.
    """
    document = dict(document)
    document.setdefault("cpu_count", os.cpu_count() or 1)
    with atomic_write(path) as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The experiment functions are deterministic and relatively expensive, so a
    single round gives a representative timing without multiplying the cost of
    the suite.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture(scope="session")
def bench_pipelines():
    """Amazon-like and Epinions-like pipelines at the single-figure scale."""
    scale = bench_scale()
    return {
        "amazon": prepare_dataset("amazon", scale=scale, seed=0),
        "epinions": prepare_dataset("epinions", scale=scale, seed=0),
    }


@pytest.fixture(scope="session")
def sweep_pipelines():
    """Pipelines at the (smaller) sweep scale for multi-configuration figures."""
    scale = sweep_scale()
    return {
        "amazon": prepare_dataset("amazon", scale=scale, seed=0),
        "epinions": prepare_dataset("epinions", scale=scale, seed=0),
    }
