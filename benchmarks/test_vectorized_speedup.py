"""Speedup of the NumPy revenue kernel over the pure-Python reference kernel.

A single large (user, class) group is evaluated by both engines directly:
the reference :func:`group_revenue` against the numpy backend's gather
through the compilation plus the vectorized kernel, isolating the
vectorization win (the O(n^2) pairwise matrices dominate and NumPy wins by
an order of magnitude).  The gate is >= 5x on the median ratio of
interleaved python/numpy timing pairs: a single shot swings with the
machine's momentary speed (5.2x and 7.1x were seen on the same code).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.core.entities import Triple
from repro.core.problem import RevMaxInstance
from repro.core.revenue import _CompiledGather, group_revenue
from repro.core.vectorized import GroupArrays, vectorized_group_revenue

#: Interleaved python/numpy timing pairs; the gate reads their median ratio.
PAIRS = 7
#: Kernel calls per timing.
REPEATS = 20


def test_vectorized_kernel_speedup(benchmark):
    """Pure kernel ratio on one large (user, class) group."""
    num_items, horizon = 24, 16
    rng = np.random.default_rng(0)
    instance = RevMaxInstance.from_dense_adoption(
        prices=rng.uniform(10.0, 100.0, size=(num_items, horizon)),
        adoption={
            (0, item): rng.uniform(0.01, 0.4, size=horizon)
            for item in range(num_items)
        },
        item_class=[0] * num_items,
        capacities=num_items,
        betas=0.6,
        display_limit=num_items,
        num_users=1,
    )
    group = [Triple(0, item, t) for item in range(num_items) for t in range(horizon)]
    rng.shuffle(group)
    group = group[: len(group) // 2]
    compiled = instance.compiled()

    def _time_pair():
        start = time.perf_counter()
        for _ in range(REPEATS):
            python_value = group_revenue(instance, group)
        python_seconds = (time.perf_counter() - start) / REPEATS
        start = time.perf_counter()
        for _ in range(REPEATS):
            gathered = _CompiledGather(instance, compiled)(group)
            numpy_value = vectorized_group_revenue(
                GroupArrays.from_lists(*gathered)
            )
        numpy_seconds = (time.perf_counter() - start) / REPEATS
        return python_seconds, numpy_seconds, python_value, numpy_value

    def _time_kernels():
        runs = [_time_pair() for _ in range(PAIRS)]
        return [run[:2] for run in runs], runs[-1][2], runs[-1][3]

    pairs, python_value, numpy_value = run_once(benchmark, _time_kernels)
    speedup = statistics.median(py / np_ for py, np_ in pairs)
    print(
        f"\nkernel on a {len(group)}-triple group, median of {PAIRS} pairs: "
        f"python {statistics.median(py for py, _ in pairs) * 1e3:.2f}ms/call, "
        f"numpy {statistics.median(np_ for _, np_ in pairs) * 1e3:.2f}ms/call, "
        f"speedup {speedup:.1f}x"
    )
    assert numpy_value == pytest.approx(python_value, abs=1e-9)
    assert speedup >= 5.0
