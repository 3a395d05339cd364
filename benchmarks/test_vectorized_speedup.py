"""Speedup of the NumPy revenue kernel over the pure-Python reference kernel.

A single large (user, class) group is evaluated by both engines directly:
the reference :func:`group_revenue` against the numpy backend's gather
through the compilation plus the vectorized kernel, isolating the
vectorization win (the O(n^2) pairwise matrices dominate and NumPy wins by
an order of magnitude).  The gate is >= 5x.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.core.entities import Triple
from repro.core.problem import RevMaxInstance
from repro.core.revenue import _CompiledGather, group_revenue
from repro.core.vectorized import GroupArrays, vectorized_group_revenue


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

    def _time_kernels():
        repeats = 50
        start = time.perf_counter()
        for _ in range(repeats):
            python_value = group_revenue(instance, group)
        python_seconds = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(repeats):
            gathered = _CompiledGather(instance, compiled)(group)
            numpy_value = vectorized_group_revenue(
                GroupArrays.from_lists(*gathered)
            )
        numpy_seconds = time.perf_counter() - start
        return python_seconds, numpy_seconds, python_value, numpy_value

    python_seconds, numpy_seconds, python_value, numpy_value = run_once(
        benchmark, _time_kernels
    )
    speedup = python_seconds / numpy_seconds
    print(
        f"\nkernel on a {len(group)}-triple group: "
        f"python {python_seconds * 1e3 / 50:.2f}ms/call, "
        f"numpy {numpy_seconds * 1e3 / 50:.2f}ms/call, speedup {speedup:.1f}x"
    )
    assert numpy_value == pytest.approx(python_value, abs=1e-9)
    assert speedup >= 5.0
