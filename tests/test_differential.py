"""Differential fuzzing: every G-Greedy engine must agree, triple for triple.

The repo carries three independent executions of Algorithm 1:

* the **object path** (``backend="python"``: per-triple seeding and the
  reference revenue kernels over the adoption table -- the executable
  specification, which never compiles the instance);
* the **columnar path** (compiled tensors, bulk-seeded lazy frontier);
* the **incremental path** (cold solve, then a re-solve after an *empty*
  delta, which must replay to the identical strategy).

Each optimisation layer was introduced with its own equivalence tests;
this suite closes the loop with property-based fuzzing over adversarial
tiny instances -- degenerate capacities (including zero), beta at the
0/1 extremes, probability vectors with exact zeros and ones, single-user
and single-item corners, duplicate prices that force tie-breaking -- and
asserts all three engines admit **the same triples with the same revenue
growth curves**.

A second property fuzzes the *dynamic* layer: a random
:class:`~repro.dynamic.InstanceDelta` is applied through
``IncrementalSolver.resolve`` and through a from-scratch build of the
mutated instance; both must agree bit for bit whichever re-solve mode
(stream merge or cold fallback) the guard rails pick.

Reproducing a failure: Hypothesis prints a ``reproduce_failure`` blurb
and stores the example in ``.hypothesis/examples``; see
``docs/testing.md``.  CI runs the seeded ``ci`` profile (registered in
``tests/conftest.py``) so runs are deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.algorithms.global_greedy import GlobalGreedy  # noqa: E402
from repro.core.problem import RevMaxInstance  # noqa: E402
from repro.dynamic import (  # noqa: E402
    IncrementalSolver,
    InstanceDelta,
    apply_delta,
)

_probability = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_price = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@st.composite
def instance_data(draw):
    """Plain-data description of a tiny REVMAX instance.

    Returned as a dict so a test can *rebuild the identical instance
    twice* (the delta differential needs an untouched twin).  Sizes stay
    tiny: the value of this suite is adversarial shapes, not scale.
    """
    num_users = draw(st.integers(1, 6))
    num_items = draw(st.integers(1, 5))
    horizon = draw(st.integers(1, 3))
    vector = st.lists(_probability, min_size=horizon, max_size=horizon)
    adoption = draw(
        st.dictionaries(
            st.tuples(st.integers(0, num_users - 1),
                      st.integers(0, num_items - 1)),
            vector,
            max_size=num_users * num_items,
        )
    )
    return {
        "num_users": num_users,
        "horizon": horizon,
        "display_limit": draw(st.integers(1, 2)),
        "item_class": draw(st.lists(st.integers(0, max(0, num_items - 1)),
                                    min_size=num_items, max_size=num_items)),
        "prices": draw(st.lists(
            st.lists(_price, min_size=horizon, max_size=horizon),
            min_size=num_items, max_size=num_items,
        )),
        "capacities": draw(st.lists(st.integers(0, num_users),
                                    min_size=num_items, max_size=num_items)),
        "betas": draw(st.lists(_probability, min_size=num_items,
                               max_size=num_items)),
        "adoption": adoption,
    }


def build(data) -> RevMaxInstance:
    """Materialize an instance from :func:`instance_data` output."""
    return RevMaxInstance.from_dense_adoption(
        prices=np.asarray(data["prices"], dtype=float),
        adoption=data["adoption"],
        item_class=data["item_class"],
        capacities=np.asarray(data["capacities"], dtype=int),
        betas=np.asarray(data["betas"], dtype=float),
        display_limit=data["display_limit"],
        num_users=data["num_users"],
        name="fuzz-instance",
    )


@st.composite
def delta_data(draw, data):
    """A random delta valid for an instance built from ``data``."""
    num_items = len(data["item_class"])
    horizon = data["horizon"]
    num_users = data["num_users"]
    vector = st.lists(_probability, min_size=horizon, max_size=horizon)
    pairs = sorted(data["adoption"])
    probability_updates = {}
    if pairs:
        for index in draw(st.lists(st.integers(0, len(pairs) - 1),
                                   max_size=3, unique=True)):
            probability_updates[pairs[index]] = draw(vector)
    new_users = {}
    for offset in range(draw(st.integers(0, 2))):
        new_users[num_users + offset] = draw(
            st.dictionaries(st.integers(0, num_items - 1), vector, max_size=3)
        )
    return {
        "price_updates": draw(st.dictionaries(
            st.tuples(st.integers(0, num_items - 1),
                      st.integers(0, horizon - 1)),
            _price, max_size=3,
        )),
        "probability_updates": probability_updates,
        "capacity_updates": draw(st.dictionaries(
            st.integers(0, num_items - 1), st.integers(0, num_users + 2),
            max_size=2,
        )),
        "new_users": new_users,
    }


def build_delta(data) -> InstanceDelta:
    return InstanceDelta(
        price_updates=dict(data["price_updates"]),
        probability_updates={k: list(v) for k, v in
                             data["probability_updates"].items()},
        capacity_updates=dict(data["capacity_updates"]),
        new_users={u: {i: list(v) for i, v in pairs.items()}
                   for u, pairs in data["new_users"].items()},
        name="fuzz-delta",
    )


def solve_signature(instance, backend="numpy"):
    """(sorted triples, growth curve) of one G-Greedy configuration."""
    algorithm = GlobalGreedy(backend=backend)
    strategy = algorithm.build_strategy(instance)
    return sorted(strategy.triples()), algorithm.last_growth_curve


@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(data=instance_data())
def test_all_engines_agree(data):
    """Object, columnar and incremental-after-empty-delta G-Greedy admit
    identical triples with identical growth curves."""
    instance = build(data)
    object_path = solve_signature(instance, backend="python")
    columnar = solve_signature(instance)

    solver = IncrementalSolver(build(data))
    solver.solve()
    solver.resolve()  # empty delta: must replay identically
    incremental_signature = (sorted(solver.strategy.triples()),
                             solver.growth_curve)

    assert columnar == object_path
    assert incremental_signature == object_path


@settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(payload=st.data())
def test_incremental_resolve_agrees_with_cold(payload):
    """resolve(delta) == a cold columnar solve of the mutated instance,
    bit for bit, whichever re-solve mode the guards pick."""
    data = payload.draw(instance_data(), label="instance")
    delta = payload.draw(delta_data(data), label="delta")

    solver = IncrementalSolver(build(data))
    solver.solve()
    solver.resolve(build_delta(delta))

    mutated = build(data)
    apply_delta(mutated, build_delta(delta))
    reference, curve = solve_signature(mutated)
    assert sorted(solver.strategy.triples()) == reference
    assert solver.growth_curve == curve

