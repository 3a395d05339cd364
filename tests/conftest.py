"""Shared fixtures for the test suite.

Fixtures provide a ladder of instance sizes:

* ``paper_example_instance`` -- the two-triple instance from the proof of
  Theorem 2 / Example 4 (used to check non-monotonicity and SL- vs RL-Greedy);
* ``small_instance`` -- a deterministic hand-built instance small enough for
  brute-force comparisons;
* ``random_instance_factory`` -- parameterised random instances for
  property-based tests;
* ``tiny_amazon_pipeline`` / ``tiny_epinions_pipeline`` -- full §6.1 pipelines
  at the smallest reproduction scale (session-scoped: built once).

It also holds :class:`PopLog`, a :class:`SelectionTrace` that keeps every
pop, with :func:`floors_of_pops` and :func:`build_behind_instance`, for
the tests that compare whole pop sequences and admission keys.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.problem import RevMaxInstance
from repro.core.selection import SelectionTrace
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_columnar
from repro.experiments.harness import prepare_dataset

try:
    from hypothesis import HealthCheck, settings as hypothesis_settings
except ImportError:  # pragma: no cover - hypothesis is a test extra
    hypothesis_settings = None

if hypothesis_settings is not None:
    # "ci": the deterministic tier -- derandomize=True fixes the example
    # stream from the test code itself (no ambient entropy), so a red CI
    # run reproduces locally with `HYPOTHESIS_PROFILE=ci`.  "dev" keeps
    # local runs fast.  Both disable the deadline: a greedy solve's wall
    # time depends on the machine, not on correctness.
    hypothesis_settings.register_profile(
        "ci", max_examples=200, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    hypothesis_settings.register_profile(
        "dev", max_examples=50, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    hypothesis_settings.load_profile(
        os.environ.get("HYPOTHESIS_PROFILE", "dev")
    )


class PopLog(SelectionTrace):
    """A :class:`SelectionTrace` that also logs every pop, per user.

    ``pops[user]`` lists ``(priority, item, t, admitted)`` rows in the
    order the selector popped them: the whole pop sequence, which the
    trace itself keeps only as each admission's key.
    """

    def __init__(self) -> None:
        super().__init__()
        self.pops = {}

    def record_admit(self, triple, gain) -> None:
        self.pops.setdefault(triple.user, []).append(
            (gain, triple.item, triple.t, True))
        super().record_admit(triple, gain)

    def record_gate(self, triple, priority) -> None:
        self.pops.setdefault(triple.user, []).append(
            (priority, triple.item, triple.t, False))
        super().record_gate(triple, priority)

    def keyed_admissions(self):
        """Per user, its admission rows in order, each with its merge key."""
        keyed = {}
        for index, row in enumerate(self.admissions):
            key = self.behind.get(index, (row[3], row[1]))
            keyed.setdefault(row[0], []).append((row, key))
        return keyed


def floors_of_pops(admissions, pops):
    """What a trace's ``behind`` must be, worked out from its pop log.

    ``admissions`` and ``pops`` are a :class:`PopLog`'s.  An admission
    pops at the latest of its user's pops so far, itself included, under
    the columnar frontier's order ``(-priority, row)`` (one user's rows
    sort by item).  The admissions whose latest pop is not their own are
    the ``behind`` entries, keyed by that pop's ``(priority, item)``.
    """
    indices = {}
    for index, row in enumerate(admissions):
        indices.setdefault(row[0], []).append(index)
    expected = {}
    for user, sequence in pops.items():
        pending = iter(indices.get(user, ()))
        latest = None
        for priority, item, _, admitted in sequence:
            order = (-priority, item)
            latest = order if latest is None else max(latest, order)
            if admitted:
                index = next(pending)
                if latest != order:
                    expected[index] = (-latest[0], latest[1])
    return expected


@pytest.fixture
def paper_example_instance() -> RevMaxInstance:
    """The instance used in the paper's non-monotonicity proof (Theorem 2).

    One user, one item, T = 2, k = 1, capacity 2, q(u,i,1) = 0.5,
    q(u,i,2) = 0.6, p(i,1) = 1, p(i,2) = 0.95, beta = 0.1.
    """
    return RevMaxInstance.from_dense_adoption(
        prices=np.array([[1.0, 0.95]]),
        adoption={(0, 0): [0.5, 0.6]},
        item_class=[0],
        capacities=2,
        betas=0.1,
        display_limit=1,
        num_users=1,
        name="paper-example",
    )


def build_random_instance(
    num_users: int = 5,
    num_items: int = 4,
    num_classes: int = 2,
    horizon: int = 3,
    display_limit: int = 2,
    capacity: int = 3,
    beta: float = 0.5,
    density: float = 0.7,
    seed: int = 0,
) -> RevMaxInstance:
    """Build a random REVMAX instance (deterministic given the seed)."""
    rng = np.random.default_rng(seed)
    prices = rng.uniform(5.0, 100.0, size=(num_items, horizon))
    adoption = {}
    for user in range(num_users):
        for item in range(num_items):
            if rng.random() < density:
                adoption[(user, item)] = rng.uniform(0.05, 0.95, size=horizon).tolist()
    if not adoption:
        adoption[(0, 0)] = rng.uniform(0.05, 0.95, size=horizon).tolist()
    item_class = [item % num_classes for item in range(num_items)]
    return RevMaxInstance.from_dense_adoption(
        prices=prices,
        adoption=adoption,
        item_class=item_class,
        capacities=capacity,
        betas=beta,
        display_limit=display_limit,
        num_users=num_users,
        name=f"random-{seed}",
    )


def build_behind_instance() -> RevMaxInstance:
    """12 synthetic users whose solve records ``behind`` entries.

    Some admission pops behind a lower pop of its own user.  Such runs are
    rare, and every one found in a scan of small synthetic configurations
    ended at the non-positive break, as this one does.
    """
    return generate_synthetic_columnar(SyntheticConfig(
        num_users=12, num_items=8, num_classes=3, candidates_per_user=4,
        horizon=3, display_limit=2, capacity_fraction=1.0, beta=0.5, seed=5,
    ))


@pytest.fixture
def small_instance() -> RevMaxInstance:
    """A small deterministic instance used across algorithm tests."""
    return build_random_instance(seed=42)


@pytest.fixture
def random_instance_factory():
    """Factory fixture so tests can build many random instances cheaply."""
    return build_random_instance


@pytest.fixture(scope="session")
def tiny_amazon_pipeline():
    """The Amazon-like dataset run through the full pipeline (tiny scale)."""
    return prepare_dataset("amazon", scale="tiny", seed=0)


@pytest.fixture(scope="session")
def tiny_epinions_pipeline():
    """The Epinions-like dataset run through the full pipeline (tiny scale)."""
    return prepare_dataset("epinions", scale="tiny", seed=0)
