"""REVMAX problem instances.

A :class:`RevMaxInstance` bundles everything Problem 1 of the paper takes as
input:

* the user set ``U`` and item set ``I`` (dense integer ids),
* the horizon length ``T`` and display limit ``k``,
* per-item capacity ``q_i``, saturation factor ``beta_i`` and class ``C(i)``,
* the exact price matrix ``p(i, t)``,
* the sparse primitive adoption probabilities ``q(u, i, t)`` (only user-item
  pairs a recommender would ever consider carry non-zero probabilities).

Instances are immutable once constructed (arrays should not be mutated by
callers) and are consumed by every algorithm in :mod:`repro.algorithms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.entities import ItemCatalog, Triple

__all__ = ["RevMaxInstance", "AdoptionTable"]


class AdoptionTable:
    """Sparse storage of primitive adoption probabilities ``q(u, i, t)``.

    Probabilities are stored per (user, item) pair as a dense length-``T``
    vector, because the paper's pipeline always produces a full time series
    for every candidate pair (a candidate pair is one of the per-user top-N
    items by predicted rating).  Pairs never considered are simply absent and
    have probability zero at all times.
    """

    def __init__(self, horizon: int) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self._horizon = int(horizon)
        self._table: Dict[Tuple[int, int], np.ndarray] = {}
        self._user_items: Dict[int, List[int]] = {}
        #: Mutation counter; lets cached compiled views detect staleness.
        self._version = 0

    @property
    def horizon(self) -> int:
        """Length of the planning horizon ``T``."""
        return self._horizon

    def __len__(self) -> int:
        """Number of (user, item) pairs with a stored probability vector."""
        return len(self._table)

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        return tuple(pair) in self._table

    def set(self, user: int, item: int, probabilities: Sequence[float]) -> None:
        """Store the length-``T`` probability vector for ``(user, item)``.

        Raises:
            ValueError: if the vector has the wrong length, contains NaN, or
                leaves [0, 1]; the error names the offending (user, item) pair.
        """
        key = (int(user), int(item))
        vector = np.asarray(probabilities, dtype=float)
        if vector.shape != (self._horizon,):
            raise ValueError(
                f"adoption vector for (user={key[0]}, item={key[1]}) must have "
                f"length {self._horizon}, got shape {vector.shape}"
            )
        if np.isnan(vector).any():
            raise ValueError(
                f"adoption probabilities for (user={key[0]}, item={key[1]}) "
                f"contain NaN"
            )
        if np.any(vector < 0.0) or np.any(vector > 1.0):
            bad = vector[(vector < 0.0) | (vector > 1.0)][0]
            raise ValueError(
                f"adoption probabilities must lie in [0, 1]; got {bad!r} for "
                f"(user={key[0]}, item={key[1]})"
            )
        if key not in self._table:
            self._user_items.setdefault(key[0], []).append(key[1])
        self._table[key] = vector
        self._version += 1

    def get(self, user: int, item: int) -> Optional[np.ndarray]:
        """Return the probability vector for ``(user, item)`` or ``None``."""
        return self._table.get((user, item))

    def probability(self, user: int, item: int, t: int) -> float:
        """Return ``q(user, item, t)`` (zero if the pair is not stored)."""
        vector = self._table.get((user, item))
        if vector is None:
            return 0.0
        return float(vector[t])

    def items_for_user(self, user: int) -> List[int]:
        """Return the items with a stored probability vector for ``user``."""
        return list(self._user_items.get(user, []))

    def users(self) -> List[int]:
        """Return all users that have at least one candidate item."""
        return list(self._user_items.keys())

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """Iterate over stored (user, item) pairs."""
        return iter(self._table.keys())

    def positive_triples(self) -> Iterator[Triple]:
        """Yield every triple with a strictly positive primitive probability.

        This is the candidate ground set the greedy algorithms operate on;
        its cardinality is the "#Triples with positive q" statistic of
        Table 1 in the paper.  Iteration follows the canonical candidate
        order -- pairs sorted by (user, item), times ascending -- the same
        order the columnar layout stores, so heap tie-breaking is identical
        whichever path seeds the frontier.
        """
        for (user, item) in self._sorted_pairs():
            vector = self._table[(user, item)]
            for t in range(self._horizon):
                if vector[t] > 0.0:
                    yield Triple(user, item, t)

    def _sorted_pairs(self) -> List[Tuple[int, int]]:
        """Pairs in canonical (user, item) order, cached per table version."""
        cached = getattr(self, "_sorted_pairs_cache", None)
        if cached is None or cached[0] != self._version:
            cached = (self._version, sorted(self._table.keys()))
            self._sorted_pairs_cache = cached
        return cached[1]

    def num_positive_triples(self) -> int:
        """Count triples with positive primitive adoption probability."""
        return sum(int(np.count_nonzero(v > 0.0)) for v in self._table.values())


@dataclass
class RevMaxInstance:
    """A complete REVMAX input (Problem 1 of the paper).

    Attributes:
        num_users: number of users ``|U|``.
        catalog: item catalog providing the class function ``C(i)``.
        horizon: number of time steps ``T``.
        display_limit: maximum items recommended to a user per time step (k).
        prices: array of shape ``(num_items, horizon)``; ``prices[i, t]`` is
            ``p(i, t)``.
        capacities: array of shape ``(num_items,)``; ``capacities[i]`` is
            ``q_i``, the maximum number of distinct users item ``i`` may be
            recommended to over the whole horizon.
        betas: array of shape ``(num_items,)`` of saturation factors in [0,1].
        adoption: sparse table of primitive adoption probabilities.
        name: optional label (dataset / experiment name).
    """

    num_users: int
    catalog: ItemCatalog
    horizon: int
    display_limit: int
    prices: np.ndarray
    capacities: np.ndarray
    betas: np.ndarray
    adoption: AdoptionTable
    name: str = "revmax-instance"

    def __post_init__(self) -> None:
        self.prices = np.asarray(self.prices, dtype=float)
        self.capacities = np.asarray(self.capacities, dtype=int)
        self.betas = np.asarray(self.betas, dtype=float)
        self._validate()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        n_items = self.catalog.num_items
        if self.num_users <= 0:
            raise ValueError("num_users must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.display_limit <= 0:
            raise ValueError("display_limit must be positive")
        if self.prices.shape != (n_items, self.horizon):
            raise ValueError(
                f"prices must have shape ({n_items}, {self.horizon}), "
                f"got {self.prices.shape}"
            )
        if self.capacities.shape != (n_items,):
            raise ValueError("capacities must have one entry per item")
        if self.betas.shape != (n_items,):
            raise ValueError("betas must have one entry per item")
        if np.any(self.prices < 0.0):
            raise ValueError("prices must be non-negative")
        if np.any(self.capacities < 0):
            raise ValueError("capacities must be non-negative")
        if np.any((self.betas < 0.0) | (self.betas > 1.0)):
            raise ValueError("saturation factors must lie in [0, 1]")
        if self.adoption.horizon != self.horizon:
            raise ValueError("adoption table horizon does not match instance horizon")

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    @property
    def num_items(self) -> int:
        """Number of items ``|I|``."""
        return self.catalog.num_items

    def price(self, item: int, t: int) -> float:
        """Return ``p(item, t)``."""
        return float(self.prices[item, t])

    def capacity(self, item: int) -> int:
        """Return the capacity ``q_item``."""
        return int(self.capacities[item])

    def beta(self, item: int) -> float:
        """Return the saturation factor ``beta_item``."""
        return float(self.betas[item])

    def class_of(self, item: int) -> int:
        """Return the competition class ``C(item)``."""
        return self.catalog.class_of(item)

    def probability(self, user: int, item: int, t: int) -> float:
        """Return the primitive adoption probability ``q(user, item, t)``."""
        return self.adoption.probability(user, item, t)

    def candidate_triples(self) -> Iterator[Triple]:
        """Yield the ground set: triples with positive primitive probability."""
        return self.adoption.positive_triples()

    def num_candidate_triples(self) -> int:
        """Size of the ground set (bold statistic of Table 1)."""
        return self.adoption.num_positive_triples()

    def users(self) -> List[int]:
        """Users having at least one candidate item."""
        return self.adoption.users()

    def candidate_items(self, user: int) -> List[int]:
        """Candidate items for ``user`` (non-zero adoption at some time)."""
        return self.adoption.items_for_user(user)

    # ------------------------------------------------------------------
    # columnar compilation
    # ------------------------------------------------------------------
    def compiled(self) -> "CompiledInstance":
        """Return the columnar compilation of this instance (lazy, cached).

        The first call walks the adoption table once and lays every input out
        as contiguous ID-indexed tensors (see
        :class:`repro.core.compiled.CompiledInstance`); subsequent calls
        return the cached compilation.  Instances whose adoption table is
        already columnar (built by the columnar generators or loaded from
        ``.npz``) compile for free.  The cache is invalidated when the
        adoption table is mutated after compilation.
        """
        cached = getattr(self, "_compiled", None)
        version = getattr(self.adoption, "_version", 0)
        if cached is None or cached.source_version != version:
            from repro.core.compiled import CompiledInstance

            cached = CompiledInstance.from_instance(self)
            self._compiled = cached
        return cached

    def compiled_or_none(self) -> Optional["CompiledInstance"]:
        """Return the cached compilation if one was already built, else None."""
        return getattr(self, "_compiled", None)

    def _transplant_compiled(self, derived: "RevMaxInstance", **swaps) -> None:
        """Carry a cached compilation over to a derived instance.

        The CSR candidate table only depends on the (shared) adoption table,
        so ``with_betas``-style copies swap the per-item tensors instead of
        re-walking the table.  Skipped when no fresh compilation is cached.
        """
        donor = self.compiled_or_none()
        if donor is None:
            return
        if donor.source_version != getattr(self.adoption, "_version", 0):
            return
        derived._compiled = donor.replace(name=derived.name, **swaps)

    def expected_isolated_revenue(self, triple: Triple) -> float:
        """Return ``p(i, t) * q(u, i, t)``, the revenue of the triple alone.

        This is the quantity the TopRE baseline ranks by and the initial
        priority G-Greedy seeds its heaps with (line 8 of Algorithm 1).
        """
        return self.price(triple.item, triple.t) * self.probability(
            triple.user, triple.item, triple.t
        )

    # ------------------------------------------------------------------
    # derived / modified instances
    # ------------------------------------------------------------------
    def with_singleton_classes(self) -> "RevMaxInstance":
        """Return a copy of the instance where every item is its own class."""
        catalog = ItemCatalog.singleton(self.num_items)
        derived = RevMaxInstance(
            num_users=self.num_users,
            catalog=catalog,
            horizon=self.horizon,
            display_limit=self.display_limit,
            prices=self.prices,
            capacities=self.capacities,
            betas=self.betas,
            adoption=self.adoption,
            name=f"{self.name}-singleton-classes",
        )
        self._transplant_compiled(
            derived, item_class=np.asarray(catalog.item_class, dtype=np.int64)
        )
        return derived

    def with_betas(self, betas) -> "RevMaxInstance":
        """Return a copy with different saturation factors.

        Args:
            betas: either a scalar (applied to every item) or a length
                ``num_items`` sequence.
        """
        if np.isscalar(betas):
            beta_array = np.full(self.num_items, float(betas))
        else:
            beta_array = np.asarray(betas, dtype=float)
        derived = RevMaxInstance(
            num_users=self.num_users,
            catalog=self.catalog,
            horizon=self.horizon,
            display_limit=self.display_limit,
            prices=self.prices,
            capacities=self.capacities,
            betas=beta_array,
            adoption=self.adoption,
            name=self.name,
        )
        self._transplant_compiled(derived, betas=beta_array)
        return derived

    def with_capacities(self, capacities) -> "RevMaxInstance":
        """Return a copy with different per-item capacities."""
        if np.isscalar(capacities):
            capacity_array = np.full(self.num_items, int(capacities), dtype=int)
        else:
            capacity_array = np.asarray(capacities, dtype=int)
        derived = RevMaxInstance(
            num_users=self.num_users,
            catalog=self.catalog,
            horizon=self.horizon,
            display_limit=self.display_limit,
            prices=self.prices,
            capacities=capacity_array,
            betas=self.betas,
            adoption=self.adoption,
            name=self.name,
        )
        self._transplant_compiled(derived, capacities=capacity_array)
        return derived

    def restricted_to_horizon(self, time_steps: Sequence[int]) -> "RevMaxInstance":
        """Return an instance whose horizon is a contiguous slice of this one.

        Used by the gradually-available-prices experiments (§6.3): each
        sub-horizon is solved as its own (smaller) instance while the strategy
        state built so far is carried over.

        Args:
            time_steps: contiguous, increasing 0-based time steps to keep.
        """
        steps = list(time_steps)
        if not steps:
            raise ValueError("time_steps must be non-empty")
        if steps != list(range(steps[0], steps[0] + len(steps))):
            raise ValueError("time_steps must be contiguous and increasing")
        sub_adoption = AdoptionTable(len(steps))
        for (user, item) in self.adoption.pairs():
            vector = self.adoption.get(user, item)
            sub_adoption.set(user, item, vector[steps[0]:steps[0] + len(steps)])
        return RevMaxInstance(
            num_users=self.num_users,
            catalog=self.catalog,
            horizon=len(steps),
            display_limit=self.display_limit,
            prices=self.prices[:, steps[0]:steps[0] + len(steps)],
            capacities=self.capacities,
            betas=self.betas,
            adoption=sub_adoption,
            name=f"{self.name}-t{steps[0]}-{steps[-1]}",
        )

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------
    @classmethod
    def from_dense_adoption(
        cls,
        prices: np.ndarray,
        adoption: Mapping[Tuple[int, int], Sequence[float]],
        item_class: Sequence[int],
        capacities,
        betas,
        display_limit: int,
        num_users: Optional[int] = None,
        name: str = "revmax-instance",
    ) -> "RevMaxInstance":
        """Construct an instance from plain Python mappings (handy in tests).

        Args:
            prices: ``(num_items, T)`` price matrix.
            adoption: mapping ``(user, item) -> length-T probability vector``.
            item_class: item -> class assignment.
            capacities: scalar or per-item capacities.
            betas: scalar or per-item saturation factors.
            display_limit: the ``k`` of the display constraint.
            num_users: optionally override the inferred number of users.
            name: label for the instance.
        """
        prices = np.asarray(prices, dtype=float)
        num_items, horizon = prices.shape
        table = AdoptionTable(horizon)
        max_user = -1
        for (user, item), vector in adoption.items():
            table.set(user, item, vector)
            max_user = max(max_user, user)
        inferred_users = max_user + 1 if max_user >= 0 else 1
        if np.isscalar(capacities):
            capacities = np.full(num_items, int(capacities), dtype=int)
        if np.isscalar(betas):
            betas = np.full(num_items, float(betas))
        return cls(
            num_users=num_users if num_users is not None else inferred_users,
            catalog=ItemCatalog.from_assignment(item_class),
            horizon=horizon,
            display_limit=display_limit,
            prices=prices,
            capacities=np.asarray(capacities, dtype=int),
            betas=np.asarray(betas, dtype=float),
            adoption=table,
            name=name,
        )
