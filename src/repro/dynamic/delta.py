"""Instance deltas: the batched mutations of a dynamic recommendation cycle.

The paper's setting is *dynamic*: prices move between recommendation
cycles, adoption-probability estimates are refreshed as new signals arrive,
item stock is depleted or restocked, and new users register.  An
:class:`InstanceDelta` describes one such batch of changes declaratively,
so it can be

* applied **in place** to a compiled instance
  (:meth:`repro.core.compiled.CompiledInstance.apply_delta` /
  :func:`repro.dynamic.apply_delta`) instead of re-running the whole
  compilation, and
* serialized to plain JSON (the ``repro resolve --delta deltas.json`` CLI
  workflow) with the same explicit, versioned format as the other
  :mod:`repro.io` documents.

Four kinds of change are supported, matching the tensors they touch:

=====================  ==================================================
``price_updates``      ``(item, t) -> new price`` cells of the price matrix
``probability_updates``  ``(user, item) -> new length-T vector`` for an
                       *existing* candidate pair
``capacity_updates``   ``item -> new absolute capacity`` (restock or
                       depletion)
``new_users``          ``user -> {item: length-T vector}`` appended as a
                       CSR tail segment (ids must extend the user range
                       contiguously)
=====================  ==================================================

A delta never removes candidate pairs or items: absent pairs stay
probability zero, and "removing" a pair is expressed as a probability
update to the zero vector (which empties its heap row on the next solve).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Set, Tuple, Union

import numpy as np

__all__ = ["InstanceDelta", "load_delta", "save_delta"]

#: Version tag of the JSON encoding (mirrors :data:`repro.io.FORMAT_VERSION`).
DELTA_FORMAT_VERSION = 1

_PathLike = Union[str, "Path"]


def _as_probability_vector(vector, subject: str) -> np.ndarray:
    """Validate and normalize one adoption-probability time series."""
    array = np.asarray(vector, dtype=np.float64)
    if array.ndim != 1:
        raise ValueError(
            f"probability vector for {subject} must be one-dimensional, "
            f"got shape {array.shape}"
        )
    if np.isnan(array).any():
        raise ValueError(f"probability vector for {subject} contains NaN")
    if np.any((array < 0.0) | (array > 1.0)):
        bad = array[(array < 0.0) | (array > 1.0)][0]
        raise ValueError(
            f"probabilities must lie in [0, 1]; got {bad!r} for {subject}"
        )
    return array


@dataclass
class InstanceDelta:
    """A batch of mutations to apply between two solves of one instance.

    Attributes:
        price_updates: ``(item, t) -> new price`` (must be non-negative).
        probability_updates: ``(user, item) -> new length-T probability
            vector`` for pairs already in the candidate table.
        capacity_updates: ``item -> new absolute capacity`` (non-negative;
            a value below the item's current audience simply means no
            *further* users can be added -- admissions are never retracted).
        new_users: ``user id -> {item: length-T probability vector}``.  Ids
            must be exactly ``num_users, num_users + 1, ...`` of the
            instance the delta is applied to; a user may have zero pairs.
        name: optional label for logs and persisted documents.
    """

    price_updates: Dict[Tuple[int, int], float] = field(default_factory=dict)
    probability_updates: Dict[Tuple[int, int], np.ndarray] = field(
        default_factory=dict
    )
    capacity_updates: Dict[int, int] = field(default_factory=dict)
    new_users: Dict[int, Dict[int, np.ndarray]] = field(default_factory=dict)
    name: str = "delta"

    def __post_init__(self) -> None:
        self.price_updates = {
            (int(item), int(t)): float(price)
            for (item, t), price in self.price_updates.items()
        }
        for (item, t), price in self.price_updates.items():
            if price < 0.0:
                raise ValueError(
                    f"price update for (item={item}, t={t}) must be "
                    f"non-negative, got {price!r}"
                )
        self.probability_updates = {
            (int(user), int(item)): _as_probability_vector(
                vector, f"(user={user}, item={item})"
            )
            for (user, item), vector in self.probability_updates.items()
        }
        self.capacity_updates = {
            int(item): int(capacity)
            for item, capacity in self.capacity_updates.items()
        }
        for item, capacity in self.capacity_updates.items():
            if capacity < 0:
                raise ValueError(
                    f"capacity update for item {item} must be non-negative, "
                    f"got {capacity!r}"
                )
        self.new_users = {
            int(user): {
                int(item): _as_probability_vector(
                    vector, f"(new user={user}, item={item})"
                )
                for item, vector in pairs.items()
            }
            for user, pairs in self.new_users.items()
        }

    # ------------------------------------------------------------------
    # validation against an instance's dimensions
    # ------------------------------------------------------------------
    def validate_ranges(self, num_items: int, horizon: int,
                        num_users: int) -> None:
        """Range / shape / contiguity checks against instance dimensions.

        The single definition shared by
        :meth:`repro.core.compiled.CompiledInstance.apply_delta` and the
        dict-backed path of :func:`repro.dynamic.apply_delta`, so the two
        layouts can never drift in what they accept.  Existence checks
        (does a probability update name a known candidate pair?) stay with
        each layout -- only it knows its pair set.

        Raises:
            ValueError: naming the offending cell/pair/user; callers
                guarantee nothing was applied yet (atomicity).
        """
        for (item, t) in self.price_updates:
            if not (0 <= item < num_items and 0 <= t < horizon):
                raise ValueError(
                    f"price update for (item={item}, t={t}) outside the "
                    f"{num_items} x {horizon} price matrix"
                )
        for item in self.capacity_updates:
            if not 0 <= item < num_items:
                raise ValueError(
                    f"capacity update for item {item} outside "
                    f"0..{num_items - 1}"
                )
        for (user, item), vector in self.probability_updates.items():
            if vector.shape != (horizon,):
                raise ValueError(
                    f"probability vector for (user={user}, item={item}) "
                    f"must have length {horizon}, got shape {vector.shape}"
                )
        expected = list(range(num_users, num_users + len(self.new_users)))
        if sorted(self.new_users) != expected:
            raise ValueError(
                f"new user ids must be exactly {expected} (contiguous "
                f"after the current {num_users} users), got "
                f"{sorted(self.new_users)}"
            )
        for user, pairs in self.new_users.items():
            for item, vector in pairs.items():
                if not 0 <= item < num_items:
                    raise ValueError(
                        f"new user {user} names item {item}, outside "
                        f"0..{num_items - 1}"
                    )
                if vector.shape != (horizon,):
                    raise ValueError(
                        f"probability vector for (new user={user}, "
                        f"item={item}) must have length {horizon}, got "
                        f"shape {vector.shape}"
                    )

    # ------------------------------------------------------------------
    # introspection (what can this delta touch?)
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """True when applying the delta changes nothing."""
        return not (self.price_updates or self.probability_updates
                    or self.capacity_updates or self.new_users)

    def touched_pairs(self) -> Set[Tuple[int, int]]:
        """(user, item) pairs whose primitive probabilities can change.

        Probability updates and every pair of a new user.  This is the pair
        half of the *dirty frontier*: any group revenue involving one of
        these pairs may change with the delta.
        """
        touched = set(self.probability_updates)
        for user, pairs in self.new_users.items():
            touched.update((user, item) for item in pairs)
        return touched

    def touched_price_cells(self) -> Set[Tuple[int, int]]:
        """(item, t) cells of the price matrix the delta rewrites."""
        return set(self.price_updates)

    def horizon_of_vectors(self) -> int:
        """Length of the first probability vector (-1 when none present)."""
        for vector in self.probability_updates.values():
            return int(vector.shape[0])
        for pairs in self.new_users.values():
            for vector in pairs.values():
                return int(vector.shape[0])
        return -1

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Encode the delta as a JSON-serializable dictionary."""
        return {
            "format_version": DELTA_FORMAT_VERSION,
            "kind": "revmax-delta",
            "name": self.name,
            "price_updates": [
                [item, t, price]
                for (item, t), price in sorted(self.price_updates.items())
            ],
            "probability_updates": [
                {"user": user, "item": item,
                 "probabilities": vector.tolist()}
                for (user, item), vector
                in sorted(self.probability_updates.items())
            ],
            "capacity_updates": [
                [item, capacity]
                for item, capacity in sorted(self.capacity_updates.items())
            ],
            "new_users": [
                {"user": user,
                 "pairs": [
                     {"item": item, "probabilities": vector.tolist()}
                     for item, vector in sorted(pairs.items())
                 ]}
                for user, pairs in sorted(self.new_users.items())
            ],
        }

    @classmethod
    def from_dict(cls, document: Dict) -> "InstanceDelta":
        """Decode a delta from the dictionary produced by :meth:`to_dict`."""
        kind = document.get("kind")
        if kind != "revmax-delta":
            raise ValueError(f"expected a 'revmax-delta' document, got {kind!r}")
        version = document.get("format_version")
        if version != DELTA_FORMAT_VERSION:
            raise ValueError(
                f"unsupported delta format version {version!r} "
                f"(supported: {DELTA_FORMAT_VERSION})"
            )
        return cls(
            price_updates={
                (int(item), int(t)): float(price)
                for item, t, price in document.get("price_updates", [])
            },
            probability_updates={
                (int(row["user"]), int(row["item"])): row["probabilities"]
                for row in document.get("probability_updates", [])
            },
            capacity_updates={
                int(item): int(capacity)
                for item, capacity in document.get("capacity_updates", [])
            },
            new_users={
                int(row["user"]): {
                    int(pair["item"]): pair["probabilities"]
                    for pair in row.get("pairs", [])
                }
                for row in document.get("new_users", [])
            },
            name=document.get("name", "delta"),
        )

    def summary(self) -> str:
        """One-line human-readable description for CLI output and logs."""
        return (
            f"delta {self.name!r}: {len(self.price_updates)} price cells, "
            f"{len(self.probability_updates)} pair probability vectors, "
            f"{len(self.capacity_updates)} capacities, "
            f"{len(self.new_users)} new users"
        )


def save_delta(delta: InstanceDelta, path: _PathLike) -> None:
    """Write a delta to a JSON file, atomically."""
    # Imported lazily: repro.io imports the dynamic layer.
    from repro.io import atomic_write

    with atomic_write(path) as handle:
        json.dump(delta.to_dict(), handle, indent=2, sort_keys=True)


def load_delta(path: _PathLike) -> InstanceDelta:
    """Read a delta from a JSON file."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return InstanceDelta.from_dict(json.load(handle))
