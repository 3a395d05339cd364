"""Partition matroids and the REVMAX display-constraint construction (Lemma 2).

A partition matroid is given by a partition of the ground set into disjoint
blocks ``X_1, ..., X_m`` with per-block capacities ``b_1, ..., b_m``; a set is
independent iff it contains at most ``b_j`` elements of each block.

Lemma 2 of the paper observes that the display constraint of REVMAX is exactly
such a matroid: project the ground set ``U x I x [T]`` onto (user, time) pairs
and cap every block at ``k``.  :func:`display_constraint_matroid` performs
that construction for a concrete instance.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Optional

from repro.core.problem import RevMaxInstance
from repro.matroid.matroid import Matroid

__all__ = ["PartitionMatroid", "display_constraint_matroid"]


class PartitionMatroid(Matroid):
    """Partition matroid defined by a block function and per-block capacities.

    Args:
        ground_set: the elements of the matroid.
        block_of: maps an element to its block identifier.
        capacities: mapping ``block id -> maximum number of elements``;
            blocks absent from the mapping use ``default_capacity``.
        default_capacity: capacity for blocks not listed in ``capacities``.
    """

    def __init__(
        self,
        ground_set: Iterable[Hashable],
        block_of: Callable[[Hashable], Hashable],
        capacities: Optional[Dict[Hashable, int]] = None,
        default_capacity: int = 1,
    ) -> None:
        self._ground = frozenset(ground_set)
        self._block_of = block_of
        self._capacities = dict(capacities or {})
        if default_capacity < 0:
            raise ValueError("default_capacity must be non-negative")
        if any(v < 0 for v in self._capacities.values()):
            raise ValueError("block capacities must be non-negative")
        self._default_capacity = default_capacity

    @property
    def ground_set(self) -> frozenset[Hashable]:
        return self._ground

    def block(self, element: Hashable) -> Hashable:
        """Return the block identifier of ``element``."""
        return self._block_of(element)

    def capacity(self, block: Hashable) -> int:
        """Return the capacity of ``block``."""
        return self._capacities.get(block, self._default_capacity)

    def is_independent(self, subset: Iterable[Hashable]) -> bool:
        subset = set(subset)
        if not subset <= self._ground:
            return False
        counts: Dict[Hashable, int] = {}
        for element in subset:
            block = self._block_of(element)
            counts[block] = counts.get(block, 0) + 1
            if counts[block] > self.capacity(block):
                return False
        return True

    # The generic ``can_add`` re-checks the whole set; for a partition matroid
    # only the block of the new element matters, so specialise it.
    def can_add(self, independent_set, element) -> bool:  # type: ignore[override]
        if element in independent_set or element not in self._ground:
            return False
        block = self._block_of(element)
        count = sum(1 for other in independent_set if self._block_of(other) == block)
        return count < self.capacity(block)


def display_constraint_matroid(instance: RevMaxInstance) -> PartitionMatroid:
    """Build the partition matroid of Lemma 2 for a REVMAX instance.

    The ground set is the set of candidate triples (positive primitive
    adoption probability), blocks are (user, time) pairs, and every block has
    capacity ``k`` (the display limit).
    """
    ground = list(instance.candidate_triples())
    return PartitionMatroid(
        ground_set=ground,
        block_of=lambda triple: (triple.user, triple.t),
        capacities={},
        default_capacity=instance.display_limit,
    )
