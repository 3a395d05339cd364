"""Matroids over finite ground sets.

§4.2 of the paper reduces (relaxed) REVMAX to maximizing a non-monotone
submodular function subject to a *partition matroid* constraint.  This module
provides the small matroid toolkit that reduction needs:

* the abstract :class:`Matroid` interface (independence oracle plus the
  derived operations local search relies on),
* :class:`UniformMatroid` (independent iff ``|S| <= r``), and
* :class:`FreeMatroid` (everything independent) as degenerate baselines used
  in tests.

The partition matroid lives in :mod:`repro.matroid.partition` because it also
carries the REVMAX-specific construction of Lemma 2.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Iterable, Set

__all__ = ["Matroid", "UniformMatroid", "FreeMatroid"]


class Matroid(ABC):
    """Abstract matroid ``M = (X, I)`` defined by an independence oracle."""

    @property
    @abstractmethod
    def ground_set(self) -> frozenset[Hashable]:
        """The ground set ``X``."""

    @abstractmethod
    def is_independent(self, subset: Iterable[Hashable]) -> bool:
        """Return True iff ``subset`` is an independent set of the matroid."""

    # ------------------------------------------------------------------
    # derived operations
    # ------------------------------------------------------------------
    def can_add(self, independent_set: Set[Hashable], element: Hashable) -> bool:
        """True if adding ``element`` keeps the set independent."""
        if element in independent_set:
            return False
        return self.is_independent(set(independent_set) | {element})

    def can_swap(self, independent_set: Set[Hashable], remove: Hashable,
                 add: Hashable) -> bool:
        """True if exchanging ``remove`` for ``add`` keeps the set independent."""
        if remove not in independent_set or add in independent_set:
            return False
        candidate = (set(independent_set) - {remove}) | {add}
        return self.is_independent(candidate)

    def rank(self, subset: Iterable[Hashable]) -> int:
        """Return the rank of ``subset`` (size of a maximal independent subset).

        Computed greedily; correct for any matroid by the exchange property.
        """
        independent: Set[Hashable] = set()
        for element in subset:
            if self.can_add(independent, element):
                independent.add(element)
        return len(independent)

    def check_axioms(self, sample_sets: Iterable[Iterable[Hashable]]) -> None:
        """Spot-check downward closure and augmentation on the given sets.

        Intended for tests on small ground sets; raises ``AssertionError`` on
        the first violated axiom.
        """
        sets = [frozenset(s) for s in sample_sets]
        assert self.is_independent(frozenset()), "empty set must be independent"
        for candidate in sets:
            if not self.is_independent(candidate):
                continue
            for element in candidate:
                assert self.is_independent(candidate - {element}), (
                    "downward closure violated"
                )
        for small in sets:
            for large in sets:
                if not (self.is_independent(small) and self.is_independent(large)):
                    continue
                if len(small) >= len(large):
                    continue
                extendable = any(
                    self.is_independent(small | {element})
                    for element in large - small
                )
                assert extendable, "augmentation property violated"


class UniformMatroid(Matroid):
    """The uniform matroid ``U_{r, n}``: independent iff size at most ``r``."""

    def __init__(self, ground_set: Iterable[Hashable], rank: int) -> None:
        if rank < 0:
            raise ValueError("rank must be non-negative")
        self._ground = frozenset(ground_set)
        self._rank = rank

    @property
    def ground_set(self) -> frozenset[Hashable]:
        return self._ground

    @property
    def max_rank(self) -> int:
        """The cardinality bound ``r``."""
        return self._rank

    def is_independent(self, subset: Iterable[Hashable]) -> bool:
        subset = set(subset)
        if not subset <= self._ground:
            return False
        return len(subset) <= self._rank


class FreeMatroid(Matroid):
    """The free matroid: every subset of the ground set is independent."""

    def __init__(self, ground_set: Iterable[Hashable]) -> None:
        self._ground = frozenset(ground_set)

    @property
    def ground_set(self) -> frozenset[Hashable]:
        return self._ground

    def is_independent(self, subset: Iterable[Hashable]) -> bool:
        return set(subset) <= self._ground
