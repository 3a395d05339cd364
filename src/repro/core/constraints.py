"""Validity constraints of REVMAX (display limit and item capacity).

A strategy ``S`` is *valid* (Problem 1) when

* **display constraint** -- no user receives more than ``k`` recommendations
  at any single time step: ``|{i : (u, i, t) in S}| <= k`` for all ``u, t``;
* **capacity constraint** -- no item is recommended to more than ``q_i``
  *distinct* users over the whole horizon:
  ``|{u : exists t, (u, i, t) in S}| <= q_i`` for all ``i``.

The module offers both whole-strategy validation (used by tests and by the
experiment harness to audit algorithm outputs) and incremental ``can_add``
checks (used inside the greedy loops, where triples are admitted one by one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.entities import Triple
from repro.core.problem import RevMaxInstance
from repro.core.strategy import Strategy

__all__ = [
    "ConstraintViolation",
    "DisplayConstraint",
    "CapacityConstraint",
    "ConstraintChecker",
]


@dataclass(frozen=True)
class ConstraintViolation:
    """A single violated constraint, for diagnostics.

    Attributes:
        kind: ``"display"`` or ``"capacity"``.
        subject: the (user, time) pair or the item the violation concerns.
        observed: observed count.
        limit: permitted maximum.
    """

    kind: str
    subject: tuple
    observed: int
    limit: int

    def __str__(self) -> str:
        return (
            f"{self.kind} constraint violated at {self.subject}: "
            f"{self.observed} > {self.limit}"
        )


class DisplayConstraint:
    """Per-user, per-time-step display limit ``k``."""

    def __init__(self, instance: RevMaxInstance) -> None:
        self._instance = instance

    def can_add(self, strategy: Strategy, triple: Triple) -> bool:
        """True if adding ``triple`` keeps the user's slot under the limit."""
        return (
            strategy.display_count(triple.user, triple.t)
            < self._instance.display_limit
        )

    def violations(self, strategy: Strategy) -> List[ConstraintViolation]:
        """Return every (user, time) slot exceeding the display limit."""
        limit = self._instance.display_limit
        counts = {}
        for triple in strategy:
            slot = (triple.user, triple.t)
            counts[slot] = counts.get(slot, 0) + 1
        return [
            ConstraintViolation("display", slot, count, limit)
            for slot, count in sorted(counts.items())
            if count > limit
        ]


class CapacityConstraint:
    """Per-item distinct-audience capacity ``q_i``."""

    def __init__(self, instance: RevMaxInstance) -> None:
        self._instance = instance

    def can_add(self, strategy: Strategy, triple: Triple) -> bool:
        """True if adding ``triple`` keeps the item's audience within capacity.

        Repeating an item to a user it already targets never consumes extra
        capacity (the constraint counts *distinct* users).
        """
        if strategy.user_has_item(triple.user, triple.item):
            return True
        return (
            strategy.item_audience_size(triple.item)
            < self._instance.capacity(triple.item)
        )

    def violations(self, strategy: Strategy) -> List[ConstraintViolation]:
        """Return every item whose distinct audience exceeds its capacity."""
        audiences = {}
        for triple in strategy:
            audiences.setdefault(triple.item, set()).add(triple.user)
        result = []
        for item, users in sorted(audiences.items()):
            limit = self._instance.capacity(item)
            if len(users) > limit:
                result.append(
                    ConstraintViolation("capacity", (item,), len(users), limit)
                )
        return result


class ConstraintChecker:
    """Bundles the display and capacity constraints of an instance.

    The greedy algorithms call :meth:`can_add` on every candidate; the
    experiment harness calls :meth:`check` on final outputs to assert they are
    valid strategies in the sense of Problem 1.
    """

    def __init__(self, instance: RevMaxInstance,
                 enforce_capacity: bool = True) -> None:
        """Create a checker.

        Args:
            instance: the REVMAX instance providing ``k`` and ``q_i``.
            enforce_capacity: set to False for R-REVMAX, whose only hard
                constraint is the display limit (capacity is pushed into the
                objective, Definition 4).
        """
        self._display = DisplayConstraint(instance)
        self._capacity = CapacityConstraint(instance) if enforce_capacity else None

    def can_add(self, strategy: Strategy, triple: Triple) -> bool:
        """True if ``strategy + {triple}`` satisfies every hard constraint."""
        if not self._display.can_add(strategy, triple):
            return False
        if self._capacity is not None and not self._capacity.can_add(strategy, triple):
            return False
        return True

    def violations(self, strategy: Strategy) -> List[ConstraintViolation]:
        """Return every violation present in ``strategy``."""
        result = self._display.violations(strategy)
        if self._capacity is not None:
            result.extend(self._capacity.violations(strategy))
        return result

    def is_valid(self, strategy: Strategy) -> bool:
        """True if the strategy satisfies all hard constraints."""
        return not self.violations(strategy)

    def check(self, strategy: Strategy) -> None:
        """Raise ``ValueError`` listing every violation, if any."""
        violations = self.violations(strategy)
        if violations:
            summary = "; ".join(str(v) for v in violations[:10])
            raise ValueError(f"invalid strategy ({len(violations)} violations): {summary}")
