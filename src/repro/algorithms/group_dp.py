"""Exact per-group optimization and an upper bound on the REVMAX optimum.

Competition and saturation only couple triples that share a (user, item-class)
pair, so the revenue of a strategy decomposes into independent *group*
contributions.  Two hard constraints couple the groups: the display limit (a
user's classes share the ``k`` slots of each time step) and the item capacity
(an item's audience is shared across users).  Relaxing exactly those two
couplings yields a decomposable problem that can be solved *optimally*, one
group at a time, by exhaustive search over each group's candidate triples —
which gives:

* :func:`optimal_group_plan` — the revenue-maximal subset of one group's
  candidate triples (subject to the within-group display limit), used in tests
  as ground truth for small groups; and
* :class:`GroupDecompositionBound` — the sum of per-group optima, a true upper
  bound on the revenue of *any* valid strategy.  The bound certifies how close
  the greedy heuristics get without knowing the intractable true optimum
  (``bound >= OPT >= greedy``), and is reported alongside the algorithms in
  the theory benchmarks.

The enumeration is exponential in the number of candidate triples of a group
(at most ``|class| * T`` of them), so group sizes are guarded by
``max_candidates_per_group``; the bound falls back to a cheap single-triple
relaxation for oversized groups, which keeps it a valid upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.entities import Triple
from repro.core.problem import RevMaxInstance
from repro.core.revenue import RevenueModel

__all__ = ["optimal_group_plan", "GroupDecompositionBound", "GroupBoundResult"]


def _group_candidates(instance: RevMaxInstance, user: int, class_id: int) -> List[Triple]:
    """All positive-probability triples of one (user, class) group."""
    candidates = []
    for item in instance.candidate_items(user):
        if instance.class_of(item) != class_id:
            continue
        for t in range(instance.horizon):
            if instance.probability(user, item, t) > 0.0:
                candidates.append(Triple(user, item, t))
    return candidates


def _respects_group_display_limit(subset: Sequence[Triple], limit: int) -> bool:
    counts: Dict[int, int] = {}
    for triple in subset:
        counts[triple.t] = counts.get(triple.t, 0) + 1
        if counts[triple.t] > limit:
            return False
    return True


def optimal_group_plan(
    instance: RevMaxInstance,
    user: int,
    class_id: int,
    max_candidates: int = 16,
    backend: Optional[str] = None,
) -> Tuple[List[Triple], float]:
    """Return the revenue-optimal subset of one (user, class) group.

    The search enumerates every subset of the group's candidate triples that
    keeps at most ``k`` same-class triples per time step (a necessary condition
    for validity) and evaluates the exact group revenue of Definition 2.

    Args:
        instance: the REVMAX instance.
        user: the user of the group.
        class_id: the item class of the group.
        max_candidates: guard against exponential blow-up; exceeding it raises.
        backend: revenue-engine backend ("numpy" / "python"); ``None`` means
            numpy.

    Returns:
        ``(best_subset, best_revenue)``; the empty subset with revenue 0.0 when
        the group has no candidates.

    Raises:
        ValueError: if the group has more than ``max_candidates`` candidates.
    """
    candidates = _group_candidates(instance, user, class_id)
    if len(candidates) > max_candidates:
        raise ValueError(
            f"group ({user}, {class_id}) has {len(candidates)} candidates; "
            f"raise max_candidates (= {max_candidates}) to enumerate it"
        )
    best_subset: List[Triple] = []
    best_revenue = 0.0
    limit = instance.display_limit
    group_revenue = RevenueModel(instance, backend).group_revenue
    for size in range(1, len(candidates) + 1):
        for subset in combinations(candidates, size):
            if not _respects_group_display_limit(subset, limit):
                continue
            revenue = group_revenue(list(subset))
            if revenue > best_revenue:
                best_revenue = revenue
                best_subset = list(subset)
    return best_subset, best_revenue


@dataclass
class GroupBoundResult:
    """Outcome of the group-decomposition upper bound.

    Attributes:
        upper_bound: sum of per-group optima (>= revenue of any valid strategy).
        per_group: mapping ``(user, class) -> group optimum``.
        enumerated_groups: groups solved exactly.
        relaxed_groups: oversized groups bounded by the cheap relaxation.
    """

    upper_bound: float
    per_group: Dict[Tuple[int, int], float]
    enumerated_groups: int
    relaxed_groups: int

    def gap(self, achieved_revenue: float) -> float:
        """Relative gap ``1 - achieved / bound`` (0 when the bound is met)."""
        if self.upper_bound <= 0.0:
            return 0.0
        return max(0.0, 1.0 - achieved_revenue / self.upper_bound)


class GroupDecompositionBound:
    """Upper bound on the optimal REVMAX revenue via group decomposition.

    Args:
        max_candidates_per_group: groups with more candidates than this are
            bounded by ``sum of each time step's best k isolated revenues``
            instead of exact enumeration (still an upper bound, just looser).
        backend: revenue-engine backend used by the per-group enumeration;
            ``None`` means numpy.
    """

    def __init__(self, max_candidates_per_group: int = 14,
                 backend: Optional[str] = None) -> None:
        self._max_candidates = max_candidates_per_group
        self._backend = backend

    def _relaxed_group_bound(self, instance: RevMaxInstance,
                             candidates: Sequence[Triple]) -> float:
        """Loose bound for oversized groups: per time step, take the ``k`` best
        isolated revenues (dynamic probabilities never exceed primitive ones)."""
        per_time: Dict[int, List[float]] = {}
        for triple in candidates:
            value = instance.expected_isolated_revenue(triple)
            per_time.setdefault(triple.t, []).append(value)
        bound = 0.0
        for values in per_time.values():
            values.sort(reverse=True)
            bound += sum(values[: instance.display_limit])
        return bound

    def compute(self, instance: RevMaxInstance) -> GroupBoundResult:
        """Compute the bound for an instance."""
        per_group: Dict[Tuple[int, int], float] = {}
        enumerated = 0
        relaxed = 0
        for user in instance.users():
            classes = {
                instance.class_of(item) for item in instance.candidate_items(user)
            }
            for class_id in classes:
                candidates = _group_candidates(instance, user, class_id)
                if not candidates:
                    continue
                if len(candidates) <= self._max_candidates:
                    _, value = optimal_group_plan(
                        instance, user, class_id, self._max_candidates,
                        backend=self._backend,
                    )
                    enumerated += 1
                else:
                    value = self._relaxed_group_bound(instance, candidates)
                    relaxed += 1
                per_group[(user, class_id)] = value
        return GroupBoundResult(
            upper_bound=sum(per_group.values()),
            per_group=per_group,
            enumerated_groups=enumerated,
            relaxed_groups=relaxed,
        )
