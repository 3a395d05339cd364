"""Local-search maximization of non-monotone submodular functions.

This is the approximation machinery of §4.2: Lee, Mirrokni, Nagarajan and
Sviridenko's local-search algorithm gives a ``1 / (4 + eps)`` approximation
for maximizing a non-negative (possibly non-monotone) submodular function
subject to a matroid constraint.  The algorithm, specialised to a single
matroid, is:

1. start from the single best element ``{v*}``;
2. repeatedly apply any *add*, *delete* or *swap* move that improves the
   objective by a factor of at least ``1 + eps / n^2`` while keeping the set
   independent, until no such move exists (an approximate local optimum);
3. run the same procedure a second time on the ground set *excluding* the
   first solution, and return the better of the two local optima.

The implementation is generic (any :class:`~repro.matroid.matroid.Matroid`,
any set function); REVMAX plugs in the partition matroid of Lemma 2 and the
R-REVMAX effective revenue through
:class:`repro.algorithms.local_search.LocalSearchApproximation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Set

from repro.matroid.matroid import Matroid
from repro.matroid.submodular import MemoizedSetFunction

__all__ = ["LocalSearchResult", "local_search_matroid", "non_monotone_local_search"]


@dataclass
class LocalSearchResult:
    """Outcome of one local-search run.

    Attributes:
        solution: the locally optimal independent set.
        value: objective value of the solution.
        moves: number of improving moves applied.
        evaluations: number of distinct objective evaluations used.
    """

    solution: frozenset[Hashable]
    value: float
    moves: int
    evaluations: int


def _best_single_element(
    objective: MemoizedSetFunction,
    matroid: Matroid,
    candidates: Iterable[Hashable],
) -> Optional[Hashable]:
    best_element = None
    best_value = 0.0
    for element in candidates:
        if not matroid.is_independent({element}):
            continue
        value = objective({element})
        if best_element is None or value > best_value:
            best_element = element
            best_value = value
    return best_element


def local_search_matroid(
    objective: Callable[[Iterable[Hashable]], float],
    matroid: Matroid,
    ground_set: Optional[Iterable[Hashable]] = None,
    epsilon: float = 0.25,
    max_iterations: int = 10_000,
) -> LocalSearchResult:
    """Run one approximate local search within the matroid.

    Args:
        objective: non-negative set function to maximize.
        matroid: the independence system constraining feasible sets.
        ground_set: candidate elements (defaults to the matroid's ground set).
        epsilon: slack of the approximate improvement threshold; moves are
            only taken when they improve the value by a factor of at least
            ``1 + epsilon / n**2``.
        max_iterations: hard cap on the number of improving moves.

    Returns:
        A :class:`LocalSearchResult` describing the local optimum found.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    candidates = list(ground_set if ground_set is not None else matroid.ground_set)
    wrapped = (
        objective
        if isinstance(objective, MemoizedSetFunction)
        else MemoizedSetFunction(objective)
    )
    n = max(1, len(candidates))
    threshold = 1.0 + epsilon / (n * n)

    start = _best_single_element(wrapped, matroid, candidates)
    if start is None:
        return LocalSearchResult(frozenset(), wrapped(frozenset()), 0, wrapped.evaluations)

    current: Set[Hashable] = {start}
    current_value = wrapped(current)
    moves = 0
    improved = True
    while improved and moves < max_iterations:
        improved = False
        # Delete moves.
        for element in sorted(current, key=repr):
            candidate = current - {element}
            value = wrapped(candidate)
            if value > current_value * threshold or (
                current_value <= 0.0 and value > current_value
            ):
                current, current_value = candidate, value
                moves += 1
                improved = True
                break
        if improved:
            continue
        # Add moves.
        for element in candidates:
            if element in current or not matroid.can_add(current, element):
                continue
            candidate = current | {element}
            value = wrapped(candidate)
            if value > current_value * threshold:
                current, current_value = candidate, value
                moves += 1
                improved = True
                break
        if improved:
            continue
        # Swap moves.
        for removed in sorted(current, key=repr):
            for added in candidates:
                if added in current or not matroid.can_swap(current, removed, added):
                    continue
                candidate = (current - {removed}) | {added}
                value = wrapped(candidate)
                if value > current_value * threshold:
                    current, current_value = candidate, value
                    moves += 1
                    improved = True
                    break
            if improved:
                break
    return LocalSearchResult(frozenset(current), current_value, moves, wrapped.evaluations)


def non_monotone_local_search(
    objective: Callable[[Iterable[Hashable]], float],
    matroid: Matroid,
    ground_set: Optional[Iterable[Hashable]] = None,
    epsilon: float = 0.25,
    max_iterations: int = 10_000,
) -> LocalSearchResult:
    """Two-phase local search of Lee et al. for non-monotone objectives.

    Runs :func:`local_search_matroid` once on the full ground set and once on
    the ground set with the first solution removed, returning the better of
    the two local optima.  This second run is what lifts the guarantee from
    monotone to general non-negative submodular objectives.
    """
    candidates = list(ground_set if ground_set is not None else matroid.ground_set)
    wrapped = (
        objective
        if isinstance(objective, MemoizedSetFunction)
        else MemoizedSetFunction(objective)
    )
    first = local_search_matroid(wrapped, matroid, candidates, epsilon, max_iterations)
    remaining = [element for element in candidates if element not in first.solution]
    second = local_search_matroid(wrapped, matroid, remaining, epsilon, max_iterations)
    best = first if first.value >= second.value else second
    return LocalSearchResult(
        solution=best.solution,
        value=best.value,
        moves=first.moves + second.moves,
        evaluations=wrapped.evaluations,
    )
