"""Set-function utilities: submodularity and monotonicity diagnostics.

Theorem 2 of the paper states that the REVMAX revenue function is
non-negative, non-monotone and submodular over sets of user-item-time
triples.  The helpers here wrap an arbitrary set function with memoisation and
provide brute-force checkers used by the test suite to verify Theorem 2 on
small instances (and by property-based tests on random instances).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

__all__ = [
    "MemoizedSetFunction",
    "is_submodular",
    "is_monotone",
    "find_submodularity_violation",
]

SetFunction = Callable[[frozenset[Hashable]], float]


class MemoizedSetFunction:
    """Wrap a set function with memoisation and an evaluation counter.

    The local-search approximation algorithm evaluates the objective many
    times on overlapping sets; memoisation keeps the small-instance
    experiments tractable and the counter feeds complexity diagnostics.
    """

    def __init__(self, function: Callable[[Iterable[Hashable]], float]) -> None:
        self._function = function
        self._cache: Dict[frozenset[Hashable], float] = {}
        self._evaluations = 0

    @property
    def evaluations(self) -> int:
        """Number of underlying (non-cached) evaluations performed."""
        return self._evaluations

    def __call__(self, subset: Iterable[Hashable]) -> float:
        key = frozenset(subset)
        if key not in self._cache:
            self._cache[key] = float(self._function(key))
            self._evaluations += 1
        return self._cache[key]

    def marginal(self, subset: Iterable[Hashable], element: Hashable) -> float:
        """Return ``f(S + e) - f(S)``."""
        base = frozenset(subset)
        return self(base | {element}) - self(base)


def _all_subsets(ground: List[Hashable], max_size: Optional[int] = None):
    limit = len(ground) if max_size is None else min(max_size, len(ground))
    for size in range(limit + 1):
        for combo in itertools.combinations(ground, size):
            yield frozenset(combo)


def find_submodularity_violation(
    function: Callable[[Iterable[Hashable]], float],
    ground_set: Iterable[Hashable],
    tolerance: float = 1e-9,
    max_subset_size: Optional[int] = None,
) -> Optional[Tuple[frozenset[Hashable], frozenset[Hashable], Hashable]]:
    """Search exhaustively for a violation of diminishing returns.

    Returns the first ``(S, S', w)`` with ``S subset of S'`` and
    ``f(S + w) - f(S) < f(S' + w) - f(S') - tolerance``; ``None`` if no
    violation exists among subsets of size up to ``max_subset_size``.
    Exponential -- intended only for small ground sets in tests.
    """
    ground = list(ground_set)
    wrapped = MemoizedSetFunction(function)
    subsets = list(_all_subsets(ground, max_subset_size))
    for small in subsets:
        for large in subsets:
            if not small <= large:
                continue
            for element in ground:
                if element in large:
                    continue
                gain_small = wrapped.marginal(small, element)
                gain_large = wrapped.marginal(large, element)
                if gain_small < gain_large - tolerance:
                    return small, large, element
    return None


def is_submodular(
    function: Callable[[Iterable[Hashable]], float],
    ground_set: Iterable[Hashable],
    tolerance: float = 1e-9,
    max_subset_size: Optional[int] = None,
) -> bool:
    """True if no submodularity violation is found by exhaustive search."""
    return (
        find_submodularity_violation(function, ground_set, tolerance, max_subset_size)
        is None
    )


def is_monotone(
    function: Callable[[Iterable[Hashable]], float],
    ground_set: Iterable[Hashable],
    tolerance: float = 1e-9,
    max_subset_size: Optional[int] = None,
) -> bool:
    """True if ``f`` never decreases when an element is added (within tolerance)."""
    ground = list(ground_set)
    wrapped = MemoizedSetFunction(function)
    for subset in _all_subsets(ground, max_subset_size):
        for element in ground:
            if element in subset:
                continue
            if wrapped.marginal(subset, element) < -tolerance:
                return False
    return True
