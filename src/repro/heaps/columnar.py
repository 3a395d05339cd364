"""Columnar two-level frontier: bulk seeding from contiguous arrays.

The two-level heap of §5.1 (:class:`repro.heaps.two_level.TwoLevelHeap`)
pays a Python-level insert per candidate triple.  At production scale
(millions of candidates) that per-insert cost dominates G-Greedy's seeding
stage, even though almost all lower-level heaps are never touched again: a
run admits a few thousand triples, so only a few thousand (user, item)
groups ever have their best entry popped or refreshed.

:class:`ColumnarFrontier` exploits that skew.  It is seeded directly from
the compiled candidate tensors (see :mod:`repro.core.compiled`):

* the **upper level** is a lazy-deletion ``heapq`` over pair rows, built
  with one C-level ``heapify`` of ``(-best_priority, row)`` tuples, where
  ``best_priority`` is the row-wise maximum of the seeded priority matrix
  (one vectorized pass);
* **lower levels** (one addressable heap of at most ``T`` entries per pair)
  materialize lazily, the first time their row surfaces at the top or one
  of their entries is updated or discarded.

Determinism matches the incremental structure: priority ties at the upper
level break towards the smaller row index (CSR order, i.e. seeding order),
and within a group towards the earlier time step -- exactly the insertion
orders the eager two-level build would have produced for the same candidate
sequence.  Entries and groups behave identically under peek / update /
discard, so :class:`repro.core.selection.LazyGreedySelector` runs unchanged
on either frontier.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Set, Tuple

import numpy as np

from repro.core.entities import Triple
from repro.heaps.binary_heap import AddressableMaxHeap

__all__ = ["ColumnarFrontier"]

_DEAD = -np.inf


class ColumnarFrontier:
    """Lazily materialized two-level frontier over columnar candidates.

    Args:
        pair_user: shape ``(n_pairs,)`` user id per pair row.
        pair_item: shape ``(n_pairs,)`` item id per pair row.
        priorities: shape ``(n_pairs, T)`` seed priorities (read-only).
        seeded: shape ``(n_pairs, T)`` bool mask of live candidates; entries
            outside the mask (non-positive priority, disallowed time, triples
            already in the strategy) do not exist as far as the frontier is
            concerned.  The array is owned by the frontier.
        row_lookup: ``(user, item) -> row`` mapping (-1 when absent), e.g.
            :meth:`repro.core.compiled.CompiledInstance.pair_row`.
    """

    def __init__(self, pair_user: np.ndarray, pair_item: np.ndarray,
                 priorities: np.ndarray, seeded: np.ndarray,
                 row_lookup: Callable[[int, int], int]) -> None:
        self._pair_user = pair_user
        self._pair_item = pair_item
        self._priorities = priorities
        self._seeded = seeded
        self._row_lookup = row_lookup
        self._lower: Dict[int, AddressableMaxHeap] = {}
        # Row-wise best over the seeded mask; -inf marks rows with no live
        # entry ("dead").  heap entries carry the priority they were pushed
        # with; an entry is stale when it no longer matches _best[row].
        best = np.where(seeded, priorities, _DEAD).max(axis=1, initial=_DEAD)
        self._best = best
        live_rows = np.flatnonzero(best > _DEAD)
        self._live = int(live_rows.shape[0])
        self._heap: List[Tuple[float, int]] = list(
            zip((-best[live_rows]).tolist(), live_rows.tolist())
        )
        heapq.heapify(self._heap)

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return self._live > 0

    def __len__(self) -> int:
        total = 0
        for row in np.flatnonzero(self._best > _DEAD).tolist():
            lower = self._lower.get(row)
            total += len(lower) if lower is not None else int(
                np.count_nonzero(self._seeded[row])
            )
        return total

    def __contains__(self, key) -> bool:
        user, item, t = key
        row = self._row_lookup(user, item)
        if row < 0 or self._best[row] == _DEAD:
            return False
        lower = self._lower.get(row)
        if lower is not None:
            return Triple(user, item, t) in lower
        return 0 <= t < self._seeded.shape[1] and bool(self._seeded[row, t])

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def peek(self) -> Tuple[Triple, float]:
        """Return the globally best ``(triple, priority)`` without removal."""
        heap = self._heap
        while heap:
            negative, row = heap[0]
            if self._best[row] != -negative:
                heapq.heappop(heap)
                continue
            return self._lower_for(row).peek()
        raise IndexError("peek from an empty columnar frontier")

    def pop(self) -> Tuple[Triple, float]:
        """Remove and return the globally best ``(triple, priority)``."""
        key, priority = self.peek()
        self.discard(key)
        return key, priority

    def priority(self, key) -> float:
        """Return the priority currently stored for a live candidate.

        Raises:
            KeyError: if the candidate is not in the frontier.
        """
        user, item, t = key
        row = self._row_lookup(user, item)
        if row < 0 or self._best[row] == _DEAD:
            raise KeyError(f"key not in frontier: {key!r}")
        lower = self._lower.get(row)
        if lower is not None:
            return lower.priority(Triple(*key))
        if not (0 <= t < self._seeded.shape[1] and self._seeded[row, t]):
            raise KeyError(f"key not in frontier: {key!r}")
        return float(self._priorities[row, t])

    def group_members(self, group: Tuple[int, int]) -> Set[Triple]:
        """Live candidate triples of one (user, item) group."""
        user, item = group
        row = self._row_lookup(user, item)
        if row < 0 or self._best[row] == _DEAD:
            return set()
        lower = self._lower.get(row)
        if lower is not None:
            return set(lower.keys())
        return {
            Triple(int(user), int(item), int(t))
            for t in np.flatnonzero(self._seeded[row])
        }

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def update(self, key, priority: float) -> None:
        """Change the priority of a live candidate."""
        user, item, _ = key
        row = self._row_lookup(user, item)
        if row < 0 or self._best[row] == _DEAD:
            raise KeyError(f"key not in frontier: {key!r}")
        lower = self._lower_for(row)
        lower.update(Triple(*key), float(priority))
        self._refresh(row, lower)

    def discard(self, key) -> None:
        """Remove a candidate if present."""
        user, item, t = key
        row = self._row_lookup(user, item)
        if row < 0 or self._best[row] == _DEAD:
            return
        lower = self._lower.get(row)
        if lower is None:
            if not (0 <= t < self._seeded.shape[1] and self._seeded[row, t]):
                return
            lower = self._lower_for(row)
        lower.discard(Triple(user, item, t))
        self._refresh(row, lower)

    def drop_group(self, group: Tuple[int, int]) -> None:
        """Remove an entire (user, item) group and all of its entries."""
        user, item = group
        row = self._row_lookup(user, item)
        if row < 0 or self._best[row] == _DEAD:
            return
        self._kill(row)

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _lower_for(self, row: int) -> AddressableMaxHeap:
        lower = self._lower.get(row)
        if lower is None:
            lower = AddressableMaxHeap()
            user = int(self._pair_user[row])
            item = int(self._pair_item[row])
            priorities = self._priorities[row]
            for t in np.flatnonzero(self._seeded[row]).tolist():
                lower.insert(Triple(user, item, t), float(priorities[t]))
            self._lower[row] = lower
        return lower

    def _refresh(self, row: int, lower: AddressableMaxHeap) -> None:
        if not lower:
            self._kill(row)
            return
        best = lower.peek()[1]
        if best != self._best[row]:
            self._best[row] = best
            heapq.heappush(self._heap, (-best, row))

    def _kill(self, row: int) -> None:
        self._best[row] = _DEAD
        self._live -= 1
        self._lower.pop(row, None)
