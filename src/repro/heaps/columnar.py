"""Columnar two-level frontier: bulk seeding from contiguous arrays, row-keyed.

The two-level heap of §5.1 (:class:`repro.heaps.two_level.TwoLevelHeap`)
pays a Python-level insert per candidate triple.  At production scale
(millions of candidates) that per-insert cost dominates G-Greedy's seeding
stage, even though almost all lower-level heaps are never touched again: a
run admits a few thousand triples, so only a few thousand (user, item)
groups ever have their best entry popped or refreshed.

:class:`ColumnarFrontier` exploits that skew.  It is seeded directly from
the compiled candidate tensors (see :mod:`repro.core.compiled`) and is
addressed the way those tensors are: a candidate is a ``(row, t)`` cell of
the ``(n_pairs, T)`` priority matrix, where ``row`` is the CSR pair row of
its (user, item) group.

* the **upper level** is a lazy-deletion ``heapq`` over pair rows, built
  with one C-level ``heapify`` of ``(-best_priority, row)`` tuples, where
  ``best_priority`` is the row-wise maximum of the seeded priority matrix
  (one vectorized pass); the current best of every row is kept in a Python
  list, and an upper entry whose priority no longer matches it is stale
  and skipped;
* **lower levels** (one :class:`~repro.heaps.binary_heap.AddressableMaxHeap`
  per pair, keyed by time step, at most ``T`` entries) materialize lazily,
  the first time their row surfaces at the top or one of their entries is
  updated or discarded.

Determinism matches the incremental structure: priority ties at the upper
level break towards the smaller row index (CSR order, i.e. seeding order),
and within a group towards the earlier time step -- exactly the insertion
orders the eager two-level build would have produced for the same candidate
sequence.  :class:`repro.core.selection.LazyGreedySelector` drives it from
its row-keyed columnar loop; the ``Triple``-keyed heaps serve the object
path.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.heaps.binary_heap import AddressableMaxHeap

__all__ = ["ColumnarFrontier"]

_DEAD = float("-inf")


class ColumnarFrontier:
    """Lazily materialized two-level frontier over ``(row, t)`` candidates.

    Args:
        priorities: shape ``(n_pairs, T)`` seed priorities (read-only).
        seeded: shape ``(n_pairs, T)`` bool mask of live candidates; entries
            outside the mask (non-positive priority, disallowed time, triples
            already in the strategy) do not exist as far as the frontier is
            concerned.  The array is owned by the frontier.
    """

    def __init__(self, priorities: np.ndarray, seeded: np.ndarray) -> None:
        self._priorities = priorities
        self._seeded = seeded
        self._lower: Dict[int, AddressableMaxHeap] = {}
        # Row-wise best over the seeded mask; -inf marks rows with no live
        # entry ("dead").  Upper entries carry the priority they were pushed
        # with; an entry is stale when it no longer matches _best[row].
        best = priorities.max(axis=1, where=seeded, initial=_DEAD)
        live_rows = np.flatnonzero(best > _DEAD)
        self._best: List[float] = best.tolist()
        self._live = int(live_rows.shape[0])
        self._heap: List[Tuple[float, int]] = list(
            zip((-best[live_rows]).tolist(), live_rows.tolist())
        )
        heapq.heapify(self._heap)

    def __bool__(self) -> bool:
        return self._live > 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def peek(self) -> Tuple[int, int, float]:
        """Return the globally best ``(row, t, priority)`` without removal."""
        heap, best = self._heap, self._best
        while heap:
            negative, row = heap[0]
            if best[row] != -negative:
                heapq.heappop(heap)
                continue
            t, priority = self._lower_for(row).peek()
            return row, t, priority
        raise IndexError("peek from an empty columnar frontier")

    def times(self, row: int) -> List[int]:
        """Live time steps of ``row``, ascending (empty for a dead row)."""
        if self._best[row] == _DEAD:
            return []
        lower = self._lower.get(row)
        if lower is None:
            return np.flatnonzero(self._seeded[row]).tolist()
        return sorted(lower.keys())

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def update(self, row: int, times: Sequence[int],
               values: Sequence[float]) -> None:
        """Set new priorities for live entries ``(row, t)`` of one row.

        Raises:
            KeyError: if the row is dead or a time step is not live in it.
        """
        if self._best[row] == _DEAD:
            raise KeyError(f"row not in frontier: {row!r}")
        lower = self._lower_for(row)
        for t, value in zip(times, values):
            lower.update(t, value)
        self._refresh(row, lower)

    def discard(self, row: int, t: int) -> None:
        """Remove the entry ``(row, t)`` if present."""
        if self._best[row] == _DEAD:
            return
        lower = self._lower.get(row)
        if lower is None:
            if not (0 <= t < self._seeded.shape[1] and self._seeded[row, t]):
                return
            lower = self._lower_for(row)
        lower.discard(t)
        self._refresh(row, lower)

    def drop_group(self, row: int) -> None:
        """Remove every entry of ``row`` (its whole (user, item) group)."""
        if self._best[row] != _DEAD:
            self._kill(row)

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _lower_for(self, row: int) -> AddressableMaxHeap:
        lower = self._lower.get(row)
        if lower is None:
            lower = AddressableMaxHeap()
            priorities = self._priorities[row].tolist()
            for t, live in enumerate(self._seeded[row].tolist()):
                if live:
                    lower.insert(t, priorities[t])
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
