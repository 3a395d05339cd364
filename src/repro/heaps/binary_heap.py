"""An addressable maximum heap on the C-level ``heapq`` operations.

The greedy algorithms of the paper repeatedly need to

* look at the entry with the largest (marginal revenue) priority,
* update the priority of an arbitrary entry after a strategy change
  (``Decrease-Key`` in the paper's terminology, although priorities may also
  increase when stale lazy-forward values are refreshed), and
* remove arbitrary entries once a constraint rules them out.

The standard library ``heapq`` module supports none of the last two
directly, so this module layers *lazy deletion* over it.  The heap list
holds ``(-priority, insertion_order, key)`` tuples, and a ``key -> entry``
dict holds each key's live tuple; a tuple in the list is live exactly
while the dict maps its key to that very tuple.  An update pushes a new
tuple (keeping the key's insertion order) and a delete only drops the dict
entry; ``peek``/``pop`` skip dead tuples at the top.  Every sift is a C-level
``heappush``/``heappop``, and one ``heapify`` over the live tuples compacts
the list whenever it grows past :data:`_SLACK` times the live entries, so
dead tuples cannot grow memory without bound.

Ties between equal priorities are broken by insertion order (older entries
first) so that all algorithms built on top of the heap are deterministic.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

__all__ = ["AddressableMaxHeap"]

#: The heap list is compacted once it holds more than ``_SLACK * live + 1``
#: tuples.
_SLACK = 2

_Entry = Tuple[float, int, Hashable]


class AddressableMaxHeap:
    """Max-heap with O(1) lookup of entries by key and lazy deletion.

    Example:
        >>> heap = AddressableMaxHeap()
        >>> heap.insert("a", 1.0)
        >>> heap.insert("b", 3.0)
        >>> heap.peek()
        ('b', 3.0)
        >>> heap.update("a", 10.0)
        >>> heap.pop()
        ('a', 10.0)
    """

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._entries: Dict[Hashable, _Entry] = {}
        self._counter = 0

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        """Iterate over keys in arbitrary order."""
        return iter(list(self._entries))

    def keys(self) -> List[Hashable]:
        """Return all keys currently stored, in arbitrary order."""
        return list(self._entries)

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------
    def insert(self, key: Hashable, priority: float) -> None:
        """Insert ``key`` with ``priority``.

        Raises:
            KeyError: if ``key`` is already present (use :meth:`update`).
        """
        if key in self._entries:
            raise KeyError(f"key already present in heap: {key!r}")
        entry = (-float(priority), self._counter, key)
        self._counter += 1
        self._entries[key] = entry
        heapq.heappush(self._heap, entry)

    def push(self, key: Hashable, priority: float) -> None:
        """Insert ``key`` or update its priority if already present."""
        if key in self._entries:
            self.update(key, priority)
        else:
            self.insert(key, priority)

    def peek(self) -> Tuple[Hashable, float]:
        """Return ``(key, priority)`` of the maximum entry without removing it.

        Raises:
            IndexError: if the heap is empty.
        """
        if not self._entries:
            raise IndexError("peek from an empty heap")
        top = self._live_top()
        return top[2], -top[0]

    def pop(self) -> Tuple[Hashable, float]:
        """Remove and return ``(key, priority)`` of the maximum entry.

        Raises:
            IndexError: if the heap is empty.
        """
        if not self._entries:
            raise IndexError("pop from an empty heap")
        top = self._live_top()
        heapq.heappop(self._heap)
        del self._entries[top[2]]
        self._compact_if_sparse()
        return top[2], -top[0]

    def priority(self, key: Hashable) -> float:
        """Return the current priority associated with ``key``."""
        return -self._entries[key][0]

    def get(self, key: Hashable, default: Optional[float] = None) -> Optional[float]:
        """Return the priority of ``key`` or ``default`` if absent."""
        entry = self._entries.get(key)
        return default if entry is None else -entry[0]

    def update(self, key: Hashable, priority: float) -> None:
        """Change the priority of an existing entry (up or down).

        Raises:
            KeyError: if ``key`` is not in the heap.
        """
        _, order, stored = self._entries[key]
        entry = (-float(priority), order, stored)
        self._entries[key] = entry
        heapq.heappush(self._heap, entry)
        self._compact_if_sparse()

    def delete(self, key: Hashable) -> float:
        """Remove ``key`` from the heap and return its last priority.

        Raises:
            KeyError: if ``key`` is not present.
        """
        priority = -self._entries.pop(key)[0]
        self._compact_if_sparse()
        return priority

    def discard(self, key: Hashable) -> None:
        """Remove ``key`` if present; do nothing otherwise."""
        if key in self._entries:
            self.delete(key)

    def clear(self) -> None:
        """Remove every entry."""
        self._heap.clear()
        self._entries.clear()

    def items(self) -> List[Tuple[Hashable, float]]:
        """Return ``(key, priority)`` pairs in arbitrary order."""
        return [(key, -entry[0]) for key, entry in self._entries.items()]

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _live_top(self) -> _Entry:
        """Drop dead tuples off the top; return the live maximum."""
        heap, entries = self._heap, self._entries
        top = heap[0]
        while entries.get(top[2]) is not top:
            heapq.heappop(heap)
            top = heap[0]
        return top

    def _compact_if_sparse(self) -> None:
        if len(self._heap) > _SLACK * len(self._entries) + 1:
            self._heap = list(self._entries.values())
            heapq.heapify(self._heap)

    # ------------------------------------------------------------------
    # invariants (used by tests / property based checks)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if the heap property or index map is broken."""
        heap = self._heap
        for index in range(1, len(heap)):
            assert not heap[index] < heap[(index - 1) // 2], (
                "heap property violated"
            )
        listed = {id(entry) for entry in heap}
        for key, entry in self._entries.items():
            assert entry[2] == key, "entry map out of sync"
            assert id(entry) in listed, "live entry missing from the heap list"
        assert len(heap) <= _SLACK * len(self._entries) + 1, (
            "dead entries exceed the compaction bound"
        )
