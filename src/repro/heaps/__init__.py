"""Addressable priority queues used by the greedy REVMAX algorithms.

The paper's Global Greedy algorithm (Algorithm 1) relies on two data
structures:

* an *addressable* maximum heap supporting ``insert``, ``find_max``,
  ``delete_max``, ``update_key`` (increase or decrease) and ``delete`` by
  entry key -- :class:`repro.heaps.binary_heap.AddressableMaxHeap`, a
  lazy-deletion heap whose every sift is a C-level ``heapq`` call;
* a *two-level* heap where one lower-level heap exists per (user, item) pair
  holding its time-step candidates, and an upper-level heap holds the roots
  of all lower-level heaps -- :class:`repro.heaps.two_level.TwoLevelHeap`.

Both structures are deterministic (ties broken by insertion order) so that
algorithm outputs are reproducible.

:class:`repro.heaps.columnar.ColumnarFrontier` is the bulk-seeded columnar
variant of the two-level structure, addressed by compiled pair row and time
step instead of by triple: one C-level ``heapify`` over the compiled
candidate tensors replaces millions of per-triple inserts, and lower-level
heaps (addressable heaps keyed by time step, so C-level sifts too)
materialize lazily (see :mod:`repro.core.compiled`).
"""

from repro.heaps.binary_heap import AddressableMaxHeap
from repro.heaps.columnar import ColumnarFrontier
from repro.heaps.two_level import TwoLevelHeap

__all__ = ["AddressableMaxHeap", "ColumnarFrontier", "TwoLevelHeap"]
