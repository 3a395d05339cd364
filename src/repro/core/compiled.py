"""Columnar compilation of REVMAX instances: contiguous ID-indexed tensors.

:class:`~repro.core.problem.RevMaxInstance` is object-shaped: the adoption
table keeps one tiny per-(user, item) probability vector in a Python dict,
and every hot path that touches it (heap seeding, group gathers, candidate
enumeration) pays a dict lookup per triple.  This module compiles an
instance, once, into the struct-of-arrays layout the access patterns
actually want:

* a **CSR candidate table** -- pairs sorted by ``(user, item)`` with
  ``user_ptr[u] : user_ptr[u + 1]`` delimiting user ``u``'s rows,
  ``pair_item[p]`` the item of pair ``p``, and ``pair_probs[p, t]`` the
  primitive adoption probability ``q(u, i, t)`` of that pair (a contiguous
  ``(n_pairs, T)`` float64 matrix);
* the dense per-item tensors the instance already holds -- the
  ``(n_items, T)`` price matrix and per-item class / capacity / beta
  vectors -- referenced, not copied;
* a **dense (user, class) group index** mapping each pair to the
  (user, item-class) group it interacts with in Definition 1 (built lazily:
  only diagnostics and future group-parallel kernels need it).

Compilation is value-preserving by construction: every tensor entry is the
exact float stored in the object layer, so the numpy revenue backend, which
gathers from these tensors, reads the floats the python backend reads from
the adoption table (asserted by ``tests/test_compiled.py``).

Entry points
------------
``instance.compiled()``
    lazy one-shot compilation, cached on the instance.
``CompiledInstance.as_instance()``
    wrap a compilation as a ready-to-solve ``RevMaxInstance`` whose adoption
    table is a read-only columnar view (:class:`ColumnarAdoptionTable`) --
    the object the columnar generators and the ``.npz`` loader return; no
    pair dict is ever materialized.
``CompiledInstance.to_instance()``
    materialize a plain dict-backed instance (the pre-compilation layout),
    used by equivalence tests and the object-layout benchmarks.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.entities import ItemCatalog, Triple

__all__ = ["CompiledInstance", "ColumnarAdoptionTable"]


class CompiledInstance:
    """A REVMAX instance compiled into contiguous ID-indexed tensors.

    Attributes:
        num_users: number of users ``|U|`` (CSR row count).
        horizon: number of time steps ``T``.
        display_limit: the display constraint ``k``.
        user_ptr: shape ``(num_users + 1,)`` int64; pair rows of user ``u``
            are ``user_ptr[u] : user_ptr[u + 1]``.
        pair_user: shape ``(n_pairs,)`` int64 user id per pair (CSR order).
        pair_item: shape ``(n_pairs,)`` int64 item id per pair.
        pair_probs: shape ``(n_pairs, horizon)`` float64 primitive adoption
            probabilities ``q(u, i, t)``.
        prices: shape ``(n_items, horizon)`` float64 price matrix (shared
            with the source instance, never copied).
        capacities: shape ``(n_items,)`` int per-item capacities.
        betas: shape ``(n_items,)`` float64 saturation factors.
        item_class: shape ``(n_items,)`` int64 class ids ``C(i)``.
        name: label of the source instance.
        source_version: adoption-table mutation counter at compile time
            (lets ``RevMaxInstance.compiled()`` detect staleness).
    """

    def __init__(self, num_users: int, horizon: int, display_limit: int,
                 user_ptr: np.ndarray, pair_item: np.ndarray,
                 pair_probs: np.ndarray, prices: np.ndarray,
                 capacities: np.ndarray, betas: np.ndarray,
                 item_class: np.ndarray, name: str = "revmax-instance",
                 source_version: int = 0, validate: bool = True) -> None:
        self.num_users = int(num_users)
        self.horizon = int(horizon)
        self.display_limit = int(display_limit)
        self.user_ptr = np.asarray(user_ptr, dtype=np.int64)
        self.pair_item = np.asarray(pair_item, dtype=np.int64)
        self.pair_probs = np.asarray(pair_probs, dtype=np.float64)
        self.prices = np.asarray(prices, dtype=np.float64)
        self.capacities = np.asarray(capacities, dtype=int)
        self.betas = np.asarray(betas, dtype=np.float64)
        self.item_class = np.asarray(item_class, dtype=np.int64)
        self.name = str(name)
        self.source_version = int(source_version)
        self._validate_shapes()
        self._key_stride = max(1, self.num_items)
        # pair_user and the sorted lookup keys are derivable from the CSR;
        # they materialize lazily, so a load that never looks rows up skips
        # two O(n_pairs) passes.
        self._pair_user: Optional[np.ndarray] = None
        self._keys: Optional[np.ndarray] = None
        # List copies of user_ptr and pair_item for scalar pair_row lookups
        # (lazy; dropped whenever the CSR grows).
        self._row_lists: Optional[Tuple[List[int], List[int]]] = None
        if validate:
            self._validate()
        self._isolated: Optional[np.ndarray] = None
        self._groups: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        # item -> pair rows index (CSC-style), built lazily by the delta
        # layer to patch the isolated-revenue matrix after price updates.
        self._item_rows: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_instance(cls, instance) -> "CompiledInstance":
        """Compile a :class:`~repro.core.problem.RevMaxInstance` (one shot).

        Instances whose adoption table is already a
        :class:`ColumnarAdoptionTable` reuse its tensors without copying.
        """
        adoption = instance.adoption
        version = getattr(adoption, "_version", 0)
        item_class = np.asarray(instance.catalog.item_class, dtype=np.int64)
        if isinstance(adoption, ColumnarAdoptionTable):
            source = adoption.compiled
            return cls(
                num_users=instance.num_users,
                horizon=instance.horizon,
                display_limit=instance.display_limit,
                user_ptr=source.user_ptr,
                pair_item=source.pair_item,
                pair_probs=source.pair_probs,
                prices=instance.prices,
                capacities=instance.capacities,
                betas=instance.betas,
                item_class=item_class,
                name=instance.name,
                source_version=version,
            )
        pairs = list(adoption.pairs())
        n = len(pairs)
        users = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=n)
        items = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=n)
        if n and (users.min() < 0 or users.max() >= instance.num_users):
            bad = int(users.max() if users.max() >= instance.num_users
                      else users.min())
            raise ValueError(
                f"cannot compile instance {instance.name!r}: adoption table "
                f"contains user id {bad}, outside 0..{instance.num_users - 1}"
            )
        probs = np.empty((n, instance.horizon), dtype=np.float64)
        for row, (user, item) in enumerate(pairs):
            probs[row] = adoption.get(user, item)
        order = np.lexsort((items, users))
        users = users[order]
        user_ptr = np.zeros(instance.num_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(users, minlength=instance.num_users),
                  out=user_ptr[1:])
        return cls(
            num_users=instance.num_users,
            horizon=instance.horizon,
            display_limit=instance.display_limit,
            user_ptr=user_ptr,
            pair_item=items[order],
            pair_probs=probs[order],
            prices=instance.prices,
            capacities=instance.capacities,
            betas=instance.betas,
            item_class=item_class,
            name=instance.name,
            source_version=version,
        )

    def _validate_shapes(self) -> None:
        """Cheap structural checks (safe for lazily memory-mapped tensors)."""
        n_items = self.item_class.shape[0]
        n_pairs = self.pair_item.shape[0]
        if self.user_ptr.shape != (self.num_users + 1,):
            raise ValueError("user_ptr must have num_users + 1 entries")
        if self.user_ptr[0] != 0 or self.user_ptr[-1] != n_pairs:
            raise ValueError("user_ptr must start at 0 and end at n_pairs")
        if np.any(np.diff(self.user_ptr) < 0):
            raise ValueError("user_ptr must be non-decreasing")
        if self.pair_probs.shape != (n_pairs, self.horizon):
            raise ValueError(
                f"pair_probs must have shape ({n_pairs}, {self.horizon}), "
                f"got {self.pair_probs.shape}"
            )
        if self.prices.shape != (n_items, self.horizon):
            raise ValueError("prices must have shape (n_items, horizon)")
        if self.capacities.shape != (n_items,):
            raise ValueError("capacities must have one entry per item")
        if self.betas.shape != (n_items,):
            raise ValueError("betas must have one entry per item")

    def _validate(self) -> None:
        n_items = self.item_class.shape[0]
        n_pairs = self.pair_item.shape[0]
        if n_pairs and (self.pair_item.min() < 0
                        or self.pair_item.max() >= n_items):
            raise ValueError("pair_item entries must be valid item ids")
        # The searchsorted lookups require strictly increasing keys, i.e.
        # pairs sorted by (user, item) with no duplicates.
        if np.any(np.diff(self._pair_keys) <= 0):
            raise ValueError(
                "pairs must be sorted by (user, item) and unique; "
                "items must be strictly increasing within each user"
            )
        if np.isnan(self.pair_probs).any():
            raise ValueError("pair_probs must not contain NaN")
        if np.any((self.pair_probs < 0.0) | (self.pair_probs > 1.0)):
            raise ValueError("pair_probs must lie in [0, 1]")

    # ------------------------------------------------------------------
    # sizes and diagnostics
    # ------------------------------------------------------------------
    @property
    def pair_user(self) -> np.ndarray:
        """User id of every pair row, shape ``(n_pairs,)`` (lazy)."""
        if self._pair_user is None:
            counts = np.diff(self.user_ptr)
            self._pair_user = np.repeat(
                np.arange(self.num_users, dtype=np.int64), counts
            )
        return self._pair_user

    @property
    def _pair_keys(self) -> np.ndarray:
        """Sorted (user, item) keys for vectorized row lookups (lazy)."""
        if self._keys is None:
            self._keys = self.pair_user * self._key_stride + self.pair_item
        return self._keys

    @property
    def num_items(self) -> int:
        """Number of items ``|I|``."""
        return int(self.item_class.shape[0])

    @property
    def num_pairs(self) -> int:
        """Number of candidate (user, item) pairs (CSR rows)."""
        return int(self.pair_item.shape[0])

    @property
    def num_classes(self) -> int:
        """Number of distinct item classes."""
        return int(np.unique(self.item_class).shape[0])

    def num_candidate_triples(self) -> int:
        """Count (pair, t) entries with positive primitive probability."""
        return int(np.count_nonzero(self.pair_probs > 0.0))

    def memory_footprint(self) -> Dict[str, int]:
        """Per-tensor byte sizes plus a ``"total"`` entry.

        Derived tensors (``pair_user``, the lookup keys, the cached
        isolated-revenue matrix and the group index) are included once they
        have materialized -- the footprint reflects what the compilation
        actually holds resident, not just the inputs.
        """
        tensors = {
            "user_ptr": self.user_ptr,
            "pair_item": self.pair_item,
            "pair_probs": self.pair_probs,
            "prices": self.prices,
            "capacities": self.capacities,
            "betas": self.betas,
            "item_class": self.item_class,
        }
        if self._pair_user is not None:
            tensors["pair_user"] = self._pair_user
        if self._keys is not None:
            tensors["pair_keys"] = self._keys
        if self._isolated is not None:
            tensors["isolated_revenues"] = self._isolated
        if self._groups is not None:
            pair_group, group_user, group_class = self._groups
            tensors["pair_group"] = pair_group
            tensors["group_user"] = group_user
            tensors["group_class"] = group_class
        footprint = {key: int(array.nbytes) for key, array in tensors.items()}
        footprint["total"] = sum(footprint.values())
        return footprint

    def replace(self, prices: Optional[np.ndarray] = None,
                capacities: Optional[np.ndarray] = None,
                betas: Optional[np.ndarray] = None,
                item_class: Optional[np.ndarray] = None,
                name: Optional[str] = None) -> "CompiledInstance":
        """A compilation with some per-item tensors swapped, CSR shared.

        The candidate table is independent of prices, capacities, betas and
        the class assignment, so derived instances (``with_betas``,
        ``with_capacities``, ``with_singleton_classes``) transplant their
        donor's CSR arrays instead of re-walking the adoption table.  The
        cached isolated-revenue matrix carries over too whenever the prices
        are unchanged (it only depends on prices and probabilities).
        """
        derived = CompiledInstance(
            num_users=self.num_users,
            horizon=self.horizon,
            display_limit=self.display_limit,
            user_ptr=self.user_ptr,
            pair_item=self.pair_item,
            pair_probs=self.pair_probs,
            prices=self.prices if prices is None else prices,
            capacities=self.capacities if capacities is None else capacities,
            betas=self.betas if betas is None else betas,
            item_class=self.item_class if item_class is None else item_class,
            name=self.name if name is None else name,
            source_version=self.source_version,
            # The shared CSR tensors were validated when first compiled.
            validate=False,
        )
        if prices is None:
            derived._isolated = self._isolated
        # The row-derived tensors depend only on the shared CSR (the item
        # count is fixed by the shape checks), so any materialized caches
        # carry over.
        derived._pair_user = self._pair_user
        derived._keys = self._keys
        derived._row_lists = self._row_lists
        derived._item_rows = self._item_rows
        return derived

    # ------------------------------------------------------------------
    # in-place deltas (the dynamic re-solve layer)
    # ------------------------------------------------------------------
    def _item_rows_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSC-style index grouping pair rows by item (lazy).

        Returns ``(order, ptr)`` with ``order[ptr[i] : ptr[i + 1]]`` the pair
        rows of item ``i``.  Used by :meth:`apply_delta` to invalidate only
        the isolated-revenue cells a price update can touch; invalidated when
        a delta appends new CSR rows.
        """
        if self._item_rows is None:
            order = np.argsort(self.pair_item, kind="stable")
            ptr = np.zeros(self.num_items + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(self.pair_item, minlength=self.num_items),
                out=ptr[1:],
            )
            self._item_rows = (order.astype(np.int64, copy=False), ptr)
        return self._item_rows

    def rows_of_item(self, item: int) -> np.ndarray:
        """Pair rows whose item is ``item`` (ascending row order).

        The stable argsort in :meth:`_item_rows_index` preserves the
        original row order within each item bucket, so the slice is
        already ascending.
        """
        if not 0 <= item < self.num_items:
            raise ValueError(
                f"item {item} outside 0..{self.num_items - 1}"
            )
        order, ptr = self._item_rows_index()
        return order[ptr[item]:ptr[item + 1]]

    def _writable(self, name: str) -> np.ndarray:
        """A writable view of tensor ``name``, copying once if needed.

        Tensors memory-mapped from an ``.npz`` archive (or attached through
        read-only shared memory) cannot be patched in place; the first delta
        that touches such a tensor replaces it with an owned, writable copy.
        Consumers holding the *compilation* see the swap transparently;
        anything that grabbed the old array object keeps the pre-delta
        values (which is why :func:`repro.dynamic.apply_delta` re-syncs the
        wrapping instance's references).
        """
        array = getattr(self, name)
        if not array.flags.writeable:
            array = np.array(array)
            setattr(self, name, array)
        return array

    def apply_delta(self, delta) -> None:
        """Patch the compiled tensors in place per an ``InstanceDelta``.

        Everything the delta does not name is untouched: no recompilation,
        no CSR re-sort, and the cached isolated-revenue matrix is repaired
        only in the rows/cells the delta can reach (probability updates
        rewrite their pair rows, price updates their item's ``(row, t)``
        cells, new users append freshly computed tail rows).  The whole
        delta is validated before the first write, so a rejected delta
        leaves the compilation unchanged.

        The mutation bumps :attr:`source_version`.  Callers holding this
        compilation inside a :class:`~repro.core.problem.RevMaxInstance`
        should go through :func:`repro.dynamic.apply_delta`, which keeps the
        instance's adoption-table version and tensor references in sync (and
        handles dict-backed tables).  A live
        :class:`~repro.core.revenue.RevenueModel` memoises nothing, so it
        reads the patched values at its next call.

        Args:
            delta: an :class:`repro.dynamic.delta.InstanceDelta`.

        Raises:
            ValueError: on out-of-range ids/times, probability updates for
                pairs absent from the candidate table, malformed vectors, or
                non-contiguous new-user ids; nothing is applied.
        """
        if delta.is_empty():
            return

        # -- validate everything up front (atomicity) -------------------
        delta.validate_ranges(self.num_items, self.horizon, self.num_users)
        prob_rows = None
        if delta.probability_updates:
            pairs = sorted(delta.probability_updates)
            users = np.fromiter((p[0] for p in pairs), dtype=np.int64,
                                count=len(pairs))
            items = np.fromiter((p[1] for p in pairs), dtype=np.int64,
                                count=len(pairs))
            rows = self.pair_rows(users, items)
            missing = np.flatnonzero(rows < 0)
            if missing.size:
                user, item = pairs[int(missing[0])]
                raise ValueError(
                    f"probability update for (user={user}, item={item}) "
                    f"names a pair absent from the candidate table; new "
                    f"pairs can only arrive with new users"
                )
            matrix = np.empty((len(pairs), self.horizon), dtype=np.float64)
            for index, pair in enumerate(pairs):
                matrix[index] = delta.probability_updates[pair]
            prob_rows = (rows, matrix)
        tail = None
        if delta.new_users:
            tail = self._flatten_new_users(delta)

        # -- apply ------------------------------------------------------
        if delta.price_updates:
            prices = self._writable("prices")
            for (item, t), price in delta.price_updates.items():
                prices[item, t] = price
        if delta.capacity_updates:
            capacities = self._writable("capacities")
            for item, capacity in delta.capacity_updates.items():
                capacities[item] = capacity
        if prob_rows is not None:
            rows, matrix = prob_rows
            self._writable("pair_probs")[rows] = matrix
            if self._isolated is not None:
                self._isolated[rows] = (
                    self.prices[self.pair_item[rows]] * matrix
                )
        if delta.price_updates and self._isolated is not None:
            # Probability rows above were recomputed against the *new*
            # prices already; here only the remaining rows of each
            # price-touched (item, t) cell need repair.
            for (item, t), price in delta.price_updates.items():
                rows = self.rows_of_item(item)
                self._isolated[rows, t] = price * self.pair_probs[rows, t]
        if tail is not None:
            self._append_users(*tail)
        self.source_version += 1

    def _flatten_new_users(self, delta):
        """Flatten the (already validated) new users' pairs to a CSR tail."""
        counts: List[int] = []
        tail_items: List[int] = []
        tail_vectors: List[np.ndarray] = []
        for user in sorted(delta.new_users):
            pairs = delta.new_users[user]
            for item in sorted(pairs):
                tail_items.append(item)
                tail_vectors.append(pairs[item])
            counts.append(len(pairs))
        return counts, tail_items, tail_vectors

    def _append_users(self, counts: List[int], tail_items: List[int],
                      tail_vectors: List[np.ndarray]) -> None:
        """Grow the CSR by a validated tail of new users' pairs."""
        n_new_users = len(counts)
        n_tail = len(tail_items)
        new_ptr = self.user_ptr[-1] + np.cumsum(
            np.asarray(counts, dtype=np.int64)
        )
        self.user_ptr = np.concatenate([np.asarray(self.user_ptr), new_ptr])
        items = np.asarray(tail_items, dtype=np.int64)
        probs = (
            np.asarray(tail_vectors, dtype=np.float64).reshape(
                n_tail, self.horizon
            )
        )
        self.pair_item = np.concatenate([np.asarray(self.pair_item), items])
        self.pair_probs = np.concatenate(
            [np.asarray(self.pair_probs), probs], axis=0
        )
        if self._isolated is not None:
            self._isolated = np.concatenate(
                [self._isolated, self.prices[items] * probs], axis=0
            )
        if self._pair_user is not None:
            tail_users = np.repeat(
                np.arange(self.num_users, self.num_users + n_new_users,
                          dtype=np.int64),
                counts,
            )
            self._pair_user = np.concatenate([self._pair_user, tail_users])
            if self._keys is not None:
                self._keys = np.concatenate([
                    self._keys, tail_users * self._key_stride + items
                ])
        else:
            self._keys = None
        self.num_users += n_new_users
        # Group index, item->rows index and the scalar lookup lists cover
        # rows that did not exist.
        self._groups = None
        self._item_rows = None
        self._row_lists = None

    # ------------------------------------------------------------------
    # row lookups
    # ------------------------------------------------------------------
    def pair_rows(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Vectorized (user, item) -> pair-row lookup (-1 where absent)."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if self.num_pairs == 0:
            return np.full(users.shape, -1, dtype=np.int64)
        # Out-of-range ids would alias other pairs' keys; rule them out.
        valid = ((users >= 0) & (users < self.num_users)
                 & (items >= 0) & (items < self._key_stride))
        keys = users * self._key_stride + items
        position = np.searchsorted(self._pair_keys, keys)
        position = np.minimum(position, self.num_pairs - 1)
        found = valid & (self._pair_keys[position] == keys)
        return np.where(found, position, -1)

    def pair_row(self, user: int, item: int) -> int:
        """Scalar (user, item) -> pair-row lookup (-1 when absent).

        Bisects the user's item-sorted CSR slice in list copies of
        ``user_ptr`` and ``pair_item``: a scalar ``np.searchsorted`` pays
        NumPy's Python-level dispatch, several times the cost of the
        bisection itself.  Same answers as :meth:`pair_rows`.
        """
        if (user < 0 or user >= self.num_users
                or item < 0 or item >= self._key_stride):
            return -1
        lists = self._row_lists
        if lists is None:
            lists = self._row_lists = (self.user_ptr.tolist(),
                                       self.pair_item.tolist())
        user_ptr, pair_item = lists
        stop = user_ptr[user + 1]
        position = bisect_left(pair_item, item, user_ptr[user], stop)
        if position < stop and pair_item[position] == item:
            return position
        return -1

    # ------------------------------------------------------------------
    # candidate ground set
    # ------------------------------------------------------------------
    def isolated_revenues(self) -> np.ndarray:
        """The ``(n_pairs, T)`` matrix ``p(i, t) * q(u, i, t)`` (cached).

        Entry ``[p, t]`` is the isolated expected revenue of the candidate
        triple ``(pair_user[p], pair_item[p], t)`` -- the quantity heap
        seeding and the TopRE baseline rank by.  The multiplication matches
        :meth:`RevMaxInstance.expected_isolated_revenue` bit for bit.
        """
        if self._isolated is None:
            self._isolated = self.prices[self.pair_item] * self.pair_probs
        return self._isolated

    #: Pair rows converted per block by :meth:`candidate_triples`, bounding
    #: the transient Python lists while keeping the conversion vectorized.
    _TRIPLE_CHUNK = 65_536

    def candidate_triples(self) -> Iterator[Triple]:
        """Yield candidate triples (positive primitive q) in CSR order."""
        for start in range(0, self.num_pairs, self._TRIPLE_CHUNK):
            stop = min(start + self._TRIPLE_CHUNK, self.num_pairs)
            rows, times = np.nonzero(self.pair_probs[start:stop] > 0.0)
            users = self.pair_user[start:stop][rows].tolist()
            items = self.pair_item[start:stop][rows].tolist()
            for user, item, t in zip(users, items, times.tolist()):
                yield Triple(user, item, t)

    # ------------------------------------------------------------------
    # dense (user, class) group index (lazy)
    # ------------------------------------------------------------------
    def _ensure_groups(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._groups is None:
            stride = int(self.item_class.max()) + 1 if self.num_items else 1
            pair_class = self.item_class[self.pair_item]
            keys = self.pair_user * stride + pair_class
            unique, inverse = np.unique(keys, return_inverse=True)
            self._groups = (inverse.astype(np.int64), unique // stride,
                            unique % stride)
        return self._groups

    @property
    def pair_group(self) -> np.ndarray:
        """Dense (user, class) group id of every pair, shape ``(n_pairs,)``."""
        return self._ensure_groups()[0]

    @property
    def group_user(self) -> np.ndarray:
        """User id of every dense group, shape ``(num_groups,)``."""
        return self._ensure_groups()[1]

    @property
    def group_class(self) -> np.ndarray:
        """Class id of every dense group, shape ``(num_groups,)``."""
        return self._ensure_groups()[2]

    @property
    def num_groups(self) -> int:
        """Number of non-empty (user, class) candidate groups."""
        return int(self._ensure_groups()[1].shape[0])

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def as_instance(self, catalog: Optional[ItemCatalog] = None,
                    name: Optional[str] = None):
        """Wrap the compilation as a columnar-backed ``RevMaxInstance``.

        The returned instance's adoption table is a read-only
        :class:`ColumnarAdoptionTable` view over ``pair_probs`` -- no pair
        dict exists -- and its ``compiled()`` returns this object for free.
        """
        from repro.core.problem import RevMaxInstance

        instance = RevMaxInstance(
            num_users=self.num_users,
            catalog=catalog if catalog is not None
            else ItemCatalog.from_assignment(self.item_class.tolist()),
            horizon=self.horizon,
            display_limit=self.display_limit,
            prices=self.prices,
            capacities=self.capacities,
            betas=self.betas,
            adoption=ColumnarAdoptionTable(self),
            name=name if name is not None else self.name,
        )
        instance._compiled = self
        return instance

    def to_instance(self, catalog: Optional[ItemCatalog] = None,
                    name: Optional[str] = None):
        """Materialize a plain dict-backed ``RevMaxInstance`` (object path)."""
        from repro.core.problem import AdoptionTable, RevMaxInstance

        table = AdoptionTable(self.horizon)
        users = self.pair_user.tolist()
        items = self.pair_item.tolist()
        for row, (user, item) in enumerate(zip(users, items)):
            table.set(user, item, self.pair_probs[row].copy())
        return RevMaxInstance(
            num_users=self.num_users,
            catalog=catalog if catalog is not None
            else ItemCatalog.from_assignment(self.item_class.tolist()),
            horizon=self.horizon,
            display_limit=self.display_limit,
            prices=self.prices,
            capacities=self.capacities,
            betas=self.betas,
            adoption=table,
            name=name if name is not None else self.name,
        )


# Import placed after CompiledInstance so the AdoptionTable base class (which
# problem.py defines without importing this module) is available; compiled.py
# is imported lazily from problem.py, never the other way at module load.
from repro.core.problem import AdoptionTable  # noqa: E402


class ColumnarAdoptionTable(AdoptionTable):
    """Read-only ``AdoptionTable`` view over a compiled candidate table.

    Implements the full query interface of the dict-backed table against the
    CSR tensors, so columnar instances flow through every existing algorithm
    unchanged -- without ever materializing a per-pair dict.  Iteration
    orders follow the CSR layout (users ascending, items ascending within a
    user) rather than dict-insertion order.  Mutation is rejected.
    """

    def __init__(self, compiled: CompiledInstance) -> None:
        super().__init__(compiled.horizon)
        self.compiled = compiled

    def set(self, user: int, item: int, probabilities) -> None:
        raise TypeError(
            "ColumnarAdoptionTable is read-only; materialize a mutable copy "
            "with CompiledInstance.to_instance() first"
        )

    def __len__(self) -> int:
        return self.compiled.num_pairs

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        user, item = pair
        return self.compiled.pair_row(int(user), int(item)) >= 0

    def get(self, user: int, item: int) -> Optional[np.ndarray]:
        row = self.compiled.pair_row(int(user), int(item))
        if row < 0:
            return None
        return self.compiled.pair_probs[row]

    def probability(self, user: int, item: int, t: int) -> float:
        row = self.compiled.pair_row(int(user), int(item))
        if row < 0:
            return 0.0
        return float(self.compiled.pair_probs[row, t])

    def items_for_user(self, user: int) -> List[int]:
        compiled = self.compiled
        if user < 0 or user >= compiled.num_users:
            return []
        start, stop = compiled.user_ptr[user], compiled.user_ptr[user + 1]
        return compiled.pair_item[start:stop].tolist()

    def users(self) -> List[int]:
        return np.flatnonzero(np.diff(self.compiled.user_ptr)).tolist()

    def pairs(self) -> Iterator[Tuple[int, int]]:
        return iter(zip(self.compiled.pair_user.tolist(),
                        self.compiled.pair_item.tolist()))

    def positive_triples(self) -> Iterator[Triple]:
        return self.compiled.candidate_triples()

    def num_positive_triples(self) -> int:
        return self.compiled.num_candidate_triples()
