"""Recommendation strategies (sets of user-item-time triples).

A :class:`Strategy` is the object the REVMAX algorithms build.  Besides the
bare set of triples it maintains the indices the revenue model and the
constraint checks need:

* the triples of each (user, class) group -- the only triples that interact
  in Definition 1 (competition + saturation are scoped to one user and one
  item class);
* the number of items recommended to each user at each time step (display
  constraint);
* the set of distinct users each item has been recommended to (capacity
  constraint).

The class is deliberately independent of the revenue function so it can be
reused by R-REVMAX, the simulators and the experiment harness.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.entities import ItemCatalog, Triple

__all__ = ["Strategy"]


class Strategy:
    """A mutable set of recommendation triples with constraint bookkeeping.

    Args:
        catalog: the item catalog providing the class function ``C(i)``; the
            strategy groups its triples by (user, class).
        triples: optional initial triples (``Triple`` or plain
            ``(user, item, t)`` tuples), indexed in one pass exactly as
            :meth:`add` would index them one by one.

    Raises:
        ValueError: if ``triples`` repeats a triple, as :meth:`add` does.
    """

    def __init__(self, catalog: ItemCatalog,
                 triples: Optional[Iterable[Triple]] = None) -> None:
        self._catalog = catalog
        self._triples: Set[Triple] = set()
        self._by_user_class: Dict[Tuple[int, int], List[Triple]] = {}
        self._display_count: Dict[Tuple[int, int], int] = {}
        self._item_users: Dict[int, Set[int]] = {}
        if triples is not None:
            self._fill(triples)

    def _fill(self, triples: Iterable[Triple]) -> None:
        """Index ``triples`` into the empty strategy as repeated :meth:`add`
        calls would, in one pass.

        The member set is built by one C-level ``set`` call and the
        columns by one ``zip``; the indexes take three short Python loops
        that make no method call on the strategy per triple.  Groups appear
        in first-seen order with their triples in input order, so
        :meth:`groups` iterates exactly as after per-triple adds.
        """
        triples = [triple if type(triple) is Triple else Triple(*triple)
                   for triple in triples]
        if not triples:
            return
        self._triples = set(triples)
        if len(self._triples) != len(triples):
            seen: Set[Triple] = set()
            for triple in triples:
                if triple in seen:
                    raise ValueError(f"triple already in strategy: {triple}")
                seen.add(triple)
        users, items, times = zip(*triples)
        groups = self._by_user_class
        keys = zip(users, map(self._catalog.class_of, items))
        for key, triple in zip(keys, triples):
            group = groups.get(key)
            if group is None:
                groups[key] = [triple]
            else:
                group.append(triple)
        display = self._display_count
        for slot in zip(users, times):
            display[slot] = display.get(slot, 0) + 1
        audiences = self._item_users
        for item, user in zip(items, users):
            audience = audiences.get(item)
            if audience is None:
                audiences[item] = {user}
            else:
                audience.add(user)

    # ------------------------------------------------------------------
    # set protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return Triple(*triple) in self._triples

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    @property
    def catalog(self) -> ItemCatalog:
        """The item catalog the strategy is grouped by."""
        return self._catalog

    def triples(self) -> Set[Triple]:
        """Return a copy of the underlying set of triples."""
        return set(self._triples)

    def sorted_triples(self) -> List[Triple]:
        """Return triples sorted by (time, user, item) -- presentation order.

        The paper notes that regardless of the order in which a greedy
        algorithm builds ``S``, recommendations are ultimately presented
        chronologically; this accessor realises that ordering.
        """
        return sorted(self._triples, key=lambda z: (z.t, z.user, z.item))

    def copy(self) -> "Strategy":
        """Return a deep copy of the strategy."""
        return Strategy(self._catalog, self._triples)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, triple: Triple) -> None:
        """Add ``triple`` to the strategy.

        Raises:
            ValueError: if the triple is already present.
        """
        triple = Triple(*triple)
        if triple in self._triples:
            raise ValueError(f"triple already in strategy: {triple}")
        self._triples.add(triple)
        group = (triple.user, self._catalog.class_of(triple.item))
        self._by_user_class.setdefault(group, []).append(triple)
        slot = (triple.user, triple.t)
        self._display_count[slot] = self._display_count.get(slot, 0) + 1
        self._item_users.setdefault(triple.item, set()).add(triple.user)

    def remove(self, triple: Triple) -> None:
        """Remove ``triple`` from the strategy.

        Raises:
            KeyError: if the triple is not present.
        """
        triple = Triple(*triple)
        if triple not in self._triples:
            raise KeyError(f"triple not in strategy: {triple}")
        self._triples.remove(triple)
        group = (triple.user, self._catalog.class_of(triple.item))
        self._by_user_class[group].remove(triple)
        if not self._by_user_class[group]:
            del self._by_user_class[group]
        slot = (triple.user, triple.t)
        self._display_count[slot] -= 1
        if self._display_count[slot] == 0:
            del self._display_count[slot]
        # Only drop the user from the item's audience when no other triple of
        # this strategy recommends the same item to the same user.
        still_recommended = any(
            z.item == triple.item and z.user == triple.user for z in self._triples
        )
        if not still_recommended:
            self._item_users[triple.item].discard(triple.user)
            if not self._item_users[triple.item]:
                del self._item_users[triple.item]

    def clear(self) -> None:
        """Remove every triple."""
        self._triples.clear()
        self._by_user_class.clear()
        self._display_count.clear()
        self._item_users.clear()

    # ------------------------------------------------------------------
    # queries used by the revenue model
    # ------------------------------------------------------------------
    def group(self, user: int, class_id: int) -> List[Triple]:
        """Return the triples of (user, class), unordered."""
        return list(self._by_user_class.get((user, class_id), []))

    def group_of_triple(self, triple: Triple) -> List[Triple]:
        """Return the (user, class) group the given triple interacts with."""
        return self.group(triple.user, self._catalog.class_of(triple.item))

    def group_size(self, user: int, class_id: int) -> int:
        """Return ``|set(u, c)|`` -- the lazy-forward freshness counter."""
        return len(self._by_user_class.get((user, class_id), []))

    def groups(self) -> Iterator[Tuple[Tuple[int, int], List[Triple]]]:
        """Iterate over ((user, class), triples) pairs."""
        for key, value in self._by_user_class.items():
            yield key, list(value)

    # ------------------------------------------------------------------
    # queries used by the constraints
    # ------------------------------------------------------------------
    def display_count(self, user: int, t: int) -> int:
        """Number of items recommended to ``user`` at time ``t``."""
        return self._display_count.get((user, t), 0)

    def item_audience(self, item: int) -> Set[int]:
        """Distinct users that ``item`` has been recommended to."""
        return set(self._item_users.get(item, set()))

    def item_audience_size(self, item: int) -> int:
        """Number of distinct users ``item`` has been recommended to."""
        return len(self._item_users.get(item, ()))

    def user_has_item(self, user: int, item: int) -> bool:
        """True if ``item`` is already recommended to ``user`` at some time."""
        return user in self._item_users.get(item, ())

    # ------------------------------------------------------------------
    # statistics used by the experiments
    # ------------------------------------------------------------------
    def repeat_counts(self) -> Dict[Tuple[int, int], int]:
        """Return how many times each (user, item) pair appears in the strategy.

        This is the quantity the Figure 5 histograms are computed from.
        """
        counts: Dict[Tuple[int, int], int] = {}
        for triple in self._triples:
            pair = (triple.user, triple.item)
            counts[pair] = counts.get(pair, 0) + 1
        return counts

    def per_time_counts(self) -> Dict[int, int]:
        """Return the number of triples scheduled at each time step."""
        counts: Dict[int, int] = {}
        for triple in self._triples:
            counts[triple.t] = counts.get(triple.t, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Strategy(size={len(self._triples)})"
