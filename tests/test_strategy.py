"""Tests for the Strategy container."""

from __future__ import annotations

import timeit

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.entities import ItemCatalog, Triple
from repro.core.strategy import Strategy


@pytest.fixture
def catalog():
    # items 0,1 share class 0; item 2 is class 1.
    return ItemCatalog(item_class=[0, 0, 1])


class TestStrategyBasics:
    def test_empty(self, catalog):
        strategy = Strategy(catalog)
        assert len(strategy) == 0
        assert Triple(0, 0, 0) not in strategy
        assert strategy.triples() == set()

    def test_add_and_contains(self, catalog):
        strategy = Strategy(catalog)
        strategy.add(Triple(0, 1, 2))
        assert Triple(0, 1, 2) in strategy
        assert (0, 1, 2) in strategy
        assert len(strategy) == 1

    def test_add_duplicate_raises(self, catalog):
        strategy = Strategy(catalog)
        strategy.add(Triple(0, 0, 0))
        with pytest.raises(ValueError):
            strategy.add(Triple(0, 0, 0))

    def test_remove(self, catalog):
        strategy = Strategy(catalog, [Triple(0, 0, 0), Triple(0, 1, 1)])
        strategy.remove(Triple(0, 0, 0))
        assert Triple(0, 0, 0) not in strategy
        assert len(strategy) == 1

    def test_remove_missing_raises(self, catalog):
        with pytest.raises(KeyError):
            Strategy(catalog).remove(Triple(0, 0, 0))

    def test_copy_is_independent(self, catalog):
        strategy = Strategy(catalog, [Triple(0, 0, 0)])
        clone = strategy.copy()
        clone.add(Triple(1, 2, 0))
        assert len(strategy) == 1
        assert len(clone) == 2

    def test_sorted_triples_chronological(self, catalog):
        strategy = Strategy(catalog, [Triple(1, 0, 2), Triple(0, 2, 0), Triple(0, 0, 1)])
        assert strategy.sorted_triples() == [
            Triple(0, 2, 0), Triple(0, 0, 1), Triple(1, 0, 2),
        ]

    def test_clear(self, catalog):
        strategy = Strategy(catalog, [Triple(0, 0, 0)])
        strategy.clear()
        assert len(strategy) == 0
        assert strategy.display_count(0, 0) == 0


class TestStrategyGrouping:
    def test_group_by_user_and_class(self, catalog):
        strategy = Strategy(catalog, [
            Triple(0, 0, 0), Triple(0, 1, 1), Triple(0, 2, 0), Triple(1, 0, 0),
        ])
        group = strategy.group(0, 0)
        assert set(group) == {Triple(0, 0, 0), Triple(0, 1, 1)}
        assert strategy.group(0, 1) == [Triple(0, 2, 0)]
        assert strategy.group(1, 0) == [Triple(1, 0, 0)]
        assert strategy.group(5, 5) == []

    def test_group_of_triple(self, catalog):
        strategy = Strategy(catalog, [Triple(0, 0, 0), Triple(0, 1, 1)])
        group = strategy.group_of_triple(Triple(0, 1, 1))
        assert set(group) == {Triple(0, 0, 0), Triple(0, 1, 1)}

    def test_group_size(self, catalog):
        strategy = Strategy(catalog, [Triple(0, 0, 0), Triple(0, 1, 1)])
        assert strategy.group_size(0, 0) == 2
        assert strategy.group_size(0, 1) == 0

    def test_groups_iteration(self, catalog):
        strategy = Strategy(catalog, [Triple(0, 0, 0), Triple(1, 2, 1)])
        groups = dict(strategy.groups())
        assert set(groups) == {(0, 0), (1, 1)}


class TestStrategyConstraintsBookkeeping:
    def test_display_count(self, catalog):
        strategy = Strategy(catalog, [Triple(0, 0, 1), Triple(0, 2, 1), Triple(0, 0, 0)])
        assert strategy.display_count(0, 1) == 2
        assert strategy.display_count(0, 0) == 1
        assert strategy.display_count(1, 0) == 0

    def test_item_audience(self, catalog):
        strategy = Strategy(catalog, [Triple(0, 0, 0), Triple(1, 0, 1), Triple(0, 0, 2)])
        assert strategy.item_audience(0) == {0, 1}
        assert strategy.item_audience_size(0) == 2
        assert strategy.item_audience_size(1) == 0

    def test_user_has_item(self, catalog):
        strategy = Strategy(catalog, [Triple(0, 0, 0)])
        assert strategy.user_has_item(0, 0)
        assert not strategy.user_has_item(1, 0)

    def test_remove_keeps_audience_when_repeated(self, catalog):
        strategy = Strategy(catalog, [Triple(0, 0, 0), Triple(0, 0, 1)])
        strategy.remove(Triple(0, 0, 0))
        assert strategy.user_has_item(0, 0)
        strategy.remove(Triple(0, 0, 1))
        assert not strategy.user_has_item(0, 0)

    def test_repeat_counts(self, catalog):
        strategy = Strategy(catalog, [Triple(0, 0, 0), Triple(0, 0, 1), Triple(0, 1, 0)])
        counts = strategy.repeat_counts()
        assert counts[(0, 0)] == 2
        assert counts[(0, 1)] == 1

    def test_per_time_counts(self, catalog):
        strategy = Strategy(catalog, [Triple(0, 0, 0), Triple(1, 0, 0), Triple(0, 1, 2)])
        assert strategy.per_time_counts() == {0: 2, 2: 1}


class TestStrategyProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 4)),
            min_size=0, max_size=30, unique=True,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_add_then_remove_restores_empty_state(self, raw_triples):
        catalog = ItemCatalog(item_class=[0, 0, 1])
        strategy = Strategy(catalog)
        triples = [Triple(*t) for t in raw_triples]
        for triple in triples:
            strategy.add(triple)
        assert len(strategy) == len(triples)
        # Bookkeeping must agree with a from-scratch rebuild.
        rebuilt = Strategy(catalog, triples)
        assert rebuilt.triples() == strategy.triples()
        for triple in triples:
            strategy.remove(triple)
        assert len(strategy) == 0
        assert strategy.per_time_counts() == {}
        assert strategy.repeat_counts() == {}
        for item in range(3):
            assert strategy.item_audience_size(item) == 0


def _added_one_by_one(catalog, triples):
    strategy = Strategy(catalog)
    for triple in triples:
        strategy.add(triple)
    return strategy


def _indexes(strategy):
    """Every index a strategy keeps, in its iteration order."""
    return (list(strategy.groups()), list(strategy._display_count.items()),
            strategy._item_users, strategy.sorted_triples(),
            strategy.triples())


_RAW_TRIPLES = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 3)),
    max_size=40, unique=True,
)


class TestBulkFill:
    """``Strategy(catalog, triples)`` indexes exactly as repeated ``add``."""

    @pytest.fixture
    def wide_catalog(self):
        return ItemCatalog(item_class=[0, 1, 0, 2])

    @given(_RAW_TRIPLES)
    @settings(max_examples=100, deadline=None)
    def test_equals_one_add_per_triple(self, raw_triples):
        catalog = ItemCatalog(item_class=[0, 1, 0, 2])
        triples = [Triple(*raw) for raw in raw_triples]
        expected = _indexes(_added_one_by_one(catalog, triples))
        assert _indexes(Strategy(catalog, triples)) == expected
        assert _indexes(Strategy(catalog, raw_triples)) == expected
        assert _indexes(Strategy(catalog, iter(raw_triples))) == expected
        assert _indexes(Strategy(catalog, (Triple(*raw)
                                           for raw in raw_triples))) == expected

    def test_stores_triples_whatever_the_input_type(self, wide_catalog):
        strategy = Strategy(wide_catalog, [(0, 1, 2), Triple(1, 2, 0)])
        assert all(type(triple) is Triple for triple in strategy)
        assert all(type(triple) is Triple
                   for _, group in strategy.groups() for triple in group)

    @pytest.mark.parametrize("source", [list, iter])
    def test_duplicate_raises_as_add_does(self, wide_catalog, source):
        triples = [Triple(0, 0, 0), Triple(1, 2, 1), Triple(1, 2, 1),
                   Triple(0, 0, 0)]
        with pytest.raises(ValueError) as added:
            _added_one_by_one(wide_catalog, triples)
        with pytest.raises(ValueError) as bulk:
            Strategy(wide_catalog, source(triples))
        assert str(bulk.value) == str(added.value)
        assert "(u1, i2, t1)" in str(bulk.value)

    @given(_RAW_TRIPLES)
    @settings(max_examples=50, deadline=None)
    def test_copy_equals_its_source(self, raw_triples):
        catalog = ItemCatalog(item_class=[0, 1, 0, 2])
        source = Strategy(catalog, raw_triples)
        clone = source.copy()
        # The copy re-adds the member set, so group lists may list their
        # triples in another order; every index holds the same content.
        groups, display, audiences, chronological, members = _indexes(clone)
        expected = _indexes(source)
        assert ({key: set(group) for key, group in groups}
                == {key: set(group) for key, group in expected[0]})
        assert dict(display) == dict(expected[1])
        assert (audiences, chronological, members) == expected[2:]

    def test_empty_construction_costs_what_it_did(self, wide_catalog):
        class Before:
            """The constructor ``Strategy`` had before the one-pass fill."""

            def __init__(self, catalog, triples=None):
                self._catalog = catalog
                self._triples = set()
                self._by_user_class = {}
                self._display_count = {}
                self._item_users = {}
                if triples is not None:
                    for triple in triples:
                        self.add(triple)

        best = {Strategy: float("inf"), Before: float("inf")}
        for _ in range(7):
            for cls in best:
                best[cls] = min(best[cls], timeit.timeit(
                    lambda cls=cls: cls(wide_catalog), number=2000))
        assert best[Strategy] <= 1.5 * best[Before]
