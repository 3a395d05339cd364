"""Tests for the addressable binary heap and the two-level heap."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, strategies as st

from repro.heaps import binary_heap
from repro.heaps.binary_heap import AddressableMaxHeap
from repro.heaps.two_level import TwoLevelHeap


class TestAddressableMaxHeap:
    def test_empty_heap_properties(self):
        heap = AddressableMaxHeap()
        assert len(heap) == 0
        assert not heap
        assert "x" not in heap

    def test_peek_empty_raises(self):
        with pytest.raises(IndexError):
            AddressableMaxHeap().peek()

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            AddressableMaxHeap().pop()

    def test_insert_and_peek(self):
        heap = AddressableMaxHeap()
        heap.insert("a", 1.0)
        heap.insert("b", 3.0)
        heap.insert("c", 2.0)
        assert heap.peek() == ("b", 3.0)
        assert len(heap) == 3

    def test_duplicate_insert_raises(self):
        heap = AddressableMaxHeap()
        heap.insert("a", 1.0)
        with pytest.raises(KeyError):
            heap.insert("a", 2.0)

    def test_pop_returns_descending_order(self):
        heap = AddressableMaxHeap()
        values = [5.0, 1.0, 9.0, 3.0, 7.0]
        for index, value in enumerate(values):
            heap.insert(f"k{index}", value)
        popped = [heap.pop()[1] for _ in range(len(values))]
        assert popped == sorted(values, reverse=True)

    def test_update_increase(self):
        heap = AddressableMaxHeap()
        heap.insert("a", 1.0)
        heap.insert("b", 2.0)
        heap.update("a", 10.0)
        assert heap.peek() == ("a", 10.0)

    def test_update_decrease(self):
        heap = AddressableMaxHeap()
        heap.insert("a", 10.0)
        heap.insert("b", 2.0)
        heap.update("a", 1.0)
        assert heap.peek() == ("b", 2.0)

    def test_push_inserts_or_updates(self):
        heap = AddressableMaxHeap()
        heap.push("a", 1.0)
        heap.push("a", 5.0)
        assert len(heap) == 1
        assert heap.priority("a") == 5.0

    def test_delete_returns_priority(self):
        heap = AddressableMaxHeap()
        heap.insert("a", 4.0)
        heap.insert("b", 2.0)
        assert heap.delete("a") == 4.0
        assert "a" not in heap
        assert heap.peek() == ("b", 2.0)

    def test_delete_missing_raises(self):
        with pytest.raises(KeyError):
            AddressableMaxHeap().delete("missing")

    def test_discard_missing_is_noop(self):
        heap = AddressableMaxHeap()
        heap.discard("missing")
        assert len(heap) == 0

    def test_get_with_default(self):
        heap = AddressableMaxHeap()
        heap.insert("a", 1.5)
        assert heap.get("a") == 1.5
        assert heap.get("missing") is None
        assert heap.get("missing", -1.0) == -1.0

    def test_tie_break_is_insertion_order(self):
        heap = AddressableMaxHeap()
        heap.insert("first", 1.0)
        heap.insert("second", 1.0)
        assert heap.pop()[0] == "first"
        assert heap.pop()[0] == "second"

    def test_clear(self):
        heap = AddressableMaxHeap()
        heap.insert("a", 1.0)
        heap.clear()
        assert len(heap) == 0
        assert "a" not in heap

    def test_items_and_keys(self):
        heap = AddressableMaxHeap()
        heap.insert("a", 1.0)
        heap.insert("b", 2.0)
        assert sorted(heap.keys()) == ["a", "b"]
        assert sorted(heap.items()) == [("a", 1.0), ("b", 2.0)]

    def test_random_mixed_operations_match_reference(self):
        rng = random.Random(7)
        heap = AddressableMaxHeap()
        reference = {}
        for step in range(500):
            action = rng.random()
            if action < 0.5 or not reference:
                key = f"key{step}"
                priority = rng.uniform(-100, 100)
                heap.insert(key, priority)
                reference[key] = priority
            elif action < 0.75:
                key = rng.choice(list(reference))
                priority = rng.uniform(-100, 100)
                heap.update(key, priority)
                reference[key] = priority
            else:
                key = rng.choice(list(reference))
                heap.delete(key)
                del reference[key]
            heap.check_invariants()
            if reference:
                best_key, best_priority = heap.peek()
                assert best_priority == max(reference.values())
                assert reference[best_key] == best_priority

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=60))
    def test_property_heap_sort_matches_sorted(self, values):
        heap = AddressableMaxHeap()
        for index, value in enumerate(values):
            heap.insert(index, value)
        drained = [heap.pop()[1] for _ in range(len(values))]
        assert drained == sorted(values, reverse=True)

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=20),
                      st.floats(min_value=-100, max_value=100, allow_nan=False)),
            min_size=1, max_size=50,
        )
    )
    def test_property_push_keeps_max_consistent(self, operations):
        heap = AddressableMaxHeap()
        reference = {}
        for key, priority in operations:
            heap.push(key, priority)
            reference[key] = priority
            heap.check_invariants()
            _, best = heap.peek()
            assert best == pytest.approx(max(reference.values()))


def _signed(pairs):
    """``(key, priority)`` pairs with the priority's sign bit spelled out."""
    return sorted((key, value, math.copysign(1.0, value)) for key, value in pairs)


_KEYS = st.integers(min_value=0, max_value=3)
# A few shared values make ties and p1 -> p2 -> p1 updates common; -0.0
# and 0.0 compare equal but the one passed last must be the one stored.
_PRIORITIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
)
# Upserts outweigh removals so dead entries pile up under a live top.
_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "push", "push", "update", "update",
                         "delete", "discard", "pop"]),
        _KEYS, _PRIORITIES,
    ),
    max_size=100,
)


class TestLazyHeapDifferential:
    """The lazy-deletion heap against a plain dict ordered by
    ``(-priority, insertion order)``."""

    @given(_OPERATIONS)
    @example([("insert", 0, 0.0), ("update", 0, -0.0), ("push", 0, 0.0),
              ("push", 0, -0.0), ("pop", 0, 0.0)])
    @example([("insert", 0, 1.0), ("insert", 1, 1.0), ("update", 0, 2.0),
              ("update", 0, 1.0), ("pop", 0, 0.0), ("discard", 2, 0.0),
              ("pop", 0, 0.0)])
    @example([("insert", 0, 50.0)] + [("push", 1, float(v)) for v in range(12)])
    def test_matches_dict_reference(self, operations):
        heap = AddressableMaxHeap()
        reference = {}  # key -> (priority, insertion order)
        inserted = 0

        def best():
            return min(reference, key=lambda k: (-reference[k][0],
                                                  reference[k][1]))

        for op, key, priority in operations:
            if op == "insert" or (op == "push" and key not in reference):
                if key in reference:
                    with pytest.raises(KeyError):
                        heap.insert(key, priority)
                else:
                    getattr(heap, op)(key, priority)
                    reference[key] = (priority, inserted)
                    inserted += 1
            elif op in ("push", "update"):
                if key in reference:
                    getattr(heap, op)(key, priority)
                    reference[key] = (priority, reference[key][1])
                else:
                    with pytest.raises(KeyError):
                        heap.update(key, priority)
            elif op == "delete":
                if key in reference:
                    expected = reference.pop(key)[0]
                    assert _signed([(key, heap.delete(key))]) == _signed(
                        [(key, expected)])
                else:
                    with pytest.raises(KeyError):
                        heap.delete(key)
            elif op == "discard":
                heap.discard(key)
                reference.pop(key, None)
            elif reference:
                top = best()
                assert _signed([heap.pop()]) == _signed(
                    [(top, reference.pop(top)[0])])
            else:
                with pytest.raises(IndexError):
                    heap.pop()

            assert len(heap) == len(reference)
            assert bool(heap) == bool(reference)
            assert sorted(heap.keys()) == sorted(reference)
            assert all((k in heap) == (k in reference) for k in range(4))
            assert _signed(heap.items()) == _signed(
                (k, value) for k, (value, _) in reference.items())
            if reference:
                top = best()
                assert _signed([heap.peek()]) == _signed(
                    [(top, reference[top][0])])
            else:
                with pytest.raises(IndexError):
                    heap.peek()
            # Lazy deletion must not grow the list without limit.
            assert len(heap._heap) <= binary_heap._SLACK * len(heap) + 1
            heap.check_invariants()


class TestTwoLevelHeap:
    def test_empty(self):
        heap = TwoLevelHeap()
        assert len(heap) == 0
        assert not heap
        with pytest.raises(IndexError):
            heap.peek()

    def test_insert_and_global_peek(self):
        heap = TwoLevelHeap()
        heap.insert("g1", "a", 1.0)
        heap.insert("g1", "b", 5.0)
        heap.insert("g2", "c", 3.0)
        assert heap.peek() == ("b", 5.0)
        assert heap.group_count == 2

    def test_duplicate_key_raises(self):
        heap = TwoLevelHeap()
        heap.insert("g1", "a", 1.0)
        with pytest.raises(KeyError):
            heap.insert("g2", "a", 2.0)

    def test_pop_across_groups(self):
        heap = TwoLevelHeap()
        heap.insert("g1", "a", 1.0)
        heap.insert("g2", "b", 9.0)
        heap.insert("g3", "c", 5.0)
        assert [heap.pop()[0] for _ in range(3)] == ["b", "c", "a"]
        assert len(heap) == 0
        assert heap.group_count == 0

    def test_update_moves_group_root(self):
        heap = TwoLevelHeap()
        heap.insert("g1", "a", 1.0)
        heap.insert("g2", "b", 2.0)
        heap.update("a", 10.0)
        assert heap.peek() == ("a", 10.0)
        heap.update("a", 0.5)
        assert heap.peek() == ("b", 2.0)

    def test_delete_last_entry_removes_group(self):
        heap = TwoLevelHeap()
        heap.insert("g1", "a", 1.0)
        heap.delete("a")
        assert heap.group_count == 0
        assert "a" not in heap

    def test_delete_group(self):
        heap = TwoLevelHeap()
        heap.insert("g1", "a", 1.0)
        heap.insert("g1", "b", 2.0)
        heap.insert("g2", "c", 3.0)
        heap.delete_group("g1")
        assert len(heap) == 1
        assert heap.peek() == ("c", 3.0)

    def test_group_membership_queries(self):
        heap = TwoLevelHeap()
        heap.insert("g1", "a", 1.0)
        heap.insert("g1", "b", 2.0)
        assert set(heap.group_keys("g1")) == {"a", "b"}
        assert heap.group_of("a") == "g1"
        assert heap.group_keys("missing") == []

    def test_priority_lookup(self):
        heap = TwoLevelHeap()
        heap.insert("g", "a", 4.0)
        assert heap.priority("a") == 4.0

    def test_items_iterates_everything(self):
        heap = TwoLevelHeap()
        heap.insert("g1", "a", 1.0)
        heap.insert("g2", "b", 2.0)
        assert sorted(heap.items()) == [("a", 1.0), ("b", 2.0)]

    def test_random_operations_match_flat_reference(self):
        rng = random.Random(11)
        heap = TwoLevelHeap()
        reference = {}
        for step in range(400):
            action = rng.random()
            if action < 0.5 or not reference:
                key = f"k{step}"
                group = f"g{rng.randint(0, 10)}"
                priority = rng.uniform(-50, 50)
                heap.insert(group, key, priority)
                reference[key] = priority
            elif action < 0.75:
                key = rng.choice(list(reference))
                priority = rng.uniform(-50, 50)
                heap.update(key, priority)
                reference[key] = priority
            else:
                key = rng.choice(list(reference))
                heap.delete(key)
                del reference[key]
            heap.check_invariants()
            if reference:
                _, best = heap.peek()
                assert best == pytest.approx(max(reference.values()))

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=5),
                      st.floats(min_value=-100, max_value=100, allow_nan=False)),
            min_size=1, max_size=40,
        )
    )
    def test_property_two_level_equals_flat(self, entries):
        """The two-level heap must order entries exactly like a flat heap."""
        two_level = TwoLevelHeap()
        flat = AddressableMaxHeap()
        for index, (group, priority) in enumerate(entries):
            two_level.insert(group, index, priority)
            flat.insert(index, priority)
        drained_two_level = [two_level.pop()[1] for _ in range(len(entries))]
        drained_flat = [flat.pop()[1] for _ in range(len(entries))]
        assert drained_two_level == drained_flat
