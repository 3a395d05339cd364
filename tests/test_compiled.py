"""Tests for the columnar instance core (``repro.core.compiled``).

Four layers of guarantees:

* **round trips** -- ``CompiledInstance`` reproduces the object layout
  exactly: compiling, materializing back (``to_instance``) and re-compiling
  are lossless, bit for bit;
* **view parity** -- a columnar-backed instance answers every
  ``AdoptionTable`` query identically to the dict-backed original;
* **engine equivalence** -- ``RevenueModel`` revenues and marginal revenues
  on the compiled tensors match the python backend (the executable
  specification over the object layout) bit-identically wherever both run
  the scalar body, and to 1e-9 where the numpy backend vectorizes; G-Greedy
  selects identical strategies through the columnar frontier;
* **serialization** -- the ``.npz`` format round-trips losslessly and
  memory-maps its tensors on load.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.global_greedy import GlobalGreedy
from repro.core.compiled import ColumnarAdoptionTable, CompiledInstance
from repro.core.problem import AdoptionTable
from repro.core.revenue import VECTORIZE_MIN_GROUP, RevenueModel
from repro.core.strategy import Strategy
from repro.heaps.columnar import ColumnarFrontier
from repro import io as repro_io

from tests.conftest import build_random_instance


def _random_strategy(instance, size, seed):
    candidates = list(instance.candidate_triples())
    rng = np.random.default_rng(seed)
    rng.shuffle(candidates)
    return candidates[:size], candidates[size:]


def _assert_engines_agree(numpy_value, python_value, largest_group):
    """Exact where the numpy engine ran the scalar body, else to 1e-9."""
    if largest_group < VECTORIZE_MIN_GROUP:
        assert numpy_value == python_value
    else:
        assert numpy_value == pytest.approx(python_value, rel=1e-9,
                                            abs=1e-12)


class TestCompilation:
    def test_csr_layout(self, small_instance):
        compiled = small_instance.compiled()
        assert compiled.user_ptr.shape == (small_instance.num_users + 1,)
        assert compiled.user_ptr[0] == 0
        assert compiled.user_ptr[-1] == compiled.num_pairs
        assert compiled.pair_probs.shape == (
            compiled.num_pairs, small_instance.horizon
        )
        # Pairs sorted by (user, item); items strictly increasing per user.
        for user in range(small_instance.num_users):
            start, stop = compiled.user_ptr[user], compiled.user_ptr[user + 1]
            items = compiled.pair_item[start:stop]
            assert np.all(np.diff(items) > 0)
            assert np.all(compiled.pair_user[start:stop] == user)

    def test_compilation_is_cached(self, small_instance):
        assert small_instance.compiled_or_none() is None
        compiled = small_instance.compiled()
        assert small_instance.compiled_or_none() is compiled
        assert small_instance.compiled() is compiled

    def test_cache_invalidated_on_table_mutation(self, small_instance):
        compiled = small_instance.compiled()
        small_instance.adoption.set(0, 0, [0.5] * small_instance.horizon)
        recompiled = small_instance.compiled()
        assert recompiled is not compiled
        assert recompiled.pair_probs[recompiled.pair_row(0, 0), 0] == 0.5

    def test_pair_row_lookups(self, small_instance):
        compiled = small_instance.compiled()
        for user, item in small_instance.adoption.pairs():
            row = compiled.pair_row(user, item)
            assert compiled.pair_user[row] == user
            assert compiled.pair_item[row] == item
            assert np.array_equal(
                compiled.pair_probs[row], small_instance.adoption.get(user, item)
            )
        assert compiled.pair_row(10**6, 0) == -1
        assert compiled.pair_row(0, 10**6) == -1
        assert compiled.pair_row(-1, 0) == -1
        # Vectorized lookups apply the same bounds checks: out-of-range ids
        # must not alias other pairs' keys.
        rows = compiled.pair_rows(
            np.array([0, -1, 10**6, 0, 1]),
            np.array([compiled.num_items, 0, 0, -1, 10**6]),
        )
        assert np.all(rows == -1)

    def test_isolated_revenues_match_scalar(self, small_instance):
        compiled = small_instance.compiled()
        isolated = compiled.isolated_revenues()
        for triple in small_instance.candidate_triples():
            row = compiled.pair_row(triple.user, triple.item)
            assert isolated[row, triple.t] == (
                small_instance.expected_isolated_revenue(triple)
            )

    def test_group_index_covers_every_pair(self, small_instance):
        compiled = small_instance.compiled()
        assert compiled.pair_group.shape == (compiled.num_pairs,)
        assert compiled.num_groups == len(
            {(int(u), small_instance.class_of(int(i)))
             for u, i in zip(compiled.pair_user, compiled.pair_item)}
        )
        for row in range(compiled.num_pairs):
            group = compiled.pair_group[row]
            assert compiled.group_user[group] == compiled.pair_user[row]
            assert compiled.group_class[group] == small_instance.class_of(
                int(compiled.pair_item[row])
            )

    def test_memory_footprint_totals(self, small_instance):
        footprint = small_instance.compiled().memory_footprint()
        total = footprint.pop("total")
        assert total == sum(footprint.values())
        assert footprint["pair_probs"] > 0

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 10**6))
    def test_round_trip_is_lossless(self, seed):
        instance = build_random_instance(seed=seed)
        compiled = instance.compiled()
        materialized = compiled.to_instance(catalog=instance.catalog)
        assert set(materialized.adoption.pairs()) == set(
            instance.adoption.pairs()
        )
        for user, item in instance.adoption.pairs():
            assert np.array_equal(
                materialized.adoption.get(user, item),
                instance.adoption.get(user, item),
            )
        recompiled = CompiledInstance.from_instance(materialized)
        assert np.array_equal(recompiled.user_ptr, compiled.user_ptr)
        assert np.array_equal(recompiled.pair_item, compiled.pair_item)
        assert np.array_equal(recompiled.pair_probs, compiled.pair_probs)

    def test_validation_rejects_bad_tensors(self, small_instance):
        compiled = small_instance.compiled()
        bad_probs = compiled.pair_probs.copy()
        bad_probs[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            CompiledInstance(
                num_users=compiled.num_users, horizon=compiled.horizon,
                display_limit=compiled.display_limit,
                user_ptr=compiled.user_ptr, pair_item=compiled.pair_item,
                pair_probs=bad_probs, prices=compiled.prices,
                capacities=compiled.capacities, betas=compiled.betas,
                item_class=compiled.item_class,
            )
        with pytest.raises(ValueError, match="user_ptr"):
            CompiledInstance(
                num_users=compiled.num_users + 1, horizon=compiled.horizon,
                display_limit=compiled.display_limit,
                user_ptr=compiled.user_ptr, pair_item=compiled.pair_item,
                pair_probs=compiled.pair_probs, prices=compiled.prices,
                capacities=compiled.capacities, betas=compiled.betas,
                item_class=compiled.item_class,
            )


class TestColumnarAdoptionTable:
    def _views(self, seed=3):
        instance = build_random_instance(seed=seed)
        columnar = instance.compiled().as_instance(catalog=instance.catalog)
        return instance, columnar

    def test_query_parity_with_dict_table(self):
        instance, columnar = self._views()
        dict_table, view = instance.adoption, columnar.adoption
        assert isinstance(view, ColumnarAdoptionTable)
        assert len(view) == len(dict_table)
        assert set(view.pairs()) == set(dict_table.pairs())
        assert sorted(view.users()) == sorted(dict_table.users())
        assert view.num_positive_triples() == dict_table.num_positive_triples()
        assert set(view.positive_triples()) == set(dict_table.positive_triples())
        for user in dict_table.users():
            assert sorted(view.items_for_user(user)) == sorted(
                dict_table.items_for_user(user)
            )
            for item in dict_table.items_for_user(user):
                assert (user, item) in view
                assert np.array_equal(
                    view.get(user, item), dict_table.get(user, item)
                )
                for t in range(instance.horizon):
                    assert view.probability(user, item, t) == (
                        dict_table.probability(user, item, t)
                    )
        assert view.get(10**6, 0) is None
        assert view.probability(10**6, 0, 0) == 0.0
        assert (10**6, 0) not in view

    def test_view_is_read_only(self):
        _, columnar = self._views()
        with pytest.raises(TypeError, match="read-only"):
            columnar.adoption.set(0, 0, [0.1] * columnar.horizon)

    def test_columnar_instance_compiles_for_free(self):
        _, columnar = self._views()
        compiled = columnar.compiled()
        assert compiled is columnar.compiled_or_none()
        assert CompiledInstance.from_instance(columnar).pair_probs is (
            compiled.pair_probs
        )


class TestEngineEquivalence:
    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 10**6))
    def test_revenues_bit_identical_to_object_path(self, seed):
        instance = build_random_instance(
            num_users=6, num_items=6, num_classes=2, horizon=4, seed=seed
        )
        selected, remaining = _random_strategy(instance, 12, seed)
        strategy = Strategy(instance.catalog, selected)
        compiled_model = RevenueModel(instance, backend="numpy")
        python_model = RevenueModel(instance, backend="python")
        largest = max((len(group) for _, group in strategy.groups()),
                      default=0)
        _assert_engines_agree(compiled_model.revenue(strategy),
                              python_model.revenue(strategy), largest)
        for triple in remaining[:8]:
            size = len(strategy.group_of_triple(triple)) + 1
            _assert_engines_agree(
                compiled_model.marginal_revenue(strategy, triple),
                python_model.marginal_revenue(strategy, triple), size,
            )
        assert compiled_model.evaluations == python_model.evaluations
        assert compiled_model.lookups == python_model.lookups

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 10**6))
    def test_batched_scoring_bit_identical(self, seed):
        instance = build_random_instance(
            num_users=6, num_items=8, num_classes=2, horizon=4, seed=seed
        )
        selected, remaining = _random_strategy(instance, 10, seed)
        strategy = Strategy(instance.catalog, selected)
        compiled_model = RevenueModel(instance, backend="numpy")
        python_model = RevenueModel(instance, backend="python")
        # A whole batch may take the broadcasted kernel: agreement to 1e-9.
        assert compiled_model.marginal_revenue_batch(strategy, remaining) == (
            pytest.approx(
                python_model.marginal_revenue_batch(strategy, remaining),
                rel=1e-9, abs=1e-12,
            )
        )
        # One-candidate batches vectorize only from VECTORIZE_MIN_GROUP on.
        for triple in remaining[:8]:
            size = len(strategy.group_of_triple(triple)) + 1
            _assert_engines_agree(
                compiled_model.marginal_revenue_batch(strategy, [triple]),
                python_model.marginal_revenue_batch(strategy, [triple]),
                size,
            )
        assert compiled_model.evaluations == python_model.evaluations
        assert compiled_model.lookups == python_model.lookups

    @settings(deadline=None, max_examples=6)
    @given(seed=st.integers(0, 10**6))
    def test_global_greedy_identical_through_columnar_frontier(self, seed):
        instance = build_random_instance(
            num_users=8, num_items=6, num_classes=3, horizon=3, seed=seed
        )
        compiled_result = GlobalGreedy().run(instance)
        legacy_result = GlobalGreedy(backend="python").run(instance)
        assert compiled_result.strategy.triples() == (
            legacy_result.strategy.triples()
        )
        assert compiled_result.revenue == legacy_result.revenue
        assert compiled_result.growth_curve == legacy_result.growth_curve

    def test_python_backend_never_compiles(self):
        # The reference the differential and golden suites compare against
        # must evaluate the adoption table itself, never the tensors.
        instance = build_random_instance(
            num_users=6, num_items=6, num_classes=2, horizon=4, seed=5
        )
        assert not isinstance(instance.adoption, ColumnarAdoptionTable)
        result = GlobalGreedy(backend="python").run(instance)
        assert len(result.strategy) > 0
        model = RevenueModel(instance, backend="python")
        selected, remaining = _random_strategy(instance, 6, seed=5)
        strategy = Strategy(instance.catalog, selected)
        model.revenue(strategy)
        model.marginal_revenue(strategy, remaining[0])
        model.marginal_revenue_batch(strategy, remaining)
        assert instance.compiled_or_none() is None
        # The numpy backend, by contrast, reads the compilation.
        RevenueModel(instance).revenue(strategy)
        assert instance.compiled_or_none() is not None

    def test_model_tracks_table_mutations_like_object_path(self):
        # A model built before an adoption mutation must evaluate the live
        # table (the compiled view is version-checked per evaluation), also
        # for groups large enough to hit the vectorized gather path.
        instance = build_random_instance(
            num_users=4, num_items=3, num_classes=1, horizon=12,
            density=1.0, seed=1,
        )
        group = [z for z in instance.candidate_triples() if z.user == 0][:35]
        strategy = Strategy(instance.catalog, group)
        model = RevenueModel(instance)
        model.revenue(strategy)  # compiles the pre-mutation tensors
        instance.adoption.set(0, 0, np.full(12, 0.9))
        after = model.revenue(strategy)
        assert after == RevenueModel(instance).revenue(strategy)
        assert after == pytest.approx(
            RevenueModel(instance, backend="python").revenue(strategy),
            rel=1e-9,
        )

        # The same through a delta on a columnar instance, whose compiled
        # tensors are patched in place rather than dropped.
        from repro.datasets.synthetic import (
            SyntheticConfig, generate_synthetic_columnar,
        )
        from repro.dynamic import InstanceDelta, apply_delta

        instance = generate_synthetic_columnar(SyntheticConfig(
            num_users=60, num_items=20, num_classes=4,
            candidates_per_user=6, horizon=4, seed=3,
        ))
        strategy = GlobalGreedy().run(instance).strategy
        model = RevenueModel(instance)
        before = model.revenue(strategy)
        user, item, _ = strategy.sorted_triples()[0]
        apply_delta(instance, InstanceDelta(
            probability_updates={(user, item): np.full(4, 0.9)},
        ))
        after = model.revenue(strategy)
        assert after != before
        assert after == RevenueModel(instance).revenue(strategy)

    def test_tied_priorities_identical_across_all_paths(self):
        # Exact priority ties must break identically whichever path seeds
        # the frontier: candidate iteration follows the canonical
        # (user, item, t) order even when the adoption dict was populated
        # in a different order.
        from repro.core.problem import RevMaxInstance

        prices = np.full((3, 2), 2.0)
        adoption = {}
        for pair in [(1, 2), (0, 1), (1, 0), (0, 0)]:  # scrambled insertion
            adoption[pair] = [0.6, 0.6]
        instance = RevMaxInstance.from_dense_adoption(
            prices=prices, adoption=adoption, item_class=[0, 0, 1],
            capacities=1, betas=0.3, display_limit=1, num_users=2,
        )
        variants = [
            GlobalGreedy(),
            GlobalGreedy(use_two_level_heap=False),
            GlobalGreedy(use_lazy_forward=False),
            GlobalGreedy(backend="python"),
        ]
        results = [algorithm.run(instance) for algorithm in variants]
        for result in results[1:]:
            assert result.strategy.triples() == results[0].strategy.triples()
            assert result.revenue == results[0].revenue

    def test_unsorted_pairs_rejected(self, small_instance):
        compiled = small_instance.compiled()
        order = np.arange(compiled.num_pairs)[::-1]
        with pytest.raises(ValueError, match="sorted"):
            CompiledInstance(
                num_users=compiled.num_users, horizon=compiled.horizon,
                display_limit=compiled.display_limit,
                user_ptr=compiled.user_ptr,
                pair_item=compiled.pair_item[order],
                pair_probs=compiled.pair_probs[order],
                prices=compiled.prices, capacities=compiled.capacities,
                betas=compiled.betas, item_class=compiled.item_class,
            )

    def test_columnar_backed_instance_solves_identically(self, small_instance):
        columnar = small_instance.compiled().as_instance(
            catalog=small_instance.catalog
        )
        a = GlobalGreedy().run(small_instance)
        b = GlobalGreedy().run(columnar)
        assert a.strategy.triples() == b.strategy.triples()
        assert a.revenue == b.revenue

    def test_out_of_range_allowed_times_match_legacy(self, small_instance):
        from repro.core.constraints import ConstraintChecker
        from repro.core.selection import SEED_ISOLATED, LazyGreedySelector

        # Negative or past-horizon times must simply match nothing -- in
        # particular -1 must not wrap around to the last time step.
        for times in ([-1], [small_instance.horizon], [-1, 0, 99]):
            results = {}
            for backend in ("numpy", "python"):
                strategy = Strategy(small_instance.catalog)
                model = RevenueModel(small_instance, backend=backend)
                LazyGreedySelector(
                    small_instance, model, ConstraintChecker(small_instance),
                    seed_priorities=SEED_ISOLATED,
                ).select(strategy, None, allowed_times=times)
                results[backend] = strategy.triples()
            assert results["numpy"] == results["python"]
            assert all(z.t in times for z in results["numpy"])

    def test_allowed_times_matches_legacy_filtering(self, small_instance):
        from repro.algorithms.incomplete_prices import SubHorizonWrapper

        compiled = SubHorizonWrapper(GlobalGreedy(), cutoffs=[1, 2]).run(
            small_instance
        )
        legacy = SubHorizonWrapper(
            GlobalGreedy(backend="python"), cutoffs=[1, 2]
        ).run(small_instance)
        assert compiled.strategy.triples() == legacy.strategy.triples()
        assert compiled.revenue == legacy.revenue


class TestColumnarFrontier:
    """The row-keyed frontier: entries are ``(row, t)`` cells."""

    def _frontier(self):
        priorities = np.array([[5.0, 7.0], [6.0, 0.0], [4.0, 9.0]])
        return ColumnarFrontier(priorities, priorities > 0.0)

    @staticmethod
    def _drain(frontier):
        popped = []
        while frontier:
            row, t, priority = frontier.peek()
            frontier.discard(row, t)
            popped.append((row, t, priority))
        return popped

    def test_peek_orders_globally(self):
        frontier = self._frontier()
        assert frontier.peek() == (2, 1, 9.0)
        assert frontier.times(0) == [0, 1]
        assert frontier.times(1) == [0]  # (1, 1) masked out (priority 0)
        assert self._drain(frontier) == [
            (2, 1, 9.0), (0, 1, 7.0), (1, 0, 6.0), (0, 0, 5.0), (2, 0, 4.0),
        ]

    def test_pop_discard_and_update(self):
        frontier = self._frontier()
        frontier.discard(2, 1)
        assert frontier.peek() == (0, 1, 7.0)
        frontier.update(0, [1], [1.0])
        assert frontier.peek() == (1, 0, 6.0)
        frontier.discard(1, 0)
        assert frontier.peek() == (0, 0, 5.0)
        frontier.discard(1, 0)  # already gone: no-op
        frontier.discard(0, 5)  # outside the horizon: no-op
        assert self._drain(frontier) == [
            (0, 0, 5.0), (2, 0, 4.0), (0, 1, 1.0),
        ]
        with pytest.raises(IndexError):
            frontier.peek()

    def test_update_rescores_whole_row(self):
        frontier = self._frontier()
        # One call re-scores every live entry of the row, even unmaterialized.
        frontier.update(0, [0, 1], [8.0, 2.5])
        assert frontier.times(0) == [0, 1]
        assert frontier.peek() == (2, 1, 9.0)
        frontier.discard(2, 1)
        assert frontier.peek() == (0, 0, 8.0)
        frontier.discard(0, 0)
        with pytest.raises(KeyError):
            frontier.update(0, [0], [1.0])  # discarded entry
        frontier.discard(0, 1)
        with pytest.raises(KeyError):
            frontier.update(0, [1], [1.0])  # dead row
        assert self._drain(frontier) == [(1, 0, 6.0), (2, 0, 4.0)]

    def test_drop_group(self):
        frontier = self._frontier()
        frontier.drop_group(2)
        assert frontier.times(2) == []
        assert frontier.peek() == (0, 1, 7.0)
        frontier.drop_group(2)  # already dead: no-op
        frontier.discard(2, 0)  # entry of a dead row: no-op
        assert self._drain(frontier) == [
            (0, 1, 7.0), (1, 0, 6.0), (0, 0, 5.0),
        ]

    def test_tie_breaks_by_row_then_time(self):
        # Priority descending, then row ascending, then t ascending -- also
        # after updates that leave rows tied again.
        priorities = np.full((3, 2), 3.0)
        frontier = ColumnarFrontier(priorities, priorities > 0.0)
        frontier.update(1, [1, 0], [3.0, 3.0])
        frontier.update(2, [0], [5.0])
        frontier.update(2, [0], [3.0])
        assert self._drain(frontier) == [
            (0, 0, 3.0), (0, 1, 3.0), (1, 0, 3.0), (1, 1, 3.0),
            (2, 0, 3.0), (2, 1, 3.0),
        ]

    def test_stale_duplicate_upper_entries_are_skipped(self):
        # Row 0's best goes A (5.0) -> B (3.0) -> A: the upper heap then
        # holds two (-5.0, 0) entries and a stale (-3.0, 0).  Once row 0's
        # best moves on, none of them may serve row 0 again.
        priorities = np.array([[5.0, 1.0], [4.0, 0.0]])
        frontier = ColumnarFrontier(priorities, priorities > 0.0)
        frontier.update(0, [0], [3.0])
        assert frontier.peek() == (1, 0, 4.0)
        frontier.update(0, [0], [5.0])
        assert frontier.peek() == (0, 0, 5.0)
        frontier.discard(0, 0)
        assert frontier.peek() == (1, 0, 4.0)
        frontier.discard(1, 0)
        assert frontier.peek() == (0, 1, 1.0)
        frontier.discard(0, 1)
        assert not frontier
        with pytest.raises(IndexError):
            frontier.peek()


class TestAdoptionValidation:
    def test_rejects_nan_naming_the_pair(self):
        table = AdoptionTable(3)
        with pytest.raises(ValueError, match=r"NaN"):
            table.set(4, 7, [0.1, float("nan"), 0.2])
        with pytest.raises(ValueError, match=r"user=4.*item=7"):
            table.set(4, 7, [0.1, float("nan"), 0.2])

    def test_rejects_out_of_range_naming_the_pair(self):
        table = AdoptionTable(2)
        with pytest.raises(ValueError, match=r"user=1.*item=2"):
            table.set(1, 2, [0.5, 1.5])
        with pytest.raises(ValueError, match=r"-0\.1"):
            table.set(0, 0, [-0.1, 0.5])

    def test_rejects_wrong_length_naming_the_pair(self):
        table = AdoptionTable(3)
        with pytest.raises(ValueError, match=r"user=2.*item=3"):
            table.set(2, 3, [0.5, 0.5])

    def test_valid_vectors_still_accepted(self):
        table = AdoptionTable(2)
        table.set(0, 0, [0.0, 1.0])
        assert table.probability(0, 0, 1) == 1.0


class TestNpzSerialization:
    def test_round_trip_and_memory_mapping(self, small_instance, tmp_path):
        path = tmp_path / "instance.npz"
        repro_io.save_instance_npz(small_instance, path)
        loaded = repro_io.load_instance_npz(path)
        compiled = loaded.compiled()
        original = small_instance.compiled()
        # Tensors are memory-mapped straight out of the archive.
        assert isinstance(compiled.pair_probs.base, np.memmap)
        assert np.array_equal(compiled.pair_probs, original.pair_probs)
        assert np.array_equal(compiled.user_ptr, original.user_ptr)
        assert np.array_equal(compiled.pair_item, original.pair_item)
        assert np.array_equal(compiled.prices, original.prices)
        assert loaded.name == small_instance.name
        assert loaded.num_users == small_instance.num_users
        assert loaded.display_limit == small_instance.display_limit

    def test_loaded_instance_solves_identically(self, small_instance, tmp_path):
        path = tmp_path / "instance.npz"
        repro_io.save_instance_npz(small_instance, path)
        a = GlobalGreedy().run(small_instance)
        for mmap in (True, False):
            loaded = repro_io.load_instance_npz(path, mmap=mmap)
            b = GlobalGreedy().run(loaded)
            assert a.revenue == b.revenue
            assert a.strategy.triples() == b.strategy.triples()

    def test_class_names_round_trip(self, small_instance, tmp_path):
        from repro.core.entities import ItemCatalog
        from repro.core.problem import RevMaxInstance

        named = RevMaxInstance(
            num_users=small_instance.num_users,
            catalog=ItemCatalog.from_assignment(
                small_instance.catalog.item_class, {0: "tablets", 1: "phones"}
            ),
            horizon=small_instance.horizon,
            display_limit=small_instance.display_limit,
            prices=small_instance.prices,
            capacities=small_instance.capacities,
            betas=small_instance.betas,
            adoption=small_instance.adoption,
        )
        path = tmp_path / "named.npz"
        repro_io.save_instance_npz(named, path)
        loaded = repro_io.load_instance_npz(path)
        assert loaded.catalog.class_names == {0: "tablets", 1: "phones"}

    def test_archive_is_a_plain_npz(self, small_instance, tmp_path):
        path = tmp_path / "instance.npz"
        repro_io.save_instance_npz(small_instance, path)
        with np.load(path, allow_pickle=False) as archive:
            assert str(archive["kind"]) == "revmax-instance-columnar"
            assert archive["pair_probs"].shape[1] == small_instance.horizon

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bogus.npz"
        with open(path, "wb") as handle:
            np.savez(handle, kind=np.str_("something-else"),
                     format_version=np.int64(1))
        with pytest.raises(ValueError, match="revmax-instance-columnar"):
            repro_io.load_instance_npz(path)


class TestColumnarGenerators:
    def test_synthetic_columnar_is_valid_and_dictless(self):
        from repro.datasets.synthetic import (
            SyntheticConfig, generate_synthetic_columnar,
        )

        config = SyntheticConfig(num_users=300, num_items=50, num_classes=10,
                                 candidates_per_user=8, horizon=4, seed=5)
        instance = generate_synthetic_columnar(config)
        assert isinstance(instance.adoption, ColumnarAdoptionTable)
        compiled = instance.compiled()
        assert compiled.num_pairs == 300 * 8
        assert compiled.num_candidate_triples() == 300 * 8 * 4
        # Every user has exactly 8 distinct, sorted candidate items.
        for user in range(300):
            items = instance.candidate_items(user)
            assert len(items) == 8
            assert len(set(items)) == 8
            assert items == sorted(items)
        # Anti-monotone matching within every pair: the cheapest price
        # carries the highest probability.
        rng = np.random.default_rng(0)
        for row in rng.integers(0, compiled.num_pairs, size=20):
            item = int(compiled.pair_item[row])
            order = np.argsort(instance.prices[item])
            probs = compiled.pair_probs[row][order]
            assert np.all(np.diff(probs) <= 0)
        result = GlobalGreedy().run(instance)
        assert result.revenue > 0


class TestPairRowLookup:
    """The scalar bisection lookup agrees with the vectorized one."""

    @staticmethod
    def _assert_matches_pair_rows(compiled):
        users = list(range(-2, compiled.num_users + 2)) + [10**6]
        items = list(range(-2, compiled.num_items + 2)) + [10**6]
        grid_users = np.repeat(users, len(items))
        grid_items = np.tile(items, len(users))
        expected = compiled.pair_rows(grid_users, grid_items).tolist()
        found = [compiled.pair_row(int(u), int(i))
                 for u, i in zip(grid_users, grid_items)]
        assert found == expected
        # Every stored pair is found, also through NumPy integers.
        for row, (user, item) in enumerate(zip(compiled.pair_user,
                                               compiled.pair_item)):
            assert compiled.pair_row(user, item) == row

    def test_matches_pair_rows(self, small_instance):
        self._assert_matches_pair_rows(small_instance.compiled())

    def test_empty_table(self):
        compiled = CompiledInstance(
            num_users=2, horizon=1, display_limit=1,
            user_ptr=np.zeros(3, dtype=np.int64),
            pair_item=np.zeros(0, dtype=np.int64),
            pair_probs=np.zeros((0, 1)), prices=np.ones((2, 1)),
            capacities=np.ones(2, dtype=int), betas=np.ones(2),
            item_class=np.zeros(2, dtype=np.int64),
        )
        self._assert_matches_pair_rows(compiled)

    def test_after_delta_appends_users(self):
        from repro.datasets.synthetic import (
            SyntheticConfig, generate_synthetic_columnar,
        )
        from repro.dynamic import InstanceDelta, apply_delta

        instance = generate_synthetic_columnar(SyntheticConfig(
            num_users=12, num_items=8, num_classes=2,
            candidates_per_user=3, horizon=2, seed=5,
        ))
        compiled = instance.compiled()
        self._assert_matches_pair_rows(compiled)  # builds the lookup lists
        apply_delta(instance, InstanceDelta(new_users={
            12: {1: [0.5, 0.5], 6: [0.2, 0.0]},
            13: {},
            14: {0: [0.1, 0.3]},
        }))
        assert instance.compiled() is compiled
        assert compiled.pair_row(12, 6) == compiled.num_pairs - 2
        assert compiled.pair_row(14, 0) == compiled.num_pairs - 1
        assert compiled.pair_row(13, 0) == -1
        self._assert_matches_pair_rows(compiled)
