"""Tests for the dynamic re-solve layer (deltas + incremental G-Greedy).

Three layers, mirroring the module structure:

* delta validation and JSON round-trips (:mod:`repro.dynamic.delta`);
* in-place application to compiled tensors and live instances, asserting
  that a patched instance is value-identical to a freshly built mutated
  instance (:meth:`CompiledInstance.apply_delta`,
  :func:`repro.dynamic.apply_delta`);
* the incremental solver's core contract: across every delta kind and both
  re-solve modes (stream merge and cold fallback), ``resolve`` produces
  **bit-identical** strategies, admission orders and growth curves to a
  cold columnar G-Greedy on the mutated instance.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.global_greedy import GlobalGreedy
from repro.core.entities import Triple
from repro.core.problem import RevMaxInstance
from repro.core.selection import LazyGreedySelector, SelectionTrace
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_columnar
from repro.dynamic import (
    IncrementalSolver,
    InstanceDelta,
    apply_delta,
    load_delta,
    save_delta,
)
from repro import io as repro_io
from repro.dynamic import incremental
from tests.conftest import (
    PopLog,
    build_behind_instance,
    build_random_instance,
)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
#: Instance parameters whose solves usually drain the frontier (display
#: saturation), which is what makes the fast merge path eligible.
MERGE_FRIENDLY = dict(num_users=8, num_items=6, num_classes=3, horizon=3,
                      display_limit=2, capacity=8, beta=0.95, density=1.0)

#: Parameters that usually end at the non-positive break (fallback path).
BREAK_FRIENDLY = dict(num_users=7, num_items=5, num_classes=2, horizon=3,
                      display_limit=2, capacity=2, beta=0.3, density=0.7)


def random_delta(instance, seed: int, *, with_new_users: bool = True,
                 horizon: int = 3) -> InstanceDelta:
    """A delta touching every mutation kind, deterministic per seed."""
    rng = np.random.default_rng(seed)
    pairs = sorted(instance.adoption.pairs())
    picked = [pairs[i] for i in rng.choice(len(pairs), size=min(3, len(pairs)),
                                           replace=False)]
    new_users = {}
    if with_new_users:
        new_users = {
            instance.num_users: {
                0: rng.uniform(0.0, 1.0, size=horizon),
                2: rng.uniform(0.0, 1.0, size=horizon),
            },
            instance.num_users + 1: {
                1: rng.uniform(0.0, 1.0, size=horizon),
            },
        }
    return InstanceDelta(
        price_updates={
            (int(rng.integers(0, instance.num_items)),
             int(rng.integers(0, horizon))): float(rng.uniform(1.0, 80.0)),
        },
        probability_updates={
            pair: rng.uniform(0.0, 1.0, size=horizon) for pair in picked
        },
        capacity_updates={
            int(rng.integers(0, instance.num_items)): int(rng.integers(1, 10)),
        },
        new_users=new_users,
        name=f"test-delta-{seed}",
    )


def copy_delta(delta: InstanceDelta) -> InstanceDelta:
    """A deep copy (application consumes nothing, but keeps tests honest)."""
    return InstanceDelta.from_dict(delta.to_dict())


def cold_reference(instance):
    """Cold G-Greedy on ``instance``: (sorted triples, growth curve)."""
    algorithm = GlobalGreedy(backend="numpy")
    strategy = algorithm.build_strategy(instance)
    return sorted(strategy.triples()), algorithm.last_growth_curve


def build_tied_instance(seed: int) -> RevMaxInstance:
    """8 users x 6 items whose prices and probabilities take two values each.

    The ties make equal-valued pops common, within a user and across
    users, so the merge's tie-breaks decide the order.  Capacity is the
    user count, so every re-solve is capacity-safe.
    """
    rng = np.random.default_rng(seed)
    prices = rng.choice([10.0, 20.0], size=(6, 3))
    adoption = {(user, item): rng.choice([0.3, 0.6], size=3).tolist()
                for user in range(8) for item in range(6)}
    return RevMaxInstance.from_dense_adoption(
        prices=prices, adoption=adoption,
        item_class=[item % 3 for item in range(6)], capacities=8,
        betas=0.95, display_limit=2, num_users=8, name=f"tied-{seed}",
    )


def _behind_solver() -> IncrementalSolver:
    solver = IncrementalSolver(build_behind_instance())
    solver.solve()
    assert solver.state().behind
    return solver


# ----------------------------------------------------------------------
# InstanceDelta: validation and serialization
# ----------------------------------------------------------------------
class TestInstanceDelta:
    def test_empty(self):
        assert InstanceDelta().is_empty()
        assert not InstanceDelta(price_updates={(0, 0): 1.0}).is_empty()

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            InstanceDelta(price_updates={(0, 0): -1.0})

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            InstanceDelta(capacity_updates={3: -2})

    def test_nan_probability_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            InstanceDelta(probability_updates={(0, 1): [0.2, float("nan")]})

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            InstanceDelta(new_users={5: {0: [0.2, 1.5]}})

    def test_touched_sets(self):
        delta = InstanceDelta(
            price_updates={(2, 1): 5.0},
            probability_updates={(0, 3): [0.5, 0.5]},
            new_users={7: {1: [0.1, 0.2]}},
        )
        assert delta.touched_pairs() == {(0, 3), (7, 1)}
        assert delta.touched_price_cells() == {(2, 1)}

    def test_json_round_trip(self, tmp_path):
        instance = build_random_instance(seed=5)
        delta = random_delta(instance, seed=5)
        path = tmp_path / "delta.json"
        save_delta(delta, path)
        loaded = load_delta(path)
        assert loaded.name == delta.name
        assert loaded.price_updates == delta.price_updates
        assert loaded.capacity_updates == delta.capacity_updates
        assert set(loaded.probability_updates) == set(delta.probability_updates)
        for pair, vector in delta.probability_updates.items():
            np.testing.assert_array_equal(loaded.probability_updates[pair],
                                          vector)
        assert set(loaded.new_users) == set(delta.new_users)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError, match="revmax-delta"):
            InstanceDelta.from_dict({"kind": "revmax-strategy",
                                     "format_version": 1})


# ----------------------------------------------------------------------
# applying deltas
# ----------------------------------------------------------------------
class TestApplyDelta:
    def test_columnar_patch_matches_fresh_build(self):
        """A patched compilation is value-identical to a fresh mutated one."""
        base = build_random_instance(seed=11)
        columnar = base.compiled().as_instance()
        columnar.compiled().isolated_revenues()  # materialize the cache
        delta = random_delta(columnar, seed=11)
        apply_delta(columnar, copy_delta(delta))

        mutated = build_random_instance(seed=11)
        apply_delta(mutated, copy_delta(delta))
        fresh = mutated.compiled()
        patched = columnar.compiled()
        np.testing.assert_array_equal(patched.user_ptr, fresh.user_ptr)
        np.testing.assert_array_equal(patched.pair_item, fresh.pair_item)
        np.testing.assert_array_equal(patched.pair_probs, fresh.pair_probs)
        np.testing.assert_array_equal(patched.prices, fresh.prices)
        np.testing.assert_array_equal(patched.capacities, fresh.capacities)
        np.testing.assert_array_equal(patched.isolated_revenues(),
                                      fresh.isolated_revenues())
        assert columnar.num_users == mutated.num_users

    def test_dict_backed_patch_keeps_table_and_compiled_in_sync(self):
        instance = build_random_instance(seed=3)
        compiled_before = instance.compiled()
        delta = random_delta(instance, seed=3)
        apply_delta(instance, copy_delta(delta))
        # The cached compilation was patched in place and stays fresh.
        assert instance.compiled() is compiled_before
        for (user, item), vector in delta.probability_updates.items():
            np.testing.assert_array_equal(instance.adoption.get(user, item),
                                          vector)
            row = compiled_before.pair_row(user, item)
            np.testing.assert_array_equal(compiled_before.pair_probs[row],
                                          vector)
        for (item, t), price in delta.price_updates.items():
            assert instance.prices[item, t] == price
        for item, capacity in delta.capacity_updates.items():
            assert instance.capacities[item] == capacity
        for user, pairs in delta.new_users.items():
            assert set(instance.adoption.items_for_user(user)) == set(pairs)

    def test_probability_update_for_unknown_pair_rejected(self):
        instance = build_random_instance(seed=1).compiled().as_instance()
        absent = (0, 0)
        while absent in instance.adoption:
            absent = (absent[0], absent[1] + 1)
        delta = InstanceDelta(probability_updates={
            absent: np.full(instance.horizon, 0.5)
        })
        with pytest.raises(ValueError, match="absent from the candidate table"):
            apply_delta(instance, delta)

    def test_non_contiguous_new_users_rejected(self):
        instance = build_random_instance(seed=1).compiled().as_instance()
        delta = InstanceDelta(new_users={
            instance.num_users + 1: {0: np.full(instance.horizon, 0.5)}
        })
        with pytest.raises(ValueError, match="contiguous"):
            apply_delta(instance, delta)

    def test_out_of_range_price_cell_rejected(self):
        instance = build_random_instance(seed=1).compiled().as_instance()
        delta = InstanceDelta(price_updates={
            (instance.num_items, 0): 3.0
        })
        with pytest.raises(ValueError, match="price matrix"):
            apply_delta(instance, delta)

    def test_rejected_delta_changes_nothing(self):
        """Validation happens before the first write (atomicity)."""
        instance = build_random_instance(seed=9).compiled().as_instance()
        compiled = instance.compiled()
        probs_before = compiled.pair_probs.copy()
        prices_before = compiled.prices.copy()
        pair = next(iter(instance.adoption.pairs()))
        delta = InstanceDelta(
            price_updates={(0, 0): 123.0},
            probability_updates={pair: np.full(instance.horizon, 0.25)},
            new_users={instance.num_users + 5: {}},  # non-contiguous: rejected
        )
        with pytest.raises(ValueError, match="contiguous"):
            apply_delta(instance, delta)
        np.testing.assert_array_equal(compiled.pair_probs, probs_before)
        np.testing.assert_array_equal(compiled.prices, prices_before)

    def test_npz_memory_mapped_instance_copy_on_write(self, tmp_path):
        """Deltas work on read-only memory-mapped tensors (copy-on-write)."""
        source = build_random_instance(seed=21)
        path = tmp_path / "instance.npz"
        repro_io.save_instance_npz(source, path)
        loaded = repro_io.load_instance_npz(path)
        assert not loaded.compiled().pair_probs.flags.writeable
        delta = random_delta(loaded, seed=21)
        apply_delta(loaded, copy_delta(delta))

        mutated = build_random_instance(seed=21)
        apply_delta(mutated, copy_delta(delta))
        np.testing.assert_array_equal(loaded.compiled().pair_probs,
                                      mutated.compiled().pair_probs)
        np.testing.assert_array_equal(loaded.prices, mutated.prices)
        # The original archive on disk is untouched.
        reloaded = repro_io.load_instance_npz(path)
        np.testing.assert_array_equal(reloaded.prices, source.prices)

    def test_rows_of_item(self):
        compiled = build_random_instance(seed=7).compiled()
        for item in range(compiled.num_items):
            rows = compiled.rows_of_item(item)
            np.testing.assert_array_equal(
                rows, np.flatnonzero(compiled.pair_item == item)
            )
        with pytest.raises(ValueError, match="outside"):
            compiled.rows_of_item(compiled.num_items)


# ----------------------------------------------------------------------
# the incremental solver
# ----------------------------------------------------------------------
class TestIncrementalSolver:
    def test_cold_solve_matches_global_greedy(self, small_instance):
        solver = IncrementalSolver(small_instance)
        solver.solve()
        strategy = solver.strategy
        reference, curve = cold_reference(build_random_instance(seed=42))
        assert sorted(strategy.triples()) == reference
        assert solver.growth_curve == curve
        assert solver.last_stats["mode"] == "cold"

    @pytest.mark.parametrize("params,seeds", [
        (MERGE_FRIENDLY, range(8)),
        (BREAK_FRIENDLY, range(8)),
    ])
    def test_resolve_bit_identical_to_cold(self, params, seeds):
        """The core contract, across delta kinds and both re-solve modes."""
        modes = set()
        for seed in seeds:
            instance = build_random_instance(seed=seed, **params)
            solver = IncrementalSolver(instance)
            solver.solve()
            delta = random_delta(instance, seed=seed)
            solver.resolve(copy_delta(delta))
            strategy = solver.strategy
            modes.add(solver.last_stats["mode"])

            mutated = build_random_instance(seed=seed, **params)
            apply_delta(mutated, copy_delta(delta))
            reference, curve = cold_reference(mutated)
            assert sorted(strategy.triples()) == reference
            assert solver.growth_curve == curve
        # Both parametrizations must at least exercise their expected path.
        assert modes <= {"merge", "replay"}

    def test_merge_mode_reached(self):
        """The fast path actually runs on saturating instances."""
        merges = 0
        for seed in range(10):
            instance = build_random_instance(seed=seed, **MERGE_FRIENDLY)
            solver = IncrementalSolver(instance)
            solver.solve()
            pair = sorted(instance.adoption.pairs())[0]
            rng = np.random.default_rng(seed)
            solver.resolve(InstanceDelta(probability_updates={
                pair: rng.uniform(0.5, 1.0, size=instance.horizon)
            }))
            if solver.last_stats["mode"] == "merge":
                merges += 1
                assert solver.last_stats["dirty_users"] == 1
        assert merges > 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_merge_restores_the_collector_state(self, enabled):
        instance = build_random_instance(seed=1, **MERGE_FRIENDLY)
        solver = IncrementalSolver(instance)
        solver.solve()
        was_enabled = gc.isenabled()
        try:
            if not enabled:
                gc.disable()
            solver.resolve()
            assert solver.last_stats["mode"] == "merge"
            assert gc.isenabled() is enabled
        finally:
            if was_enabled:
                gc.enable()

    def test_empty_delta_is_identity(self):
        for seed in range(4):
            instance = build_random_instance(seed=seed, **MERGE_FRIENDLY)
            solver = IncrementalSolver(instance)
            solver.solve()
            first = sorted(solver.strategy.triples())
            curve = list(solver.growth_curve)
            solver.resolve()
            assert sorted(solver.strategy.triples()) == first
            assert solver.growth_curve == curve

    def test_chained_deltas(self):
        """Warm state survives across resolves (delta after delta)."""
        seed = 4
        instance = build_random_instance(seed=seed, **MERGE_FRIENDLY)
        solver = IncrementalSolver(instance)
        solver.solve()
        deltas = [random_delta(instance, seed=100 + step,
                               with_new_users=False) for step in range(3)]
        for delta in deltas:
            solver.resolve(copy_delta(delta))

        mutated = build_random_instance(seed=seed, **MERGE_FRIENDLY)
        for delta in deltas:
            apply_delta(mutated, copy_delta(delta))
        reference, curve = cold_reference(mutated)
        assert sorted(solver.strategy.triples()) == reference
        assert solver.growth_curve == curve

    def test_resolve_without_solve_runs_cold(self):
        instance = build_random_instance(seed=2, **MERGE_FRIENDLY)
        solver = IncrementalSolver(instance)
        delta = random_delta(instance, seed=2)
        solver.resolve(copy_delta(delta))
        strategy = solver.strategy
        assert solver.last_stats["fallback_reason"] == "no warm state"

        mutated = build_random_instance(seed=2, **MERGE_FRIENDLY)
        apply_delta(mutated, copy_delta(delta))
        reference, _ = cold_reference(mutated)
        assert sorted(strategy.triples()) == reference

    def test_state_round_trip(self, tmp_path):
        """Persisted warm state warm-starts a fresh process bit-identically."""
        seed = 6
        instance = build_random_instance(seed=seed, **MERGE_FRIENDLY)
        solver = IncrementalSolver(instance)
        solver.solve()
        path = tmp_path / "state.json"
        repro_io.save_solver_state(solver.state(), path)

        loaded_state = repro_io.load_solver_state(path)
        assert loaded_state.growth_curve() == solver.growth_curve
        assert sorted(loaded_state.triples()) == sorted(
            solver.strategy.triples()
        )
        twin_instance = build_random_instance(seed=seed, **MERGE_FRIENDLY)
        twin = IncrementalSolver.from_state(twin_instance, loaded_state)
        assert sorted(twin.strategy.triples()) == sorted(
            solver.strategy.triples()
        )
        assert twin.growth_curve == solver.growth_curve

        delta = random_delta(instance, seed=seed)
        solver.resolve(copy_delta(delta))
        twin.resolve(copy_delta(delta))
        assert sorted(twin.strategy.triples()) == sorted(
            solver.strategy.triples()
        )
        assert twin.growth_curve == solver.growth_curve
        assert twin.last_stats["mode"] == solver.last_stats["mode"]

    def test_state_requires_a_solve(self, small_instance):
        with pytest.raises(ValueError, match="solve"):
            IncrementalSolver(small_instance).state()

    def test_state_rejected_against_different_instance(self, tmp_path):
        """A warm state is digest-bound to the tensors it came from."""
        seed = 6
        instance = build_random_instance(seed=seed, **MERGE_FRIENDLY)
        solver = IncrementalSolver(instance)
        solver.solve()
        solver.resolve(random_delta(instance, seed=seed,
                                    with_new_users=False))
        path = tmp_path / "state.json"
        repro_io.save_solver_state(solver.state(), path)
        # The pre-delta twin is NOT the instance the state was computed on.
        stale_twin = build_random_instance(seed=seed, **MERGE_FRIENDLY)
        with pytest.raises(ValueError, match="does not match"):
            IncrementalSolver.from_state(stale_twin,
                                         repro_io.load_solver_state(path))

    @pytest.mark.parametrize("signature", [None, ""])
    def test_unsigned_state_rejected(self, tmp_path, signature):
        """A state without a digest cannot be checked, so it never loads."""
        instance = build_random_instance(seed=6, **MERGE_FRIENDLY)
        solver = IncrementalSolver(instance)
        solver.solve()
        document = repro_io.solver_state_to_dict(solver.state())
        if signature is None:
            del document["signature"]
        else:
            document["signature"] = signature
        path = tmp_path / "state.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ValueError, match="no instance signature"):
            repro_io.load_solver_state(path)
        unsigned = solver.state()
        unsigned.signature = ""
        with pytest.raises(ValueError, match="does not match"):
            IncrementalSolver.from_state(instance, unsigned)

    def test_external_mutation_invalidates_warm_state(self):
        """Deltas applied around the solver force a cold re-solve."""
        seed = 3
        instance = build_random_instance(seed=seed, **MERGE_FRIENDLY)
        solver = IncrementalSolver(instance)
        solver.solve()
        sneaky = random_delta(instance, seed=seed, with_new_users=False)
        apply_delta(instance, copy_delta(sneaky))  # behind the solver's back
        solver.resolve()
        strategy = solver.strategy
        assert solver.last_stats["fallback_reason"] == (
            "instance mutated outside the solver"
        )
        mutated = build_random_instance(seed=seed, **MERGE_FRIENDLY)
        apply_delta(mutated, copy_delta(sneaky))
        reference, curve = cold_reference(mutated)
        assert sorted(strategy.triples()) == reference
        assert solver.growth_curve == curve


# ----------------------------------------------------------------------
# the dirty re-run: one joint pass of the cold loop
# ----------------------------------------------------------------------
class TestDirtyPass:
    def test_joint_pass_decomposes_per_user(self, monkeypatch):
        """One pass over a user set equals one ``users=[u]`` pass per user.

        On capacity-safe instances every score, freshness flag and display
        slot is per user, so a joint pass pops each user's candidates in
        that user's solo order and the replayability verdicts agree.  A
        replayable pass yields exactly the solo pops, admissions and merge
        keys; an unreplayable one (a non-positive break, which the solver
        answers with a cold replay) stops every user's pops at a prefix of
        its solo run.
        """
        monkeypatch.setattr(incremental, "SelectionTrace", PopLog)
        verdicts = []
        grid = itertools.product([0.1, 0.5, 0.9], [1, 2], [3, 4], [1.0, 3.0],
                                 range(8))
        for beta, display_limit, horizon, capacity_fraction, seed in grid:
            case = (beta, display_limit, horizon, capacity_fraction, seed)
            instance = generate_synthetic_columnar(SyntheticConfig(
                num_users=12, num_items=8, num_classes=3,
                candidates_per_user=4, horizon=horizon,
                display_limit=display_limit,
                capacity_fraction=capacity_fraction, beta=beta, seed=seed,
            ))
            solver = IncrementalSolver(instance)
            assert solver._capacity_safe(), case
            rng = np.random.default_rng(seed)
            users = sorted(rng.choice(12, size=6, replace=False).tolist())
            replayable, trace, *_ = solver._traced_run(users)
            assert set(trace.pops) <= set(users), case
            keyed = trace.keyed_admissions()
            solo_verdicts = []
            for user in users:
                solo_verdict, solo_trace, *_ = solver._traced_run([user])
                solo_verdicts.append(solo_verdict)
                joint_pops = trace.pops.get(user, [])
                solo_pops = solo_trace.pops.get(user, [])
                if replayable:
                    assert joint_pops == solo_pops, case
                    assert keyed.get(user) == (
                        solo_trace.keyed_admissions().get(user)), case
                else:
                    assert joint_pops == solo_pops[:len(joint_pops)], case
            assert replayable == all(solo_verdicts), case
            verdicts.append(replayable)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_merge_runs_one_columnar_pass(self, monkeypatch):
        """A merge re-runs all dirty users in a single columnar pass."""
        instance = build_random_instance(seed=1, **MERGE_FRIENDLY)
        solver = IncrementalSolver(instance)
        solver.solve()
        calls = {"columnar": 0, "object": 0}
        columnar = LazyGreedySelector._select_columnar

        def counting_columnar(selector, *args, **kwargs):
            calls["columnar"] += 1
            return columnar(selector, *args, **kwargs)

        def forbidden_seed(selector, *args, **kwargs):
            calls["object"] += 1
            raise AssertionError("the object loop ran during a merge")

        monkeypatch.setattr(LazyGreedySelector, "_select_columnar",
                            counting_columnar)
        monkeypatch.setattr(LazyGreedySelector, "_seed", forbidden_seed)
        pairs = sorted(instance.adoption.pairs())
        owners = {}
        for user, item in pairs:
            owners.setdefault(user, (user, item))
        picked = list(owners.values())[:3]
        delta = InstanceDelta(probability_updates={
            pair: [0.9, 0.8, 0.7] for pair in picked
        })
        solver.resolve(copy_delta(delta))
        strategy = solver.strategy
        assert solver.last_stats["mode"] == "merge"
        assert solver.last_stats["dirty_users"] == 3
        assert calls == {"columnar": 1, "object": 0}

        monkeypatch.undo()
        mutated = build_random_instance(seed=1, **MERGE_FRIENDLY)
        apply_delta(mutated, copy_delta(delta))
        reference, curve = cold_reference(mutated)
        assert sorted(strategy.triples()) == reference
        assert solver.growth_curve == curve

    def test_clean_merge_runs_no_pass(self, monkeypatch):
        instance = build_random_instance(seed=1, **MERGE_FRIENDLY)
        solver = IncrementalSolver(instance)
        solver.solve()
        monkeypatch.setattr(LazyGreedySelector, "select", None)
        solver.resolve()
        assert solver.last_stats["mode"] == "merge"
        assert solver.last_stats["dirty_users"] == 0


# ----------------------------------------------------------------------
# warm state: the persisted file and the lazily built views
# ----------------------------------------------------------------------
class TestWarmState:
    #: A seed whose delta (without new users) re-solves by merge.
    SEED = 10

    def _solved(self, *, resolved=False):
        """A solver on a MERGE_FRIENDLY instance, optionally one merge on."""
        instance = build_random_instance(seed=self.SEED, **MERGE_FRIENDLY)
        solver = IncrementalSolver(instance)
        solver.solve()
        if resolved:
            solver.resolve(random_delta(instance, seed=self.SEED,
                                        with_new_users=False))
            assert solver.last_stats["mode"] == "merge"
        return solver

    def _twin(self, state, *, resolved=False):
        instance = build_random_instance(seed=self.SEED, **MERGE_FRIENDLY)
        if resolved:
            apply_delta(instance, random_delta(instance, seed=self.SEED,
                                               with_new_users=False))
        return IncrementalSolver.from_state(instance, state)

    def test_old_indented_state_file_warm_starts(self, tmp_path):
        solver = self._solved()
        path = tmp_path / "state.json"
        with path.open("w", encoding="utf-8") as handle:
            json.dump(repro_io.solver_state_to_dict(solver.state()), handle,
                      indent=2, sort_keys=True)
        twin = self._twin(repro_io.load_solver_state(path))
        assert twin.strategy.triples() == solver.strategy.triples()
        assert twin.growth_curve == solver.growth_curve

    def test_saved_file_is_canonical_compact_json(self, tmp_path):
        # The MERGE_FRIENDLY instances record no behind entries.
        solver = _behind_solver()
        state = solver.state()
        path = tmp_path / "state.json"
        repro_io.save_solver_state(state, path)
        text = path.read_text(encoding="utf-8")
        document = json.loads(text)
        assert text == json.dumps(document, sort_keys=True,
                                  separators=(",", ":"))
        indices = [int(index) for index in document["behind"]]
        assert indices and all(0 <= index < len(document["admits"])
                               for index in indices)
        assert {type(item) for _, item in document["behind"].values()} == {
            int}
        loaded = repro_io.load_solver_state(path)
        assert [row[3].hex() for row in loaded.admits] == [
            float(row[3]).hex() for row in state.admits
        ]
        assert [key[0].hex() for key in loaded.behind.values()] == [
            float(key[0]).hex() for key in state.behind.values()
        ]
        assert loaded.admits == state.admits
        assert loaded.behind == state.behind

    def test_lazy_views_after_from_state_match_cold(self):
        solver = self._solved()
        twin = self._twin(solver.state())
        assert twin.last_stats == {"mode": "from_state",
                                   "admitted": len(solver.strategy)}
        assert twin.strategy.triples() == solver.strategy.triples()
        assert twin.growth_curve == solver.growth_curve
        assert twin.revenue == solver.revenue

    def test_resolve_after_from_state_never_builds_pre_delta_strategy(
            self, tmp_path, monkeypatch):
        solver = self._solved()
        path = tmp_path / "state.json"
        repro_io.save_solver_state(solver.state(), path)
        loaded = repro_io.load_solver_state(path)
        built = []
        original = incremental._strategy_from_admits

        def recording(catalog, admits):
            built.append(list(admits))
            return original(catalog, admits)

        monkeypatch.setattr(incremental, "_strategy_from_admits", recording)
        twin = self._twin(loaded)
        instance = twin.instance
        delta = random_delta(instance, seed=self.SEED, with_new_users=False)
        twin.resolve(copy_delta(delta))
        strategy = twin.strategy
        assert twin.last_stats["mode"] == "merge"
        post = twin.state().admits
        # The delta moved the plan, so a pre-delta build would show here.
        assert post != loaded.admits
        assert built == [post]

        mutated = build_random_instance(seed=self.SEED, **MERGE_FRIENDLY)
        apply_delta(mutated, copy_delta(delta))
        reference, curve = cold_reference(mutated)
        assert sorted(strategy.triples()) == reference
        assert twin.growth_curve == curve

    def test_states_are_detached_from_the_solver(self):
        solver = _behind_solver()
        before = repro_io.solver_state_to_dict(solver.state())
        exported = solver.state()
        assert exported.behind and all(isinstance(key, tuple)
                                       for key in exported.behind.values())
        exported.admits.clear()
        exported.behind.clear()
        exported.complete = not exported.complete
        assert repro_io.solver_state_to_dict(solver.state()) == before

        imported = solver.state()
        twin = IncrementalSolver.from_state(build_behind_instance(), imported)
        imported.admits.reverse()
        imported.behind.clear()
        assert repro_io.solver_state_to_dict(twin.state()) == before
        assert twin.strategy.triples() == solver.strategy.triples()


# ----------------------------------------------------------------------
# the merge: one stable sort that equals a heap merge
# ----------------------------------------------------------------------
def heap_merge(sequences, blocks=None):
    """Reference k-way merge of per-user pop sequences.

    ``sequences[user]`` lists ``(priority, item, t, admitted)`` events, and
    an event's tie-break row is ``3 * blocks[user] + item`` (rows belong
    to one user, as CSR rows do; ``blocks`` defaults to the identity).
    The heap serves heads by ``(-priority, row)``, like the cold columnar
    frontier.  Returns the admissions as ``(user, item, t, priority)`` rows
    in pop order.
    """
    blocks = blocks or range(len(sequences))
    heap = [(-sequence[0][0], 3 * blocks[user] + sequence[0][1], user, 0)
            for user, sequence in enumerate(sequences) if sequence]
    heapq.heapify(heap)
    admits = []
    while heap:
        _, _, user, position = heapq.heappop(heap)
        priority, item, t, admitted = sequences[user][position]
        if admitted:
            admits.append((user, item, t, priority))
        position += 1
        if position < len(sequences[user]):
            priority, item = sequences[user][position][:2]
            heapq.heappush(heap, (-priority, 3 * blocks[user] + item, user,
                                  position))
    return admits


class _UserLocalRows:
    """A stand-in compilation: the row of (user, item) is
    ``3 * blocks[user] + item``."""

    def __init__(self, blocks):
        self._blocks = np.asarray(blocks, dtype=np.int64)

    def pair_rows(self, users, items):
        return 3 * self._blocks[users] + items


def traced(sequences):
    """Feed per-user pop sequences through a :class:`SelectionTrace`.

    Users go last first, so the admissions are user-major in reverse: the
    merge may not rely on how users interleave in its input.
    """
    trace = SelectionTrace()
    for user in reversed(range(len(sequences))):
        for priority, item, t, admitted in sequences[user]:
            if admitted:
                trace.record_admit(Triple(user, item, t), priority)
            else:
                trace.record_gate(Triple(user, item, t), priority)
    return trace


def merged(admits, behind, blocks):
    """``IncrementalSolver._merge`` over a stand-in compilation.

    Also checks that the re-indexed ``behind`` keeps each key with its
    admission.
    """
    rows = _UserLocalRows(blocks)
    solver = SimpleNamespace(_instance=SimpleNamespace(compiled=lambda: rows))
    order, moved = IncrementalSolver._merge(solver, admits, behind)
    assert sorted((order[index], key) for index, key in moved.items()) == (
        sorted((admits[index], key) for index, key in behind.items()))
    return order


def sort_merge(sequences, blocks=None):
    """The traced admissions of ``sequences``, merged."""
    trace = traced(sequences)
    return merged(trace.admissions, trace.behind,
                  blocks or range(len(sequences)))


#: Few distinct values, so priorities tie within and across users; zero,
#: negative zero and negative priorities included.
_PRIORITIES = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.25, 1.0, 3.0])


#: 0-8 ``(priority, item, t, admitted)`` events of one user, three items a
#: user, so rows repeat within a sequence.
_SEQUENCE = st.lists(st.tuples(_PRIORITIES, st.integers(0, 2),
                               st.integers(0, 2), st.sampled_from([0, 1])),
                     max_size=8)


@st.composite
def user_sequences(draw):
    """1-6 users' sequences, and the users' row blocks.

    The blocks are shuffled: cross-user ties must break by row, not by
    user id.
    """
    sequences = [draw(_SEQUENCE) for _ in range(draw(st.integers(1, 6)))]
    return sequences, draw(st.permutations(range(len(sequences))))


class TestSortMerge:
    @settings(max_examples=500, deadline=None)
    @given(user_sequences())
    def test_equals_heap_merge(self, case):
        sequences, blocks = case
        assert sort_merge(sequences, blocks) == heap_merge(sequences, blocks)

    @settings(max_examples=300, deadline=None)
    @given(user_sequences(), st.data())
    def test_spliced_resolve_equals_heap_merge(self, case, data):
        """A re-solve's splice: dirty users' rows swapped for fresh ones."""
        sequences, blocks = case
        dirty = data.draw(st.sets(st.integers(0, len(sequences) - 1)))
        fresh_sequences = [data.draw(_SEQUENCE) if user in dirty else []
                           for user in range(len(sequences))]
        old = traced(sequences)
        admits, behind = incremental._spliced(
            old.admissions, old.behind, dirty, traced(fresh_sequences))
        current = [fresh_sequences[user] if user in dirty else sequence
                   for user, sequence in enumerate(sequences)]
        assert merged(admits, behind, blocks) == heap_merge(current, blocks)

    def test_upward_event_waits_behind_its_lower_gate(self):
        # User 0's gate at 1.0 hides its admission at 5.0, so user 1's 2.0
        # pops first even though 5.0 is the largest priority.
        sequences = [[(1.0, 0, 0, 0), (5.0, 1, 0, 1)], [(2.0, 0, 1, 1)]]
        assert heap_merge(sequences) == [(1, 0, 1, 2.0), (0, 1, 0, 5.0)]
        assert sort_merge(sequences) == heap_merge(sequences)

    def test_empty_sequences_and_a_single_user(self):
        assert sort_merge([[]]) == [] == sort_merge([[], [], []])
        single = [[(1.0, 0, 0, 1), (1.0, 0, 1, 0), (3.0, 1, 0, 1),
                   (-1.0, 2, 2, 1)]]
        assert sort_merge(single) == heap_merge(single) == [
            (0, 0, 0, 1.0), (0, 1, 0, 3.0), (0, 2, 2, -1.0)]

    @pytest.mark.parametrize("seed", range(8))
    def test_gated_resolve_bit_identical_to_cold(self, seed):
        """Tied instances pop many equal keys; the merge still equals cold."""
        instance = build_tied_instance(seed)
        solver = IncrementalSolver(instance)
        solver.solve()
        delta = random_delta(instance, seed=seed, with_new_users=False)
        delta.capacity_updates.clear()
        solver.resolve(copy_delta(delta))
        strategy = solver.strategy
        assert solver.last_stats["mode"] in ("merge", "replay")

        mutated = build_tied_instance(seed)
        apply_delta(mutated, copy_delta(delta))
        reference, curve = cold_reference(mutated)
        assert sorted(strategy.triples()) == reference
        assert solver.growth_curve == curve


# ----------------------------------------------------------------------
# older state layouts: refused with one re-prime message
# ----------------------------------------------------------------------
def older_layout(document, layout):
    """Rewrite a state document in an older layout.

    ``gates`` stored ``[position, priority, item, t]`` gate rows per user;
    ``events`` stored each user's whole pop sequence as ``[priority, item,
    t, admitted]`` rows.  Neither had ``behind``.
    """
    del document["behind"]
    user, item, t, gain = document["admits"][0]
    document[layout] = {str(user): (
        [[0, gain, item, t]] if layout == "gates" else [[gain, item, t, 1]])}
    return document


class TestOlderStateLayout:
    def _load_error(self, path, document):
        path.write_text(json.dumps(document, indent=2), encoding="utf-8")
        with pytest.raises(ValueError) as error:
            repro_io.load_solver_state(path)
        message = str(error.value)
        assert message.startswith(f"{path}: ")
        assert message.endswith("re-prime it with repro resolve --load "
                                "plan.npz --save-state state.json")
        return message

    @pytest.mark.parametrize("layout", ["gates", "events"])
    def test_older_layout_rejected_naming_the_file(self, tmp_path, layout):
        document = older_layout(repro_io.solver_state_to_dict(
            _behind_solver().state()), layout)
        message = self._load_error(tmp_path / "old-state.json", document)
        assert "older layout" in message

    @pytest.mark.parametrize("damage", ["gain", "dropped", "extra"])
    def test_events_disagreeing_with_admits_raise_naming_the_file(
            self, tmp_path, damage):
        # An 'events' file is refused before its rows are read, so rows
        # that disagree with 'admits' meet the same re-prime error.
        document = older_layout(repro_io.solver_state_to_dict(
            _behind_solver().state()), "events")
        sequence = next(iter(document["events"].values()))
        if damage == "gain":
            sequence[0][0] += 1.0
        elif damage == "dropped":
            del sequence[0]
        else:
            document["events"]["999"] = [[1.0, 0, 0, 1]]
        message = self._load_error(tmp_path / "old-state.json", document)
        assert "older layout" in message
        assert "admits" in message

    @pytest.mark.parametrize("index", [-1, "admits"])
    def test_behind_index_outside_admits_raises(self, tmp_path, index):
        document = repro_io.solver_state_to_dict(_behind_solver().state())
        key = next(iter(document["behind"].values()))
        if index == "admits":
            index = len(document["admits"])
        document["behind"] = {str(index): key}
        message = self._load_error(tmp_path / "state.json", document)
        assert "'behind' index" in message


# ----------------------------------------------------------------------
# GlobalGreedy.resolve wiring
# ----------------------------------------------------------------------
class TestGlobalGreedyResolve:
    def test_warm_resolve_matches_build_strategy(self):
        seed = 1
        instance = build_random_instance(seed=seed, **MERGE_FRIENDLY)
        algorithm = GlobalGreedy(backend="numpy")
        algorithm.resolve(instance)  # cold, primes the warm state
        delta = random_delta(instance, seed=seed)
        strategy = algorithm.resolve(instance, copy_delta(delta))
        assert algorithm.last_extras["resolve"]["mode"] in ("merge", "replay")

        mutated = build_random_instance(seed=seed, **MERGE_FRIENDLY)
        apply_delta(mutated, copy_delta(delta))
        reference, curve = cold_reference(mutated)
        assert sorted(strategy.triples()) == reference
        assert algorithm.last_growth_curve == curve

    def test_incompatible_configuration_resolves_cold(self):
        seed = 8
        instance = build_random_instance(seed=seed, **MERGE_FRIENDLY)
        algorithm = GlobalGreedy(backend="numpy", ignore_saturation=True)
        delta = random_delta(instance, seed=seed)
        strategy = algorithm.resolve(instance, copy_delta(delta))
        assert algorithm.last_extras["resolve"]["mode"] == "cold"

        mutated = build_random_instance(seed=seed, **MERGE_FRIENDLY)
        apply_delta(mutated, copy_delta(delta))
        reference = GlobalGreedy(backend="numpy",
                                 ignore_saturation=True).build_strategy(mutated)
        assert sorted(strategy.triples()) == sorted(reference.triples())
