"""Tests for JSON serialization of instances, strategies and results."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import io as repro_io
from repro.algorithms.global_greedy import GlobalGreedy
from repro.core.revenue import RevenueModel
from repro.core.strategy import Strategy



class TestInstanceRoundTrip:
    def test_dict_round_trip_preserves_everything(self, small_instance):
        document = repro_io.instance_to_dict(small_instance)
        restored = repro_io.instance_from_dict(document)
        assert restored.num_users == small_instance.num_users
        assert restored.num_items == small_instance.num_items
        assert restored.horizon == small_instance.horizon
        assert restored.display_limit == small_instance.display_limit
        assert np.allclose(restored.prices, small_instance.prices)
        assert np.array_equal(restored.capacities, small_instance.capacities)
        assert np.allclose(restored.betas, small_instance.betas)
        assert restored.catalog.item_class == small_instance.catalog.item_class
        assert set(restored.adoption.pairs()) == set(small_instance.adoption.pairs())
        for user, item in small_instance.adoption.pairs():
            assert np.allclose(restored.adoption.get(user, item),
                               small_instance.adoption.get(user, item))

    def test_round_trip_preserves_revenue_semantics(self, small_instance):
        restored = repro_io.instance_from_dict(repro_io.instance_to_dict(small_instance))
        original_result = GlobalGreedy().run(small_instance)
        restored_result = GlobalGreedy().run(restored)
        assert restored_result.revenue == pytest.approx(original_result.revenue)
        assert restored_result.strategy.triples() == original_result.strategy.triples()

    def test_file_round_trip(self, small_instance, tmp_path):
        path = tmp_path / "nested" / "instance.json"
        repro_io.save_instance(small_instance, path)
        assert path.exists()
        restored = repro_io.load_instance(path)
        assert restored.num_candidate_triples() == small_instance.num_candidate_triples()

    def test_document_is_plain_json(self, small_instance, tmp_path):
        path = tmp_path / "instance.json"
        repro_io.save_instance(small_instance, path)
        with path.open() as handle:
            document = json.load(handle)
        assert document["kind"] == "revmax-instance"
        assert document["format_version"] == repro_io.FORMAT_VERSION

    def test_wrong_kind_rejected(self, small_instance):
        document = repro_io.instance_to_dict(small_instance)
        document["kind"] = "something-else"
        with pytest.raises(ValueError):
            repro_io.instance_from_dict(document)

    def test_wrong_version_rejected(self, small_instance):
        document = repro_io.instance_to_dict(small_instance)
        document["format_version"] = 999
        with pytest.raises(ValueError):
            repro_io.instance_from_dict(document)


class TestStrategyRoundTrip:
    def test_round_trip(self, small_instance, tmp_path):
        candidates = list(small_instance.candidate_triples())[:6]
        strategy = Strategy(small_instance.catalog, candidates)
        path = tmp_path / "strategy.json"
        repro_io.save_strategy(strategy, path, instance_name=small_instance.name)
        restored = repro_io.load_strategy(path, small_instance.catalog)
        assert restored.triples() == strategy.triples()

    def test_revenue_preserved_after_round_trip(self, small_instance, tmp_path):
        model = RevenueModel(small_instance)
        strategy = GlobalGreedy().build_strategy(small_instance)
        path = tmp_path / "plan.json"
        repro_io.save_strategy(strategy, path)
        restored = repro_io.load_strategy(path, small_instance.catalog)
        assert model.revenue(restored) == pytest.approx(model.revenue(strategy))

    def test_wrong_kind_rejected(self, small_instance):
        strategy = Strategy(small_instance.catalog)
        document = repro_io.strategy_to_dict(strategy)
        document["kind"] = "revmax-instance"
        with pytest.raises(ValueError):
            repro_io.strategy_from_dict(document, small_instance.catalog)


class TestResultSerialization:
    def test_result_document_structure(self, small_instance, tmp_path):
        result = GlobalGreedy().run(small_instance)
        path = tmp_path / "result.json"
        repro_io.save_result(result, path)
        with path.open() as handle:
            document = json.load(handle)
        assert document["kind"] == "revmax-result"
        assert document["algorithm"] == "G-Greedy"
        assert document["revenue"] == pytest.approx(result.revenue)
        assert document["strategy_size"] == result.strategy_size
        assert len(document["strategy"]["triples"]) == result.strategy_size
        assert document["growth_curve"][-1][0] == result.strategy_size

    def test_numpy_extras_are_json_safe(self, small_instance, tmp_path):
        result = GlobalGreedy().run(small_instance)
        result.extras["numpy_scalar"] = np.float64(1.5)
        result.extras["numpy_array"] = np.array([1, 2, 3])
        result.extras["nested"] = {"value": np.int64(7)}
        path = tmp_path / "result.json"
        repro_io.save_result(result, path)
        with path.open() as handle:
            document = json.load(handle)
        assert document["extras"]["numpy_scalar"] == 1.5
        assert document["extras"]["numpy_array"] == [1, 2, 3]
        assert document["extras"]["nested"]["value"] == 7


class TestAtomicWrites:
    """A writer that dies mid-save leaves the previous file untouched."""

    @staticmethod
    def _explode(handle, partial):
        handle.write(partial)
        raise RuntimeError("disk full")

    def _assert_untouched(self, path, before):
        assert path.read_bytes() == before
        assert list(path.parent.glob("*.tmp")) == []

    def test_failed_npz_save_keeps_previous_file(self, small_instance,
                                                 tmp_path, monkeypatch):
        path = tmp_path / "plan.npz"
        repro_io.save_instance_npz(small_instance, path)
        before = path.read_bytes()
        monkeypatch.setattr(
            np, "savez", lambda handle, **arrays: self._explode(handle, b"PK")
        )
        with pytest.raises(RuntimeError, match="disk full"):
            repro_io.save_instance_npz(small_instance, path)
        self._assert_untouched(path, before)

    def test_failed_json_save_keeps_previous_file(self, small_instance,
                                                  tmp_path, monkeypatch):
        path = tmp_path / "instance.json"
        repro_io.save_instance(small_instance, path)
        before = path.read_bytes()
        monkeypatch.setattr(
            repro_io, "_write_text",
            lambda handle, text: self._explode(handle, text[:1]),
        )
        with pytest.raises(RuntimeError, match="disk full"):
            repro_io.save_instance(small_instance, path)
        self._assert_untouched(path, before)
