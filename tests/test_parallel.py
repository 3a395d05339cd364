"""Tests for the parallel experiment layer and the bounded dataset cache.

The acceptance bar for every parallel path is *determinism*: any job count
must reproduce the serial results exactly (strategies triple for triple,
revenues bit for bit), because the random choices are made before fan-out
and the per-run arithmetic is deterministic.
"""

from __future__ import annotations

import os

import pytest

from repro.algorithms.local_greedy import RandomizedLocalGreedy
from repro.experiments import harness
from repro.experiments.harness import (
    experiment_records,
    prepare_dataset,
    run_algorithms,
    standard_algorithms,
)
from repro.experiments.parallel import run_permutations_parallel
from repro.parallel import parallel_map


def _square(value):
    return value * value


_STATE = {}


def _setup(offset):
    _STATE["offset"] = offset


def _offset_square(value):
    return value * value + _STATE["offset"]


def _pid(_value):
    return os.getpid()


class TestParallelMap:
    def test_preserves_item_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, jobs=3) == [i * i for i in items]

    def test_serial_fallback_matches(self):
        items = list(range(5))
        assert parallel_map(_square, items, jobs=1) == [i * i for i in items]
        assert parallel_map(_square, items, jobs=None) == [i * i for i in items]

    def test_jobs_zero_uses_all_cores(self):
        assert parallel_map(_square, [1, 2, 3], jobs=0) == [1, 4, 9]

    def test_initializer_runs_in_workers_and_serially(self):
        items = [1, 2, 3]
        expected = [i * i + 10 for i in items]
        assert parallel_map(_offset_square, items, jobs=2,
                            initializer=_setup, initargs=(10,)) == expected
        assert parallel_map(_offset_square, items, jobs=1,
                            initializer=_setup, initargs=(10,)) == expected

    def test_empty_items(self):
        assert parallel_map(_square, [], jobs=4) == []


class TestSingleCore:
    """``jobs=0`` means one worker per core: on one core it stays in-process."""

    @pytest.fixture(autouse=True)
    def _one_core(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)

    def test_parallel_map_runs_in_process(self):
        assert parallel_map(_pid, [1, 2, 3], jobs=0) == [os.getpid()] * 3

    def test_rl_greedy_jobs_zero_matches_serial(self, tiny_amazon_pipeline):
        instance = tiny_amazon_pipeline.instance
        per_core = RandomizedLocalGreedy(num_permutations=3, seed=0, jobs=0)
        serial = RandomizedLocalGreedy(num_permutations=3, seed=0, jobs=None)
        assert (per_core.build_strategy(instance).triples()
                == serial.build_strategy(instance).triples())
        assert per_core.last_extras["jobs"] == 1

    def test_run_algorithms_jobs_zero_matches_serial(self,
                                                     tiny_amazon_pipeline):
        instance = tiny_amazon_pipeline.instance

        def suite():
            return standard_algorithms(rl_permutations=2, seed=0)

        per_core = run_algorithms(instance, suite(), jobs=0)
        serial = run_algorithms(instance, suite(), jobs=None)
        assert list(per_core) == list(serial)
        for name in serial:
            assert (per_core[name].strategy.triples()
                    == serial[name].strategy.triples())
            assert per_core[name].revenue == serial[name].revenue


class TestParallelPermutations:
    def test_rl_greedy_identical_for_any_job_count(self, tiny_amazon_pipeline):
        instance = tiny_amazon_pipeline.instance
        serial = RandomizedLocalGreedy(num_permutations=4, seed=0)
        parallel = RandomizedLocalGreedy(num_permutations=4, seed=0, jobs=2)
        serial_strategy = serial.build_strategy(instance)
        parallel_strategy = parallel.build_strategy(instance)
        assert parallel_strategy.triples() == serial_strategy.triples()
        assert parallel.last_extras["best_order"] == serial.last_extras["best_order"]
        assert parallel.last_growth_curve == serial.last_growth_curve
        assert parallel.last_extras["jobs"] == 2

    def test_rl_greedy_jobs_zero_means_one_per_core(self, tiny_amazon_pipeline):
        instance = tiny_amazon_pipeline.instance
        per_core = RandomizedLocalGreedy(num_permutations=2, seed=0, jobs=0)
        serial = RandomizedLocalGreedy(num_permutations=2, seed=0)
        assert (per_core.build_strategy(instance).triples()
                == serial.build_strategy(instance).triples())
        assert per_core.last_extras["jobs"] == (os.cpu_count() or 1)

    def test_permutation_runs_carry_exact_revenues(self, tiny_amazon_pipeline):
        instance = tiny_amazon_pipeline.instance
        algorithm = RandomizedLocalGreedy(num_permutations=3, seed=1)
        orders = algorithm._sample_permutations(instance.horizon)
        runs = run_permutations_parallel(instance, orders, jobs=2)
        assert [run.order for run in runs] == [tuple(o) for o in orders]
        serial_runs = run_permutations_parallel(instance, orders, jobs=1)
        for parallel_run, serial_run in zip(runs, serial_runs):
            assert parallel_run.revenue == serial_run.revenue
            assert parallel_run.triples == serial_run.triples
            assert parallel_run.lookups == serial_run.lookups


class TestParallelSuite:
    def test_run_algorithms_identical_for_any_job_count(self, tiny_amazon_pipeline):
        instance = tiny_amazon_pipeline.instance

        def suite():
            return standard_algorithms(rl_permutations=2, seed=0)

        serial = run_algorithms(instance, suite(), settings={"beta": "U[0,1]"})
        parallel = run_algorithms(instance, suite(), settings={"beta": "U[0,1]"},
                                  jobs=3)
        assert list(parallel) == list(serial)
        for name in serial:
            assert parallel[name].revenue == serial[name].revenue
            assert (parallel[name].strategy.triples()
                    == serial[name].strategy.triples())
            assert parallel[name].extras["beta"] == "U[0,1]"

    def test_experiment_records_merge_identically(self, tiny_amazon_pipeline):
        instance = tiny_amazon_pipeline.instance
        settings = {"scale": "tiny"}
        serial = experiment_records(
            run_algorithms(instance, standard_algorithms(rl_permutations=2)),
            settings,
        )
        parallel = experiment_records(
            run_algorithms(instance, standard_algorithms(rl_permutations=2),
                           jobs=2),
            settings,
        )
        assert [r.algorithm for r in parallel] == [r.algorithm for r in serial]
        assert [r.revenue for r in parallel] == [r.revenue for r in serial]
        assert [r.strategy_size for r in parallel] == [
            r.strategy_size for r in serial
        ]
        assert all(r.settings == settings for r in parallel)


class TestDatasetCache:
    def test_cache_is_lru_bounded(self, monkeypatch):
        monkeypatch.setattr(harness, "_DATASET_CACHE_LIMIT", 2)
        try:
            harness._DATASET_CACHE.clear()
            prepare_dataset("amazon", scale="tiny", seed=101)
            prepare_dataset("amazon", scale="tiny", seed=102)
            prepare_dataset("amazon", scale="tiny", seed=103)
            assert len(harness._DATASET_CACHE) == 2
            seeds = [key[2] for key in harness._DATASET_CACHE]
            assert seeds == [102, 103]
            # A hit refreshes recency: 102 survives the next insertion.
            prepare_dataset("amazon", scale="tiny", seed=102)
            prepare_dataset("amazon", scale="tiny", seed=104)
            seeds = [key[2] for key in harness._DATASET_CACHE]
            assert seeds == [102, 104]
        finally:
            harness._DATASET_CACHE.clear()

    def test_zero_limit_disables_caching(self, monkeypatch):
        monkeypatch.setattr(harness, "_DATASET_CACHE_LIMIT", 0)
        harness._DATASET_CACHE.clear()
        first = prepare_dataset("amazon", scale="tiny", seed=105)
        assert len(harness._DATASET_CACHE) == 0
        second = prepare_dataset("amazon", scale="tiny", seed=105)
        assert first is not second

    def test_cache_hits_return_same_object_within_process(self):
        first = prepare_dataset("amazon", scale="tiny", seed=0)
        second = prepare_dataset("amazon", scale="tiny", seed=0)
        assert first is second

    def test_keys_include_process_id(self):
        prepare_dataset("amazon", scale="tiny", seed=0)
        assert any(key[3] == os.getpid() for key in harness._DATASET_CACHE)


class TestCLIJobs:
    def test_compare_jobs_matches_serial(self, capsys):
        from repro.cli import main

        assert main(["compare", "--scale", "tiny", "--permutations", "2",
                     "--jobs", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["compare", "--scale", "tiny", "--permutations", "2",
                     "--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out

        def revenue_rows(text):
            import re

            rows = []
            for line in text.splitlines():
                cells = re.split(r"\s{2,}", line.strip())
                if len(cells) >= 4:
                    # algorithm, revenue, plan size -- everything but timing.
                    rows.append(tuple(cells[:3]))
            return rows

        # Same ranking, same revenues, same plan sizes; only timings differ.
        assert revenue_rows(parallel_out) == revenue_rows(serial_out)

    def test_solve_accepts_backend_and_jobs(self, capsys):
        from repro.cli import main

        assert main(["solve", "--scale", "tiny", "--algorithm", "rlg",
                     "--backend", "python", "--jobs", "2"]) == 0
        assert "RL-Greedy" in capsys.readouterr().out
