"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import io as repro_io
from repro.algorithms.global_greedy import GlobalGreedy
from repro.cli import build_parser, main

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


class TestParser:
    def test_requires_a_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.command == "solve"
        assert args.dataset == "amazon"
        assert args.algorithm == "gg"
        assert args.scale == "tiny"

    def test_invalid_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--algorithm", "magic"])

    def test_backend_and_jobs_on_every_subcommand(self):
        parser = build_parser()
        for argv in (["solve"], ["compare"]):
            args = parser.parse_args(argv + ["--backend", "python"])
            assert args.backend == "python"
            assert parser.parse_args(argv).backend is None
        # Exhibits build their own models: they take --jobs, not --backend.
        with pytest.raises(SystemExit):
            parser.parse_args(["exhibit", "table1", "--backend", "python"])
        for argv in (["solve"], ["compare"], ["exhibit", "table1"]):
            assert parser.parse_args(argv + ["--jobs", "4"]).jobs == 4
            # One worker per core by default (in-process on one core).
            assert parser.parse_args(argv).jobs == 0

    def test_invalid_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--backend", "fortran"])

    def test_invalid_exhibit_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exhibit", "figure99"])


class TestSolveCommand:
    def test_solve_prints_summary(self, capsys):
        exit_code = main(["solve", "--dataset", "amazon", "--scale", "tiny",
                          "--algorithm", "gg"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "G-Greedy" in captured.out
        assert "revenue" in captured.out

    def test_solve_each_algorithm_key(self, capsys):
        for key, expected in [("slg", "SL-Greedy"), ("topre", "TopRE"),
                              ("topra", "TopRA")]:
            exit_code = main(["solve", "--scale", "tiny", "--algorithm", key])
            captured = capsys.readouterr()
            assert exit_code == 0
            assert expected in captured.out

    def test_solve_writes_artifacts(self, tmp_path, capsys):
        result_path = tmp_path / "result.json"
        instance_path = tmp_path / "instance.json"
        exit_code = main([
            "solve", "--scale", "tiny", "--algorithm", "gg",
            "--save-result", str(result_path),
            "--save-instance", str(instance_path),
        ])
        assert exit_code == 0
        assert result_path.exists()
        assert instance_path.exists()
        with result_path.open() as handle:
            document = json.load(handle)
        assert document["algorithm"] == "G-Greedy"
        with instance_path.open() as handle:
            instance_document = json.load(handle)
        assert instance_document["kind"] == "revmax-instance"


class TestCompareCommand:
    def test_compare_prints_all_algorithms(self, capsys):
        exit_code = main(["compare", "--dataset", "amazon", "--scale", "tiny",
                          "--permutations", "2"])
        captured = capsys.readouterr()
        assert exit_code == 0
        for name in ("G-Greedy", "GlobalNo", "RL-Greedy", "SL-Greedy",
                     "TopRE", "TopRA"):
            assert name in captured.out


class TestInfoCommand:
    def test_info_prints_statistics_and_footprint(self, capsys):
        exit_code = main(["info", "--dataset", "amazon", "--scale", "tiny"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "candidate (user, item) pairs" in captured.out
        assert "compiled tensor footprint" in captured.out
        assert "pair_probs" in captured.out
        assert "total" in captured.out

    def test_info_loads_saved_npz(self, tmp_path, capsys):
        instance_path = tmp_path / "instance.npz"
        assert main(["solve", "--scale", "tiny",
                     "--save-instance", str(instance_path)]) == 0
        capsys.readouterr()
        exit_code = main(["info", "--load", str(instance_path)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "amazon-like" in captured.out
        assert "(user, class) groups" in captured.out

    def test_info_loads_saved_json(self, tmp_path, capsys):
        instance_path = tmp_path / "instance.json"
        assert main(["solve", "--scale", "tiny",
                     "--save-instance", str(instance_path)]) == 0
        capsys.readouterr()
        exit_code = main(["info", "--load", str(instance_path)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "candidate triples (positive q)" in captured.out


class TestCorruptArchive:
    """A truncated or empty ``.npz`` is a one-line CLI error, exit code 2."""

    @pytest.fixture(params=["truncated", "empty"])
    def corrupt_npz(self, request, small_instance, tmp_path):
        path = tmp_path / "plan.npz"
        repro_io.save_instance_npz(small_instance, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2]
                         if request.param == "truncated" else b"")
        return path

    @pytest.mark.parametrize("command", ["resolve", "info"])
    def test_load_exits_2_with_one_line(self, command, corrupt_npz, capsys):
        assert main([command, "--load", str(corrupt_npz)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert str(corrupt_npz) in lines[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("mmap", [True, False])
    def test_loader_raises_value_error_naming_the_file(self, corrupt_npz,
                                                       mmap):
        with pytest.raises(ValueError, match="not a readable .npz archive") \
                as raised:
            repro_io.load_instance_npz(corrupt_npz, mmap=mmap)
        assert str(corrupt_npz) in str(raised.value)


class TestResolveCommand:
    def test_resolve_requires_an_instance(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resolve"])

    def test_resolve_rejects_python_backend(self):
        # The incremental engine replays the numpy path: no --backend flag.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resolve", "--load", "x.npz",
                                       "--backend", "python"])

    def test_cold_prime_then_warm_delta_cycle(self, tmp_path, capsys):
        """The full CLI workflow: solve, prime state, re-solve with a delta."""
        instance_path = tmp_path / "plan.npz"
        state_path = tmp_path / "state.json"
        delta_path = tmp_path / "delta.json"
        strategy_path = tmp_path / "strategy.json"
        assert main(["solve", "--scale", "tiny",
                     "--save-instance", str(instance_path)]) == 0
        capsys.readouterr()

        # Cold prime: no delta, no state -- records the warm state.
        assert main(["resolve", "--load", str(instance_path),
                     "--save-state", str(state_path)]) == 0
        captured = capsys.readouterr()
        assert "re-solve mode=cold" in captured.out
        assert state_path.exists()

        from repro.dynamic import InstanceDelta, save_delta

        save_delta(InstanceDelta(price_updates={(0, 0): 42.0},
                                 capacity_updates={1: 500},
                                 name="cli-cycle"), delta_path)
        assert main(["resolve", "--load", str(instance_path),
                     "--state", str(state_path),
                     "--delta", str(delta_path),
                     "--save-state", str(state_path),
                     "--save-strategy", str(strategy_path)]) == 0
        captured = capsys.readouterr()
        assert "delta 'cli-cycle'" in captured.out
        assert "re-solve mode=" in captured.out
        assert "revenue=" in captured.out
        document = json.loads(strategy_path.read_text())
        assert document["kind"] == "revmax-strategy"
        assert len(document["triples"]) > 0

    def test_readme_cycle_resaves_in_place(self, tmp_path):
        """The README's documented cycle: every delta cycle loads and re-saves
        the same plan.npz and state.json.

        Run out of process: the plan is memory-mapped while it is re-saved,
        and a writer that truncates it in place kills the process (SIGBUS).
        """
        from repro import io as repro_io
        from repro.dynamic import InstanceDelta, save_delta

        def cli(*argv):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
            return subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv], cwd=tmp_path,
                env=env, capture_output=True, text=True,
            ).returncode

        assert cli("solve", "--scale", "tiny",
                   "--save-instance", "plan.npz") == 0
        assert cli("resolve", "--load", "plan.npz",
                   "--save-state", "state.json") == 0
        for cycle, price in enumerate((42.0, 17.5)):
            save_delta(InstanceDelta(price_updates={(0, 0): price},
                                     capacity_updates={1: 500 + cycle}),
                       tmp_path / "deltas.json")
            assert cli("resolve", "--load", "plan.npz", "--state", "state.json",
                       "--delta", "deltas.json", "--save-state", "state.json",
                       "--save-instance", "plan.npz",
                       "--save-strategy", "plan.json") == 0
        instance = repro_io.load_instance_npz(tmp_path / "plan.npz")
        stored = repro_io.load_strategy(tmp_path / "plan.json",
                                        instance.catalog)
        cold = GlobalGreedy().build_strategy(instance)
        assert sorted(stored.triples()) == sorted(cold.triples())

    def test_warm_merge_path_reports_reuse(self, tmp_path, capsys):
        """A saturating instance takes the fast merge path through the CLI."""
        from repro import io as repro_io
        from repro.dynamic import InstanceDelta, save_delta
        from tests.conftest import build_random_instance

        instance = build_random_instance(
            num_users=8, num_items=6, num_classes=3, horizon=3,
            display_limit=2, capacity=8, beta=0.95, density=1.0, seed=0,
        )
        instance_path = tmp_path / "plan.npz"
        state_path = tmp_path / "state.json"
        delta_path = tmp_path / "delta.json"
        repro_io.save_instance_npz(instance, instance_path)
        pair = sorted(instance.adoption.pairs())[0]
        save_delta(InstanceDelta(
            probability_updates={pair: [0.9, 0.8, 0.7]}
        ), delta_path)
        assert main(["resolve", "--load", str(instance_path),
                     "--save-state", str(state_path)]) == 0
        capsys.readouterr()
        assert main(["resolve", "--load", str(instance_path),
                     "--state", str(state_path),
                     "--delta", str(delta_path)]) == 0
        captured = capsys.readouterr()
        assert "re-solve mode=merge" in captured.out
        assert "dirty_users=1" in captured.out
        assert "reused_events=" in captured.out

    def test_stale_instance_state_pairing_rejected(self, tmp_path, capsys):
        """Delta cycles must re-save the instance; a stale pairing errors.

        Without the digest check, cycle 2 would silently merge cycle 1's
        recorded sequences against tensors that never received cycle 1's
        delta -- a wrong strategy with no warning.
        """
        from repro import io as repro_io
        from repro.dynamic import InstanceDelta, save_delta
        from tests.conftest import build_random_instance

        instance = build_random_instance(
            num_users=8, num_items=6, num_classes=3, horizon=3,
            display_limit=2, capacity=8, beta=0.95, density=1.0, seed=0,
        )
        instance_path = tmp_path / "plan.npz"
        state_path = tmp_path / "state.json"
        delta_path = tmp_path / "delta.json"
        repro_io.save_instance_npz(instance, instance_path)
        pair = sorted(instance.adoption.pairs())[0]
        save_delta(InstanceDelta(probability_updates={pair: [0.9, 0.8, 0.7]}),
                   delta_path)
        assert main(["resolve", "--load", str(instance_path),
                     "--save-state", str(state_path)]) == 0
        # Cycle 1 forgets --save-instance: state moves on, plan.npz stays.
        assert main(["resolve", "--load", str(instance_path),
                     "--state", str(state_path),
                     "--delta", str(delta_path),
                     "--save-state", str(state_path)]) == 0
        capsys.readouterr()
        # Cycle 2 with the now-stale instance is rejected, not merged.
        assert main(["resolve", "--load", str(instance_path),
                     "--state", str(state_path),
                     "--delta", str(delta_path)]) == 2
        captured = capsys.readouterr()
        assert "does not match" in captured.err

    def test_unsigned_state_rejected(self, tmp_path, capsys):
        """A state stripped of its digest cannot merge against any plan."""
        from tests.conftest import build_random_instance

        instance = build_random_instance(
            num_users=8, num_items=6, num_classes=3, horizon=3,
            display_limit=2, capacity=8, beta=0.95, density=1.0, seed=0,
        )
        instance_path = tmp_path / "plan.npz"
        state_path = tmp_path / "state.json"
        repro_io.save_instance_npz(instance, instance_path)
        assert main(["resolve", "--load", str(instance_path),
                     "--save-state", str(state_path)]) == 0
        document = json.loads(state_path.read_text(encoding="utf-8"))
        del document["signature"]
        state_path.write_text(json.dumps(document), encoding="utf-8")
        capsys.readouterr()
        assert main(["resolve", "--load", str(instance_path),
                     "--state", str(state_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "no instance signature" in captured.err

    def test_older_state_layout_rejected(self, tmp_path, capsys):
        """A ``gates`` state from an older writer: one re-prime line."""
        from tests.conftest import build_random_instance

        instance = build_random_instance(
            num_users=8, num_items=6, num_classes=3, horizon=3,
            display_limit=2, capacity=8, beta=0.95, density=1.0, seed=0,
        )
        instance_path = tmp_path / "plan.npz"
        state_path = tmp_path / "old.json"
        repro_io.save_instance_npz(instance, instance_path)
        assert main(["resolve", "--load", str(instance_path),
                     "--save-state", str(state_path)]) == 0
        document = json.loads(state_path.read_text(encoding="utf-8"))
        assert document.pop("behind") == {}
        document["gates"] = {}
        state_path.write_text(json.dumps(document, indent=2),
                              encoding="utf-8")
        capsys.readouterr()
        assert main(["resolve", "--load", str(instance_path),
                     "--state", str(state_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert str(state_path) in captured.err
        assert ("repro resolve --load plan.npz --save-state state.json"
                in captured.err)

    def test_resolve_save_instance_persists_the_mutation(self, tmp_path,
                                                         capsys):
        instance_path = tmp_path / "plan.npz"
        mutated_path = tmp_path / "mutated.npz"
        delta_path = tmp_path / "delta.json"
        assert main(["solve", "--scale", "tiny",
                     "--save-instance", str(instance_path)]) == 0

        from repro import io as repro_io
        from repro.dynamic import InstanceDelta, save_delta

        save_delta(InstanceDelta(price_updates={(2, 0): 99.5}), delta_path)
        assert main(["resolve", "--load", str(instance_path),
                     "--delta", str(delta_path),
                     "--save-instance", str(mutated_path)]) == 0
        capsys.readouterr()
        mutated = repro_io.load_instance_npz(mutated_path)
        assert mutated.prices[2, 0] == 99.5


class TestExhibitCommand:
    def test_exhibit_table1(self, capsys):
        exit_code = main(["exhibit", "table1", "--scale", "tiny"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "#Triples with positive q" in captured.out

    def test_exhibit_theory(self, capsys):
        exit_code = main(["exhibit", "theory"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Exact Max-DCS" in captured.out
