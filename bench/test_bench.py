"""Fast checks of the benchmark itself: names, verdicts and trace arithmetic."""

import json
import re
from pathlib import Path

import pytest

from bench import compare
from bench import run
from bench import trace as layer_trace
from bench import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    entries = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(metric["unit"])
               for metric in SPEC["end_to_end"] + SPEC["per_layer"])
    bounds = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert ([m["name"] for m in SPEC["end_to_end"]]
            == list(workloads.END_TO_END))
    per_layer = [metric["name"] for metric in SPEC["per_layer"]]
    assert sorted(per_layer) == sorted(layer_trace.PER_LAYER)
    for workload in workloads.WORKLOADS.values():
        assert set(workload.layers) <= set(per_layer), workload.name


def test_a_crashed_child_counts_as_one_failed_op(tmp_path):
    result = run.run_child("no-such-workload", 0, 0, False,
                           tmp_path / "result.json")
    assert result["attempted"] == result["failed"] == 1
    assert result["failures"] == ["child exited with code 2"]
    assert not (tmp_path / "result.json").exists()


def test_the_run_length_is_fixed_by_the_benchmark():
    with pytest.raises(SystemExit) as stop:
        run.main(["--seconds", str(SPEC["run_seconds"] + 1)])
    assert stop.value.code == 2


def _document(values, stamps=None):
    return {"stamps": stamps or {"nproc": 2, "python": "3.11.7",
                                 "numpy": "2.4.6", "kernel": "numpy"},
            "workloads": {"gg-cold": {"metrics": {"round_s": values}}}}


@pytest.mark.parametrize("a, b, expected", [
    ([10.0, 10.1, 9.9, 10.0], [10.05, 9.95, 10.1, 10.0], "unchanged"),
    ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "worse"),
    ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "improved"),
    ([10.0, 14.0, 7.0, 10.0], [10.0, 13.0, 8.0, 11.0], "unresolved"),
    ([10.0, 14.0, 7.0, 10.0], [5.0, 5.5, 4.5, 6.0], "improved"),
])
def test_compare_verdicts(a, b, expected):
    spec = {"end_to_end": [{"name": "round_s", "unit": "s", "better": "lower",
                            "bound": 0.1}], "per_layer": []}
    rows = compare.compare([_document(value) for value in a],
                           [_document(value) for value in b], spec)
    assert [(row[0], row[1], row[4]) for row in rows] == [
        ("gg-cold", "round_s", expected)]


def test_compare_higher_is_better_and_unbounded_metrics():
    assert compare.verdict([1.0, 1.0], [0.5, 0.5], "higher", 0.1) == "worse"
    assert compare.verdict([1.0, 1.0], [2.0, 2.0], "higher", 0.1) == "improved"
    assert compare.verdict([1.0, 1.0], [9.0, 9.0], "lower", None) == "-"


def test_compare_refuses_mismatched_stamps(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    first.write_text(json.dumps(_document(1.0)))
    second.write_text(json.dumps(_document(1.0, {
        "nproc": 4, "python": "3.11.7", "numpy": "2.4.6", "kernel": "numpy"})))
    assert compare.main([str(first), "--", str(second)]) == 2
    assert "nproc" in capsys.readouterr().err
    assert compare.main([str(first), "--", str(first)]) == 0


class _Fake:
    """Nested calls whose durations come from a fake clock."""

    now = [0.0]

    def outer(self):
        self.now[0] += 1.0
        self.inner()
        self.now[0] += 3.0
        self.inner()
        return "done"

    def inner(self):
        self.now[0] += 2.0

    @classmethod
    def build(cls):
        cls.now[0] += 0.5
        return cls()


def test_self_time_arithmetic_on_nested_fake_spans():
    _Fake.now[0] = 0.0
    originals = {name: vars(_Fake)[name] for name in ("outer", "inner", "build")}
    tracer = layer_trace.Tracer(clock=lambda: _Fake.now[0])
    tracer.install([(_Fake, "outer", "Fake.outer", "admit"),
                    (_Fake, "inner", "Fake.inner", None),
                    (_Fake, "build", "Fake.build", "load"),
                    (_Fake, "absent", "Fake.absent", None)])
    try:
        _Fake().outer()  # outside an op: nothing is recorded
        before = tracer.snapshot()
        with tracer.op("op"):
            assert _Fake.build().outer() == "done"
        after = tracer.snapshot()
    finally:
        tracer.restore()
    assert {name: vars(_Fake)[name] for name in originals} == originals
    assert tracer.missing == ["Fake.absent"]

    values = layer_trace.per_iteration(before, after)
    view = layer_trace.View(values)
    assert view.calls("Fake.outer") == 1 and view.calls("Fake.inner") == 2
    assert view.inclusive("Fake.outer") == 8.0
    assert view.own("Fake.outer") == 4.0
    assert view.own("Fake.inner") == 4.0
    assert view.edge_calls("Fake.outer", "Fake.inner") == 2
    assert view.edge_inclusive("Fake.outer", "Fake.inner") == 4.0
    assert view.inclusive("Fake.build") == 0.5

    spans = tracer.export_spans()
    assert [(span["name"], span["parent"]) for span in spans] == [
        ("op", None), ("load", 0), ("admit", 0)]
    assert all(span["op"] == 1 for span in spans)
    assert layer_trace.span_self_seconds(spans) == {
        "op": 0.0, "load": 0.5, "admit": 8.0}


def test_per_iteration_values_and_silent_metrics():
    before = {("calls", layer_trace.SELECT): 1.0}
    after = {("calls", layer_trace.SELECT): 3.0,
             ("calls", layer_trace.PAIR_ROW): 12.0,
             ("edge_calls", layer_trace.SELECT, "Strategy.add"): 8.0,
             ("edge_calls", layer_trace.SELECT, "ColumnarFrontier.peek"): 16.0}
    values = layer_trace.per_iteration(before, after, 2)
    metrics = layer_trace.per_layer_metrics(values)
    assert metrics["compiled.pair_row_calls"] == 6.0
    assert metrics["selection.admissions"] == 4.0
    assert metrics["selection.pops"] == 8.0
    assert metrics["selection.admit_ratio"] == 0.5
    assert layer_trace.silent_metrics(
        values, ["selection.pops", "io.load_state_s", "trace.overhead_ratio"]
    ) == ["io.load_state_s"]
