"""Layer tracer for traced benchmark runs.

:class:`Tracer` wraps the public functions and methods of each ``repro``
layer where callers look them up: a module attribute or a class attribute.
Every wrapper keeps a call count, inclusive seconds and self seconds
(inclusive minus the time spent in wrapped callees, tracked with a call
stack), plus a call count and inclusive seconds per (caller, callee) edge.
The coarse entry points also record phase spans -- name, start, end, parent
span and op id -- which stay in memory until the run ends.
:meth:`Tracer.restore` puts every original back.

:data:`PER_LAYER` turns the difference of two :meth:`Tracer.snapshot` calls into the
per-layer metrics named in ``BENCHMARK.json``.  Each metric also names the
wrappers that feed it, so a traced run can name a metric that never fired
instead of silently reporting zero for it.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_COLUMNAR_METHODS = ("peek", "peek_with_row", "pop", "update", "discard",
                     "drop_group", "group_members", "priority", "__contains__")
_OBJECT_HEAP_METHODS = ("insert", "push", "peek", "pop", "update", "delete",
                        "discard", "priority", "__contains__")
_TWO_LEVEL_ONLY = ("delete_group", "group_keys", "group_of")
_STRATEGY_METHODS = ("add", "remove", "__contains__", "group",
                     "group_of_triple", "group_size", "display_count",
                     "item_audience", "item_audience_size", "user_has_item",
                     "copy", "sorted_triples")

#: Every wrapped entry point: ``(module, class or None, attribute, phase)``.
#: ``phase`` names the span the call records (``None``: counters only).
TARGETS: Tuple[Tuple[str, Optional[str], str, Optional[str]], ...] = (
    ("repro.datasets.synthetic", None, "generate_synthetic_columnar",
     "generate"),
    ("repro.experiments.harness", None, "prepare_dataset", "generate"),
    ("repro.core.compiled", "CompiledInstance", "pair_row", None),
    ("repro.core.compiled", "CompiledInstance", "isolated_revenues",
     "compile"),
    ("repro.core.compiled", "CompiledInstance", "apply_delta", "compile"),
    ("repro.core.selection", None, "build_columnar_frontier", "seed"),
    ("repro.core.selection", "LazyGreedySelector", "select", "admit"),
    *(("repro.heaps.columnar", "ColumnarFrontier", method, None)
      for method in _COLUMNAR_METHODS),
    *(("repro.heaps.two_level", "TwoLevelHeap", method, None)
      for method in _OBJECT_HEAP_METHODS + _TWO_LEVEL_ONLY),
    *(("repro.heaps.binary_heap", "AddressableMaxHeap", method, None)
      for method in _OBJECT_HEAP_METHODS),
    ("repro.core.revenue", "RevenueModel", "__init__", None),
    ("repro.core.revenue", "RevenueModel", "marginal_revenue_batch", None),
    ("repro.core.constraints", "ConstraintChecker", "can_add", None),
    *(("repro.core.strategy", "Strategy", method, None)
      for method in _STRATEGY_METHODS),
    ("repro.algorithms.base", "RevMaxAlgorithm", "run", "materialise"),
    ("repro.experiments.parallel", None, "parallel_map", None),
    ("repro.dynamic.incremental", "IncrementalSolver", "solve", "resolve"),
    ("repro.dynamic.incremental", "IncrementalSolver", "resolve", "resolve"),
    ("repro.dynamic.incremental", "IncrementalSolver", "from_state", "load"),
    ("repro.dynamic.incremental", "IncrementalSolver", "state", "save"),
    ("repro.io", None, "load_instance_npz", "load"),
    ("repro.io", None, "save_instance_npz", "save"),
    ("repro.io", None, "load_solver_state", "load"),
    ("repro.io", None, "save_solver_state", "save"),
    ("repro.dynamic", None, "load_delta", "load"),
    ("repro.cli", None, "main", None),
)

#: ``build_strategy`` is wrapped on every concrete algorithm class under
#: this one shared name (the classes are discovered at install time).
BUILD_STRATEGY = "RevMaxAlgorithm.build_strategy"

#: Suite keys of ``standard_algorithms`` by algorithm display name.
ALGORITHM_KEYS = {"G-Greedy": "GG", "GlobalNo": "GG-No", "RL-Greedy": "RLG",
                  "SL-Greedy": "SLG", "TopRE": "TopRev", "TopRA": "TopRat"}


def _wrapper_name(module: str, class_name: Optional[str],
                  attribute: str) -> str:
    """``Class.attribute`` for methods, ``module_tail.attribute`` otherwise."""
    owner = class_name or module.rsplit(".", 1)[-1]
    return f"{owner}.{attribute}"


class Tracer:
    """Counts and times calls through wrapped layer entry points.

    Wrappers only record while :attr:`active` is true -- inside
    :meth:`op` -- so checks and bookkeeping the benchmark runs between ops
    leave the numbers alone.

    Args:
        clock: monotonic clock in seconds (tests pass a fake one).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.active = False
        self.missing: List[str] = []
        self.spans: List[list] = []
        self._clock = clock
        self._origin = clock()
        self._stack: List[list] = []
        self._open: List[int] = []
        self._stats: Dict[str, list] = {}
        self._edges: Dict[Tuple[str, str], list] = {}
        self._counters: Dict[str, float] = {}
        self._models: List[object] = []
        self._originals: List[Tuple[object, str, object]] = []
        self._ops = 0
        self._op_id: Optional[int] = None
        self._hooks = {
            "ConstraintChecker.can_add": self._count_blocked,
            "RevenueModel.__init__": self._register_model,
            "RevMaxAlgorithm.run": self._time_algorithm,
            "IncrementalSolver.resolve": self._count_resolve,
            "io.save_instance_npz": self._file_bytes("io.instance_bytes"),
            "io.save_solver_state": self._file_bytes("io.state_bytes"),
        }

    # ------------------------------------------------------------------
    # installing and removing wrappers
    # ------------------------------------------------------------------
    def install(self, targets: Optional[Sequence[tuple]] = None) -> None:
        """Wrap ``(owner, attribute, name, phase)`` targets.

        ``None`` wraps the ``repro`` layers: :data:`TARGETS` plus
        ``build_strategy`` on every concrete algorithm.  A target that no
        longer exists is listed in :attr:`missing`; the metrics it feeds then
        fail the self-check by name.
        """
        for owner, attribute, name, phase in (
            targets if targets is not None else self._repro_targets()
        ):
            raw = vars(owner).get(attribute)
            if raw is None:
                self.missing.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self._wrap(name, raw.__func__, phase))
            else:
                replacement = self._wrap(name, raw, phase)
            setattr(owner, attribute, replacement)
            self._originals.append((owner, attribute, raw))

    def restore(self) -> None:
        """Put every wrapped original back (idempotent)."""
        while self._originals:
            owner, attribute, raw = self._originals.pop()
            setattr(owner, attribute, raw)

    def _repro_targets(self) -> List[tuple]:
        targets = []
        for module_name, class_name, attribute, phase in TARGETS:
            name = _wrapper_name(module_name, class_name, attribute)
            try:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            targets.append((owner, attribute, name, phase))
        base = importlib.import_module("repro.algorithms.base").RevMaxAlgorithm
        importlib.import_module("repro.experiments.harness")  # loads the suite
        pending = list(base.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "build_strategy" in vars(cls):
                targets.append((cls, "build_strategy", BUILD_STRATEGY,
                                "build"))
        return targets

    def _wrap(self, name: str, original: Callable, phase: Optional[str]):
        stats = self._stats.setdefault(name, [0, 0.0, 0.0])
        stack, edges, clock = self._stack, self._edges, self._clock
        hook = self._hooks.get(name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            span = tracer._open_span(phase, name) if phase else None
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    edge = edges.get((parent[0], name))
                    if edge is None:
                        edge = edges[(parent[0], name)] = [0, 0.0]
                    edge[0] += 1
                    edge[1] += elapsed
                if span is not None:
                    tracer._close_span(span)
            if hook is not None:
                hook(args, kwargs, result, elapsed)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # ops and spans
    # ------------------------------------------------------------------
    @contextmanager
    def op(self, label: str):
        """Record one benchmark op: an ``op`` span, wrappers active inside."""
        self._ops += 1
        self._op_id = self._ops
        span = self._open_span("op", label)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self._close_span(span)
            self._op_id = None

    def _open_span(self, phase: str, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([phase, name, self._clock() - self._origin, None,
                           parent, self._op_id])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close_span(self, index: int) -> None:
        self.spans[index][3] = self._clock() - self._origin
        self._open.pop()

    def export_spans(self) -> List[Dict[str, object]]:
        """Spans as JSON-ready dicts (seconds since the tracer started)."""
        return [
            {"name": phase, "target": name, "start": start, "end": end,
             "parent": parent, "op": op}
            for phase, name, start, end, parent, op in self.spans
        ]

    # ------------------------------------------------------------------
    # numbers
    # ------------------------------------------------------------------
    def _add(self, counter: str, value: float) -> None:
        self._counters[counter] = self._counters.get(counter, 0) + value

    def snapshot(self) -> Dict[tuple, float]:
        """Every count, time and counter so far, as a flat dict.

        Differences of two snapshots measure the work in between.
        """
        self._settle_models()
        values: Dict[tuple, float] = {}
        for name, (calls, inclusive, own) in self._stats.items():
            values[("calls", name)] = calls
            values[("incl", name)] = inclusive
            values[("self", name)] = own
        for (parent, child), (calls, inclusive) in self._edges.items():
            values[("edge_calls", parent, child)] = calls
            values[("edge_incl", parent, child)] = inclusive
        for name, value in self._counters.items():
            values[("counter", name)] = value
        return values

    def _settle_models(self) -> None:
        # Revenue models are held only until the next snapshot: their
        # memo caches can be large.
        for model in self._models:
            self._add("revenue.evaluations", model.evaluations)
            self._add("revenue.cache_hits", model.cache_hits)
            self._add("revenue.lookups", model.lookups)
        self._models.clear()

    # ------------------------------------------------------------------
    # hooks: counters read off a wrapped call's arguments or result
    # ------------------------------------------------------------------
    def _count_blocked(self, args, kwargs, result, elapsed) -> None:
        if result is False:
            self._add("constraints.blocked", 1)

    def _register_model(self, args, kwargs, result, elapsed) -> None:
        self._models.append(args[0])

    def _time_algorithm(self, args, kwargs, result, elapsed) -> None:
        key = ALGORITHM_KEYS.get(getattr(args[0], "name", ""))
        if key is not None:
            self._add(f"algorithms.{key}_s", elapsed)

    def _count_resolve(self, args, kwargs, result, elapsed) -> None:
        stats = getattr(args[0], "last_stats", {})
        mode = "merge" if stats.get("mode") == "merge" else "fallback"
        self._add(f"dynamic.{mode}_cycles", 1)
        self._add("dynamic.dirty_users", stats.get("dirty_users", 0))
        self._add("dynamic.reused_events", stats.get("reused_events", 0))

    def _file_bytes(self, counter: str):
        def hook(args, kwargs, result, elapsed) -> None:
            path = args[1] if len(args) > 1 else kwargs["path"]
            self._add(counter, os.path.getsize(path))
        return hook


def per_iteration(before: Dict[tuple, float], after: Dict[tuple, float],
                  iterations: int = 1) -> Dict[tuple, float]:
    """``(after - before) / iterations`` for every key of two snapshots."""
    return {key: (value - before.get(key, 0.0)) / iterations
            for key, value in after.items()}


def span_self_seconds(spans: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Self seconds per span name: duration minus its direct children's."""
    children = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        own = span["end"] - span["start"] - children[index]
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


class View:
    """Read helpers over a :func:`per_iteration` result."""

    def __init__(self, values: Dict[tuple, float]) -> None:
        self._values = values

    def _sum(self, kind: str, names: Sequence[str]) -> float:
        return sum(self._values.get((kind, name), 0.0) for name in names)

    def calls(self, *names: str) -> float:
        return self._sum("calls", names)

    def inclusive(self, *names: str) -> float:
        return self._sum("incl", names)

    def own(self, *names: str) -> float:
        return self._sum("self", names)

    def edge_calls(self, parent: str, *children: str) -> float:
        return sum(self._values.get(("edge_calls", parent, child), 0.0)
                   for child in children)

    def edge_inclusive(self, parent: str, *children: str) -> float:
        return sum(self._values.get(("edge_incl", parent, child), 0.0)
                   for child in children)

    def counter(self, name: str) -> float:
        return self._values.get(("counter", name), 0.0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _names(class_name: str, methods: Sequence[str]) -> Tuple[str, ...]:
    return tuple(f"{class_name}.{method}" for method in methods)


GENERATE = ("synthetic.generate_synthetic_columnar", "harness.prepare_dataset")
PAIR_ROW = "CompiledInstance.pair_row"
SELECT = "LazyGreedySelector.select"
SEED = "selection.build_columnar_frontier"
COLUMNAR = _names("ColumnarFrontier", _COLUMNAR_METHODS)
OBJECT_HEAPS = (_names("TwoLevelHeap", _OBJECT_HEAP_METHODS + _TWO_LEVEL_ONLY)
                + _names("AddressableMaxHeap", _OBJECT_HEAP_METHODS))
PEEKS = ("ColumnarFrontier.peek", "TwoLevelHeap.peek", "AddressableMaxHeap.peek")
BATCH = "RevenueModel.marginal_revenue_batch"
MODEL = "RevenueModel.__init__"
CAN_ADD = "ConstraintChecker.can_add"
STRATEGY = _names("Strategy", _STRATEGY_METHODS)
RUN = "RevMaxAlgorithm.run"
PARALLEL_MAP = "parallel.parallel_map"
RESOLVE = "IncrementalSolver.resolve"
CLI_MAIN = "cli.main"


def _admissions(v: View) -> float:
    return v.edge_calls(SELECT, "Strategy.add")


def _pops(v: View) -> float:
    return v.edge_calls(SELECT, *PEEKS)


def _extra(name: str) -> Callable[[View], float]:
    """A counter kept by a hook or stored by the benchmark itself."""
    return lambda v: v.counter(name)


def _calls(name: str) -> Callable[[View], float]:
    return lambda v: v.calls(name)


def _inclusive(name: str) -> Callable[[View], float]:
    return lambda v: v.inclusive(name)


#: Per-layer metric -> (wrappers that must fire for it, value per iteration).
PER_LAYER: Dict[str, Tuple[Tuple[str, ...], Callable[[View], float]]] = {
    "datasets.generate_s": (GENERATE, lambda v: v.inclusive(*GENERATE)),
    "compiled.pair_row_calls": ((PAIR_ROW,), _calls(PAIR_ROW)),
    "compiled.pair_row_self_s": ((PAIR_ROW,), lambda v: v.own(PAIR_ROW)),
    **{
        f"compiled.{method}_s": ((f"CompiledInstance.{method}",),
                                 _inclusive(f"CompiledInstance.{method}"))
        for method in ("isolated_revenues", "apply_delta")
    },
    "selection.seed_s": ((SEED,), _inclusive(SEED)),
    "selection.select_self_s": ((SELECT,), lambda v: v.own(SELECT)),
    "selection.pops": ((SELECT,), _pops),
    "selection.admissions": ((SELECT,), _admissions),
    "selection.admit_ratio": (
        (SELECT,), lambda v: _ratio(_admissions(v), _pops(v))),
    "selection.us_per_admission": (
        (SELECT,), lambda v: _ratio(v.inclusive(SELECT) * 1e6, _admissions(v))),
    **{
        f"heaps.{method}_calls": ((f"ColumnarFrontier.{method}",),
                                  _calls(f"ColumnarFrontier.{method}"))
        for method in ("peek", "update", "drop_group")
    },
    "heaps.columnar_self_s": (COLUMNAR, lambda v: v.own(*COLUMNAR)),
    "heaps.object_self_s": (OBJECT_HEAPS, lambda v: v.own(*OBJECT_HEAPS)),
    "revenue.batch_calls": ((BATCH,), _calls(BATCH)),
    "revenue.batch_self_s": ((BATCH,), lambda v: v.own(BATCH)),
    **{
        f"revenue.{name}": ((MODEL,), _extra(f"revenue.{name}"))
        for name in ("evaluations", "cache_hits", "lookups")
    },
    "revenue.cache_hit_ratio": ((MODEL,), lambda v: _ratio(
        v.counter("revenue.cache_hits"),
        v.counter("revenue.cache_hits") + v.counter("revenue.evaluations"))),
    "constraints.can_add_calls": ((CAN_ADD,), _calls(CAN_ADD)),
    "constraints.can_add_self_s": ((CAN_ADD,), lambda v: v.own(CAN_ADD)),
    "constraints.blocked": ((CAN_ADD,), _extra("constraints.blocked")),
    "strategy.self_s": (STRATEGY, lambda v: v.own(*STRATEGY)),
    "algorithms.materialise_s": ((RUN,), lambda v: v.inclusive(RUN)
                                 - v.edge_inclusive(RUN, BUILD_STRATEGY)),
    **{
        f"algorithms.{key}_s": ((RUN,), _extra(f"algorithms.{key}_s"))
        for key in ALGORITHM_KEYS.values()
    },
    "parallel.map_calls": ((PARALLEL_MAP,), _calls(PARALLEL_MAP)),
    "parallel.map_s": ((PARALLEL_MAP,), _inclusive(PARALLEL_MAP)),
    "parallel.worker_rss_mb": ((PARALLEL_MAP,),
                               _extra("parallel.worker_rss_mb")),
    **{
        f"dynamic.{metric}": ((name,), _inclusive(name))
        for metric, name in (
            ("resolve_s", RESOLVE),
            ("from_state_s", "IncrementalSolver.from_state"),
            ("export_state_s", "IncrementalSolver.state"),
        )
    },
    **{
        f"dynamic.{name}": ((RESOLVE,), _extra(f"dynamic.{name}"))
        for name in ("merge_cycles", "fallback_cycles", "dirty_users",
                     "reused_events")
    },
    **{
        f"io.{metric}": ((name,), _inclusive(name))
        for metric, name in (
            ("load_instance_s", "io.load_instance_npz"),
            ("save_instance_s", "io.save_instance_npz"),
            ("load_state_s", "io.load_solver_state"),
            ("save_state_s", "io.save_solver_state"),
            ("load_delta_s", "dynamic.load_delta"),
        )
    },
    "io.state_bytes": (("io.save_solver_state",),
                       _extra("io.state_bytes")),
    "io.instance_bytes": (("io.save_instance_npz",),
                          _extra("io.instance_bytes")),
    "cli.self_s": ((CLI_MAIN,), lambda v: v.own(CLI_MAIN)),
    "trace.overhead_ratio": ((), _extra("trace.overhead_ratio")),
}


def per_layer_metrics(values: Dict[tuple, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from a :func:`per_iteration` result."""
    view = View(values)
    return {name: float(compute(view))
            for name, (_, compute) in PER_LAYER.items()}


def silent_metrics(values: Dict[tuple, float],
                   declared: Sequence[str]) -> List[str]:
    """Declared metrics none of whose wrappers was ever called."""
    view = View(values)
    return [name for name in declared
            if PER_LAYER[name][0] and not view.calls(*PER_LAYER[name][0])]


def ratio_bases(values: Dict[tuple, float]) -> List[str]:
    """The bases of the per-layer ratios, printed next to them."""
    view = View(values)
    hits = view.counter("revenue.cache_hits")
    misses = view.counter("revenue.evaluations")
    return [
        f"selection.admit_ratio = {_admissions(view):.0f} admissions / "
        f"{_pops(view):.0f} pops",
        f"revenue.cache_hit_ratio = {hits:.0f} cache hits / "
        f"{hits + misses:.0f} group revenues resolved",
    ]
