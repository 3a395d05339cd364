"""Global Greedy (G-Greedy), Algorithm 1 of the paper.

G-Greedy grows the strategy one triple at a time, always adding the candidate
with the largest positive marginal revenue that does not violate the display
or capacity constraint.  The selection mechanics -- the two-level heap of
§5.1, Minoux's lazy forward, batched candidate scoring and the
blocked-candidate discards of Algorithm 1 -- live in the shared
:class:`repro.core.selection.LazyGreedySelector`; this module only assembles
the paper-level configuration:

* heaps are seeded with isolated expected revenues ``p(i, t) * q(u, i, t)``
  (line 8 of Algorithm 1);
* ``ignore_saturation=True`` is the **GlobalNo** baseline: candidates are
  *selected* as if ``beta_i = 1`` everywhere, but the reported revenue of the
  final strategy uses the true saturation factors;
* ``use_lazy_forward=False`` / ``use_two_level_heap=False`` are ablations that
  must produce the same strategy while doing more work (benchmarked in
  ``benchmarks/test_ablation_*``).

The optional ``allowed_times`` / ``initial_strategy`` arguments support the
gradually-available-prices experiments (§6.3), where the horizon is solved one
sub-horizon at a time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.constraints import ConstraintChecker
from repro.core.problem import RevMaxInstance
from repro.core.revenue import RevenueModel
from repro.core.selection import (
    SEED_ISOLATED,
    LazyGreedySelector,
    selection_bound,
)
from repro.core.strategy import Strategy
from repro.algorithms.base import RevMaxAlgorithm

__all__ = ["GlobalGreedy", "GlobalGreedyNoSaturation"]


class GlobalGreedy(RevMaxAlgorithm):
    """The G-Greedy algorithm (two-level heaps + lazy forward).

    Args:
        use_lazy_forward: recompute stale marginal revenues lazily (default)
            or eagerly after every selection.
        use_two_level_heap: use the two-level heap of §5.1 (default) or a
            single flat addressable heap (ablation).
        ignore_saturation: select triples as if no saturation existed
            (the GlobalNo baseline).
        backend: revenue-engine backend ("numpy" / "python"); ``None`` means
            numpy.  The numpy backend runs the columnar loop over the
            instance's compilation; the python backend runs the per-triple
            object loop and never compiles (the executable specification).
    """

    name = "G-Greedy"

    def __init__(self, use_lazy_forward: bool = True,
                 use_two_level_heap: bool = True,
                 ignore_saturation: bool = False,
                 backend: Optional[str] = None) -> None:
        self._use_lazy_forward = use_lazy_forward
        self._use_two_level_heap = use_two_level_heap
        self._ignore_saturation = ignore_saturation
        self.backend = backend
        if ignore_saturation:
            self.name = "GlobalNo"
        self.last_growth_curve: List[Tuple[int, float]] = []
        self.last_evaluations: int = 0
        self.last_lookups: int = 0
        self.last_extras: Dict[str, object] = {}

    def build_strategy(self, instance: RevMaxInstance,
                       allowed_times: Optional[Iterable[int]] = None,
                       initial_strategy: Optional[Strategy] = None) -> Strategy:
        """Run G-Greedy and return the constructed strategy.

        Args:
            instance: the REVMAX instance.
            allowed_times: if given, only triples at these time steps are
                candidates (the sub-horizon setting of §6.3).
            initial_strategy: strategy carried over from earlier sub-horizons;
                its triples count towards constraints and interact with new
                candidates through competition and saturation.
        """
        # True model first: compiling the base instance lets the GlobalNo
        # copy below transplant the cached CSR tensors instead of re-walking
        # the adoption table (the candidate table is beta-independent).
        true_model = RevenueModel(instance, backend=self.backend)
        selection_instance = (
            instance.with_betas(1.0) if self._ignore_saturation else instance
        )
        selection_model = RevenueModel(selection_instance, backend=self.backend)
        allowed = set(allowed_times) if allowed_times is not None else None

        strategy = (
            initial_strategy.copy() if initial_strategy is not None
            else Strategy(instance.catalog)
        )
        initial_revenue = true_model.revenue(strategy) if len(strategy) else 0.0

        selector = LazyGreedySelector(
            instance, selection_model, ConstraintChecker(instance),
            true_model=true_model if self._ignore_saturation else None,
            use_lazy_forward=self._use_lazy_forward,
            use_two_level_heap=self._use_two_level_heap,
            seed_priorities=SEED_ISOLATED,
            max_selections=selection_bound(instance, allowed) + len(strategy),
        )
        growth_curve: List[Tuple[int, float]] = []
        # candidates=None is the whole ground set; the selector seeds from
        # the columnar compilation when the configuration allows it and
        # falls back to iterating instance.candidate_triples() otherwise.
        selector.select(strategy, None, allowed_times=allowed,
                        growth_curve=growth_curve,
                        initial_revenue=initial_revenue)

        self.last_growth_curve = growth_curve
        self.last_evaluations = selection_model.evaluations
        self.last_lookups = selection_model.lookups
        self.last_extras = {
            "lazy_forward": self._use_lazy_forward,
            "two_level_heap": self._use_two_level_heap,
            "ignore_saturation": self._ignore_saturation,
        }
        return strategy

    # ------------------------------------------------------------------
    # dynamic re-solve
    # ------------------------------------------------------------------
    def _resolve_compatible(self) -> bool:
        """The incremental engine replays the paper-default configuration."""
        from repro.core.vectorized import resolve_backend

        return (
            not self._ignore_saturation
            and self._use_lazy_forward
            and self._use_two_level_heap
            and resolve_backend(self.backend) == "numpy"
        )

    def resolve(self, instance: RevMaxInstance, delta=None) -> Strategy:
        """Apply ``delta`` to ``instance`` in place and re-solve it.

        Repeated calls against the *same instance object* are warm: the
        first call runs a cold solve and records the per-user admission
        streams; later calls repair only what each delta touched
        (:class:`repro.dynamic.incremental.IncrementalSolver`).  The
        returned strategy is bit-identical to
        ``build_strategy`` on the mutated instance -- admission order,
        gains and growth curve included.

        Configurations the incremental engine does not cover (GlobalNo,
        the ablation heaps/refresh modes, non-numpy backends) apply the
        delta and re-solve cold, so ``resolve`` is always safe to call.

        Args:
            instance: the instance to mutate and solve.
            delta: optional :class:`repro.dynamic.delta.InstanceDelta`;
                ``None`` (re-)solves the instance as is.

        Returns:
            The repaired strategy; ``last_growth_curve`` and
            ``last_extras["resolve"]`` are updated alongside.
        """
        # Imported lazily: plain greedy solves must not depend on the
        # dynamic layer.
        from repro.dynamic import apply_delta
        from repro.dynamic.incremental import IncrementalSolver

        if not self._resolve_compatible():
            if delta is not None:
                apply_delta(instance, delta)
            strategy = self.build_strategy(instance)
            self.last_extras["resolve"] = {"mode": "cold"}
            return strategy
        solver = getattr(self, "_incremental", None)
        if solver is None or solver.instance is not instance:
            solver = IncrementalSolver(instance)
            self._incremental = solver
            if delta is None:
                solver.solve()
            else:
                solver.resolve(delta)
        else:
            solver.resolve(delta)
        self.last_growth_curve = list(solver.growth_curve)
        self.last_extras["resolve"] = dict(solver.last_stats)
        return solver.strategy


class GlobalGreedyNoSaturation(GlobalGreedy):
    """The GlobalNo baseline: G-Greedy that pretends saturation does not exist."""

    name = "GlobalNo"

    def __init__(self, backend: Optional[str] = None) -> None:
        super().__init__(ignore_saturation=True, backend=backend)
