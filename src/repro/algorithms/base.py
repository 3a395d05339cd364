"""Common interface of all REVMAX algorithms.

Every algorithm (exact, approximate, greedy or baseline) consumes a
:class:`~repro.core.problem.RevMaxInstance` and produces an
:class:`AlgorithmResult` holding the chosen strategy, its expected revenue
under the *true* revenue model, wall-clock running time and algorithm-specific
diagnostics (e.g. the revenue-growth curve of Figure 4 or the number of
objective evaluations).

Keeping the result shape uniform lets the experiment harness and the
benchmarks treat all algorithms interchangeably, exactly as the paper's
figures compare them side by side.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.constraints import ConstraintChecker
from repro.core.problem import RevMaxInstance
from repro.core.revenue import RevenueModel
from repro.core.strategy import Strategy

__all__ = ["AlgorithmResult", "RevMaxAlgorithm"]


@dataclass
class AlgorithmResult:
    """Outcome of running a REVMAX algorithm on an instance.

    Attributes:
        algorithm: name of the algorithm ("G-Greedy", "TopRE", ...).
        instance_name: name of the instance that was solved.
        strategy: the recommendation strategy produced.
        revenue: expected revenue of the strategy under the true model.
        runtime_seconds: wall-clock running time of the solve.
        growth_curve: optional list of ``(strategy size, revenue)`` checkpoints
            recorded while the strategy was being built (Figure 4).
        evaluations: number of group-revenue kernel evaluations the solve
            computed (see
            :attr:`repro.core.revenue.RevenueModel.evaluations`).
        extras: free-form algorithm-specific diagnostics.
    """

    algorithm: str
    instance_name: str
    strategy: Strategy
    revenue: float
    runtime_seconds: float
    growth_curve: List[Tuple[int, float]] = field(default_factory=list)
    evaluations: int = 0
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def strategy_size(self) -> int:
        """Number of triples in the produced strategy."""
        return len(self.strategy)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.algorithm}: revenue={self.revenue:,.2f} "
            f"size={self.strategy_size} time={self.runtime_seconds:.3f}s"
        )


class RevMaxAlgorithm(ABC):
    """Base class for all REVMAX solvers."""

    #: Human-readable algorithm name, overridden by subclasses.
    name: str = "abstract"

    #: Revenue-engine backend ("numpy" / "python" / None for the process
    #: default); solvers that accept a ``backend`` argument store it here so
    #: :meth:`run` scores the final strategy with the same engine.
    backend: Optional[str] = None

    @abstractmethod
    def build_strategy(self, instance: RevMaxInstance) -> Strategy:
        """Construct a strategy for the instance (algorithm-specific)."""

    def run(self, instance: RevMaxInstance,
            validate: bool = True) -> AlgorithmResult:
        """Solve the instance and package the result.

        Args:
            instance: the REVMAX instance to solve.
            validate: assert that the produced strategy satisfies the display
                and capacity constraints (disabled for R-REVMAX solvers whose
                output intentionally relaxes capacity).

        Returns:
            An :class:`AlgorithmResult` with revenue computed by the exact
            revenue model of Definition 2.
        """
        start = time.perf_counter()
        strategy = self.build_strategy(instance)
        elapsed = time.perf_counter() - start
        if validate:
            ConstraintChecker(instance).check(strategy)
        model = RevenueModel(instance, backend=self.backend)
        revenue = model.revenue(strategy)
        result = AlgorithmResult(
            algorithm=self.name,
            instance_name=instance.name,
            strategy=strategy,
            revenue=revenue,
            runtime_seconds=elapsed,
            evaluations=getattr(self, "last_evaluations", 0),
            growth_curve=list(getattr(self, "last_growth_curve", [])),
            extras=dict(getattr(self, "last_extras", {})),
        )
        return result
