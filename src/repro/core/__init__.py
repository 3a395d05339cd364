"""Core REVMAX model: entities, instances, strategies, revenue semantics.

This package implements the paper's primary contribution -- the dynamic
revenue model (Definitions 1-4) and its random-price extension (§7) -- on top
of which every algorithm in :mod:`repro.algorithms` is built.
"""

from repro.core.entities import ItemCatalog, ItemMeta, Triple, UserMeta
from repro.core.problem import AdoptionTable, RevMaxInstance
from repro.core.compiled import ColumnarAdoptionTable, CompiledInstance
from repro.core.strategy import Strategy
from repro.core.revenue import RevenueModel, group_dynamic_probability, memory_term
from repro.core.constraints import (
    CapacityConstraint,
    ConstraintChecker,
    ConstraintViolation,
    DisplayConstraint,
)
from repro.core.effective import EffectiveRevenueModel
from repro.core.random_prices import PriceDistribution, TaylorRevenueModel
from repro.core.selection import LazyGreedySelector
from repro.core.vectorized import (
    GroupArrays,
    vectorized_extended_group_revenues,
    vectorized_group_probabilities,
    vectorized_group_revenue,
    vectorized_memory_terms,
)

__all__ = [
    "AdoptionTable",
    "CapacityConstraint",
    "ColumnarAdoptionTable",
    "CompiledInstance",
    "ConstraintChecker",
    "ConstraintViolation",
    "DisplayConstraint",
    "EffectiveRevenueModel",
    "ItemCatalog",
    "ItemMeta",
    "LazyGreedySelector",
    "PriceDistribution",
    "RevMaxInstance",
    "RevenueModel",
    "Strategy",
    "TaylorRevenueModel",
    "Triple",
    "UserMeta",
    "GroupArrays",
    "group_dynamic_probability",
    "memory_term",
    "vectorized_extended_group_revenues",
    "vectorized_group_probabilities",
    "vectorized_group_revenue",
    "vectorized_memory_terms",
]
