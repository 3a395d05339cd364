"""NumPy-backed revenue kernels: the vectorized engine behind ``RevenueModel``.

The paper's algorithms owe their practicality to cheap marginal-revenue
evaluations (two-level heaps + lazy forward, §5); the evaluation itself is
the complementary lever.  This module re-implements the group-level revenue
quantities of Definitions 1-3 on NumPy arrays:

* a (user, class) group of ``n`` triples is flattened into columnar arrays
  (:class:`GroupArrays`): times, items, prices ``p(i_j, t_j)``, primitive
  probabilities ``q(u, i_j, t_j)`` and saturation factors ``beta_{i_j}``;
* the pairwise time-difference matrix ``delta[j, k] = t_j - t_k`` drives both
  the memory terms (Equation 1) -- a masked sum of ``1 / delta`` rows -- and
  the competition mask of Definition 1, whose survival products are a masked
  row-wise product of ``1 - q_k``;
* the group revenue is the dot product of prices and dynamic probabilities.

The kernels are exact re-implementations, not approximations: they perform
the same arithmetic as the pure-Python reference in
:mod:`repro.core.revenue`, so the two backends agree to floating-point
round-off (enforced by ``tests/test_vectorized.py``).

The kernels are pure array functions: ``RevenueModel`` gathers a group's
inputs from the instance's compilation and hands them over as
:class:`GroupArrays`.  It picks its engine from one explicit ``backend=``
argument (:func:`resolve_backend`): ``"numpy"`` (also what ``None`` means)
or ``"python"``.  The pure-Python backend is kept both as the executable
specification the vectorized kernels are tested against and as a fallback
for debugging (pure-Python stack traces point at the exact term that
misbehaves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np


__all__ = [
    "BACKENDS",
    "GroupArrays",
    "resolve_backend",
    "vectorized_memory_terms",
    "vectorized_group_probabilities",
    "vectorized_group_revenue",
    "vectorized_extended_group_revenues",
]

#: Recognised revenue-engine backends.
BACKENDS: Tuple[str, ...] = ("numpy", "python")


def resolve_backend(backend: Optional[str]) -> str:
    """Validate a backend choice; ``None`` means ``"numpy"``."""
    if backend is None:
        return "numpy"
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


@dataclass(frozen=True)
class GroupArrays:
    """Columnar (NumPy) view of one (user, class) group of triples.

    Attributes:
        times: shape ``(n,)`` integer time steps ``t_j``.
        items: shape ``(n,)`` integer item ids ``i_j``.
        prices: shape ``(n,)`` prices ``p(i_j, t_j)``.
        primitives: shape ``(n,)`` primitive probabilities ``q(u, i_j, t_j)``.
        betas: shape ``(n,)`` saturation factors ``beta_{i_j}``.
    """

    times: np.ndarray
    items: np.ndarray
    prices: np.ndarray
    primitives: np.ndarray
    betas: np.ndarray

    @property
    def size(self) -> int:
        """Number of triples in the group."""
        return int(self.times.shape[0])

    @classmethod
    def from_lists(cls, items: Sequence[int], times: Sequence[int],
                   primitives: Sequence[float], prices: Sequence[float],
                   betas: Sequence[float]) -> "GroupArrays":
        """Arrays over one gathered group, in group order.

        Takes the ``(items, times, primitives, prices, betas)`` lists the
        revenue model gathers from an instance's compilation; the arrays
        hold the identical floats.
        """
        return cls(
            times=np.array(times, dtype=np.intp),
            items=np.array(items, dtype=np.intp),
            prices=np.array(prices, dtype=np.float64),
            primitives=np.array(primitives, dtype=np.float64),
            betas=np.array(betas, dtype=np.float64),
        )


def _memory_from_deltas(delta: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Memory terms given the pairwise time differences and their sign mask."""
    inverse = np.divide(1.0, delta, out=np.zeros_like(delta), where=earlier)
    return inverse.sum(axis=1)


def _ordered_dot(prices: np.ndarray, probabilities: np.ndarray) -> np.ndarray:
    """Price-weighted revenue reduction with a replicable accumulation order.

    ``prices @ probabilities`` delegates to BLAS, whose accumulation order is
    implementation-defined and varies with backend and vector length.  The
    golden fixtures (``tests/golden/``) pin revenues computed in this order,
    so revenue dots go through ``np.add.reduce`` over the elementwise product
    instead: NumPy's pairwise summation, a deterministic tree that keeps
    those floats reproducible bit for bit.
    """
    return np.add.reduce(prices * probabilities, axis=-1)


def vectorized_memory_terms(times: np.ndarray) -> np.ndarray:
    """Memory terms ``M_S(u, i, t_j)`` for every triple of a group (Eq. 1).

    Args:
        times: shape ``(n,)`` times of the group's triples.

    Returns:
        Shape ``(n,)`` array whose ``j``-th entry is
        ``sum over k with t_k < t_j of 1 / (t_j - t_k)``.
    """
    if times.shape[0] == 0:
        return np.zeros(0)
    delta = (times[:, None] - times[None, :]).astype(np.float64)
    return _memory_from_deltas(delta, delta > 0.0)


def vectorized_group_probabilities(arrays: GroupArrays) -> np.ndarray:
    """Dynamic adoption probabilities ``q_S`` of every triple (Definition 1).

    Vectorizes, for all ``n`` triples of the group at once,

    ``q_S(u, i_j, t_j) = q(u, i_j, t_j) * beta_{i_j} ** M_j * prod_k (1 - q_k)``

    where ``k`` ranges over the *competing* triples of the group: those at a
    strictly earlier time, plus same-time triples of a different item.
    """
    n = arrays.size
    if n == 0:
        return np.zeros(0)
    delta = (arrays.times[:, None] - arrays.times[None, :]).astype(np.float64)
    earlier = delta > 0.0
    memory = _memory_from_deltas(delta, earlier)
    # beta ** 0 == 1 exactly (also for beta == 0), matching the scalar kernel.
    saturation = np.power(arrays.betas, memory)
    competes = earlier | (
        (delta == 0.0) & (arrays.items[:, None] != arrays.items[None, :])
    )
    survival = np.where(competes, 1.0 - arrays.primitives[None, :], 1.0).prod(axis=1)
    probabilities = arrays.primitives * saturation * survival
    # Definition 1 short-circuits zero primitives; keep exact zeros.
    return np.where(arrays.primitives > 0.0, probabilities, 0.0)


def vectorized_group_revenue(arrays: GroupArrays) -> float:
    """Expected revenue of one (user, class) group (NumPy kernel).

    The arithmetic of :func:`repro.core.revenue.group_revenue` on the
    group's arrays.
    """
    if arrays.size == 0:
        return 0.0
    probabilities = vectorized_group_probabilities(arrays)
    return float(_ordered_dot(arrays.prices, probabilities))


def vectorized_extended_group_revenues(base: GroupArrays,
                                       cand: GroupArrays) -> np.ndarray:
    """Revenues of ``base + [c]`` for every candidate ``c``, in one pass.

    This is the batched-scoring kernel behind
    :meth:`repro.core.revenue.RevenueModel.marginal_revenue_batch`: all
    candidates must share the base group's user and item class (each candidate
    extends the *same* group independently; candidates do not interact with
    each other).  Instead of launching one O(n^2) pairwise kernel per
    candidate, a single (m, n) cross matrix of time differences yields, for
    every candidate at once,

    * the extra memory ``1 / (t_k - t_c)`` the candidate adds to each base
      triple scheduled after it, and the candidate's own memory term;
    * the extra competition factor ``1 - q_c`` the candidate applies to base
      triples it competes with, and the candidate's own survival product.

    Returns:
        Shape ``(m,)`` array; entry ``j`` is the revenue of the base group
        extended by candidate ``j``.
    """
    if cand.size == 0:
        return np.zeros(0)
    if base.size == 0:
        # Singleton groups: no memory, no competition.
        return cand.prices * cand.primitives

    base_memory = vectorized_memory_terms(base.times)
    delta_bb = (base.times[:, None] - base.times[None, :]).astype(np.float64)
    competes_bb = (delta_bb > 0.0) | (
        (delta_bb == 0.0) & (base.items[:, None] != base.items[None, :])
    )
    base_survival = np.where(
        competes_bb, 1.0 - base.primitives[None, :], 1.0
    ).prod(axis=1)

    # Cross matrix: delta[j, k] = t_cand_j - t_base_k.
    delta = (cand.times[:, None] - base.times[None, :]).astype(np.float64)
    same_time = delta == 0.0
    different_item = cand.items[:, None] != base.items[None, :]

    # --- contribution of the base triples under the extended group --------
    # A base triple k gains memory 1/(t_k - t_c_j) when the candidate is
    # strictly earlier, and a survival factor (1 - q_c_j) when the candidate
    # competes with it (earlier, or same time with a different item).
    extra_memory = np.divide(
        -1.0, delta, out=np.zeros_like(delta), where=delta < 0.0
    )
    saturation = np.power(base.betas[None, :], base_memory[None, :] + extra_memory)
    cand_competes = (delta < 0.0) | (same_time & different_item)
    extra_survival = np.where(cand_competes, 1.0 - cand.primitives[:, None], 1.0)
    base_probabilities = (
        base.primitives[None, :] * saturation
        * base_survival[None, :] * extra_survival
    )
    base_probabilities = np.where(
        base.primitives[None, :] > 0.0, base_probabilities, 0.0
    )
    base_contribution = _ordered_dot(base_probabilities, base.prices[None, :])

    # --- contribution of the candidate itself ----------------------------
    cand_memory = _memory_from_deltas(delta, delta > 0.0)
    base_competes = (delta > 0.0) | (same_time & different_item)
    cand_survival = np.where(
        base_competes, 1.0 - base.primitives[None, :], 1.0
    ).prod(axis=1)
    cand_probabilities = (
        cand.primitives * np.power(cand.betas, cand_memory) * cand_survival
    )
    cand_probabilities = np.where(cand.primitives > 0.0, cand_probabilities, 0.0)

    return base_contribution + cand.prices * cand_probabilities
