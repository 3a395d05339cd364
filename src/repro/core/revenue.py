"""The dynamic revenue model of the paper (Definitions 1-3).

This module implements, for the *exact price* model:

* the memory term ``M_S(u, i, t)`` (Equation 1),
* the dynamic adoption probability ``q_S(u, i, t)`` (Definition 1),
* the expected revenue ``Rev(S)`` of a strategy (Definition 2),
* the marginal revenue ``Rev_S(z) = Rev(S + z) - Rev(S)`` of adding a triple
  (Definition 3).

Because saturation and competition only couple triples that share the same
*user* and the same *item class*, every quantity decomposes over
(user, class) groups.  All functions below therefore work on a single group
at a time; :class:`RevenueModel` stitches the groups together and is the
object every algorithm talks to.

Times are 0-based (``0 .. T-1``).  Memory at a time step only counts strictly
earlier recommendations, which reproduces the paper's convention that
``X_S(u, i, 1) = 0`` at the first step.

The module-level functions are the pure-Python *reference* kernels.
:class:`RevenueModel` dispatches between them and the NumPy-vectorized
kernels of :mod:`repro.core.vectorized` via its ``backend`` argument.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.entities import Triple
from repro.core.problem import RevMaxInstance
from repro.core.strategy import Strategy
from repro.core.vectorized import (
    resolve_backend,
    vectorized_extended_group_revenues,
    vectorized_group_revenue,
)

__all__ = [
    "memory_term",
    "group_dynamic_probability",
    "group_revenue",
    "adaptive_group_revenue",
    "kernel_for_backend",
    "VECTORIZE_MIN_GROUP",
    "RevenueModel",
]


def memory_term(group: Sequence[Triple], t: int) -> float:
    """Compute ``M_S(u, i, t)`` for a (user, class) group (Equation 1).

    Args:
        group: the triples of the same user and item class that are in the
            strategy (the target triple itself may or may not be included --
            it never contributes because only strictly earlier times count).
        t: the time step of the target triple.

    Returns:
        The memory ``sum over (u, j, tau) in group, tau < t of 1 / (t - tau)``.
    """
    total = 0.0
    for other in group:
        if other.t < t:
            total += 1.0 / (t - other.t)
    return total


def group_dynamic_probability(
    instance: RevMaxInstance,
    group: Sequence[Triple],
    target: Triple,
) -> float:
    """Compute ``q_S(u, i, t)`` for ``target`` given its (user, class) group.

    ``group`` must contain every strategy triple sharing the target's user and
    item class, *including the target itself* (Definition 1 sets the dynamic
    probability of absent triples to zero; callers that want that behaviour
    should check membership before calling).

    The formula (Definition 1) multiplies the primitive probability by

    * the saturation discount ``beta_i ** M_S(u, i, t)``,
    * ``(1 - q(u, j, t))`` for every *other* same-class item recommended at
      the same time, and
    * ``(1 - q(u, j, tau))`` for every same-class recommendation made at an
      earlier time (including earlier recommendations of the target item).
    """
    user, item, t = target
    primitive = instance.probability(user, item, t)
    if primitive <= 0.0:
        return 0.0
    beta = instance.beta(item)
    memory = memory_term(group, t)
    saturation = beta ** memory if memory > 0.0 else 1.0
    survival = 1.0
    for other in group:
        if other == target:
            continue
        if other.t < t or (other.t == t and other.item != item):
            survival *= 1.0 - instance.probability(other.user, other.item, other.t)
    return primitive * saturation * survival


def group_revenue(instance: RevMaxInstance, group: Sequence[Triple]) -> float:
    """Expected revenue contributed by one (user, class) group of triples."""
    total = 0.0
    for triple in group:
        probability = group_dynamic_probability(instance, group, triple)
        total += instance.price(triple.item, triple.t) * probability
    return total


#: Group size from which the vectorized kernel beats the scalar loops; below
#: it, array construction overhead dominates the O(n^2) arithmetic (measured
#: crossover is ~9 triples on CPython 3.11 / NumPy 2.x).
VECTORIZE_MIN_GROUP = 10


def adaptive_group_revenue(instance: RevMaxInstance,
                           group: Sequence[Triple],
                           compiled=None) -> float:
    """The "numpy" backend kernel: vectorize dense groups, loop over tiny ones.

    Both branches implement the identical arithmetic of Definitions 1-2, so
    the dispatch is invisible apart from sub-1e-12 round-off differences.
    The optional compiled instance feeds the vectorized branch its group
    gathers from contiguous tensors (same floats, bit-identical results).
    """
    if len(group) < VECTORIZE_MIN_GROUP:
        return group_revenue(instance, group)
    return vectorized_group_revenue(instance, group, compiled)


def kernel_for_backend(backend: Optional[str]):
    """Map a backend name (``None`` means numpy) to its revenue kernel.

    The single place the backend-to-kernel mapping is encoded; used by
    :class:`RevenueModel` and by callers that evaluate groups without a model
    (e.g. the per-group enumeration in :mod:`repro.algorithms.group_dp`).
    """
    return (
        adaptive_group_revenue
        if resolve_backend(backend) == "numpy"
        else group_revenue
    )


class RevenueModel:
    """Evaluator of ``Rev(S)`` and marginal revenues for a fixed instance.

    All REVMAX algorithms in :mod:`repro.algorithms` are written against this
    class, so alternative revenue semantics (the R-REVMAX effective
    probability of Definition 4, or the random-price Taylor approximation of
    §7) can be swapped in by subclassing and overriding
    :meth:`group_revenue`.

    The model memoises nothing: every group revenue is computed from the
    instance as it is at the call, so a model that lives across a mutation
    of the instance (e.g. :func:`repro.dynamic.apply_delta`) reads the new
    values.  The paper's savings come from lazy forward re-scoring only
    stale heap entries (§5.1), not from remembering group revenues.

    Args:
        instance: the REVMAX instance to evaluate.
        backend: the group-revenue kernel -- ``"numpy"`` (the vectorized
            kernels of :mod:`repro.core.vectorized`), ``"python"`` (the
            reference scalar loops of this module, the executable
            specification) or ``None`` (numpy).  The numpy backend
            dispatches adaptively: groups smaller than
            :data:`VECTORIZE_MIN_GROUP` run the scalar loops
            (array-construction overhead would dominate), larger groups run
            the broadcasting kernel.
        compiled: feed the numpy kernels their group gathers from the
            instance's columnar compilation (:mod:`repro.core.compiled`).
            ``None``/``True`` compile lazily (cached on the instance) when
            the backend is numpy; ``False`` keeps the object path (the
            pre-compilation engine, for benchmarks and debugging).  The
            python backend never compiles -- it stays the executable
            specification of the object layout.
    """

    def __init__(self, instance: RevMaxInstance, backend: Optional[str] = None,
                 compiled: Optional[bool] = None) -> None:
        self._instance = instance
        self._backend = resolve_backend(backend)
        self._compiled = (
            instance.compiled()
            if self._backend == "numpy" and compiled is not False
            else None
        )
        if self._compiled is not None:
            self._kernel = partial(adaptive_group_revenue,
                                   compiled=self._compiled)
        else:
            self._kernel = kernel_for_backend(self._backend)
        self._evaluations = 0
        self._lookups = 0
        # The grouped batch path assumes the reference revenue decomposition;
        # subclasses that override the group or marginal semantics (e.g. the
        # R-REVMAX effective model) fall back to per-triple scalar calls.
        cls = type(self)
        self._reference_semantics = (
            cls.group_revenue is RevenueModel.group_revenue
            and cls.marginal_revenue is RevenueModel.marginal_revenue
        )

    @property
    def instance(self) -> RevMaxInstance:
        """The REVMAX instance being evaluated."""
        return self._instance

    @property
    def backend(self) -> str:
        """The group-revenue kernel in use (``"numpy"`` or ``"python"``)."""
        return self._backend

    @property
    def evaluations(self) -> int:
        """Number of group revenues the kernel computed (profiling aid).

        One per :meth:`group_revenue` call, plus, per (user, class) bucket
        of a :meth:`marginal_revenue_batch`, one for the shared "before"
        group (when it is non-empty) and one per candidate scored.
        """
        return self._evaluations

    @property
    def cache_hits(self) -> int:
        """Always 0: the model memoises nothing.

        Kept read-only so that ``bench/trace.py``, which reads it from every
        model it settles, keeps working until the benchmark drops its
        ``revenue.cache_hits`` metrics.
        """
        return 0

    @property
    def lookups(self) -> int:
        """Number of group-revenue values the *caller requested*.

        This is the quantity an algorithmic device such as lazy forward
        reduces, independent of how the engine buckets its work; the
        ablation benchmarks compare lookups.

        Counting rules: every :meth:`group_revenue` call is one lookup (so a
        scalar :meth:`marginal_revenue` costs two -- before and after), and a
        :meth:`marginal_revenue_batch` over ``k`` not-yet-selected candidates
        costs exactly ``k`` lookups -- one per candidate scored.  The batch
        path computes each bucket's shared "before" value once instead of per
        candidate, so ``lookups`` and :attr:`evaluations` differ once batched
        scoring is in play.
        """
        return self._lookups

    def reset_counters(self) -> None:
        """Reset the evaluation and lookup counters."""
        self._evaluations = 0
        self._lookups = 0

    # ------------------------------------------------------------------
    # group-level primitives (override points)
    # ------------------------------------------------------------------
    def group_revenue(self, group: Sequence[Triple]) -> float:
        """Expected revenue of one (user, class) group."""
        self._lookups += 1
        return self._group_revenue_internal(group)

    def _refresh_compiled(self) -> None:
        """Stop using compiled tensors once the adoption table is mutated.

        The compiled view is version-checked against the adoption table
        (one attribute read and an integer compare per evaluation).  On the
        first staleness hit the model permanently falls back to the object
        path -- reading the live table like the pre-compilation engine --
        rather than recompiling, which would cost O(n_pairs) per mutation
        round and turn interleaved mutate/evaluate workloads quadratic.
        Models built after the mutations compile fresh tensors again.
        """
        compiled = self._compiled
        if compiled is None:
            return
        version = getattr(self._instance.adoption, "_version", 0)
        if compiled.source_version != version:
            self._compiled = None
            self._kernel = kernel_for_backend(self._backend)

    def _group_revenue_internal(self, group: Sequence[Triple]) -> float:
        """Group revenue without touching the lookup counter.

        The batch path uses this for the shared per-bucket "before" value,
        which is engine bookkeeping rather than a caller-requested score.
        """
        self._refresh_compiled()
        self._evaluations += 1
        return self._kernel(self._instance, group)

    # ------------------------------------------------------------------
    # strategy-level quantities
    # ------------------------------------------------------------------
    def dynamic_probability(self, strategy: Strategy, triple: Triple) -> float:
        """Return ``q_S(u, i, t)`` (zero if the triple is not in the strategy)."""
        triple = Triple(*triple)
        if triple not in strategy:
            return 0.0
        group = strategy.group_of_triple(triple)
        return group_dynamic_probability(self._instance, group, triple)

    def revenue(self, strategy: Strategy) -> float:
        """Return ``Rev(S)`` (Definition 2)."""
        total = 0.0
        for _, group in strategy.groups():
            total += self.group_revenue(group)
        return total

    def revenue_of_triples(self, triples: Iterable[Triple]) -> float:
        """Return ``Rev(S)`` for a plain iterable of triples."""
        strategy = Strategy(self._instance.catalog, triples)
        return self.revenue(strategy)

    def marginal_revenue(self, strategy: Strategy, triple: Triple) -> float:
        """Return ``Rev_S(z) = Rev(S + z) - Rev(S)`` (Definition 3).

        Only the (user, class) group of ``z`` changes when ``z`` is added, so
        the difference is evaluated locally on that group.
        """
        triple = Triple(*triple)
        if triple in strategy:
            return 0.0
        group = strategy.group_of_triple(triple)
        before = self.group_revenue(group) if group else 0.0
        after = self.group_revenue(group + [triple])
        return after - before

    def marginal_revenue_batch(
        self, strategy: Strategy, triples: Sequence[Triple]
    ) -> List[float]:
        """Marginal revenues of many candidates against one strategy.

        Semantically identical to calling :meth:`marginal_revenue` per triple
        (triples already in the strategy score 0.0), but executed per
        (user, class) *bucket*: the shared "before" group revenue is computed
        once per bucket, and the "after" revenues of all of a bucket's
        candidates are evaluated by
        :func:`repro.core.vectorized.vectorized_extended_group_revenues` in a
        single broadcasted pass (numpy backend, when the bucket is large
        enough to amortize the launch).  This is the path the heap seeding
        and lazy-refresh steps of
        :class:`repro.core.selection.LazyGreedySelector` run on.

        Counters: a batch over ``k`` not-yet-selected candidates adds exactly
        ``k`` to :attr:`lookups`; :attr:`evaluations` grows by ``k`` plus one
        per bucket with a non-empty "before" group.

        Subclasses that override :meth:`group_revenue` or
        :meth:`marginal_revenue` automatically fall back to the scalar
        per-triple path, so alternative revenue semantics stay correct.
        """
        triples = [Triple(*z) for z in triples]
        if not self._reference_semantics:
            return [self.marginal_revenue(strategy, z) for z in triples]
        results = [0.0] * len(triples)
        buckets: Dict[Tuple[int, int], List[int]] = {}
        for index, triple in enumerate(triples):
            if triple in strategy:
                continue
            key = (triple.user, self._instance.class_of(triple.item))
            buckets.setdefault(key, []).append(index)
        for (user, class_id), indices in buckets.items():
            group = strategy.group(user, class_id)
            before = self._group_revenue_internal(group) if group else 0.0
            afters = self._extended_group_revenues(
                group, [triples[index] for index in indices]
            )
            for index, after in zip(indices, afters):
                results[index] = after - before
            self._lookups += len(indices)
        return results

    def _extended_group_revenues(
        self, group: List[Triple], candidates: List[Triple]
    ) -> List[float]:
        """``group_revenue(group + [c])`` for each candidate.

        The candidates go to the broadcasted kernel in one launch when the
        bucket carries enough arithmetic (the same ``VECTORIZE_MIN_GROUP``
        work threshold as the adaptive scalar dispatch, scaled by the batch
        size), otherwise to the backend's scalar kernel per candidate.
        """
        self._refresh_compiled()
        # One broadcasted launch replaces ``m`` scalar evaluations of
        # O((n+1)^2) pairwise work each; it pays off once that total work
        # clears the same crossover as the adaptive per-group dispatch
        # (whose measured break-even is VECTORIZE_MIN_GROUP triples, i.e.
        # VECTORIZE_MIN_GROUP^2 pairwise terms).  Below it, the scalar
        # kernel avoids the array-construction overhead.
        use_batched_kernel = (
            self._backend == "numpy"
            and len(candidates) * (len(group) + 1) ** 2
            >= VECTORIZE_MIN_GROUP ** 2
        )
        if use_batched_kernel:
            computed = vectorized_extended_group_revenues(
                self._instance, group, candidates, self._compiled
            )
        else:
            computed = [
                self._kernel(self._instance, group + [candidate])
                for candidate in candidates
            ]
        self._evaluations += len(candidates)
        return [float(value) for value in computed]

    def marginal_revenue_components(
        self, strategy: Strategy, triple: Triple
    ) -> Tuple[float, float]:
        """Return the (gain, loss) decomposition of Definition 3.

        The *gain* is ``p(i, t) * q_{S+z}(z)``; the *loss* is the (non-positive)
        total change in revenue of the same-class triples scheduled later than
        ``z`` for the same user.  ``gain + loss == marginal_revenue``.
        """
        triple = Triple(*triple)
        group = strategy.group_of_triple(triple)
        extended = group + [triple]
        gain = self._instance.price(triple.item, triple.t) * group_dynamic_probability(
            self._instance, extended, triple
        )
        loss = 0.0
        for other in group:
            before = group_dynamic_probability(self._instance, group, other)
            after = group_dynamic_probability(self._instance, extended, other)
            loss += self._instance.price(other.item, other.t) * (after - before)
        return gain, loss
