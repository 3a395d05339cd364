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
    return _memory([other.t for other in group], t)


def _memory(times: Sequence[int], t: int) -> float:
    """Equation 1 over the group's time steps, in group order."""
    total = 0.0
    for other_t in times:
        if other_t < t:
            total += 1.0 / (t - other_t)
    return total


def _dynamic_probability(primitive: float, beta: float, item: int, t: int,
                         items: Sequence[int], times: Sequence[int],
                         primitives: Sequence[float]) -> float:
    """Definition 1 for one target, on a group gathered into Python scalars.

    ``items``/``times``/``primitives`` describe the target's (user, class)
    group in group order.  A member equal to the target never counts: it is
    not strictly earlier (no memory) and shares the target's time and item
    (no competition).  Every evaluation path -- the reference kernels below
    and the gathered fast path of :class:`RevenueModel` -- runs this one
    body, so they agree bit for bit.
    """
    if primitive <= 0.0:
        return 0.0
    memory = _memory(times, t)
    saturation = beta ** memory if memory > 0.0 else 1.0
    survival = 1.0
    for other_item, other_t, other_primitive in zip(items, times, primitives):
        if other_t < t or (other_t == t and other_item != item):
            survival *= 1.0 - other_primitive
    return primitive * saturation * survival


def _gathered_group_revenue(items: Sequence[int], times: Sequence[int],
                            primitives: Sequence[float],
                            prices: Sequence[float],
                            betas: Sequence[float]) -> float:
    """Definition 2 over one gathered (user, class) group, in group order."""
    total = 0.0
    for item, t, primitive, price, beta in zip(items, times, primitives,
                                               prices, betas):
        total += price * _dynamic_probability(primitive, beta, item, t,
                                              items, times, primitives)
    return total


def _gather(instance: RevMaxInstance, group: Sequence[Triple]):
    """A group's ``(items, times, primitives, prices, betas)`` as lists.

    One adoption lookup per member, through the instance (the object path).
    """
    items = [z[1] for z in group]
    times = [z[2] for z in group]
    primitives = [instance.probability(z[0], z[1], z[2]) for z in group]
    prices = [instance.price(z[1], z[2]) for z in group]
    betas = [instance.beta(z[1]) for z in group]
    return items, times, primitives, prices, betas


class _CompiledGather:
    """Gathers groups from a compilation: one ``pair_row`` per distinct pair.

    Lives for one evaluation call.  Primitives come from
    ``compiled.pair_probs`` as it is when the gather is made (a delta may
    have replaced the tensor by a patched copy); prices and saturation
    factors from the instance, exactly as the reference kernels read them.
    """

    def __init__(self, instance: RevMaxInstance, compiled) -> None:
        self._pair_row = compiled.pair_row
        self._pair_probs = compiled.pair_probs
        self._prices = instance.prices
        self._betas = instance.betas
        self._rows: Dict[Tuple[int, int], int] = {}

    def __call__(self, group: Sequence[Triple]):
        rows, probabilities = self._rows, self._pair_probs
        all_prices, all_betas = self._prices, self._betas
        items: List[int] = []
        times: List[int] = []
        primitives: List[float] = []
        prices: List[float] = []
        betas: List[float] = []
        for user, item, t in group:
            row = rows.get((user, item))
            if row is None:
                row = rows[(user, item)] = self._pair_row(user, item)
            items.append(item)
            times.append(t)
            primitives.append(probabilities.item(row, t) if row >= 0 else 0.0)
            prices.append(all_prices.item(item, t))
            betas.append(all_betas.item(item))
        return items, times, primitives, prices, betas


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
    items, times, primitives, _, _ = _gather(instance, group)
    return _dynamic_probability(primitive, instance.beta(item), item, t,
                                items, times, primitives)


def group_revenue(instance: RevMaxInstance, group: Sequence[Triple]) -> float:
    """Expected revenue contributed by one (user, class) group of triples.

    The executable specification of Definitions 1-2: each member's inputs
    are looked up once, then every member's dynamic probability is
    evaluated against the group in group order.
    """
    return _gathered_group_revenue(*_gather(instance, group))


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
    The optional compiled instance feeds both branches their group gathers
    from contiguous tensors (same floats, bit-identical results); tiny
    groups then run the reference body of :func:`group_revenue` on them.
    """
    if len(group) >= VECTORIZE_MIN_GROUP:
        return vectorized_group_revenue(instance, group, compiled)
    if compiled is None:
        return group_revenue(instance, group)
    return _gathered_group_revenue(*_CompiledGather(instance, compiled)(group))


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

        On a compiled model (numpy backend) each bucket is gathered once --
        one ``pair_row`` per distinct (user, item) per call -- and every
        group below :data:`VECTORIZE_MIN_GROUP` runs the reference
        arithmetic on the gathered scalars; larger groups and batches take
        the same vectorized kernels as before.

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
        self._refresh_compiled()
        gather = (
            _CompiledGather(self._instance, self._compiled)
            if self._compiled is not None else None
        )
        for (user, class_id), indices in buckets.items():
            group = strategy.group(user, class_id)
            candidates = [triples[index] for index in indices]
            if gather is None:
                before = self._group_revenue_internal(group) if group else 0.0
                afters = self._extended_group_revenues(group, candidates)
            else:
                before, afters = self._gathered_bucket(group, candidates,
                                                       gather)
            for index, after in zip(indices, afters):
                results[index] = after - before
            self._lookups += len(indices)
        return results

    def _use_batched_kernel(self, group: List[Triple],
                            candidates: List[Triple]) -> bool:
        """Whether a bucket's "after" revenues take one broadcasted launch.

        One launch replaces ``m`` scalar evaluations of O((n+1)^2) pairwise
        work each; it pays off once that total work clears the same
        crossover as the adaptive per-group dispatch (whose measured
        break-even is VECTORIZE_MIN_GROUP triples, i.e.
        VECTORIZE_MIN_GROUP^2 pairwise terms).  Below it, the scalar kernel
        avoids the array-construction overhead -- and every extended group
        is then smaller than VECTORIZE_MIN_GROUP.
        """
        return (
            self._backend == "numpy"
            and len(candidates) * (len(group) + 1) ** 2
            >= VECTORIZE_MIN_GROUP ** 2
        )

    def _gathered_bucket(self, group: List[Triple], candidates: List[Triple],
                         gather: "_CompiledGather"
                         ) -> Tuple[float, List[float]]:
        """"Before" and "after" revenues of one bucket on a compiled model.

        The dispatch and counters of the kernel path
        (:meth:`_group_revenue_internal` + :meth:`_extended_group_revenues`),
        with the group gathered once for the "before" value and every
        candidate's extension.
        """
        base = gather(group) if len(group) < VECTORIZE_MIN_GROUP else None
        before = 0.0
        if group:
            self._evaluations += 1
            before = (
                _gathered_group_revenue(*base) if base is not None
                else vectorized_group_revenue(self._instance, group,
                                              self._compiled)
            )
        if self._use_batched_kernel(group, candidates):
            afters = vectorized_extended_group_revenues(
                self._instance, group, candidates, self._compiled
            ).tolist()
        else:
            # Unbatched implies len(group) + 1 < VECTORIZE_MIN_GROUP: the
            # adaptive kernel would run the scalar body on every extension.
            items, times, primitives, prices, betas = base
            afters = [
                _gathered_group_revenue(
                    items + [item], times + [t], primitives + [primitive],
                    prices + [price], betas + [beta],
                )
                for item, t, primitive, price, beta in zip(*gather(candidates))
            ]
        self._evaluations += len(candidates)
        return before, afters

    def _extended_group_revenues(
        self, group: List[Triple], candidates: List[Triple]
    ) -> List[float]:
        """``group_revenue(group + [c])`` for each candidate (kernel path).

        The candidates go to the broadcasted kernel in one launch when
        :meth:`_use_batched_kernel` says so, otherwise to the backend's
        scalar kernel per candidate.
        """
        self._refresh_compiled()
        if self._use_batched_kernel(group, candidates):
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
