"""The shared lazy-greedy selection engine of Algorithms 1 and 2.

Every greedy REVMAX solver in the paper -- G-Greedy/GlobalNo (Algorithm 1)
and the per-time-step loop of SL-/RL-Greedy (Algorithm 2) -- is the *same*
submodular lazy-forward skeleton:

1. **seed** a max-heap frontier with an optimistic priority per candidate
   (the isolated expected revenue ``p(i,t) * q(u,i,t)`` for Algorithm 1,
   the exact marginal revenue for Algorithm 2);
2. **pop** the best candidate; drop it (or its whole (user, item) heap) if a
   constraint rules it out;
3. **refresh** its stored priority lazily when the freshness flag shows the
   candidate's (user, class) group changed since the value was computed --
   valid because stale values upper-bound current marginal revenues under
   submodularity (Minoux's accelerated greedy);
4. **admit** while the marginal revenue stays positive.

:class:`LazyGreedySelector` owns this loop once, parameterised by

* the *frontier*: the two-level heap of §5.1 (one lower heap per
  (user, item) pair) or a single flat addressable heap (ablation);
* the *refresh policy*: lazy forward (default) or eager re-scoring of every
  affected candidate after each admission (ablation);
* the *seeding rule*: :data:`SEED_ISOLATED` or :data:`SEED_MARGINAL`;
* a *selection model* distinct from the *true model* (the GlobalNo baseline
  selects as if ``beta = 1`` but reports true gains);
* optional growth-curve recording and a :class:`SelectionTrace`.

Candidate scoring is batched: heap seeding and per-group refreshes go
through :meth:`repro.core.revenue.RevenueModel.marginal_revenue_batch`, so a
refresh of one (user, item) group is a single broadcasted kernel pass
sharing one "before" group revenue instead of one kernel launch per
candidate time step.

The columnar loop
-----------------
When the caller passes ``candidates=None`` (the whole ground set) and the
configuration is the paper default (isolated seeds, lazy forward, two-level
frontier, numpy backend), :meth:`LazyGreedySelector.select` runs a loop of
its own keyed by CSR pair row.  The instance is compiled into contiguous
tensors (:mod:`repro.core.compiled`), seed priorities are the
``(n_pairs, T)`` matrix ``p(i, t) * q(u, i, t)`` computed in one vectorized
pass, and the frontier is a :class:`repro.heaps.columnar.ColumnarFrontier`
bulk-built from those arrays, serving ``(row, t, priority)``.  Freshness
flags are one int per row, since a refresh re-scores every live entry of a
row at once; a ``Triple`` exists only for a pop's constraint check,
admission and trace record (a refresh scores plain ``(user, item, t)``
tuples).  The python backend, ablation
configurations and explicit candidate pools run the per-triple object
loop; both loops select identical triples with identical gains (the
columnar frontier reproduces the incremental heap's tie-breaking for the
full-ground-set candidate order).  Both honour the ``allowed_times`` and
``users`` whitelists of :meth:`LazyGreedySelector.select`; the incremental
re-solver re-runs its dirty users in one ``users``-restricted pass.

The algorithms in :mod:`repro.algorithms` reduce to paper-logic-only
orchestration on top of this class; the selection mechanics live here.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.constraints import ConstraintChecker
from repro.core.entities import Triple
from repro.core.problem import RevMaxInstance
from repro.core.revenue import RevenueModel
from repro.core.strategy import Strategy
from repro.heaps.binary_heap import AddressableMaxHeap
from repro.heaps.columnar import ColumnarFrontier
from repro.heaps.two_level import TwoLevelHeap

__all__ = ["LazyGreedySelector", "SelectionTrace", "SEED_ISOLATED",
           "SEED_MARGINAL", "build_columnar_frontier", "selection_bound"]


class SelectionTrace:
    """Record of one greedy selection run, consumed by the dynamic layer.

    The incremental re-solver (:mod:`repro.dynamic.incremental`) replays a
    previous run instead of re-popping the frontier.  It needs each
    admission and the key it popped behind:

    * ``admissions`` -- the ``(user, item, t, gain)`` admission rows in
      global admission order (for the supported configuration the gain
      *is* the fresh priority at admission time);
    * ``behind`` -- for the admissions that popped behind a lower key of
      their own user, ``{admission index: (priority, item)}``: the user's
      *floor* when the admission was recorded, i.e. the lowest
      ``(priority, item)`` the selector had popped for that user so far,
      the larger item losing a tie.  Every other admission's key is its
      own ``(gain, item)``.  A pop the selector answered with a lazy
      refresh or a display discard (``record_gate``) admits nothing but
      can lower the floor: the rest of the frontier had to beat its
      priority for it to pop, so a later admission of the same user pops
      no earlier than that key -- even when a refresh *raised* its
      priority (the revenue function is close to but not exactly
      submodular, so that genuinely happens).  Within one user, CSR rows
      are sorted by item, so ``(-priority, item)`` orders the user's pops
      as the columnar frontier's ``(-priority, row)`` does;
    * ``truncated`` -- the run ended at the non-positive break with
      candidates still in the frontier.  The run was cut at a *global*
      condition (entries below the break value might still resurrect
      through a non-submodular refresh), so it cannot be replayed user by
      user; the re-solver falls back to a cold replay.  Runs that drain
      their frontier (every candidate admitted or discarded -- the common
      case once display slots fill) replay;
    * ``capped`` -- the run exited at its ``max_selections`` cap with
      candidates still in the frontier.  Generally as unreplayable as a
      break, *except* when the cap is :func:`selection_bound`: reaching it
      means every user's slots are full, the unrecorded pops of every user
      are pure display discards after its last admission, and omitting
      them changes nothing (the incremental solver relies on exactly that);
    * ``capacity_blocked`` -- a capacity constraint fired, coupling users;
      per-user replay is then unsound and the re-solver falls back.
    """

    def __init__(self) -> None:
        self.admissions: List[Tuple[int, int, int, float]] = []
        self.behind: Dict[int, Tuple[float, int]] = {}
        self.truncated = False
        self.capped = False
        self.capacity_blocked = False
        self._floors: Dict[int, Tuple[float, int]] = {}

    def record_admit(self, triple: Triple, gain: float) -> None:
        key = (gain, triple.item)
        floor = self._lower_floor(triple.user, key)
        if floor != key:
            self.behind[len(self.admissions)] = floor
        self.admissions.append((triple.user, triple.item, triple.t, gain))

    def record_gate(self, triple: Triple, priority: float) -> None:
        self._lower_floor(triple.user, (priority, triple.item))

    def _lower_floor(self, user: int,
                     key: Tuple[float, int]) -> Tuple[float, int]:
        """Lower ``user``'s floor to ``key`` if it pops later; return it."""
        floor = self._floors.get(user)
        if floor is None or key[0] < floor[0] or (
                key[0] == floor[0] and key[1] > floor[1]):
            self._floors[user] = floor = key
        return floor


def selection_bound(instance: RevMaxInstance,
                    allowed_times: Optional[Collection[int]] = None) -> int:
    """The display-theoretic admission bound ``k * T * |users|``.

    ``users`` are the users with candidates and ``T`` counts
    ``allowed_times`` when given.  The display constraint caps every
    strategy at this size, so a run stopped here has filled every user's
    display slots.
    """
    horizon = instance.horizon if allowed_times is None else len(allowed_times)
    return instance.display_limit * horizon * max(1, len(instance.users()))


def build_columnar_frontier(compiled, strategy: Strategy,
                            allowed_times: Optional[Iterable[int]],
                            users: Optional[Iterable[int]] = None
                            ) -> ColumnarFrontier:
    """Bulk-build the isolated-seeded G-Greedy frontier over a compilation.

    One vectorized pass: seed priorities are the compiled
    ``(n_pairs, T)`` isolated-revenue matrix, masked to positive entries
    (submodularity: non-positive seeds can never be admitted), to the
    ``allowed_times`` and ``users`` whitelists (out-of-range values match
    no candidate, exactly like the per-triple path's membership filters),
    and away from triples already in ``strategy``.
    """
    priorities = compiled.isolated_revenues()
    seeded = priorities > 0.0
    if allowed_times is not None:
        mask = np.zeros(compiled.horizon, dtype=bool)
        mask[[t for t in allowed_times if 0 <= t < compiled.horizon]] = True
        seeded &= mask[None, :]
    if users is not None:
        mask = np.zeros(compiled.num_users, dtype=bool)
        mask[[u for u in users if 0 <= u < compiled.num_users]] = True
        seeded &= np.repeat(mask, np.diff(compiled.user_ptr))[:, None]
    for triple in strategy:
        row = compiled.pair_row(triple.user, triple.item)
        if row >= 0 and 0 <= triple.t < compiled.horizon:
            seeded[row, triple.t] = False
    return ColumnarFrontier(priorities, seeded)


#: Seed the frontier with isolated expected revenues ``p(i,t) * q(u,i,t)``
#: (line 8 of Algorithm 1).  Cheap (no revenue-model calls) and a valid
#: optimistic bound, so seeded entries start maximally stale (flag 0).
SEED_ISOLATED = "isolated"

#: Seed the frontier with exact marginal revenues against the current
#: strategy (lines 5-8 of Algorithm 2), computed in one batched pass.
#: Seeded entries start fresh.
SEED_MARGINAL = "marginal"


class LazyGreedySelector:
    """Heap-seeding / lazy-refresh / admit loop shared by the greedy solvers.

    One selector instance holds the loop *configuration*; :meth:`select` can
    be called repeatedly against the same models (SL-Greedy calls it once per
    time step, accumulating into one strategy and growth curve).

    Args:
        instance: the REVMAX instance (provides constraints metadata, item
            classes and isolated revenues).
        model: revenue model scoring the selection decisions.
        checker: constraint checker gating admissions (pass one built with
            ``enforce_capacity=False`` for R-REVMAX-style display-only runs).
        true_model: optional model whose marginal revenue is the *reported*
            gain of an admission.  ``None`` (or the selection model itself)
            means the selection priority is the gain -- the normal case;
            GlobalNo passes the true-saturation model here while selecting
            with a saturation-blind one.
        use_lazy_forward: refresh stale priorities only when they surface at
            the top (default) instead of eagerly re-scoring every affected
            candidate after each admission.
        use_two_level_heap: use the two-level frontier of §5.1 (default) or a
            single flat addressable heap.
        seed_priorities: :data:`SEED_ISOLATED` or :data:`SEED_MARGINAL`.
        max_selections: absolute cap on the strategy size (``None``: admit
            until the frontier is exhausted or goes non-positive).
        trace: optional :class:`SelectionTrace` receiving the run's
            admissions and the keys they popped behind (the dynamic
            re-solve layer's warm state).
    """

    def __init__(self, instance: RevMaxInstance, model: RevenueModel,
                 checker: ConstraintChecker, *,
                 true_model: Optional[RevenueModel] = None,
                 use_lazy_forward: bool = True,
                 use_two_level_heap: bool = True,
                 seed_priorities: str = SEED_MARGINAL,
                 max_selections: Optional[int] = None,
                 trace: Optional[SelectionTrace] = None,
                 ) -> None:
        if seed_priorities not in (SEED_ISOLATED, SEED_MARGINAL):
            raise ValueError(
                f"unknown seeding rule {seed_priorities!r}; expected "
                f"{SEED_ISOLATED!r} or {SEED_MARGINAL!r}"
            )
        self._instance = instance
        self._model = model
        self._checker = checker
        self._true_model = true_model if true_model is not model else None
        self._use_lazy_forward = use_lazy_forward
        self._use_two_level_heap = use_two_level_heap
        self._seed_priorities = seed_priorities
        self._max_selections = max_selections
        self._trace = trace

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def select(self, strategy: Strategy,
               candidates: Optional[Iterable[Triple]] = None, *,
               allowed_times: Optional[Iterable[int]] = None,
               users: Optional[Iterable[int]] = None,
               growth_curve: Optional[List[Tuple[int, float]]] = None,
               initial_revenue: Optional[float] = None) -> int:
        """Greedily admit candidates into ``strategy`` (in place).

        Args:
            strategy: the strategy built so far; modified in place.
            candidates: candidate triples to consider (triples already in the
                strategy are skipped).  Iteration order fixes heap
                tie-breaking, so callers should pass a deterministic order.
                ``None`` means the instance's whole candidate ground set and
                enables the columnar seeding fast path when the
                configuration allows it.
            allowed_times: optional whitelist of time steps; candidates at
                other times are excluded from the frontier (the sub-horizon
                setting of §6.3).
            users: optional whitelist of users; candidates of other users
                are excluded from the frontier.
            growth_curve: optional list receiving cumulative
                ``(size, revenue)`` checkpoints, appended across calls.
            initial_revenue: revenue of ``strategy`` before this call; when
                ``None``, continues from the last growth-curve entry (0.0 on
                a fresh curve).

        Returns:
            The number of triples admitted.
        """
        if initial_revenue is None:
            initial_revenue = (
                growth_curve[-1][1] if growth_curve else 0.0
            )
        if candidates is None and self._columnar_eligible():
            return self._select_columnar(strategy, allowed_times, users,
                                         growth_curve, initial_revenue)
        heap, flags, group_keys = self._seed(strategy, candidates,
                                             allowed_times, users)
        revenue = initial_revenue
        admitted = 0

        while heap and (
            self._max_selections is None
            or len(strategy) < self._max_selections
        ):
            triple, priority = heap.peek()
            group = (triple.user, triple.item)
            if not self._checker.can_add(strategy, triple):
                if self._note_blocked(strategy, triple, priority):
                    heap.discard(triple)
                    group_keys.get(group, set()).discard(triple)
                else:
                    for candidate in list(group_keys.pop(group, ())):
                        heap.discard(candidate)
                continue
            freshness = strategy.group_size(
                triple.user, self._instance.class_of(triple.item)
            )
            if self._use_lazy_forward and flags[triple] != freshness:
                if self._trace is not None:
                    self._trace.record_gate(triple, priority)
                stale = [
                    candidate for candidate in group_keys.get(group, ())
                    if candidate in heap
                ]
                self._rescore(heap, flags, strategy, stale, freshness)
                continue
            if priority <= 0.0:
                if self._trace is not None and heap:
                    self._trace.truncated = True
                break
            gain = self._gain(strategy, triple, priority)
            strategy.add(triple)
            heap.discard(triple)
            group_keys.get(group, set()).discard(triple)
            admitted += 1
            revenue += gain
            self._record_admission(strategy, triple, gain, revenue,
                                   growth_curve)
            if not self._use_lazy_forward:
                self._eager_refresh(heap, flags, group_keys, strategy, triple)
        if self._trace is not None and heap and not self._trace.truncated:
            # The max_selections cap left live candidates unpopped.
            self._trace.capped = True
        return admitted

    # ------------------------------------------------------------------
    # the columnar loop
    # ------------------------------------------------------------------
    def _columnar_eligible(self) -> bool:
        """The columnar loop covers the paper-default configuration.

        The python backend is excluded on purpose: it is the executable
        specification of the object layout and must never trigger
        compilation or columnar tensor allocations.
        """
        return (
            self._seed_priorities == SEED_ISOLATED
            and self._use_lazy_forward
            and self._use_two_level_heap
            and self._model.backend == "numpy"
        )

    def _select_columnar(self, strategy: Strategy,
                         allowed_times: Optional[Iterable[int]],
                         users: Optional[Iterable[int]],
                         growth_curve: Optional[List[Tuple[int, float]]],
                         revenue: float) -> int:
        """The paper-default loop over the columnar frontier, keyed by row.

        Same pop / gate / refresh / admit decisions as the object loop of
        :meth:`select`, addressed by CSR pair row instead of by ``Triple``:

        * the frontier serves ``(row, t, priority)``
          (:class:`~repro.heaps.columnar.ColumnarFrontier`);
        * the freshness flag is one int per row -- a refresh re-scores every
          live entry of the row together, so they always share it; isolated
          seeds start maximally stale (0);
        * a capacity block drops the whole row, a display block its one
          ``(row, t)`` entry.

        A ``Triple`` exists only for the pop's constraint check, admission
        and trace record; a refresh scores plain ``(user, item, t)``
        tuples, and the row's user and item are read as Python ints
        (``ndarray.item``).
        """
        instance = self._instance
        compiled = instance.compiled()
        frontier = build_columnar_frontier(compiled, strategy, allowed_times,
                                           users)
        pair_user = compiled.pair_user
        pair_item = compiled.pair_item
        flags = [0] * compiled.num_pairs
        class_of = instance.class_of
        can_add = self._checker.can_add
        score = self._model.marginal_revenue_batch
        trace = self._trace
        cap = self._max_selections
        admitted = 0
        while frontier and (cap is None or len(strategy) < cap):
            row, t, priority = frontier.peek()
            user = pair_user.item(row)
            item = pair_item.item(row)
            triple = Triple(user, item, t)
            if not can_add(strategy, triple):
                if self._note_blocked(strategy, triple, priority):
                    frontier.discard(row, t)
                else:
                    frontier.drop_group(row)
                continue
            freshness = strategy.group_size(user, class_of(item))
            if flags[row] != freshness:
                if trace is not None:
                    trace.record_gate(triple, priority)
                times = frontier.times(row)
                frontier.update(row, times, score(
                    strategy, [(user, item, s) for s in times]
                ))
                flags[row] = freshness
                continue
            if priority <= 0.0:
                if trace is not None:
                    trace.truncated = True
                break
            gain = self._gain(strategy, triple, priority)
            strategy.add(triple)
            frontier.discard(row, t)
            admitted += 1
            revenue += gain
            self._record_admission(strategy, triple, gain, revenue,
                                   growth_curve)
        if trace is not None and frontier and not trace.truncated:
            # The max_selections cap left live candidates unpopped.
            trace.capped = True
        return admitted

    # ------------------------------------------------------------------
    # shared steps of both loops
    # ------------------------------------------------------------------
    def _note_blocked(self, strategy: Strategy, triple: Triple,
                      priority: float) -> bool:
        """Classify a pop ``can_add`` rejected; True for a display block.

        A display violation concerns only the popped triple's (user, time)
        slot, so the caller drops only that candidate (a gate on the
        trace).  A capacity violation means the item's distinct audience is
        full and the user is not part of it; since the audience never
        shrinks, every remaining candidate of the (user, item) pair is dead
        and the caller removes the whole lower heap (line 26 of
        Algorithm 1).
        """
        display_blocked = (
            strategy.display_count(triple.user, triple.t)
            >= self._instance.display_limit
        )
        if self._trace is not None:
            if display_blocked:
                self._trace.record_gate(triple, priority)
            else:
                self._trace.capacity_blocked = True
        return display_blocked

    def _gain(self, strategy: Strategy, triple: Triple,
              priority: float) -> float:
        """The reported gain of admitting ``triple`` popped at ``priority``."""
        if self._true_model is None:
            return priority
        return self._true_model.marginal_revenue(strategy, triple)

    def _record_admission(self, strategy: Strategy, triple: Triple,
                          gain: float, revenue: float,
                          growth_curve: Optional[List[Tuple[int, float]]]
                          ) -> None:
        if growth_curve is not None:
            growth_curve.append((len(strategy), revenue))
        if self._trace is not None:
            self._trace.record_admit(triple, gain)

    # ------------------------------------------------------------------
    # frontier construction (object path)
    # ------------------------------------------------------------------
    def _seed(self, strategy: Strategy,
              candidates: Optional[Iterable[Triple]],
              allowed_times: Optional[Iterable[int]],
              users: Optional[Iterable[int]]):
        """Build the frontier, freshness flags and (user, item) key index."""
        if candidates is None:
            candidates = self._instance.candidate_triples()
        if allowed_times is not None:
            allowed = set(allowed_times)
            candidates = (z for z in candidates if z.t in allowed)
        if users is not None:
            members = set(users)
            candidates = (z for z in candidates if z.user in members)
        heap = (
            TwoLevelHeap() if self._use_two_level_heap else AddressableMaxHeap()
        )
        flags: Dict[Triple, int] = {}
        group_keys: Dict[Tuple[int, int], Set[Triple]] = {}
        pool = [
            triple for triple in candidates if triple not in strategy
        ]
        if self._seed_priorities == SEED_ISOLATED:
            priorities = [
                self._instance.expected_isolated_revenue(triple)
                for triple in pool
            ]
            freshness = [0] * len(pool)
        else:
            priorities = self._model.marginal_revenue_batch(strategy, pool)
            freshness = [
                strategy.group_size(
                    triple.user, self._instance.class_of(triple.item)
                )
                for triple in pool
            ]
        for triple, priority, flag in zip(pool, priorities, freshness):
            if priority <= 0.0:
                # Submodularity: marginal revenues only shrink as the
                # strategy grows, so non-positive seeds can never be admitted.
                continue
            group = (triple.user, triple.item)
            if self._use_two_level_heap:
                heap.insert(group, triple, priority)
            else:
                heap.insert(triple, priority)
            flags[triple] = flag
            group_keys.setdefault(group, set()).add(triple)
        return heap, flags, group_keys

    # ------------------------------------------------------------------
    # refresh (object path)
    # ------------------------------------------------------------------
    def _rescore(self, heap, flags, strategy: Strategy,
                 candidates: List[Triple], freshness: int) -> None:
        """Batch-score ``candidates`` and write priorities + flags back.

        One batched scoring pass: a lazy refresh passes the live candidates
        of the popped triple's (user, item) heap, which share the
        (user, class) group whose change staled them and so the "before"
        revenue the batch evaluates once.
        """
        values = self._model.marginal_revenue_batch(strategy, candidates)
        for candidate, value in zip(candidates, values):
            flags[candidate] = freshness
            heap.update(candidate, value)

    def _eager_refresh(self, heap, flags, group_keys, strategy: Strategy,
                       added: Triple) -> None:
        """Without lazy forward, re-score every candidate ``added`` affects.

        Affected candidates are those of the same user whose item belongs to
        the same class as the added item -- batched into one scoring pass.
        """
        target_class = self._instance.class_of(added.item)
        freshness = strategy.group_size(added.user, target_class)
        affected: List[Triple] = []
        for (user, item), keys in group_keys.items():
            if user != added.user:
                continue
            if self._instance.class_of(item) != target_class:
                continue
            affected.extend(
                candidate for candidate in keys if candidate in heap
            )
        self._rescore(heap, flags, strategy, affected, freshness)
