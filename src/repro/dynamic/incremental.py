"""Warm-started incremental G-Greedy: re-solve after an instance delta.

A cold columnar G-Greedy at production scale spends almost all of its time
in frontier mechanics -- popping, lazily refreshing and discarding millions
of heap entries -- yet between two recommendation cycles only a small slice
of the instance actually changes.  :class:`IncrementalSolver` exploits a
structural fact of Algorithm 1 to skip the kernel and frontier work for the
untouched slice, while guaranteeing **exactly the strategy a cold columnar
G-Greedy would produce on the mutated instance** (ties, admission order and
growth curve included).

The decomposition
-----------------
Every quantity the admit loop computes is *user-local*: marginal revenues
couple triples only within one (user, class) group (Definition 1), the
display constraint is per (user, time), and lazy-forward freshness compares
against the user's own group sizes.  The only cross-user couplings are

1. the **capacity constraint** (items fill up across users), and
2. the **global heap order** (which user's candidate pops next).

When (1) can never fire -- for every item, the number of distinct candidate
users is at most its capacity, a one-line vectorized *capacity-safety
certificate* -- the run factorizes: the selector-level pop sequence of each
user's candidates (lazy refreshes, display discards, admissions, each with
the priority it popped at) is a deterministic function of that user's rows
alone, and the global run is exactly the **k-way merge** of those per-user
sequences by the columnar frontier's comparator ``(-priority, CSR row)``.
Replaying a recorded sequence costs a heap push per event -- no revenue
kernels, no frontier, no freshness bookkeeping.  Gate events (refreshes and
discards) are merged as well as admissions, which is what keeps the
interleaving exact even where a lazy refresh *raises* a priority (the
revenue function is close to but not exactly submodular, and such upward
refreshes do occur on real pipeline data).

A delta therefore re-solves as:

* patch the tensors in place (:func:`repro.dynamic.apply_delta`);
* mark the **dirty frontier** -- users owning an updated pair, users with a
  candidate pair on a price-touched item, and new users (only their heap
  rows and (user, class) groups can score differently);
* re-run the cold loop once over the dirty users' rows (the same
  :class:`~repro.core.selection.LazyGreedySelector` pass with a ``users``
  whitelist -- the decomposition makes each user's pops in that joint
  run exactly its pops in the cold run, every float and tie-break
  included);
* merge the fresh dirty sequences with the recorded clean sequences.

Soundness guards
----------------
Per-user replay additionally requires the recorded sequences to be
*complete*: a run that ends at the non-positive break cut every user's
sequence at a global condition, and a run that hit a capacity block coupled
users.  Both are recorded on the trace
(:class:`~repro.core.selection.SelectionTrace`); when a guard fails --
including the capacity certificate on the *mutated* capacities --
:meth:`IncrementalSolver.resolve` falls back to a full cold replay on the
patched tensors, which is still correct, just not fast, and names the
reason in ``last_stats["fallback_reason"]``.  The
differential suites (``tests/test_dynamic.py``,
``tests/test_differential.py``) assert bit-identical equality against a
cold solve either way.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.constraints import ConstraintChecker
from repro.core.entities import ItemCatalog, Triple
from repro.core.problem import RevMaxInstance
from repro.core.revenue import RevenueModel
from repro.core.selection import (
    SEED_ISOLATED,
    LazyGreedySelector,
    SelectionTrace,
    selection_bound,
)
from repro.core.strategy import Strategy
from repro.dynamic.apply import apply_delta
from repro.dynamic.delta import InstanceDelta

__all__ = ["IncrementalSolver", "SolverState", "instance_signature"]


def instance_signature(instance: RevMaxInstance) -> str:
    """Content digest of the tensors a solver state is only valid against.

    Recorded pop sequences replay correctly only on the *exact* instance
    they were computed on; pairing a persisted state with different
    tensors would silently merge to a wrong strategy.  This digest (sha256
    over the compiled tensors and the scalar dimensions) is stored in
    :class:`SolverState` and checked by :meth:`IncrementalSolver.from_state`.
    Hashing is linear in the instance size (~tens of ms per million
    pairs), paid only when states cross a process boundary.
    """
    compiled = instance.compiled()
    digest = hashlib.sha256()
    digest.update(
        f"{compiled.num_users}|{compiled.horizon}|"
        f"{compiled.display_limit}|{compiled.num_pairs}".encode()
    )
    for name in ("user_ptr", "pair_item", "pair_probs", "prices",
                 "capacities", "betas", "item_class"):
        array = np.ascontiguousarray(getattr(compiled, name))
        digest.update(name.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()

#: One selector-level pop: ``(priority, item, t, admitted)``, ``admitted``
#: a ``0``/``1`` int (the persisted encoding, kept as is in memory).
_Event = Tuple[float, int, int, int]
#: One admission: ``(user, item, t, gain)``.
_Admit = Tuple[int, int, int, float]


@dataclass
class SolverState:
    """The persistable warm state of an :class:`IncrementalSolver`.

    Rows and sequences are tuples in exactly the shape
    :func:`repro.io.save_solver_state` encodes, so neither an export nor a
    warm start converts them one by one.  The state
    :meth:`IncrementalSolver.state` returns owns its list and dict:
    mutating it never changes the solver.

    Attributes:
        admits: the admission sequence of the last solve in global admission
            order, as ``(user, item, t, gain)`` rows.  Encodes the strategy,
            the growth curve (the running float sum of gains reproduces it
            bit for bit) and the admission order.
        events: the per-user selector-level pop sequences (gates and
            admissions) the next re-solve merges, each a tuple of
            ``(priority, item, t, admitted)`` rows with ``admitted`` a
            ``0``/``1`` int; see :class:`~repro.core.selection.SelectionTrace`.
        complete: whether the sequences are replayable in isolation (the
            recorded run drained its frontier and never hit a capacity
            block).  ``False`` forces the next re-solve onto the cold
            fallback.
        instance_name: label of the instance the state was computed on.
        signature: content digest (:func:`instance_signature`) of the
            instance the state was computed on; ``from_state`` refuses a
            mismatched pairing.
    """

    admits: List[_Admit] = field(default_factory=list)
    events: Dict[int, Tuple[_Event, ...]] = field(default_factory=dict)
    complete: bool = True
    instance_name: str = "revmax-instance"
    signature: str = ""

    def growth_curve(self) -> List[Tuple[int, float]]:
        """Reconstruct the cumulative ``(size, revenue)`` growth curve."""
        return _running_curve(self.admits)

    def triples(self) -> List[Triple]:
        """Admitted triples in admission order."""
        return [Triple(user, item, t) for user, item, t, _ in self.admits]


class IncrementalSolver:
    """G-Greedy with in-place deltas and warm-started re-solves.

    The solver owns one instance for its whole life: :meth:`solve` runs a
    cold columnar G-Greedy (bit-identical to
    ``GlobalGreedy().build_strategy(instance)``) while recording the warm
    state, and :meth:`resolve` mutates the instance per a delta and repairs
    the strategy, replaying the recorded pop sequences of every user the
    delta cannot touch.

    Only the paper-default configuration is supported (isolated seeds, lazy
    forward, two-level frontier, numpy backend, full horizon): that is the
    configuration whose cold behaviour the warm replay reproduces exactly.
    GlobalNo and the ablation variants re-solve cold through
    :class:`~repro.algorithms.global_greedy.GlobalGreedy` as before.

    The warm state is the last run's ``(user, item, t, gain)`` admission
    rows plus the per-user event sequences -- the :class:`SolverState`
    layout.  The cold loop hands over the strategy and growth curve it
    built anyway; a merge or :meth:`from_state` records only the rows, and
    :attr:`strategy`, :attr:`growth_curve` and :attr:`revenue` are built
    from them on first read.  So a warm start followed by a re-solve never
    builds the pre-delta strategy it is about to replace.
    ``last_stats`` holds the diagnostics of the last call: ``mode``
    (``"cold"``, ``"merge"``, ``"replay"`` or ``"from_state"``),
    ``admitted``, and per mode the dirty/reused split or the
    ``fallback_reason``.

    Args:
        instance: the instance to solve and mutate.  Columnar-backed
            instances re-solve fastest; dict-backed ones work too (their
            cached compilation is patched alongside the table).
    """

    def __init__(self, instance: RevMaxInstance) -> None:
        self._instance = instance
        self.last_stats: Dict[str, object] = {}
        self._admits: Optional[List[_Admit]] = None
        self._events: Dict[int, Tuple[_Event, ...]] = {}
        self._complete = False
        self._state_version = -1
        self._strategy: Optional[Strategy] = None
        self._growth_curve: Optional[List[Tuple[int, float]]] = None

    @property
    def instance(self) -> RevMaxInstance:
        """The instance this solver owns (mutated in place by deltas)."""
        return self._instance

    @property
    def strategy(self) -> Optional[Strategy]:
        """The current solution; ``None`` before the first solve."""
        if self._strategy is None and self._admits is not None:
            self._strategy = _strategy_from_admits(self._instance.catalog,
                                                   self._admits)
        return self._strategy

    @property
    def growth_curve(self) -> List[Tuple[int, float]]:
        """Cumulative ``(size, revenue)`` checkpoints, identical to the
        cold run's."""
        if self._growth_curve is None:
            self._growth_curve = _running_curve(self._admits or ())
        return self._growth_curve

    @property
    def revenue(self) -> float:
        """Expected revenue of :attr:`strategy` (the growth curve's tail)."""
        curve = self.growth_curve
        return curve[-1][1] if curve else 0.0

    # ------------------------------------------------------------------
    # cold solve
    # ------------------------------------------------------------------
    def solve(self) -> Strategy:
        """Run a cold columnar G-Greedy, recording the warm state."""
        self._run_cold(mode="cold")
        return self.strategy

    def _run_cold(self, mode: str, **stats) -> None:
        """The cold reference loop over every user, shared with the fallback."""
        events, replayable, trace, strategy, growth_curve = self._traced_run()
        self._install(trace.admissions, events, replayable,
                      strategy=strategy, growth_curve=growth_curve)
        self.last_stats = {"mode": mode, "admitted": len(strategy), **stats}

    def _traced_run(self, users: Optional[List[int]] = None):
        """One traced pass of the cold loop over ``users`` (``None``: all).

        Returns the compressed per-user sequences (one per user of
        ``users``, or per user that popped anything), whether they replay
        user by user, and the trace, strategy and growth curve of the pass.
        """
        instance = self._instance
        trace = SelectionTrace()
        strategy = Strategy(instance.catalog)
        selector = LazyGreedySelector(
            instance, RevenueModel(instance, backend="numpy"),
            ConstraintChecker(instance),
            seed_priorities=SEED_ISOLATED,
            max_selections=selection_bound(instance),
            trace=trace,
        )
        growth_curve: List[Tuple[int, float]] = []
        selector.select(strategy, None, users=users,
                        growth_curve=growth_curve, initial_revenue=0.0)
        # A capped exit is replayable because the bound is the
        # display-theoretic maximum: reaching it means every user's display
        # slots are full, so the unrecorded suffix of every per-user
        # sequence is pure display discards and omitting it is harmless.
        # A pass over a proper subset of the users can never reach it.
        replayable = not (trace.truncated or trace.capacity_blocked)
        events = {
            user: _compress_events(trace.events.get(user, ()))
            for user in (trace.events if users is None else users)
        }
        return events, replayable, trace, strategy, growth_curve

    # ------------------------------------------------------------------
    # incremental re-solve
    # ------------------------------------------------------------------
    def resolve(self, delta: Optional[InstanceDelta] = None) -> Strategy:
        """Apply ``delta`` and repair the strategy; return the new strategy.

        The result is exactly what ``solve()`` would produce on the mutated
        instance -- the same triples admitted in the same order with the
        same float gains.  With no warm state (``solve`` never ran) or when
        a soundness guard fails, the re-solve runs the cold loop on the
        patched tensors instead of the stream merge; ``last_stats["mode"]``
        says which path ran.

        Args:
            delta: the batch of changes; ``None`` or an empty delta
                re-solves the unchanged instance (a no-op that replays
                every recorded sequence -- the identity the differential
                suite pins down).
        """
        if delta is None:
            delta = InstanceDelta()
        had_state = self._admits is not None
        # Mutations that did not come through this solver (a direct
        # apply_delta on the instance, table.set calls, ...) invalidate the
        # recorded sequences; the adoption-table mutation counter catches
        # them.  (Silent in-place writes to the price/capacity arrays are
        # the one thing this cannot see -- route changes through deltas.)
        externally_mutated = (
            had_state
            and getattr(self._instance.adoption, "_version", 0)
            != self._state_version
        )
        touched_pairs = delta.touched_pairs()
        price_cells = delta.touched_price_cells()
        new_users = sorted(delta.new_users)
        if not delta.is_empty():
            apply_delta(self._instance, delta)
        if not had_state:
            self._run_cold(mode="replay", fallback_reason="no warm state")
            return self.strategy
        if externally_mutated:
            self._run_cold(mode="replay",
                           fallback_reason="instance mutated outside the "
                                           "solver")
            return self.strategy
        if not self._complete:
            self._run_cold(
                mode="replay",
                fallback_reason="previous run not user-replayable "
                                "(non-positive break or capacity block)",
            )
            return self.strategy
        if not self._capacity_safe():
            self._run_cold(mode="replay",
                           fallback_reason="capacity constraint can bind")
            return self.strategy

        dirty = self._dirty_users(touched_pairs, price_cells, new_users)
        dirty_events: Dict[int, Tuple[_Event, ...]] = {}
        if dirty:
            dirty_events, replayable, *_ = self._traced_run(sorted(dirty))
            if not replayable:
                self._run_cold(mode="replay",
                               fallback_reason="dirty re-run not "
                                               "user-replayable",
                               dirty_users=len(dirty))
                return self.strategy

        events = {
            user: sequence for user, sequence in self._events.items()
            if user not in dirty
        }
        reused = sum(len(sequence) for sequence in events.values())
        events.update(dirty_events)
        admits = self._merge(events)
        self._install(admits, events, True)
        self.last_stats = {
            "mode": "merge",
            "admitted": len(admits),
            "dirty_users": len(dirty),
            "reused_events": reused,
        }
        return self.strategy

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _install(self, admits: List[_Admit],
                 events: Dict[int, Tuple[_Event, ...]], complete: bool,
                 strategy: Optional[Strategy] = None,
                 growth_curve: Optional[List[Tuple[int, float]]] = None
                 ) -> None:
        """Adopt a run's rows and sequences as the warm state.

        ``strategy`` and ``growth_curve`` are passed only by a run that
        built them anyway; otherwise the properties build them from
        ``admits`` on first read.
        """
        self._admits = admits
        self._events = events
        self._complete = complete
        self._strategy = strategy
        self._growth_curve = growth_curve
        self._state_version = getattr(self._instance.adoption, "_version", 0)

    def _capacity_safe(self) -> bool:
        """True when no capacity constraint can ever block an admission.

        An item's audience can only grow towards its distinct candidate
        users; when that count is within capacity for every item,
        ``ConstraintChecker.can_add`` can never fail on capacity (an absent
        user always finds ``audience <= candidates - 1 < capacity``) and
        the admit loop is exactly user-decomposable.
        """
        compiled = self._instance.compiled()
        candidate_users = np.bincount(compiled.pair_item,
                                      minlength=compiled.num_items)
        return bool(np.all(candidate_users
                           <= np.asarray(compiled.capacities)))

    def _dirty_users(self, touched_pairs: Set[Tuple[int, int]],
                     price_cells: Set[Tuple[int, int]],
                     new_users: List[int]) -> Set[int]:
        """Users whose pop sequences the delta can touch.

        A user is dirty when one of its candidate pairs' probability
        vectors changed, when one of its candidate items had a price cell
        rewritten (the isolated seed and every marginal involving that item
        move -- and, through the shared (user, class) group, same-class
        marginals can too), or when it is new.  Everyone else's rows, seeds
        and group states are byte-identical to the previous run, so their
        recorded sequences replay verbatim.
        """
        compiled = self._instance.compiled()
        dirty: Set[int] = set(user for user, _ in touched_pairs)
        dirty.update(new_users)
        for item in {item for item, _ in price_cells}:
            rows = compiled.rows_of_item(item)
            dirty.update(compiled.pair_user[rows].tolist())
        return dirty

    def _merge(self, events: Dict[int, Tuple[_Event, ...]]
               ) -> List[_Admit]:
        """K-way merge of per-user pop sequences in cold heap order.

        The cold columnar frontier serves pops by ``(-priority, CSR row)``;
        with capacity out of the picture each user's next pop is its
        recorded head, so this merge reproduces the cold pop order --
        admissions, refresh gates and discard gates alike -- without
        touching a revenue kernel.  Returns the admission rows; the
        strategy and growth curve are built from them when read.
        """
        # Tie-breaking rows for every event, one vectorized lookup for the
        # whole merge (per-user calls would pay numpy dispatch 10^5 times).
        users_with_events = [user for user, sequence in events.items()
                             if sequence]
        lengths = [len(events[user]) for user in users_with_events]
        flat_users = np.repeat(
            np.asarray(users_with_events, dtype=np.int64),
            np.asarray(lengths, dtype=np.int64) if lengths else 0,
        )
        flat_items = np.fromiter(
            (event[1] for user in users_with_events for event in events[user]),
            dtype=np.int64, count=int(flat_users.shape[0]),
        )
        compiled = self._instance.compiled()
        flat_rows = compiled.pair_rows(flat_users, flat_items)
        rows: Dict[int, np.ndarray] = {}
        cursor = 0
        for user, length in zip(users_with_events, lengths):
            rows[user] = flat_rows[cursor:cursor + length]
            cursor += length
        heap: List[Tuple[float, int, int, int]] = []
        for user, sequence in events.items():
            if sequence:
                heap.append((-sequence[0][0], int(rows[user][0]), user, 0))
        heapq.heapify(heap)
        admits: List[_Admit] = []
        with _gc_paused():
            while heap:
                _, _, user, position = heapq.heappop(heap)
                sequence = events[user]
                priority, item, t, admitted = sequence[position]
                if admitted:
                    admits.append((user, item, t, priority))
                position += 1
                if position < len(sequence):
                    heapq.heappush(heap, (
                        -sequence[position][0], int(rows[user][position]),
                        user, position,
                    ))
        return admits

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def state(self) -> SolverState:
        """Export the warm state (see :func:`repro.io.save_solver_state`).

        Raises:
            ValueError: when no solve has run yet.
        """
        if self._admits is None:
            raise ValueError("no solver state to export: call solve() first")
        return SolverState(
            admits=list(self._admits),
            events=dict(self._events),
            complete=self._complete,
            instance_name=self._instance.name,
            signature=instance_signature(self._instance),
        )

    @classmethod
    def from_state(cls, instance: RevMaxInstance,
                   state: SolverState) -> "IncrementalSolver":
        """Rebuild a warm solver from a persisted state.

        The rows and sequences are installed as they are; the strategy,
        growth curve and revenue are built from the rows on first read, so
        a warm start that goes straight into :meth:`resolve` never builds
        the strategy the re-solve replaces.

        The state is only meaningful against the exact tensors it was
        computed on, so the recorded content digest is checked against
        ``instance`` -- a mismatch (say, a ``state.json`` from a delta
        cycle paired with the pre-delta ``.npz``) is rejected instead of
        silently replaying garbage.  Persist the mutated instance next to
        the state (``repro resolve --save-instance``) to keep the pair in
        lock step.

        Raises:
            ValueError: when the state was computed on different tensors
                (or carries no signature).
        """
        if state.signature != instance_signature(instance):
            raise ValueError(
                f"solver state (computed on {state.instance_name!r}) does "
                f"not match this instance's tensors; re-solve cold or load "
                f"the instance the state was saved with (persist both with "
                f"repro resolve --save-state/--save-instance)"
            )
        solver = cls(instance)
        # Shallow copies: the caller's state stays its own to mutate.
        solver._install(
            list(state.admits),
            {user: tuple(sequence) for user, sequence in state.events.items()},
            bool(state.complete),
        )
        solver.last_stats = {"mode": "from_state",
                             "admitted": len(state.admits)}
        return solver


def _running_curve(admits: Iterable[_Admit]) -> List[Tuple[int, float]]:
    """The growth curve of admission rows: the running float sum of gains.

    Summed left to right from ``0.0`` exactly as the admit loop sums, so
    the curve is bit-identical to the one the run recorded.
    """
    totals = accumulate((row[3] for row in admits), initial=0.0)
    next(totals)
    return list(enumerate(totals, start=1))


def _strategy_from_admits(catalog: ItemCatalog,
                          admits: Iterable[_Admit]) -> Strategy:
    """The strategy admission rows encode, added in admission order."""
    with _gc_paused():
        return Strategy(catalog,
                        (Triple(user, item, t) for user, item, t, _ in admits))


def _compress_events(sequence: List[_Event]) -> Tuple[_Event, ...]:
    """Drop the gates that cannot affect the merge (usually almost all).

    A gate's only role is to *hide* the user's later, higher-valued events
    behind its own priority: without it, a later event would surface in
    the global merge earlier than the cold run allows (see the module
    docstring on non-submodular upward refreshes).  A gate strictly
    greater than **every** later event of the same user hides nothing --
    dropping it just presents the user's next event immediately, and since
    that next event is strictly smaller, every other user's event that the
    cold run would pop in between still pops in between.  Admissions are
    always kept.  Equal values are kept conservatively: a later equal
    value's tie-break row could differ from the gate's.

    In practice this removes the long tail of display discards a
    saturated run pops while draining its frontier -- typically >half of
    all recorded events -- which is pure merge/persistence overhead.
    """
    kept: List[_Event] = []
    suffix_max = float("-inf")
    for event in reversed(sequence):
        priority = event[0]
        if event[3] or priority <= suffix_max:
            kept.append(event)
        if priority > suffix_max:
            suffix_max = priority
    return tuple(reversed(kept))


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, restoring its prior state.

    The merge and the strategy build allocate a few long-lived objects per
    admission (rows, triples, strategy index entries) and create no
    reference cycles, so collector passes find nothing to free -- yet each
    one walks the solver's whole live state.  At 100k users they tripled
    the merge (about 6 s paused against 19 s running).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
