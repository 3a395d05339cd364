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
Replaying the recorded sequences is one stable sort over all their events
(:func:`_pop_order`) -- no revenue kernels, no frontier, no freshness
bookkeeping.  Gate events (refreshes and discards) are merged as well as
admissions, which is what keeps the interleaving exact even where a lazy
refresh *raises* a priority (the revenue function is close to but not
exactly submodular, and such upward refreshes do occur on real pipeline
data).

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
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate, chain
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
#: a ``0``/``1`` int (see :class:`~repro.core.selection.SelectionTrace`).
_Event = Tuple[float, int, int, int]
#: One admission: ``(user, item, t, gain)``.
_Admit = Tuple[int, int, int, float]
#: One kept gate: ``(position, priority, item, t)``, ``position`` its index
#: in the user's compressed pop sequence (admissions and kept gates).
_Gate = Tuple[int, float, int, int]


@dataclass
class SolverState:
    """The persistable warm state of an :class:`IncrementalSolver`.

    Every admission is stored once, as an ``admits`` row.  A user's
    compressed pop sequence -- what the next re-solve merges -- is its
    admissions in ``admits`` order with its ``gates`` slotted in at their
    recorded positions, so the sequences need no second copy of the
    admissions.  Rows are tuples in exactly the shape
    :func:`repro.io.save_solver_state` encodes, so neither an export nor a
    warm start converts them one by one.  The state
    :meth:`IncrementalSolver.state` returns owns its list and dict:
    mutating it never changes the solver.

    Attributes:
        admits: the admission sequence of the last solve in global admission
            order, as ``(user, item, t, gain)`` rows.  Encodes the strategy,
            the growth curve (the running float sum of gains reproduces it
            bit for bit), the admission order, and each user's admitted
            pops (an admission pops at its gain).
        gates: the refresh and discard gates the compression keeps (see
            :func:`_kept_gates`; usually very few), per user with at least
            one, each a ``(position, priority, item, t)`` row whose
            ``position`` is its index in the user's compressed sequence.
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
    gates: Dict[int, Tuple[_Gate, ...]] = field(default_factory=dict)
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
    rows plus the per-user kept gates -- the :class:`SolverState`
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
        self._gates: Dict[int, Tuple[_Gate, ...]] = {}
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
        gates, replayable, trace, strategy, growth_curve = self._traced_run()
        self._install(trace.admissions, gates, replayable,
                      strategy=strategy, growth_curve=growth_curve)
        self.last_stats = {"mode": mode, "admitted": len(strategy), **stats}

    def _traced_run(self, users: Optional[List[int]] = None):
        """One traced pass of the cold loop over ``users`` (``None``: all).

        Returns the kept gates of every user of ``users`` (``None``: of
        every user that popped anything), whether the pass replays user by
        user, and the trace, strategy and growth curve of the pass; the
        trace's ``admissions`` are the pass's admission rows.
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
        gates = {
            user: _kept_gates(trace.events.get(user, ()))
            for user in (trace.events if users is None else users)
        }
        return gates, replayable, trace, strategy, growth_curve

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
        fresh_admits: List[_Admit] = []
        fresh_gates: Dict[int, Tuple[_Gate, ...]] = {}
        if dirty:
            fresh_gates, replayable, trace, *_ = self._traced_run(
                sorted(dirty))
            if not replayable:
                self._run_cold(mode="replay",
                               fallback_reason="dirty re-run not "
                                               "user-replayable",
                               dirty_users=len(dirty))
                return self.strategy
            fresh_admits = trace.admissions

        admits = [row for row in self._admits if row[0] not in dirty]
        gates = {user: rows for user, rows in self._gates.items()
                 if user not in dirty}
        reused = len(admits) + sum(map(len, gates.values()))
        gates.update(fresh_gates)
        admits = self._merge(admits + fresh_admits, gates)
        self._install(admits, gates, True)
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
                 gates: Dict[int, Tuple[_Gate, ...]], complete: bool,
                 strategy: Optional[Strategy] = None,
                 growth_curve: Optional[List[Tuple[int, float]]] = None
                 ) -> None:
        """Adopt a run's admission rows and kept gates as the warm state.

        ``strategy`` and ``growth_curve`` are passed only by a run that
        built them anyway; otherwise the properties build them from
        ``admits`` on first read.
        """
        self._admits = admits
        self._gates = gates
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

    def _merge(self, admits: List[_Admit],
               gates: Dict[int, Tuple[_Gate, ...]]) -> List[_Admit]:
        """Merge per-user pop sequences in cold heap order.

        ``admits`` holds every user's admission rows, each user's in its
        own pop order (users may interleave); ``gates`` are the kept gates
        of the same users.  Each user's compressed sequence is laid out in
        one flat, user-major array, and :func:`_pop_order` sorts it into
        the order the cold columnar frontier, serving pops by
        ``(-priority, CSR row)``, pops it in.  With capacity out of the
        picture that is the cold run's pop order, so the merge reproduces
        its admissions without touching a revenue kernel.  Returns the
        rows of ``admits`` in that order (the same tuples, no copies); the
        strategy and growth curve are built from them when read.
        """
        compiled = self._instance.compiled()
        num_users = compiled.num_users
        gate_users = [user for user, rows in gates.items() if rows]
        gate_table = np.array(
            [row for user in gate_users for row in gates[user]],
            dtype=np.float64,
        ).reshape(-1, 4)
        gate_user = np.repeat(
            np.asarray(gate_users, dtype=np.int64),
            [len(gates[user]) for user in gate_users],
        )
        # One conversion of the rows; user, item and time ids are far below
        # 2**53, so float columns hold them exactly.
        table = np.fromiter(chain.from_iterable(admits), dtype=np.float64,
                            count=4 * len(admits)).reshape(-1, 4)
        admit_user = table[:, 0].astype(np.int64)
        lengths = (np.bincount(admit_user, minlength=num_users)
                   + np.bincount(gate_user, minlength=num_users))
        starts = np.cumsum(lengths) - lengths
        count = int(lengths.sum())

        # The flat layout: user-major, each user's events in sequence
        # order.  Gates sit at their recorded positions; the user's
        # admissions fill its remaining slots in their own order, and
        # ``source`` maps each admission slot back to its row of ``admits``.
        is_gate = np.zeros(count, dtype=bool)
        gate_slots = starts[gate_user] + gate_table[:, 0].astype(np.int64)
        is_gate[gate_slots] = True
        admit_slots = np.flatnonzero(~is_gate)
        by_user = np.argsort(admit_user, kind="stable")
        items = np.empty(count, dtype=np.int64)
        priorities = np.empty(count, dtype=np.float64)
        items[gate_slots] = gate_table[:, 2]
        priorities[gate_slots] = gate_table[:, 1]
        items[admit_slots] = table[by_user, 1]
        priorities[admit_slots] = table[by_user, 3]
        source = np.empty(count, dtype=np.int64)
        source[admit_slots] = by_user
        users = np.repeat(np.arange(num_users, dtype=np.int64), lengths)

        order = _pop_order(lengths, priorities,
                           compiled.pair_rows(users, items))
        popped = source[order[~is_gate[order]]]
        return list(map(admits.__getitem__, popped.tolist()))

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
            gates={user: rows for user, rows in self._gates.items() if rows},
            complete=self._complete,
            instance_name=self._instance.name,
            signature=instance_signature(self._instance),
        )

    @classmethod
    def from_state(cls, instance: RevMaxInstance,
                   state: SolverState) -> "IncrementalSolver":
        """Rebuild a warm solver from a persisted state.

        The rows and gates are installed as they are; the strategy,
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
            {user: tuple(rows) for user, rows in state.gates.items()},
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


def _pop_order(lengths: np.ndarray, priorities: np.ndarray,
               rows: np.ndarray) -> np.ndarray:
    """The order a heap merge pops flattened per-user sequences in.

    The events are laid out user-major, ``lengths[u]`` of them for user
    ``u`` in sequence order.  A k-way heap merge keyed by
    ``(-priority, row)`` pops an event only after everything before it in
    its sequence, so the event pops at the running maximum of its user's
    keys up to and including it, and the merge is one stable sort by that
    running maximum (within a user the maximum never decreases, so the
    sort keeps sequence order).  Keys are ranked globally first -- ties,
    which share a row and hence a user, rank in sequence order -- and a
    per-user offset keeps ``maximum.accumulate`` from carrying across
    users.  Rows belong to one user, so running maxima of different users
    never tie.  ``tests/test_dynamic.py`` holds this equal to a ``heapq``
    merge.
    """
    count = priorities.shape[0]
    rank = np.empty(count, dtype=np.int64)
    rank[np.lexsort((rows, -priorities))] = np.arange(count, dtype=np.int64)
    offset = np.repeat(np.arange(lengths.shape[0], dtype=np.int64) * count,
                       lengths)
    effective = np.maximum.accumulate(rank + offset) - offset
    return np.argsort(effective, kind="stable")


def _kept_gates(sequence: List[_Event]) -> Tuple[_Gate, ...]:
    """The gates of a user's pop sequence that can affect the merge.

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
    Each kept gate is returned with its position in the compressed
    sequence (admissions and kept gates), where the merge slots it back.
    """
    kept: List[_Event] = []
    suffix_max = float("-inf")
    for event in reversed(sequence):
        priority = event[0]
        if event[3] or priority <= suffix_max:
            kept.append(event)
        if priority > suffix_max:
            suffix_max = priority
    kept.reverse()
    return tuple((position, priority, item, t)
                 for position, (priority, item, t, admitted)
                 in enumerate(kept) if not admitted)


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, restoring its prior state.

    Decoding a state file and building a strategy from admission rows
    allocate a few long-lived objects per admission (rows, triples,
    strategy index entries) and create no reference cycles, so collector
    passes find nothing to free -- yet each one walks the process's whole
    live state.  In one process at 20k users (120k admissions, 8
    interleaved rounds) the strategy build took 0.44 s paused against
    1.35 s running and the state decode 0.18 s against 0.42 s.  The merge
    does not pause: it creates no per-admission object beyond its output
    list's slots, and took 120 ms paused against 122 ms running (10
    interleaved rounds).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
