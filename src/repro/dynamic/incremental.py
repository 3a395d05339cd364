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
In that merge every pop happens at its *effective key*: the lowest
priority its user has popped so far, itself included, the larger row
losing a tie (``docs/architecture.md`` has the argument).  The trace records that key with each admission
(:class:`~repro.core.selection.SelectionTrace`), so replaying the
admissions is one sort by effective key (:meth:`IncrementalSolver._merge`)
-- no revenue kernels, no frontier, no freshness bookkeeping.  A lazy
refresh or display discard enters only through the lower key it leaves
behind, which is what keeps the interleaving exact even where a refresh
*raises* a priority (the revenue function is close to but not exactly
submodular, and such upward refreshes do occur on real pipeline data).

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
* merge the dirty users' fresh admissions with the clean users' recorded
  ones.

Soundness guards
----------------
Per-user replay additionally requires the recorded run to be
*complete*: a run that ends at the non-positive break cut every user's
pops at a global condition, and a run that hit a capacity block coupled
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
from bisect import bisect_left
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

    Recorded admissions replay correctly only on the *exact* instance
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

#: One admission: ``(user, item, t, gain)``.
_Admit = Tuple[int, int, int, float]
#: The key an admission popped behind: ``(priority, item)`` of its user.
_Key = Tuple[float, int]


@dataclass
class SolverState:
    """The persistable warm state of an :class:`IncrementalSolver`.

    Every admission is stored once, as an ``admits`` row, and the next
    re-solve merges nothing else: an admission's merge key is its own
    ``(gain, item)`` unless ``behind`` names the lower key it popped
    behind.  Rows are tuples in exactly the shape
    :func:`repro.io.save_solver_state` encodes, so neither an export nor a
    warm start converts them one by one.  The state
    :meth:`IncrementalSolver.state` returns owns its list and dict:
    mutating it never changes the solver.

    Attributes:
        admits: the admission sequence of the last solve in global admission
            order, as ``(user, item, t, gain)`` rows.  Encodes the strategy,
            the growth curve (the running float sum of gains reproduces it
            bit for bit) and the admission order.
        behind: ``{index into admits: (priority, item)}`` for the
            admissions that popped behind a lower key of their own user
            (see :class:`~repro.core.selection.SelectionTrace`; usually
            none).
        complete: whether the admissions are replayable user by user (the
            recorded run drained its frontier and never hit a capacity
            block).  ``False`` forces the next re-solve onto the cold
            fallback.
        instance_name: label of the instance the state was computed on.
        signature: content digest (:func:`instance_signature`) of the
            instance the state was computed on; ``from_state`` refuses a
            mismatched pairing.
    """

    admits: List[_Admit] = field(default_factory=list)
    behind: Dict[int, _Key] = field(default_factory=dict)
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
    the strategy, replaying the recorded admissions of every user the
    delta cannot touch.

    Only the paper-default configuration is supported (isolated seeds, lazy
    forward, two-level frontier, numpy backend, full horizon): that is the
    configuration whose cold behaviour the warm replay reproduces exactly.
    GlobalNo and the ablation variants re-solve cold through
    :class:`~repro.algorithms.global_greedy.GlobalGreedy` as before.

    The warm state is the last run's ``(user, item, t, gain)`` admission
    rows plus the keys some of them popped behind -- the
    :class:`SolverState` layout.  :meth:`solve` and :meth:`resolve` return
    nothing.  The cold loop hands over the strategy and growth curve it
    built anyway; a merge or :meth:`from_state` records only the rows, and
    :attr:`strategy`, :attr:`growth_curve` and :attr:`revenue` are built
    from them on first read.  So a warm start followed by a re-solve never
    builds the pre-delta strategy it is about to replace, and a caller
    that only needs the size (``last_stats["admitted"]``) or the revenue
    builds no strategy at all.
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
        self._behind: Dict[int, _Key] = {}
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
    def solve(self) -> None:
        """Run a cold columnar G-Greedy, recording the warm state."""
        self._run_cold(mode="cold")

    def _run_cold(self, mode: str, **stats) -> None:
        """The cold reference loop over every user, shared with the fallback."""
        replayable, trace, strategy, growth_curve = self._traced_run()
        self._install(trace.admissions, trace.behind, replayable,
                      strategy=strategy, growth_curve=growth_curve)
        self.last_stats = {"mode": mode, "admitted": len(strategy), **stats}

    def _traced_run(self, users: Optional[List[int]] = None):
        """One traced pass of the cold loop over ``users`` (``None``: all).

        Returns whether the pass replays user by user and the pass's
        trace, strategy and growth curve; the trace's ``admissions`` and
        ``behind`` are the pass's share of the warm state.
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
        # slots are full, so every user's unrecorded pops are display
        # discards after its last admission and omitting them is harmless.
        # A pass over a proper subset of the users can never reach it.
        replayable = not (trace.truncated or trace.capacity_blocked)
        return replayable, trace, strategy, growth_curve

    # ------------------------------------------------------------------
    # incremental re-solve
    # ------------------------------------------------------------------
    def resolve(self, delta: Optional[InstanceDelta] = None) -> None:
        """Apply ``delta`` and repair the strategy (read :attr:`strategy`).

        The result is exactly what ``solve()`` would produce on the mutated
        instance -- the same triples admitted in the same order with the
        same float gains.  With no warm state (``solve`` never ran) or when
        a soundness guard fails, the re-solve runs the cold loop on the
        patched tensors instead of the stream merge; ``last_stats["mode"]``
        says which path ran.

        Args:
            delta: the batch of changes; ``None`` or an empty delta
                re-solves the unchanged instance (a no-op that replays
                every recorded admission -- the identity the differential
                suite pins down).
        """
        if delta is None:
            delta = InstanceDelta()
        had_state = self._admits is not None
        # Mutations that did not come through this solver (a direct
        # apply_delta on the instance, table.set calls, ...) invalidate the
        # recorded admissions; the adoption-table mutation counter catches
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
            return
        if externally_mutated:
            self._run_cold(mode="replay",
                           fallback_reason="instance mutated outside the "
                                           "solver")
            return
        if not self._complete:
            self._run_cold(
                mode="replay",
                fallback_reason="previous run not user-replayable "
                                "(non-positive break or capacity block)",
            )
            return
        if not self._capacity_safe():
            self._run_cold(mode="replay",
                           fallback_reason="capacity constraint can bind")
            return

        dirty = self._dirty_users(touched_pairs, price_cells, new_users)
        fresh = SelectionTrace()
        if dirty:
            replayable, fresh, *_ = self._traced_run(sorted(dirty))
            if not replayable:
                self._run_cold(mode="replay",
                               fallback_reason="dirty re-run not "
                                               "user-replayable",
                               dirty_users=len(dirty))
                return
        admits, behind = _spliced(self._admits, self._behind, dirty, fresh)
        reused = len(admits) - len(fresh.admissions)
        admits, behind = self._merge(admits, behind)
        self._install(admits, behind, True)
        self.last_stats = {
            "mode": "merge",
            "admitted": len(admits),
            "dirty_users": len(dirty),
            "reused_events": reused,
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _install(self, admits: List[_Admit], behind: Dict[int, _Key],
                 complete: bool, strategy: Optional[Strategy] = None,
                 growth_curve: Optional[List[Tuple[int, float]]] = None
                 ) -> None:
        """Adopt a run's admission rows and their keys as the warm state.

        ``strategy`` and ``growth_curve`` are passed only by a run that
        built them anyway; otherwise the properties build them from
        ``admits`` on first read.
        """
        self._admits = admits
        self._behind = behind
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
        """Users whose pops the delta can touch.

        A user is dirty when one of its candidate pairs' probability
        vectors changed, when one of its candidate items had a price cell
        rewritten (the isolated seed and every marginal involving that item
        move -- and, through the shared (user, class) group, same-class
        marginals can too), or when it is new.  Everyone else's rows, seeds
        and group states are byte-identical to the previous run, so their
        recorded admissions replay verbatim.
        """
        compiled = self._instance.compiled()
        dirty: Set[int] = set(user for user, _ in touched_pairs)
        dirty.update(new_users)
        for item in {item for item, _ in price_cells}:
            rows = compiled.rows_of_item(item)
            dirty.update(compiled.pair_user[rows].tolist())
        return dirty

    def _merge(self, admits: List[_Admit], behind: Dict[int, _Key]
               ) -> Tuple[List[_Admit], Dict[int, _Key]]:
        """Order admissions as the cold run pops them.

        ``admits`` holds every user's admission rows, each user's in its
        own pop order (users may interleave); ``behind`` maps indices of
        ``admits`` to the keys those admissions popped behind.  With
        capacity out of the picture the cold columnar frontier, serving
        pops by ``(-priority, CSR row)``, pops each admission at its
        effective key -- ``behind``'s entry or its own ``(gain, item)`` --
        and in increasing order of that key (``docs/architecture.md``), so
        the merge is one ``lexsort`` and touches no revenue kernel.  Keys
        of different users never tie (rows belong to one user); a user's
        tied keys keep its own order, since ``lexsort`` is stable.

        Returns the rows of ``admits`` in that order (the same tuples, no
        copies; the strategy and growth curve are built from them when
        read) and ``behind`` re-indexed to it.
        """
        # One conversion of the rows; user, item and time ids are far below
        # 2**53, so float columns hold them exactly.
        table = np.fromiter(chain.from_iterable(admits), dtype=np.float64,
                            count=4 * len(admits)).reshape(-1, 4)
        items = table[:, 1].astype(np.int64)
        priorities = table[:, 3]
        index = np.fromiter(behind, dtype=np.int64, count=len(behind))
        keys = np.array(list(behind.values()),
                        dtype=np.float64).reshape(-1, 2)
        priorities[index] = keys[:, 0]
        items[index] = keys[:, 1]
        rows = self._instance.compiled().pair_rows(
            table[:, 0].astype(np.int64), items)
        order = np.lexsort((rows, -priorities))
        position = np.empty_like(order)
        position[order] = np.arange(order.shape[0])
        return (list(map(admits.__getitem__, order.tolist())),
                dict(zip(position[index].tolist(), behind.values())))

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
            behind=dict(self._behind),
            complete=self._complete,
            instance_name=self._instance.name,
            signature=instance_signature(self._instance),
        )

    @classmethod
    def from_state(cls, instance: RevMaxInstance,
                   state: SolverState) -> "IncrementalSolver":
        """Rebuild a warm solver from a persisted state.

        The rows and keys are installed as they are; the strategy,
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
        solver._install(list(state.admits), dict(state.behind),
                        bool(state.complete))
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


def _spliced(admits: List[_Admit], behind: Dict[int, _Key],
             users: Set[int], fresh: SelectionTrace
             ) -> Tuple[List[_Admit], Dict[int, _Key]]:
    """The rows of ``admits`` not owned by ``users``, then ``fresh``'s rows.

    ``behind`` and ``fresh.behind`` are re-indexed to the spliced rows.
    """
    kept = [index for index, row in enumerate(admits) if row[0] not in users]
    spliced = {bisect_left(kept, index): key for index, key in behind.items()
               if admits[index][0] not in users}
    spliced.update((len(kept) + index, key)
                   for index, key in fresh.behind.items())
    return list(map(admits.__getitem__, kept)) + fresh.admissions, spliced


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
