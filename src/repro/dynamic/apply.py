"""Apply an :class:`InstanceDelta` to a live ``RevMaxInstance`` in place.

:meth:`repro.core.compiled.CompiledInstance.apply_delta` patches the
tensors; this module is the instance-level entry point that keeps every
layer wrapped around those tensors consistent:

* **columnar-backed instances** (adoption table is a
  :class:`~repro.core.compiled.ColumnarAdoptionTable`): the compilation is
  patched, the adoption-table mutation counter is bumped in lock step with
  the compilation's ``source_version`` (so cached views stay *valid*, not
  stale), and the instance's tensor references are re-synced in case a
  read-only tensor was copy-on-write-replaced;
* **dict-backed instances**: probability updates and new users go through
  ``AdoptionTable.set`` (the object layer stays the source of truth), the
  per-item tensors are patched in place, and a cached fresh compilation is
  patched alongside so ``instance.compiled()`` stays free.

Either way the function mutates ``instance`` and returns it.  Revenue
models memoise nothing: every evaluation reads the instance's tensors as
they are at that call, so a model built *before* the delta scores the
patched instance, and nothing needs invalidating.
"""

from __future__ import annotations

import numpy as np

from repro.core.compiled import ColumnarAdoptionTable
from repro.core.problem import RevMaxInstance
from repro.dynamic.delta import InstanceDelta

__all__ = ["apply_delta"]


def _patched_array(array: np.ndarray, updates, caster):
    """Patch scalar cells in place, copying first when read-only."""
    if not array.flags.writeable:
        array = np.array(array)
    for key, value in updates.items():
        array[key] = caster(value)
    return array


def apply_delta(instance: RevMaxInstance, delta: InstanceDelta
                ) -> RevMaxInstance:
    """Mutate ``instance`` (and its cached compilation) per ``delta``.

    The delta is validated against the instance before anything is written;
    a rejected delta leaves the instance unchanged.

    Args:
        instance: the instance to mutate.  Columnar-backed and dict-backed
            instances are both supported.
        delta: the batch of changes.

    Returns:
        The same ``instance`` object, for chaining.

    Raises:
        ValueError: when the delta names unknown pairs/items/times, carries
            malformed vectors, or its new-user ids do not extend the user
            range contiguously.
    """
    if delta.is_empty():
        return instance
    adoption = instance.adoption

    if isinstance(adoption, ColumnarAdoptionTable):
        compiled = adoption.compiled
        compiled.apply_delta(delta)
        # Keep the view's mutation counter in lock step so the compilation
        # reads as *fresh* (models keep their fast path) while models built
        # later still observe that something changed.
        adoption._version = compiled.source_version
        # Copy-on-write inside apply_delta may have replaced tensor objects.
        instance.prices = compiled.prices
        instance.capacities = compiled.capacities
        instance.num_users = compiled.num_users
        instance._compiled = compiled
        return instance

    # Dict-backed: validate new users against the instance before the first
    # table write (AdoptionTable.set validates vectors but knows nothing of
    # user-id contiguity or item ranges).
    _validate_dict_path(instance, delta)
    compiled = instance.compiled_or_none()
    fresh = (
        compiled is not None
        and compiled.source_version == getattr(adoption, "_version", 0)
    )
    if fresh:
        # Patch the tensors first: apply_delta validates against the CSR
        # (probability updates must name existing pairs) and is atomic, so
        # the dict table is only touched once the delta is known-good.
        compiled.apply_delta(delta)
    for (user, item), vector in sorted(delta.probability_updates.items()):
        adoption.set(user, item, vector)
    for user in sorted(delta.new_users):
        for item, vector in sorted(delta.new_users[user].items()):
            adoption.set(user, item, vector)
    instance.num_users += len(delta.new_users)
    instance.prices = _patched_array(instance.prices, delta.price_updates,
                                     float)
    instance.capacities = _patched_array(instance.capacities,
                                         delta.capacity_updates, int)
    if fresh:
        compiled.prices = instance.prices
        compiled.capacities = instance.capacities
        compiled.source_version = getattr(adoption, "_version", 0)
        instance._compiled = compiled
    elif compiled is not None:
        # A stale compilation would silently keep pre-delta prices or
        # capacities; drop it so the next compiled() call rebuilds.
        instance._compiled = None
    return instance


def _validate_dict_path(instance: RevMaxInstance,
                        delta: InstanceDelta) -> None:
    """The checks the dict table cannot perform itself, before any write.

    Ranges, shapes and new-user contiguity come from the shared
    :meth:`InstanceDelta.validate_ranges`; only the pair-existence check is
    layout-specific here (the CSR path asks the candidate table instead).
    """
    delta.validate_ranges(instance.num_items, instance.horizon,
                          instance.num_users)
    for (user, item) in delta.probability_updates:
        if instance.adoption.get(user, item) is None:
            raise ValueError(
                f"probability update for (user={user}, item={item}) names "
                f"a pair absent from the adoption table; new pairs can "
                f"only arrive with new users"
            )
