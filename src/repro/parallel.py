"""Process-pool utilities shared by the parallel experiment runners.

A deliberately small wrapper around :class:`concurrent.futures.\
ProcessPoolExecutor` with the conventions every parallel path in this repo
follows:

* **order-preserving**: results come back in item order, so callers can zip
  them with their inputs and merge deterministically;
* **seed-stable**: nothing random happens here -- callers sample any random
  choices (e.g. RL-Greedy's permutations) *before* fanning out, so the same
  seed yields the same results for every job count;
* **fork-first**: on platforms that support it the ``fork`` start method is
  used, so workers inherit ``sys.path`` and module state (the repo's
  ``src``-layout import shim keeps working without installation);
* **in-process fallback**: ``jobs <= 1`` (or a single item) runs the plain
  loop, keeping the parallel code path trivially debuggable.  ``jobs=0``
  means one worker per core, so it too runs in-process on a single core.

Heavy shared inputs (a :class:`~repro.core.problem.RevMaxInstance`, say)
should travel once per worker through ``initializer`` / ``initargs`` rather
than once per item through the mapped function's arguments.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, Optional, Tuple, TypeVar

__all__ = ["default_jobs", "parallel_map", "pool_context"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def default_jobs() -> int:
    """Number of worker processes to use when the caller says ``jobs=0``."""
    return os.cpu_count() or 1


def pool_context():
    """Prefer ``fork`` (inherits sys.path / loaded modules) when available."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def parallel_map(
    function: Callable[[_T], _R],
    items: Iterable[_T],
    jobs: Optional[int] = None,
    *,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
) -> List[_R]:
    """Map ``function`` over ``items`` across worker processes, in order.

    Args:
        function: top-level (picklable) function applied to every item.
        items: the inputs; consumed eagerly.
        jobs: worker-process count.  ``None`` or ``1`` runs in-process;
            ``0`` means one worker per CPU core.
        initializer: optional per-worker setup (receives ``initargs``); also
            invoked once, in-process, on the serial fallback so the function
            finds the same state either way.
        initargs: arguments for ``initializer``.

    Returns:
        ``[function(item) for item in items]``, in item order.
    """
    items = list(items)
    if jobs == 0:
        jobs = default_jobs()
    if jobs is None or jobs <= 1 or len(items) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [function(item) for item in items]
    workers = min(jobs, len(items))
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=pool_context(),
        initializer=initializer,
        initargs=initargs,
    ) as pool:
        return list(pool.map(function, items))
