"""Process-pool fan-out: the one parallel path of the experiment layer.

A deliberately small wrapper around :class:`concurrent.futures.\
ProcessPoolExecutor` with the conventions every caller relies on:

* **order-preserving**: results come back in item order, so callers can zip
  them with their inputs and merge deterministically;
* **seed-stable**: nothing random happens here -- callers sample any random
  choices (e.g. RL-Greedy's permutations) *before* fanning out, so the same
  seed yields the same results for every job count;
* **fork-first**: on platforms that support it the ``fork`` start method is
  used, so workers inherit ``sys.path`` and module state (the repo's
  ``src``-layout import shim keeps working without installation);
* **one path for every job count**: ``function(shared, item)`` is called
  for every item whether it runs in a worker or in-process.  ``jobs <= 1``
  (or a single item) runs the plain loop in the caller's process;
  ``jobs=0`` means one worker per core, so it too runs in-process on a
  single core.

``shared`` carries the heavy input every call needs (a
:class:`~repro.core.problem.RevMaxInstance`, say).  It reaches each worker
once, through the pool initializer, rather than once per item; in-process
it is passed straight through, so nothing outlives the call.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, List, Optional, TypeVar

__all__ = ["default_jobs", "parallel_map", "pool_context"]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: ``(function, shared)`` of the pool this worker process serves; set by
#: the pool initializer, so it only ever holds a value inside a worker.
_worker_task: Optional[tuple] = None


def default_jobs() -> int:
    """Number of worker processes to use when the caller says ``jobs=0``."""
    return os.cpu_count() or 1


def pool_context():
    """Prefer ``fork`` (inherits sys.path / loaded modules) when available."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _init_worker(function: Callable, shared: Any) -> None:
    global _worker_task
    _worker_task = (function, shared)


def _call_in_worker(item):
    function, shared = _worker_task
    return function(shared, item)


def parallel_map(
    function: Callable[[Any, _T], _R],
    items: Iterable[_T],
    jobs: Optional[int] = None,
    *,
    shared: Any = None,
) -> List[_R]:
    """Map ``function(shared, item)`` over ``items`` across workers, in order.

    Args:
        function: top-level (picklable) function of ``(shared, item)``.
        items: the inputs; consumed eagerly.
        jobs: worker-process count.  ``None`` or ``1`` runs in-process;
            ``0`` means one worker per CPU core.
        shared: the argument every call receives first; sent to each
            worker once.

    Returns:
        ``[function(shared, item) for item in items]``, in item order.
    """
    items = list(items)
    if jobs == 0:
        jobs = default_jobs()
    if jobs is None or jobs <= 1 or len(items) <= 1:
        return [function(shared, item) for item in items]
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(items)),
        mp_context=pool_context(),
        initializer=_init_worker,
        initargs=(function, shared),
    ) as pool:
        return list(pool.map(_call_in_worker, items))
