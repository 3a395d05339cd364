"""Serialization of instances, strategies and results to plain JSON.

A production deployment of a REVMAX planner needs to move three artefacts
between systems: the *instance* (assembled by the data pipeline, consumed by
the optimizer), the *strategy* (the recommendation plan handed to the serving
layer), and the *result record* (revenue / runtime diagnostics for
monitoring).  This module provides explicit, dependency-free JSON encodings
for all three, with round-trip guarantees covered by ``tests/test_io.py``.

The format is deliberately simple and versioned so it can be inspected and
produced by other tools:

* instances store dense per-item arrays (prices, capacities, betas, classes)
  and a sparse list of adoption-probability rows;
* strategies store a list of ``[user, item, t]`` triples;
* results store the scalar summary plus the strategy inline.

Every JSON document is written compact and key-sorted by CPython's C
encoder (:func:`_write_json`); readers accept indented files too.

Binary columnar format
----------------------
JSON is the interchange format; it is neither compact nor fast at
production scale (a million candidate pairs is ~100 MB of decimal text).
:func:`save_instance_npz` / :func:`load_instance_npz` therefore serialize
the *compiled* columnar tensors of an instance
(:class:`~repro.core.compiled.CompiledInstance`) as a standard uncompressed
NumPy ``.npz`` archive.  On load the big tensors are **memory-mapped**
straight out of the archive (uncompressed zip members are plain ``.npy``
payloads at a known byte offset), so opening a multi-gigabyte instance
costs a few page faults rather than a full read -- and the returned
instance is columnar-backed end to end.

Every writer goes through :func:`atomic_write`: the bytes land in a sibling
temp file that replaces the target only once complete, so a crash mid-save
leaves the previous file intact -- and a re-save over the ``.npz`` an
instance was just memory-mapped from never truncates the mapped pages.
"""

from __future__ import annotations

import json
import os
import uuid
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Dict, Iterator, Optional, Union

import numpy as np

from repro.algorithms.base import AlgorithmResult
from repro.core.compiled import CompiledInstance
from repro.core.entities import ItemCatalog, Triple
from repro.core.problem import AdoptionTable, RevMaxInstance
from repro.core.strategy import Strategy
from repro.dynamic.incremental import SolverState, _gc_paused

__all__ = [
    "FORMAT_VERSION",
    "atomic_write",
    "instance_to_dict",
    "instance_from_dict",
    "save_instance",
    "load_instance",
    "save_instance_npz",
    "load_instance_npz",
    "load_compiled_npz",
    "strategy_to_dict",
    "strategy_from_dict",
    "save_strategy",
    "load_strategy",
    "solver_state_to_dict",
    "solver_state_from_dict",
    "save_solver_state",
    "load_solver_state",
    "result_to_dict",
    "save_result",
]

#: Version tag written into every serialized document.
FORMAT_VERSION = 1

_PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------
def instance_to_dict(instance: RevMaxInstance) -> Dict:
    """Encode an instance as a JSON-serializable dictionary."""
    adoption_rows = []
    for user, item in instance.adoption.pairs():
        vector = instance.adoption.get(user, item)
        adoption_rows.append({
            "user": int(user),
            "item": int(item),
            "probabilities": [float(p) for p in vector],
        })
    return {
        "format_version": FORMAT_VERSION,
        "kind": "revmax-instance",
        "name": instance.name,
        "num_users": instance.num_users,
        "horizon": instance.horizon,
        "display_limit": instance.display_limit,
        "item_class": [int(c) for c in instance.catalog.item_class],
        "class_names": {str(k): v for k, v in instance.catalog.class_names.items()},
        "prices": instance.prices.tolist(),
        "capacities": instance.capacities.tolist(),
        "betas": instance.betas.tolist(),
        "adoption": adoption_rows,
    }


def instance_from_dict(document: Dict) -> RevMaxInstance:
    """Decode an instance from the dictionary produced by :func:`instance_to_dict`.

    Raises:
        ValueError: if the document kind or version is not recognised.
    """
    _check_document(document, "revmax-instance")
    horizon = int(document["horizon"])
    table = AdoptionTable(horizon)
    for row in document["adoption"]:
        table.set(int(row["user"]), int(row["item"]), row["probabilities"])
    catalog = ItemCatalog.from_assignment(
        document["item_class"],
        {int(k): v for k, v in document.get("class_names", {}).items()},
    )
    return RevMaxInstance(
        num_users=int(document["num_users"]),
        catalog=catalog,
        horizon=horizon,
        display_limit=int(document["display_limit"]),
        prices=np.asarray(document["prices"], dtype=float),
        capacities=np.asarray(document["capacities"], dtype=int),
        betas=np.asarray(document["betas"], dtype=float),
        adoption=table,
        name=document.get("name", "revmax-instance"),
    )


def save_instance(instance: RevMaxInstance, path: _PathLike) -> None:
    """Write an instance to a JSON file."""
    _write_json(instance_to_dict(instance), path)


def load_instance(path: _PathLike) -> RevMaxInstance:
    """Read an instance from a JSON file."""
    return instance_from_dict(_read_json(path))


# ----------------------------------------------------------------------
# compiled instances (.npz, memory-mapped on load)
# ----------------------------------------------------------------------
def save_instance_npz(instance: RevMaxInstance, path: _PathLike) -> None:
    """Write an instance's columnar compilation as an uncompressed ``.npz``.

    The archive holds the compiled tensors (``user_ptr``, ``pair_item``,
    ``pair_probs``, ``prices``, ``capacities``, ``betas``, ``item_class``)
    plus the scalar metadata; it is a plain NumPy archive readable by any
    tool.  Compression is deliberately off so that
    :func:`load_instance_npz` can memory-map the tensors in place.
    """
    compiled = instance.compiled()
    # savez on a file object: no surprise ".npz" suffix appended to the path.
    with atomic_write(path, "wb") as handle:
        np.savez(
            handle,
            format_version=np.int64(FORMAT_VERSION),
            kind=np.str_("revmax-instance-columnar"),
            name=np.str_(compiled.name),
            class_names_json=np.str_(json.dumps(
                {str(k): v for k, v in instance.catalog.class_names.items()}
            )),
            num_users=np.int64(compiled.num_users),
            horizon=np.int64(compiled.horizon),
            display_limit=np.int64(compiled.display_limit),
            user_ptr=compiled.user_ptr,
            pair_item=compiled.pair_item,
            pair_probs=compiled.pair_probs,
            prices=compiled.prices,
            capacities=compiled.capacities,
            betas=compiled.betas,
            item_class=compiled.item_class,
        )


def _mmap_npz_members(path: Path) -> Optional[Dict[str, np.ndarray]]:
    """Memory-map every member of an *uncompressed* ``.npz`` archive.

    ``np.load`` cannot memory-map zipped archives, but ``np.savez`` stores
    members uncompressed (``ZIP_STORED``), so each member's bytes are a
    verbatim ``.npy`` file at ``local header offset + header size``.  This
    parses the npy header of each member and maps the payload with
    ``np.memmap``.  Returns ``None`` when any member is compressed (fall
    back to a regular load).
    """
    arrays: Dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as raw:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                return None
            # Local file header: 30 fixed bytes, then name and extra field
            # (whose length may differ from the central directory's copy).
            raw.seek(info.header_offset)
            local_header = raw.read(30)
            if local_header[:4] != b"PK\x03\x04":
                return None
            name_length = int.from_bytes(local_header[26:28], "little")
            extra_length = int.from_bytes(local_header[28:30], "little")
            raw.seek(info.header_offset + 30 + name_length + extra_length)
            version = np.lib.format.read_magic(raw)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(raw)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(raw)
            else:
                return None
            key = info.filename[:-4] if info.filename.endswith(".npy") else (
                info.filename
            )
            arrays[key] = np.memmap(
                path, dtype=dtype, mode="r", offset=raw.tell(), shape=shape,
                order="F" if fortran else "C",
            )
    return arrays


def _load_npz_arrays(path: Path, mmap: bool) -> Dict[str, np.ndarray]:
    """Load (memory-mapping when possible) and type-check an archive.

    Raises:
        ValueError: naming ``path`` when it is not a readable zip archive
            (an empty or truncated file, say).
    """
    try:
        arrays = _mmap_npz_members(path) if mmap else None
        if arrays is None:
            with np.load(path, allow_pickle=False) as archive:
                arrays = {key: archive[key] for key in archive.files}
    except (zipfile.BadZipFile, EOFError) as error:
        raise ValueError(
            f"{path} is not a readable .npz archive ({error})"
        ) from error
    kind = str(arrays["kind"])
    if kind != "revmax-instance-columnar":
        raise ValueError(
            f"expected a 'revmax-instance-columnar' archive, got {kind!r}"
        )
    version = int(arrays["format_version"])
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version {version!r} (supported: {FORMAT_VERSION})"
        )
    return arrays


def _compiled_from_arrays(arrays: Dict[str, np.ndarray]) -> CompiledInstance:
    return CompiledInstance(
        num_users=int(arrays["num_users"]),
        horizon=int(arrays["horizon"]),
        display_limit=int(arrays["display_limit"]),
        user_ptr=arrays["user_ptr"],
        pair_item=arrays["pair_item"],
        pair_probs=arrays["pair_probs"],
        prices=arrays["prices"],
        capacities=arrays["capacities"],
        betas=arrays["betas"],
        item_class=arrays["item_class"],
        name=str(arrays["name"]),
        # The writer validated; a full check would page in every tensor and
        # defeat the lazy memory mapping.
        validate=False,
    )


def load_compiled_npz(path: _PathLike, mmap: bool = True) -> CompiledInstance:
    """Read the bare :class:`CompiledInstance` out of a ``.npz`` archive.

    The tensors are memory-mapped by default, so this costs a few page
    faults regardless of the archive size.
    """
    return _compiled_from_arrays(_load_npz_arrays(Path(path), mmap))


def load_instance_npz(path: _PathLike, mmap: bool = True) -> RevMaxInstance:
    """Read a columnar instance from ``.npz``; tensors memory-mapped by default.

    Args:
        path: archive written by :func:`save_instance_npz`.
        mmap: map the tensors read-only straight out of the archive
            (``False`` or a compressed archive reads them into memory).

    Returns:
        A columnar-backed :class:`~repro.core.problem.RevMaxInstance`; its
        ``compiled()`` is free and no pair dict exists.
    """
    path = Path(path)
    arrays = _load_npz_arrays(path, mmap)
    compiled = _compiled_from_arrays(arrays)
    class_names = {
        int(k): v
        for k, v in json.loads(str(arrays.get("class_names_json", "{}"))).items()
    }
    catalog = ItemCatalog.from_assignment(
        compiled.item_class.tolist(), class_names
    )
    return compiled.as_instance(catalog=catalog)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
def strategy_to_dict(strategy: Strategy, instance_name: Optional[str] = None) -> Dict:
    """Encode a strategy as a JSON-serializable dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "revmax-strategy",
        "instance_name": instance_name,
        "triples": [[z.user, z.item, z.t] for z in strategy.sorted_triples()],
    }


def strategy_from_dict(document: Dict, catalog: ItemCatalog) -> Strategy:
    """Decode a strategy; the catalog must match the instance it was built for."""
    _check_document(document, "revmax-strategy")
    triples = [Triple(int(u), int(i), int(t)) for u, i, t in document["triples"]]
    return Strategy(catalog, triples)


def save_strategy(strategy: Strategy, path: _PathLike,
                  instance_name: Optional[str] = None) -> None:
    """Write a strategy to a JSON file."""
    _write_json(strategy_to_dict(strategy, instance_name), path)


def load_strategy(path: _PathLike, catalog: ItemCatalog) -> Strategy:
    """Read a strategy from a JSON file."""
    return strategy_from_dict(_read_json(path), catalog)


# ----------------------------------------------------------------------
# solver state (the dynamic re-solve layer's warm start)
# ----------------------------------------------------------------------
def solver_state_to_dict(state: SolverState) -> Dict:
    """Encode an incremental solver's warm state as a JSON document.

    The document holds the admission sequence in global admission order
    (``admits``: ``[user, item, t, gain]`` rows) and the keys some of
    those admissions popped behind (``behind``: ``{"<index into admits>":
    [priority, item]}``) -- exactly what
    :meth:`repro.dynamic.incremental.IncrementalSolver.state` exports.
    Each admission is stored once, and the next re-solve merges nothing
    else.  Persisted alongside the instance's ``.npz``, it lets a later
    process warm-start an incremental re-solve without re-running the cold
    solve.

    The state's rows already have the document's shape, so they pass to
    the encoder untouched; only the indices become string keys.  The file
    is compact, key-sorted JSON from the C encoder (see
    :func:`_write_json`).  Floats round-trip exactly (``repr``
    shortest-round-trip encoding), so a warm start preserves the
    bit-identity guarantee.
    """
    return {
        "format_version": FORMAT_VERSION,
        "kind": "revmax-solver-state",
        "instance_name": state.instance_name,
        "signature": state.signature,
        "complete": bool(state.complete),
        "admits": state.admits,
        "behind": {str(index): key for index, key in state.behind.items()},
    }


def solver_state_from_dict(document: Dict) -> SolverState:
    """Decode a solver state from :func:`solver_state_to_dict`'s document.

    The one conversion of loaded values: JSON arrays become the tuples
    :class:`~repro.dynamic.incremental.SolverState` holds and indices
    become ints.  Reads indented files from older writers as well.

    Raises:
        ValueError: when the document carries no instance signature (a
            state that cannot be checked against its tensors would merge
            against any instance), when it has no ``behind`` object (the
            older ``gates`` and ``events`` layouts), or when a ``behind``
            index lies outside ``admits``.  Each message says how to
            re-prime the state.
    """
    _check_document(document, "revmax-solver-state")
    if not document.get("signature"):
        raise _reprime("solver state carries no instance signature")
    if "behind" not in document:
        raise _reprime("solver state has an older layout (no 'behind'), "
                       "so its admits cannot be merged")
    admits = list(map(tuple, document["admits"]))
    behind = {int(index): tuple(key)
              for index, key in document["behind"].items()}
    if any(not 0 <= index < len(admits) for index in behind):
        raise _reprime(f"solver state has a 'behind' index outside its "
                       f"{len(admits)} admits")
    return SolverState(
        admits=admits,
        behind=behind,
        complete=bool(document.get("complete", False)),
        instance_name=document.get("instance_name", "revmax-instance"),
        signature=document["signature"],
    )


def _reprime(problem: str) -> ValueError:
    return ValueError(f"{problem}; re-prime it with repro resolve --load "
                      f"plan.npz --save-state state.json")


def save_solver_state(state: SolverState, path: _PathLike) -> None:
    """Write an incremental solver's warm state to a JSON file."""
    _write_json(solver_state_to_dict(state), path)


def load_solver_state(path: _PathLike) -> SolverState:
    """Read an incremental solver's warm state from a JSON file.

    The file is decoded with the cyclic collector paused: decoding
    allocates one list or tuple per row and no reference cycles.

    Raises:
        ValueError: naming ``path`` when the file is not a valid state
            document (see :func:`solver_state_from_dict`).
    """
    with _gc_paused():
        try:
            return solver_state_from_dict(_read_json(path))
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from error


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
def result_to_dict(result: AlgorithmResult) -> Dict:
    """Encode an algorithm result (summary + strategy) for logging."""
    return {
        "format_version": FORMAT_VERSION,
        "kind": "revmax-result",
        "algorithm": result.algorithm,
        "instance_name": result.instance_name,
        "revenue": float(result.revenue),
        "runtime_seconds": float(result.runtime_seconds),
        "strategy_size": result.strategy_size,
        "evaluations": int(result.evaluations),
        "growth_curve": [[int(size), float(revenue)]
                         for size, revenue in result.growth_curve],
        "extras": {key: _json_safe(value) for key, value in result.extras.items()},
        "strategy": strategy_to_dict(result.strategy, result.instance_name),
    }


def save_result(result: AlgorithmResult, path: _PathLike) -> None:
    """Write an algorithm result to a JSON file."""
    _write_json(result_to_dict(result), path)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _json_safe(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return value


def _check_document(document: Dict, expected_kind: str) -> None:
    kind = document.get("kind")
    if kind != expected_kind:
        raise ValueError(f"expected a {expected_kind!r} document, got {kind!r}")
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version {version!r} (supported: {FORMAT_VERSION})"
        )


@contextmanager
def atomic_write(path: _PathLike, mode: str = "w") -> Iterator[IO]:
    """Open ``path`` for writing so that it is replaced whole or not at all.

    Yields a handle on a ``<name>.<random>.tmp`` sibling; when the block
    completes, the temp file is flushed, ``fsync``-ed and renamed over
    ``path`` (``os.replace``, atomic on POSIX).  On any error the temp file
    is removed and ``path`` keeps its previous contents.  Readers that hold
    the old file open or memory-mapped keep seeing the old bytes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.with_name(f"{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    encoding = None if "b" in mode else "utf-8"
    try:
        with open(staging, mode.replace("w", "x"), encoding=encoding) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staging, path)
    except BaseException:
        staging.unlink(missing_ok=True)
        raise


#: Characters per ``write`` call of :func:`_write_text`.
_WRITE_SLICE = 1 << 16


def _write_json(document: Dict, path: _PathLike) -> None:
    """Write ``document`` as compact, key-sorted JSON, atomically.

    ``json.dumps`` with compact separators and no indent runs CPython's C
    encoder; ``json.dump`` or any ``indent`` falls back to the pure-Python
    one, several times slower, and indenting makes files ~2.5x larger.
    """
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    with atomic_write(path) as handle:
        _write_text(handle, text)


def _write_text(handle: IO, text: str) -> None:
    """Write ``text`` in 64 KiB slices.

    One ``write`` of the whole text would encode it to a second full-size
    bytes copy first; slices keep that copy small.
    """
    for start in range(0, len(text), _WRITE_SLICE):
        handle.write(text[start:start + _WRITE_SLICE])


def _read_json(path: _PathLike) -> Dict:
    with Path(path).open("r", encoding="utf-8") as handle:
        return json.load(handle)
