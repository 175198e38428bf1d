"""Durable checkpoints for streaming detection.

A crashed stream should resume exactly where it died.
:meth:`~repro.core.streaming.StreamingCadDetector.checkpoint` captures
the detector's whole life as a *plain-data* dictionary — scalars, lists,
and numpy arrays, no library objects — and this module round-trips that
dictionary through a single compressed ``.npz`` file (arrays stored
natively, everything else in one JSON header).

Node labels and time labels must survive a JSON round-trip (strings,
ints, floats, booleans, ``None``); checkpointing a stream with richer
labels raises :class:`~repro.exceptions.CheckpointError` rather than
silently mangling identity.

The archive codec itself — named arrays plus a ``meta_json`` header
carrying a format marker and version — is :func:`write_npz_document` /
:func:`read_npz_document`, shared with the parallel engine's resume
checkpoints (:mod:`repro.parallel.checkpoint`).
"""

from __future__ import annotations

import json
import tokenize
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from ..exceptions import CheckpointError
from ..observability import trace
from ..store import atomic_writer

#: Document format marker for forwards compatibility.
FORMAT = "repro-streaming-checkpoint"
VERSION = 1

_SNAPSHOT_ARRAYS = ("data", "indices", "indptr")
_SCORED_ARRAYS = ("edge_rows", "edge_cols", "edge_scores", "node_scores")


def require_checkpoint_format(state: dict[str, Any],
                              format: str = FORMAT,
                              version: int = VERSION,
                              label: str = "checkpoint") -> None:
    """Validate a document's format marker and version (by default
    those of a stream checkpoint state).

    Raises:
        CheckpointError: on a foreign or wrong-version document.
    """
    if not isinstance(state, dict) or state.get("format") != format:
        raise CheckpointError(f"not a {format} document")
    if state.get("version") != version:
        raise CheckpointError(
            f"unsupported {label} version {state.get('version')!r} "
            f"(expected {version})"
        )


def write_npz_document(path: str | Path, meta: dict[str, Any],
                       arrays: dict[str, np.ndarray],
                       unserialisable: str) -> None:
    """Write named arrays plus a JSON ``meta`` header as one ``.npz``.

    The write is atomic (temp + fsync + rename): a crash mid-write
    leaves the previous file intact instead of a torn archive.

    Raises:
        CheckpointError: ``"{unserialisable} (...)"`` when ``meta``
            cannot be JSON-encoded.
    """
    try:
        encoded = json.dumps(meta)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{unserialisable} ({exc})") from exc
    arrays = {**arrays, "meta_json": np.array(encoded)}
    with trace("checkpoint.write", arrays=len(arrays)):
        with atomic_writer(Path(path)) as temp:
            with open(temp, "wb") as handle:
                np.savez_compressed(handle, **arrays)


@contextmanager
def read_npz_document(path: str | Path,
                      format: str = FORMAT,
                      version: int = VERSION,
                      label: str = "checkpoint",
                      ) -> Iterator[tuple[dict[str, Any], Any]]:
    """Open an archive written by :func:`write_npz_document`.

    Yields ``(meta, archive)`` once the header's format and version
    check out; read arrays from ``archive`` inside the ``with`` block.
    Missing files, corrupt archives (bit flips included, whichever
    layer of zip, zlib or the ``.npy`` header they break) and missing
    entries — also those hit inside the block — surface as
    :class:`~repro.exceptions.CheckpointError`.
    """
    try:
        # Our own handle: np.load leaks the one it opens on a bad zip.
        with trace("checkpoint.read"), open(Path(path), "rb") as handle, \
                np.load(handle, allow_pickle=False) as archive:
            if "meta_json" not in archive:
                raise CheckpointError(f"{path}: not a {format} archive")
            meta = json.loads(str(archive["meta_json"]))
            require_checkpoint_format(meta, format, version, label)
            yield meta, archive
    except CheckpointError:
        raise
    except (OSError, ValueError, KeyError, zipfile.BadZipFile,
            json.JSONDecodeError, zlib.error, tokenize.TokenError,
            EOFError, NotImplementedError) as exc:
        raise CheckpointError(
            f"cannot read {label} {path}: {exc}"
        ) from exc


def write_checkpoint(state: dict[str, Any], path: str | Path) -> None:
    """Write a checkpoint state dictionary as one ``.npz`` archive.

    Args:
        state: dictionary produced by
            :meth:`~repro.core.streaming.StreamingCadDetector.checkpoint`.
        path: destination file (conventionally ``*.npz``).

    Raises:
        CheckpointError: when the state is not a checkpoint document or
            contains labels/times that JSON cannot represent.
    """
    require_checkpoint_format(state)
    arrays: dict[str, np.ndarray] = {}
    snapshots_meta = []
    for position, snapshot in enumerate(state["snapshots"]):
        for name in _SNAPSHOT_ARRAYS:
            arrays[f"snapshot_{position}_{name}"] = np.asarray(
                snapshot[name]
            )
        snapshots_meta.append({"time": snapshot["time"]})
    scored_meta = []
    for position, scores in enumerate(state["scored"]):
        for name in _SCORED_ARRAYS:
            arrays[f"scored_{position}_{name}"] = np.asarray(scores[name])
        for extra_name, extra in scores["extras"].items():
            arrays[f"scored_{position}_extra_{extra_name}"] = np.asarray(
                extra
            )
        scored_meta.append({
            "detector": scores["detector"],
            "extras": sorted(scores["extras"]),
        })
    # Optional detector-private state (generic streaming wrapper):
    # plain named arrays, absent entirely for CAD streams.
    detector_state = state.get("detector_state") or {}
    for name, value in detector_state.items():
        arrays[f"detector_{name}"] = np.asarray(value)
    meta = {
        "format": FORMAT,
        "version": VERSION,
        "config": state["config"],
        "universe": state["universe"],
        "num_nodes": state["num_nodes"],
        "snapshots": snapshots_meta,
        "scored": scored_meta,
        "push_count": state["push_count"],
        "health": state["health"],
        "detector_state": sorted(detector_state),
    }
    write_npz_document(
        path, meta, arrays,
        "checkpoint state is not JSON-serialisable; node labels and "
        "time labels must be plain scalars",
    )


def read_checkpoint(path: str | Path) -> dict[str, Any]:
    """Read a checkpoint written by :func:`write_checkpoint`.

    Archives from releases that drew a fresh JL projection per snapshot
    also carry that projection's ``rng_state``; it is ignored.

    Returns:
        The reconstructed plain-data state dictionary, validated and
        ready for
        :meth:`~repro.core.streaming.StreamingCadDetector.restore`.

    Raises:
        CheckpointError: on a missing, corrupt, foreign, or
            wrong-version file.
    """
    with read_npz_document(path) as (meta, archive):
        snapshots = []
        for position, entry in enumerate(meta["snapshots"]):
            snapshot = {"time": entry["time"]}
            for name in _SNAPSHOT_ARRAYS:
                snapshot[name] = archive[f"snapshot_{position}_{name}"]
            snapshots.append(snapshot)
        scored = []
        for position, entry in enumerate(meta["scored"]):
            scores: dict[str, Any] = {"detector": entry["detector"]}
            for name in _SCORED_ARRAYS:
                scores[name] = archive[f"scored_{position}_{name}"]
            scores["extras"] = {
                extra_name: archive[f"scored_{position}_extra_{extra_name}"]
                for extra_name in entry["extras"]
            }
            scored.append(scores)
        detector_state = {
            name: archive[f"detector_{name}"]
            for name in meta.get("detector_state", [])
        }
    return {
        "format": FORMAT,
        "version": VERSION,
        "config": meta["config"],
        "universe": meta["universe"],
        "num_nodes": meta["num_nodes"],
        "snapshots": snapshots,
        "scored": scored,
        "push_count": meta["push_count"],
        "health": meta["health"],
        "detector_state": detector_state,
    }
