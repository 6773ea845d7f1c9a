"""The JSON checkpoint file of detection engines and sessions.

An always-on monitoring process must survive restarts without losing its
sliding-window state: the algorithm time-series (and, for STA, the retained
per-timeunit weight tables), the forecasting-model smoothing state, the clock
position inside the stream, and the anomaly report store.  All of it goes
into a single JSON document so that a restored process produces detections
identical to an uninterrupted run.  Each class serializes itself
(:meth:`DetectionSession.state_dict
<repro.engine.session.DetectionSession.state_dict>` and the engines'
``state_dict``); this module owns what they share: the config / clock / tree
codecs, the document header, the durable writer and reader, and rolling
retention.

Format (version 1)::

    {
      "format": "tiresias-checkpoint",
      "version": 1,
      "engine": {"unknown_stream": "raise"},   # engine checkpoints only
      "sessions": [ {<session state>}, ... ]
    }

A *session* state carries the hierarchy (root label + leaf paths — the tree is
rebuilt on restore), the full :class:`~repro.core.config.TiresiasConfig`, the
clock, warm-up bookkeeping, the pending (not yet closed) timeunit counts, the
report store, and the algorithm's ``state_dict()``.

Floats round-trip exactly through Python's JSON encoder (``repr``-based), so
restored forecasts are bit-identical.  Stream-key selectors are code, not
data: pass ``stream_key=`` again when loading an engine that used a custom
selector.

Columnar-bank compatibility: since the vectorized close path, ADA's
forecaster state lives columnar in a
:class:`~repro.forecasting.bank.ForecasterBank` and split-rule statistics in
dense per-node arrays — but checkpoints still emit and accept the canonical
*per-path* ``state_dict`` layout above (each bank row serializes through
``ForecasterBank.row_state_dict`` into the historical per-forecaster dict).
Pre-bank, bank-backed, serial and sharded checkpoints therefore all
cross-restore: a checkpoint written before the refactor loads into a
bank-backed session mid-stream and continues bit-identically, and vice
versa.  Path-keyed lists may appear in a different (but equivalent) order —
consumers must not rely on entry order, only on per-path content.
"""

from __future__ import annotations

import errno as _errno
import json
import os
import shutil
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.core.config import ForecastConfig, TiresiasConfig
from repro.exceptions import CheckpointError, CheckpointReadError, CheckpointWriteError
from repro.hierarchy.tree import HierarchyTree
from repro.streaming.clock import SimulationClock

CHECKPOINT_FORMAT = "tiresias-checkpoint"
CHECKPOINT_VERSION = 1


# ----------------------------------------------------------------------
# Config / clock / tree serialization helpers
# ----------------------------------------------------------------------
def config_to_dict(config: TiresiasConfig) -> dict[str, Any]:
    """JSON-safe representation of a full detector configuration.

    Float fields are written as floats whatever the config was built with
    (``theta=12`` writes ``12.0``), the form :func:`config_from_dict` reads
    back, so a save/restore round trip and every engine write the same
    bytes.
    """
    forecast = config.forecast
    return {
        "theta": float(config.theta),
        "ratio_threshold": float(config.ratio_threshold),
        "difference_threshold": float(config.difference_threshold),
        "delta_seconds": float(config.delta_seconds),
        "window_units": config.window_units,
        "split_rule": config.split_rule,
        "split_ewma_alpha": float(config.split_ewma_alpha),
        "reference_levels": config.reference_levels,
        "track_root": config.track_root,
        "allow_root_heavy": config.allow_root_heavy,
        "out_of_order_policy": config.out_of_order_policy,
        "forecast": {
            "alpha": float(forecast.alpha),
            "beta": float(forecast.beta),
            "gamma": float(forecast.gamma),
            "season_lengths": list(forecast.season_lengths),
            "season_weights": (
                None
                if forecast.season_weights is None
                else [float(w) for w in forecast.season_weights]
            ),
            "fallback_alpha": float(forecast.fallback_alpha),
            # The model follows from ``season_lengths``.  The key stays so
            # that checkpoint bytes, and the digests pinned on them, do not
            # change.
            "model": "auto",
        },
    }


def config_from_dict(data: Mapping[str, Any]) -> TiresiasConfig:
    """Inverse of :func:`config_to_dict`.

    A config naming ``min_heavy_depth`` is refused: the field, which kept
    nodes above a depth from qualifying as heavy, is gone, and loading the
    document without it would change its detections.  So is a
    ``forecast.model`` other than ``"auto"`` or the form the period count
    picks (``"holt-winters"`` for one period,
    ``"multi-seasonal-holt-winters"`` for more): the model now follows from
    ``season_lengths``, and any other name asked for a model that no longer
    exists.
    """
    if "min_heavy_depth" in data:
        raise CheckpointError(
            f"config sets min_heavy_depth={data['min_heavy_depth']!r}, a "
            f"field this version no longer has; without it the nodes it kept "
            f"from qualifying as heavy would detect, so the document cannot "
            f"be loaded"
        )
    fc = data["forecast"]
    picked = (
        "holt-winters" if len(fc["season_lengths"]) == 1 else "multi-seasonal-holt-winters"
    )
    model = fc.get("model", "auto")
    if model not in ("auto", picked):
        raise CheckpointError(
            f"config sets forecast.model={model!r}, but the model follows from "
            f"season_lengths={list(fc['season_lengths'])!r}: it is {picked!r}, "
            f"so the document cannot be loaded"
        )
    forecast = ForecastConfig(
        alpha=float(fc["alpha"]),
        beta=float(fc["beta"]),
        gamma=float(fc["gamma"]),
        season_lengths=tuple(int(p) for p in fc["season_lengths"]),
        season_weights=(
            None
            if fc["season_weights"] is None
            else tuple(float(w) for w in fc["season_weights"])
        ),
        fallback_alpha=float(fc["fallback_alpha"]),
    )
    return TiresiasConfig(
        theta=float(data["theta"]),
        ratio_threshold=float(data["ratio_threshold"]),
        difference_threshold=float(data["difference_threshold"]),
        delta_seconds=float(data["delta_seconds"]),
        window_units=int(data["window_units"]),
        split_rule=str(data["split_rule"]),
        split_ewma_alpha=float(data["split_ewma_alpha"]),
        reference_levels=int(data["reference_levels"]),
        forecast=forecast,
        track_root=bool(data["track_root"]),
        allow_root_heavy=bool(data.get("allow_root_heavy", True)),
        out_of_order_policy=str(data.get("out_of_order_policy", "raise")),
    )


def clock_to_dict(clock: SimulationClock) -> dict[str, Any]:
    """JSON-safe clock, float fields as floats (see :func:`config_to_dict`)."""
    return {
        "delta": float(clock.delta),
        "epoch": float(clock.epoch),
        "epoch_weekday": clock.epoch_weekday,
        "epoch_hour": float(clock.epoch_hour),
    }


def clock_from_dict(data: Mapping[str, Any]) -> SimulationClock:
    return SimulationClock(
        delta=float(data["delta"]),
        epoch=float(data["epoch"]),
        epoch_weekday=int(data["epoch_weekday"]),
        epoch_hour=float(data["epoch_hour"]),
    )


def tree_to_dict(tree: HierarchyTree) -> dict[str, Any]:
    return {
        "root_label": tree.root_label,
        "leaves": [list(path) for path in tree.leaf_paths()],
    }


def tree_from_dict(data: Mapping[str, Any]) -> HierarchyTree:
    """Inverse of :func:`tree_to_dict`.

    A decoded document holds every label occurrence as its own string; the
    leaves are rebuilt over one string per distinct label, so a restored
    tree is no larger than a built one.
    """
    intern = {}.setdefault
    return HierarchyTree(
        [tuple(map(intern, path, path)) for path in data["leaves"]],
        root_label=str(data["root_label"]),
    )


# ----------------------------------------------------------------------
# The document header
# ----------------------------------------------------------------------
def checkpoint_document(
    sessions: Sequence[Mapping[str, Any]],
    engine: "Mapping[str, Any] | None" = None,
) -> dict[str, Any]:
    """A checkpoint document around session states (see the module
    docstring); ``engine`` is the engine block of an engine checkpoint."""
    document: dict[str, Any] = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
    }
    if engine is not None:
        document["engine"] = dict(engine)
    document["sessions"] = list(sessions)
    return document


def check_header(document: Any) -> None:
    """Raise :class:`CheckpointError` unless ``document`` is a checkpoint
    document of the version this build reads."""
    if not isinstance(document, Mapping):
        raise CheckpointError(
            f"not a {CHECKPOINT_FORMAT} document "
            f"(a JSON {type(document).__name__}, not an object)"
        )
    if document.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"not a {CHECKPOINT_FORMAT} document (format={document.get('format')!r})"
        )
    if document.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {document.get('version')!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )


# ----------------------------------------------------------------------
# File round trips
# ----------------------------------------------------------------------
def load_session_checkpoint_state(path: "str | Path") -> dict[str, Any]:
    """The raw session state of a single-session checkpoint file
    (:meth:`DetectionSession.save_checkpoint
    <repro.engine.session.DetectionSession.save_checkpoint>`)."""
    state = read_json(path)
    check_header(state)
    sessions = state.get("sessions", [])
    if len(sessions) != 1:
        raise CheckpointError(
            f"expected exactly one session in the checkpoint, found {len(sessions)}"
        )
    return sessions[0]


def write_json(document: Mapping[str, Any], path: "str | Path") -> None:
    """Write ``document`` atomically and durably: temp file, fsync, rename.

    A monitoring process killed mid-checkpoint must never leave a truncated
    JSON document behind — the sharded engine checkpoints several worker
    states into one file, and a partial write would lose all of them.
    ``os.replace`` is atomic on POSIX and Windows for same-directory targets,
    and the temp file is fsync'd *before* the rename so a power loss right
    after the replace cannot surface a named-but-empty checkpoint.  Write
    failures (disk full, permissions, dead volume) raise
    :class:`~repro.exceptions.CheckpointWriteError` after removing the temp
    file; the previous checkpoint at ``path``, if any, survives untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    payload = json.dumps(document)
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            fault = _checkpoint_write_fault(path)
            if fault is not None:
                # Injected ENOSPC (see repro.testing.faults): leave a torn
                # half-write in the temp file, then fail exactly where a
                # full disk would — the cleanup below must still hold.
                handle.write(payload[: max(1, len(payload) // 2)])
                handle.flush()
                raise OSError(
                    _errno.ENOSPC, "no space left on device (injected fault)"
                )
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise CheckpointWriteError(
            str(path), errno=exc.errno, detail=str(exc)
        ) from exc
    # Best-effort directory fsync so the rename itself is durable; not all
    # filesystems allow opening a directory, hence the silent fallback.
    try:
        dir_fd = os.open(str(path.parent) or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - platform dependent
        pass
    finally:
        os.close(dir_fd)


def _checkpoint_write_fault(path: Path):
    """Deterministic-fault hook: the spec to inject for this write, if any.

    Imported lazily so checkpoint IO has no testing-module dependency until
    a fault plan is actually in play; with no plan active this is one
    dictionary lookup.
    """
    from repro.testing.faults import checkpoint_write_fault

    return checkpoint_write_fault(path)


def read_json(path: "str | Path") -> Any:
    """The JSON document stored at ``path``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        # Torn or corrupt file (crash mid-write by a foreign writer, bit
        # rot): typed so retention-aware callers can quarantine and fall
        # back to an older retained checkpoint.
        raise CheckpointReadError(
            str(path), f"not valid JSON: {exc}"
        ) from exc


def retained_checkpoint_path(path: "str | Path", age: int) -> Path:
    """Path of the ``age``-th retained predecessor of ``path``.

    ``age == 0`` is the primary file itself; ``age >= 1`` appends ``.{age}``
    (``tenant.ckpt.json.1`` is the previous checkpoint, ``.2`` the one
    before, ...).
    """
    path = Path(path)
    if age < 0:
        raise ValueError(f"retention age must be >= 0, got {age}")
    return path if age == 0 else path.with_name(f"{path.name}.{age}")


def rotate_retained_checkpoints(path: "str | Path", keep: int) -> None:
    """Shift the retained-checkpoint chain of ``path`` one step down.

    ``.{keep-1}`` → ``.{keep}`` … ``.1`` → ``.2``, then the primary is
    *hard-linked* to ``.1``: the subsequent :func:`write_json` replaces the
    primary's directory entry with a new inode, so ``.1`` keeps the old
    bytes without ever copying them, and at every instant of the sequence
    either the primary or ``.1`` names a complete, valid checkpoint (crash
    windows included).  Filesystems without hard links fall back to a copy.
    Entries beyond ``keep`` are deleted.
    """
    path = Path(path)
    keep = int(keep)
    if keep < 1:
        raise ValueError(f"retention keep must be >= 1, got {keep}")
    if not path.exists():
        return
    # Ages kept after the upcoming write: 0 (new primary) .. keep-1.  The
    # current ``.{keep-1}`` would shift past the window — drop it (and any
    # stale deeper entries left by a larger previous retention setting).
    for age in range(keep - 1, keep + 2):
        if age < 1:
            continue
        try:
            retained_checkpoint_path(path, age).unlink()
        except OSError:
            pass
    for age in range(keep - 2, 0, -1):
        source = retained_checkpoint_path(path, age)
        if source.exists():
            try:
                os.replace(source, retained_checkpoint_path(path, age + 1))
            except OSError:  # pragma: no cover - racing cleanup
                pass
    if keep < 2:
        return
    slot_one = retained_checkpoint_path(path, 1)
    try:
        os.link(path, slot_one)
    except OSError:  # pragma: no cover - no-hardlink filesystem
        try:
            shutil.copy2(path, slot_one)
        except OSError:
            pass


def save_session_checkpoint_rolling(
    session, path: "str | Path", keep: int = 3
) -> None:
    """Write ``session.state_dict()`` as a single-session checkpoint, with
    rolling retention.

    Keeps the last ``keep`` checkpoints: the fresh primary plus up to
    ``keep - 1`` predecessors at ``.1`` … ``.{keep-1}``.  The rotation runs
    *before* the atomic write, so a crash — or a full disk — at any point
    leaves at least one complete, loadable checkpoint on disk (the
    pre-write primary survives as both the primary and ``.1`` hard link
    until the final ``os.replace`` commits the new bytes).
    """
    rotate_retained_checkpoints(path, keep)
    write_json(checkpoint_document([session.state_dict()]), path)
