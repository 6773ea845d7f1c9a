"""Exception hierarchy for the Tiresias reproduction library.

All exceptions raised by :mod:`repro` derive from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing configuration problems from data problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration object or parameter is invalid or inconsistent."""


class HierarchyError(ReproError):
    """A hierarchical domain or category path is malformed."""


class UnknownCategoryError(HierarchyError):
    """A record's category path does not map to any leaf in the hierarchy."""

    def __init__(self, category: tuple[str, ...]):
        super().__init__(f"category path {category!r} is not a leaf of the hierarchy")
        self.category = tuple(category)

    def __reduce__(self):
        return (type(self), (self.category,))


class StreamError(ReproError):
    """The input stream violates an ordering or format invariant."""


class OutOfOrderRecordError(StreamError):
    """A record arrived with a timestamp earlier than the current window start."""

    def __init__(self, timestamp: float, window_start: float):
        super().__init__(
            f"record timestamp {timestamp} precedes the current window start "
            f"{window_start}; streams must be (approximately) time ordered"
        )
        self.timestamp = timestamp
        self.window_start = window_start

    def __reduce__(self):
        # Default Exception pickling would replay __init__ with self.args (the
        # formatted message), losing these attributes; the sharded engine
        # forwards worker-side raises across the process boundary intact.
        return (type(self), (self.timestamp, self.window_start))


class ShardingError(ReproError):
    """A sharded engine cannot guarantee equivalence with the serial engine.

    Raised when a worker process dies, when a subtree-sharded session's
    hierarchy root qualifies as a succinct heavy hitter (root-coupled series
    adaptation cannot be reproduced across disjoint shards), or when a
    sharded engine is used after :meth:`close`.
    """


class WorkerFailureError(ShardingError):
    """A shard worker died, stalled past its deadline, or lost its channel.

    Raised by the transports (per-operation deadlines and liveness checks)
    and by :class:`repro.engine.supervisor.ShardSupervisor` instead of
    blocking forever on a dead peer.  Under a supervised engine this is a
    *recoverable* condition: the coordinator respawns the worker, restores
    its shard units from the last barrier snapshot and replays the bounded
    op log, producing results bit-identical to an uninterrupted run.

    Picklable (``__reduce__``), so it crosses process boundaries intact.
    """

    def __init__(self, worker_id: int, op: str = "", detail: str = ""):
        self.worker_id = int(worker_id)
        self.op = str(op)
        self.detail = str(detail)
        message = f"shard worker {self.worker_id} failed during {self.op or 'an operation'}"
        if detail:
            message = f"{message}: {self.detail}"
        super().__init__(message)

    def __reduce__(self):
        return (type(self), (self.worker_id, self.op, self.detail))


class ForecastingError(ReproError):
    """A forecasting model was used before initialization or with bad input."""


class NotEnoughHistoryError(ForecastingError):
    """The history series is too short to initialize the forecasting model."""

    def __init__(self, needed: int, available: int):
        super().__init__(
            f"forecasting model requires at least {needed} history points, "
            f"got {available}"
        )
        self.needed = needed
        self.available = available

    def __reduce__(self):
        return (type(self), (self.needed, self.available))


class DataGenerationError(ReproError):
    """A synthetic dataset generator was configured inconsistently."""


class CheckpointError(ReproError):
    """A checkpoint file is malformed, incompatible, or cannot be restored."""


class CheckpointReadError(CheckpointError):
    """A checkpoint file exists but cannot be read, parsed, or validated.

    Distinguishes *torn or corrupt files* (truncated JSON after a crash,
    bit rot, a half-written file from a foreign writer) from the semantic
    checkpoint errors :class:`CheckpointError` also covers.  The service's
    rolling-retention activation path catches this, quarantines the bad
    file (``.corrupt`` rename) and falls back to the newest valid retained
    checkpoint, counting ``checkpoint_fallbacks_total`` in ``/metrics``.

    Picklable (``__reduce__``), so it crosses process boundaries intact.
    """

    def __init__(self, path: str, detail: str = ""):
        self.path = str(path)
        self.detail = str(detail)
        message = f"cannot read checkpoint {self.path}"
        if detail:
            message = f"{message}: {self.detail}"
        super().__init__(message)

    def __reduce__(self):
        return (type(self), (self.path, self.detail))


class CheckpointWriteError(CheckpointError):
    """A checkpoint could not be durably written to disk.

    Raised by the atomic checkpoint writer when the temp-file write, fsync or
    rename fails (most commonly a full disk).  The partially written temp file
    is removed before raising, so the previous checkpoint at the target path —
    if any — is always left intact and loadable.
    """

    def __init__(self, path: str, errno: "int | None" = None, detail: str = ""):
        import errno as _errno

        self.path = str(path)
        self.errno = errno
        self.detail = detail
        suffix = " (disk full)" if errno == _errno.ENOSPC else ""
        message = f"failed to write checkpoint {self.path}{suffix}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)

    def __reduce__(self):
        return (type(self), (self.path, self.errno, self.detail))
