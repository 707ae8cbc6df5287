"""Exception hierarchy shared across the package."""

from __future__ import annotations


class TreevaultError(Exception):
    """Base class for all errors raised by this package."""


class TreeError(TreevaultError):
    """Invalid checkpoint tree structure or illegal key."""


class CastError(TreevaultError):
    """Leaf conversion outside the allowed set (shape mismatch, overflow, ...)."""


class ShardingError(TreevaultError):
    """Invalid mesh, partition spec, or sharding."""


class DivisibilityError(ShardingError):
    """A partitioned dimension is not divisible by its mesh axis size."""


class TopologyError(ShardingError):
    """Saved device topology does not match the current one."""


class BackendError(TreevaultError):
    """Storage backend failure."""


class MissingKeyError(BackendError, KeyError):
    def __str__(self) -> str:  # KeyError quotes its repr otherwise
        return Exception.__str__(self)


class ByteRangeError(BackendError):
    """A byte range lies outside the value stored at its key."""


class SimulatedCrashError(BackendError):
    """Injected crash: the whole job is considered dead from this point."""


class InjectedFaultError(BackendError):
    """Injected single-operation failure (the job survives and fails the op)."""


class ChunkStoreError(TreevaultError):
    """Chunked array storage failure."""


class AlignmentError(ChunkStoreError):
    """Shard ranges do not align to the write-chunk grid."""


class DuplicateChunkError(ChunkStoreError):
    """Two writes claimed the same chunk coordinate."""


class ConsistencyError(ChunkStoreError):
    """Per-process metadata documents disagree."""


class CorruptionError(ChunkStoreError):
    """Checkpoint contents are missing or malformed."""


class CoordinationError(TreevaultError):
    """Simulated runtime failure."""


class BarrierTimeoutError(CoordinationError):
    """A barrier did not complete before its timeout."""


class PeerFailedError(CoordinationError):
    """A peer failed while this process waited at a barrier."""


class ProcessCrashedError(CoordinationError):
    """A scheduled crash killed this simulated process."""


class BroadcastPayloadError(CoordinationError):
    """Broadcast payload exceeds the metadata size limit."""


class WorkerTaskError(CoordinationError):
    """One or more dispatched worker tasks failed."""

    def __init__(self, failures: list[tuple[int, BaseException]]):
        self.failures = failures
        detail = "; ".join(f"worker {i}: {e!r}" for i, e in failures)
        super().__init__(f"worker task failed: {detail}")


class SaveError(TreevaultError):
    """Save pipeline failure."""


class PreExistingCheckpointError(SaveError):
    """A finalized checkpoint already occupies the target path."""


class LoadError(TreevaultError):
    """Load pipeline failure."""


class StructureMismatchError(LoadError):
    """Strict-mode structure contract violated."""

    def __init__(self, message: str, missing: list[str], extra: list[str]):
        self.missing = missing
        self.extra = extra
        super().__init__(
            f"{message}: missing={sorted(missing)} extra={sorted(extra)}"
        )


class SafetensorsError(LoadError):
    """Malformed safetensors container."""


class StepError(TreevaultError):
    """Training-step catalog violation."""


class GarbageCollectionError(TreevaultError):
    """One or more step deletions failed; failed steps stay listed."""

    def __init__(self, failures: dict[int, BaseException]):
        self.failures = failures
        super().__init__(f"failed to delete steps {sorted(failures)}")
