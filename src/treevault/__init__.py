"""Framework-independent distributed checkpointing for nested array trees."""

from .backend import (
    CounterSnapshot,
    FaultPlan,
    FilesystemBackend,
    MemoryBackend,
    StorageBackend,
    Store,
    make_backend,
)
from .chunkstore import (
    AggregatedManifest,
    ArrayStorageMetadata,
    ChunkReader,
    ProcessArrayWriter,
    choose_chunk_shape,
)
from .coordination import CrashSchedule, Mode, ProcessContext, SimulatedRuntime
from .errors import TreevaultError
from .load_pipeline import (
    CheckpointMetadata,
    LoadOptions,
    LoadPlan,
    build_plan,
    checkpoint_metadata,
    load_checkpoint,
    load_checkpoint_async,
    load_safetensors,
)
from .save_pipeline import (
    CheckpointSaveHandle,
    SaveOptions,
    SaveSession,
    is_finalized,
    save_checkpoint,
)
from .sharding import (
    Mesh,
    PartitionSpec,
    ReplicaGroup,
    Shard,
    Sharding,
    replica_groups,
    replica_segments,
    shards_of,
    unique_shards_for_process,
    validate_topology,
)
from .training_manager import (
    Checkpointer,
    RetentionPolicy,
    latest_step,
    should_save,
)
from .treemodel import (
    PLACEHOLDER,
    AbstractLeaf,
    CountingIterator,
    DenseArray,
    JsonDocument,
    Scalar,
    Text,
    TreeStructureDoc,
    abstract_of,
    as_tree,
    cast_leaf,
    flatten,
    tree_equal,
    tree_metadata,
    unflatten,
)

__version__ = "0.1.0"
