"""The save protocol.

A save runs in two phases, each one program of the runtime (on every
process, or once on a single controller). The synchronous phase validates
inputs (names, tree structure, sharding divisibility, and a
checked-before-created existence test on the target path) and has each
process copy the byte ranges it will write, once, into the chunk payloads
it will put. The asynchronous phase, one background task, then puts them
under a temporary location, merges per-process metadata, and commits
atomically: a directory rename when the backend supports it, otherwise a
COMMIT indicator file written last. Until the commit lands, the checkpoint does
not exist as far as readers are concerned. A failure anywhere in it
aborts the other processes; the leader removes the temporary data once
they all stopped.

Key layout per checkpoint::

    <ckpt>/global_metadata.json
    <ckpt>/merged_index.json
    <ckpt>/<name>/data.json                    (document checkpointables)
    <ckpt>/process_<i>/array_metadata.json
    <ckpt>/process_<i>/<name>/<leaf>/c.<coords>   (per-leaf layout)
    <ckpt>/process_<i>/d/<file_id> + manifest.json (aggregated layout)
    <ckpt>/COMMIT                              (indicator commit style only)
"""

from __future__ import annotations

import uuid
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional

from . import chunkstore, docio, treemodel
from .backend import Store
from .chunkstore import (
    ArrayStorageMetadata,
    DEFAULT_TARGET_FILE_BYTES,
    FORMAT_VERSION,
    PER_LEAF,
    PROCESS_DIR_RE,
    ProcessArrayWriter,
    process_dir,
)
from .coordination import BackgroundTask, ProcessContext, SimulatedRuntime
from .errors import (
    MissingKeyError,
    PreExistingCheckpointError,
    SaveError,
    SimulatedCrashError,
    TreeError,
)
from .sharding import (
    Range,
    Sharding,
    describe_sharding,
    replica_segments,
    shards_of,
    unique_shards_for_process,
)
from .treemodel import DOCUMENT, TREE, DenseArray, Scalar, Text

GLOBAL_METADATA_FILE = "global_metadata.json"
MERGED_INDEX_FILE = "merged_index.json"
COMMIT_FILE = "COMMIT"
DOCUMENT_FILE = "data.json"

_RESERVED_NAMES = {
    GLOBAL_METADATA_FILE,
    MERGED_INDEX_FILE,
    COMMIT_FILE,
    chunkstore.ARRAY_METADATA_FILE,
    chunkstore.MANIFEST_FILE,
    chunkstore.DATA_DIR,
}


@dataclass
class SaveOptions:
    layout: str = PER_LEAF
    subchunk_target_bytes: Optional[int] = None
    replica_parallel: bool = False
    sync: bool = False
    target_file_bytes: int = DEFAULT_TARGET_FILE_BYTES
    keep_temp_on_failure: bool = False


def check_name(name: str) -> str:
    if not name or "/" in name:
        raise TreeError(f"checkpointable name {name!r} must be non-empty, no '/'")
    if name in _RESERVED_NAMES or PROCESS_DIR_RE.match(name):
        raise TreeError(f"checkpointable name {name!r} is reserved")
    return name


def commit_marker(store: Store) -> str:
    """The key, relative to a checkpoint, whose presence commits it: the
    renamed-in global metadata, or the COMMIT indicator written last."""
    return (
        GLOBAL_METADATA_FILE
        if store.backend.supports_atomic_rename
        else COMMIT_FILE
    )


def is_finalized(store: Store, path: str) -> bool:
    """A checkpoint exists at ``path`` iff its commit marker is visible."""
    return store.exists(f"{path}/{commit_marker(store)}")


def temp_path(path: str) -> str:
    """A fresh ``.tmp.<nonce>`` sibling of ``path``: where a rename-style
    save writes before it is renamed into place."""
    return f"{path}.tmp.{uuid.uuid4().hex[:12]}"


def delete_checkpoint(
    store: Store, path: str, keys: Iterable[str] | None = None
) -> None:
    """Delete every key under ``path`` (``keys``, if the caller listed them
    already), commit markers first, so a crash mid-deletion leaves no half
    checkpoint that still looks finalized."""
    markers = (f"{path}/{GLOBAL_METADATA_FILE}", f"{path}/{COMMIT_FILE}")
    if keys is None:
        keys = store.list_keys(f"{path}/")
    for key in sorted(keys, key=lambda k: (k not in markers, k)):
        store.delete(key)


def storage_meta_for(
    leaf: DenseArray, sharding: Sharding | None, options: SaveOptions
) -> ArrayStorageMetadata:
    if sharding is None:
        shard_shape = leaf.shape
        n_segments = 1
    else:
        sharding.check_shape(leaf.shape)
        shard_shape = sharding.shard_shape()
        n_segments = (
            sharding.replication_factor() if options.replica_parallel else 1
        )
    write_chunk = chunkstore.derive_write_chunk(shard_shape, n_segments)
    if options.subchunk_target_bytes is not None:
        read_chunk = chunkstore.choose_chunk_shape(
            write_chunk, leaf.dtype, options.subchunk_target_bytes
        )
    else:
        read_chunk = write_chunk
    return ArrayStorageMetadata(
        global_shape=leaf.shape,
        dtype=leaf.dtype,
        shard_shape=shard_shape,
        write_chunk=write_chunk,
        read_chunk=read_chunk,
        layout=options.layout,
    )


def write_ranges_for_process(
    sharding: Sharding | None,
    global_shape: tuple[int, ...],
    process: int,
    replica_parallel: bool,
) -> list[tuple[Range, ...]]:
    """Ranges a process persists for one array.

    Unsharded arrays are written whole by process 0. Otherwise each process
    writes its globally unique shards; with replica-parallel enabled, every
    replica writes its own ceil-division segment of each shard instead, so
    the union over all processes still covers the array exactly once.
    """
    if sharding is None:
        if process != 0:
            return []
        return [tuple((0, e) for e in global_shape)]
    if replica_parallel and sharding.replication_factor() > 1:
        n = sharding.replication_factor()
        out = []
        for shard in shards_of(sharding):
            if sharding.mesh.process_of(shard.device) != process:
                continue
            segment = replica_segments(shard, n, shard.replica_ordinal)
            if segment is not None:
                out.append(segment)
        return out
    return [s.ranges for s in unique_shards_for_process(sharding, process)]


# Per array leaf: the leaf, its storage metadata, its sharding descriptor
# and its sharding.
_LeafPlan = tuple[DenseArray, ArrayStorageMetadata, Optional[dict], Optional[Sharding]]


class SaveSession:
    """One in-flight save in one run of the save program
    (on a process, or on the controller): its validated plan, the snapshot
    of each process it runs for, and the leader's storage actions."""

    def __init__(
        self, store: Store, process_count: int, path: str, options: SaveOptions
    ):
        self.store = store
        self.process_count = process_count
        self.path = path.rstrip("/")
        self.options = options
        self.commit_style = (
            "rename" if store.backend.supports_atomic_rename else "indicator"
        )
        self.tmp_path = self.path  # rename style swaps in a sibling later
        self.leader_actions: Counter[str] = Counter()
        self.observed_existing: list[str] = []
        self._trees: dict[str, treemodel.TreeStructureDoc] = {}
        self._documents: dict[str, Any] = {}
        self._descriptors: list[tuple[str, str]] = []
        self._inline: dict[str, dict[str, dict]] = {}
        self._leaf_meta: dict[str, _LeafPlan] = {}
        self._snapshots: dict[int, ProcessArrayWriter] = {}  # by process index

    # -- synchronous phase --------------------------------------------------

    def validate(
        self,
        checkpointables: Mapping[str, Any],
        shardings: Mapping[str, Mapping[str, Sharding]] | None,
    ) -> None:
        if not checkpointables:
            raise TreeError("nothing to save")
        shardings = shardings or {}
        unknown = set(shardings) - set(checkpointables)
        if unknown:
            raise TreeError(f"shardings name unknown checkpointables: {sorted(unknown)}")
        for name in checkpointables:
            check_name(name)
        trees: dict[str, treemodel.Tree] = {}
        for name, value in sorted(checkpointables.items()):
            kind = treemodel.checkpointable_kind(value)
            self._descriptors.append((name, kind))
            if kind == TREE:
                trees[name] = treemodel.as_tree(value)
                self._trees[name] = treemodel.tree_metadata(trees[name])
                continue
            doc = value.obj if kind == DOCUMENT else value.save()
            # JSON round trip both validates and snapshots the document.
            self._documents[name] = docio.loads(docio.dumps_canonical(doc))
        for name, tree in trees.items():
            per_leaf = dict(shardings.get(name, {}))
            flat = dict(treemodel.flatten(tree))
            unknown = set(per_leaf) - set(flat)
            if unknown:
                raise TreeError(
                    f"sharding map for {name!r} names unknown leaf paths: "
                    f"{sorted(unknown)}"
                )
            inline: dict[str, dict] = {}
            for path, leaf in flat.items():
                if isinstance(leaf, treemodel._Placeholder):
                    raise TreeError(f"cannot save placeholder at {name}/{path}")
                if isinstance(leaf, treemodel.AbstractLeaf):
                    raise TreeError(f"cannot save abstract leaf at {name}/{path}")
                if isinstance(leaf, (Scalar, Text)):
                    if path in per_leaf:
                        raise TreeError(
                            f"sharding given for non-array leaf {name}/{path}"
                        )
                    inline[path] = treemodel.leaf_to_inline(leaf)
                    continue
                sharding = per_leaf.get(path)
                scoped = f"{name}/{path}" if path else name
                if sharding is not None:  # storage_meta_for checks shape and divisibility
                    sharding.check_process_count(self.process_count, scoped)
                meta = storage_meta_for(leaf, sharding, self.options)
                descriptor = (
                    describe_sharding(sharding) if sharding is not None else None
                )
                self._leaf_meta[scoped] = (leaf, meta, descriptor, sharding)
            if inline:
                self._inline[name] = inline

    def check_target_free(self) -> None:
        """The race-sensitive existence check; must precede any creation."""
        self.observed_existing = self.store.list_keys(f"{self.path}/")
        if f"{self.path}/{commit_marker(self.store)}" in self.observed_existing:
            raise PreExistingCheckpointError(
                f"finalized checkpoint already present at {self.path!r}"
            )

    def take_snapshot(self, worker: ProcessContext) -> None:
        """Copy the byte ranges one process writes into its writer's payloads;
        no view of the caller's leaves outlives this call."""
        writer = ProcessArrayWriter(
            worker.store,
            process_dir(self.tmp_path, worker.index),
            self.options.layout,
            self.options.target_file_bytes,
        )
        for scoped in sorted(self._leaf_meta):
            leaf, meta, descriptor, sharding = self._leaf_meta[scoped]
            ranges = write_ranges_for_process(
                sharding, leaf.shape, worker.index, self.options.replica_parallel
            )
            views = [
                (r, leaf.data[tuple(slice(o, o + e) for o, e in r)]) for r in ranges
            ]
            writer.write_array(scoped, views, meta, descriptor)
        writer.seal()
        self._snapshots[worker.index] = writer

    # -- asynchronous phase ---------------------------------------------------

    def global_metadata_doc(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "checkpointables": [
                {"name": n, "handler": h} for n, h in sorted(self._descriptors)
            ],
            "trees": {name: doc.root for name, doc in self._trees.items()},
            "inline": self._inline,
            "layout": self.options.layout,
            "commit_style": self.commit_style,
        }

    def create_location(self) -> None:
        """Leader-only: prepare the temporary location.

        For the indicator style the final path doubles as the temporary
        location, so stale residue from a dead earlier attempt is removed
        first (a finalized checkpoint can never be present here; the
        existence check already ran on every process).
        """
        if self.commit_style == "indicator":
            delete_checkpoint(self.store, self.path)
        self.leader_actions["create_location"] += 1

    def write_global_metadata(self) -> None:
        self.store.put(
            f"{self.tmp_path}/{GLOBAL_METADATA_FILE}",
            docio.dumps_canonical(self.global_metadata_doc()),
        )
        for name, doc in sorted(self._documents.items()):
            self.store.put(
                f"{self.tmp_path}/{name}/{DOCUMENT_FILE}",
                docio.dumps_canonical(doc),
            )
        self.leader_actions["global_metadata"] += 1

    def write_phase(self, worker: ProcessContext) -> dict:
        """Put one process's snapshot payloads and per-process metadata."""
        return self._snapshots.pop(worker.index).finish()

    def finalize_phase(self) -> None:
        """Leader-only: merge per-process indices and commit atomically."""
        merged = chunkstore.merge_process_indices(
            self.store, self.tmp_path, self.process_count
        )
        self.store.put(
            f"{self.tmp_path}/{MERGED_INDEX_FILE}", docio.dumps_canonical(merged)
        )
        self.leader_actions["merge"] += 1
        if self.commit_style == "rename":
            self.store.rename_prefix(self.tmp_path, self.path)
        else:
            self.store.put(f"{self.path}/{COMMIT_FILE}", b"COMMIT\n")
        self.leader_actions["commit"] += 1

    def cleanup_failed(self) -> None:
        if self.options.keep_temp_on_failure:
            return
        try:
            delete_checkpoint(self.store, self.tmp_path)
        except (SimulatedCrashError, MissingKeyError):
            pass


class CheckpointSaveHandle:
    """Join point of one save's background phase, with the session of each
    run of the save program: every process's, or the controller's."""

    def __init__(
        self, task: BackgroundTask, sessions: list[SaveSession], path: str
    ):
        self._task = task
        self.sessions = sessions
        self.path = path

    def wait(self) -> None:
        self._task.wait()

    def done(self) -> bool:
        return self._task.done()

    def leader_action_counts(self) -> dict[str, int]:
        return dict(sum((s.leader_actions for s in self.sessions), Counter()))

    def observed_existing(self) -> list[list[str]]:
        return [s.observed_existing for s in self.sessions]


def save_checkpoint(
    runtime: SimulatedRuntime,
    path: str,
    checkpointables: Mapping[str, Any],
    shardings: Mapping[str, Mapping[str, Sharding]] | None = None,
    options: SaveOptions | None = None,
) -> CheckpointSaveHandle:
    """Save checkpointables to ``path`` on every simulated process.

    Returns after the synchronous phase (validation + snapshot); with
    ``options.sync`` only after the checkpoint is finalized. Callers may
    mutate their trees as soon as this returns.
    """
    options = options or SaveOptions()
    if options.layout not in chunkstore.LAYOUTS:
        raise SaveError(f"unknown layout {options.layout!r}")
    path = path.rstrip("/")
    op = f"save:{path}"

    def synchronous(ctx) -> SaveSession:
        session = SaveSession(ctx.store, runtime.process_count, path, options)
        session.validate(checkpointables, shardings)
        session.check_target_free()
        # Every process must finish its existence check before the leader
        # creates anything, else a process could mistake the fresh location
        # for a previous checkpoint.
        ctx.barrier(f"{op}/validated")
        if session.commit_style == "rename":
            payload = temp_path(session.path).encode() if ctx.is_leader else None
            session.tmp_path = ctx.leader_broadcast(f"{op}/nonce", payload).decode()
        # Device-to-host copies run on the processes that own the devices;
        # a controller never holds bulk bytes.
        ctx.each(session.take_snapshot)
        return session

    sessions = runtime.run_program(synchronous)

    def background(ctx) -> None:
        session = sessions[ctx.index]
        try:
            if ctx.is_leader:
                session.create_location()
                session.write_global_metadata()
            ctx.barrier(f"{op}/created")
            ctx.each(session.write_phase)
            ctx.barrier(f"{op}/written")
            if ctx.is_leader:
                session.finalize_phase()
            ctx.barrier(f"{op}/finalized")
        except BaseException:
            session._snapshots.clear()  # unwritten; the handle keeps the session
            raise

    def finish() -> None:
        try:
            runtime.run_program(background)
        except BaseException:
            # Only now has every process stopped writing.
            sessions[0].cleanup_failed()
            raise

    task = BackgroundTask(finish, "save", options.sync)
    return CheckpointSaveHandle(task, sessions, path)
