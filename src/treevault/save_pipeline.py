"""The save protocol.

A save runs in two phases. The synchronous phase validates inputs (names,
tree structure, sharding divisibility, and a checked-before-created
existence test on the target path) and deep-copies exactly the byte ranges
this process will write. The asynchronous phase then writes chunk data
under a temporary location, merges per-process metadata, and commits
atomically: a directory rename when the backend supports it, otherwise a
COMMIT indicator file written last. Until the commit lands, the checkpoint
does not exist as far as readers are concerned.

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

import copy
import re
import uuid
from dataclasses import dataclass
from typing import Any, Mapping, Optional

import numpy as np

from . import chunkstore, docio, treemodel
from .backend import Store
from .chunkstore import (
    ArrayStorageMetadata,
    DEFAULT_TARGET_FILE_BYTES,
    PER_LEAF,
    ProcessArrayWriter,
)
from .coordination import (
    BackgroundTask,
    Mode,
    ProcessContext,
    SimulatedRuntime,
    primary_error,
)
from .errors import (
    MissingKeyError,
    PreExistingCheckpointError,
    SaveError,
    ShardingError,
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
from .treemodel import DenseArray, Scalar, Text, resolve_handler

GLOBAL_METADATA_FILE = "global_metadata.json"
MERGED_INDEX_FILE = "merged_index.json"
COMMIT_FILE = "COMMIT"
DOCUMENT_FILE = "data.json"
FORMAT_VERSION = 1

_RESERVED_NAMES = {
    GLOBAL_METADATA_FILE,
    MERGED_INDEX_FILE,
    COMMIT_FILE,
    chunkstore.ARRAY_METADATA_FILE,
    chunkstore.MANIFEST_FILE,
    chunkstore.DATA_DIR,
}
_PROCESS_DIR_RE = re.compile(r"process_\d+$")

PHASES = ("validating", "snapshotted", "writing", "merging", "finalized", "failed")


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
    if name in _RESERVED_NAMES or _PROCESS_DIR_RE.match(name):
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


def storage_meta_for(
    leaf: DenseArray, sharding: Sharding | None, options: SaveOptions
) -> ArrayStorageMetadata:
    if sharding is None:
        shard_shape = leaf.shape
        n_segments = 1
    else:
        if tuple(sharding.global_shape) != leaf.shape:
            raise ShardingError(
                f"sharding global shape {sharding.global_shape} does not "
                f"match leaf shape {leaf.shape}"
            )
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


@dataclass
class _TreeEntry:
    tree: treemodel.Tree
    structure: treemodel.TreeStructureDoc


# Per array leaf: the leaf, its storage metadata, its sharding descriptor
# and its sharding.
_LeafPlan = tuple[DenseArray, ArrayStorageMetadata, Optional[dict], Optional[Sharding]]


class _HandlerSaveScope:
    def __init__(self, session: "SaveSession", name: str):
        self._session = session
        self.name = name

    def write_tree(self, tree: treemodel.Tree) -> None:
        self._session._register_tree(self.name, tree)

    def write_document(self, doc: Any) -> None:
        self._session._register_document(self.name, doc)


class SaveSession:
    """State machine of one in-flight save on one process (or controller)."""

    def __init__(
        self,
        store: Store,
        process_index: int,
        process_count: int,
        path: str,
        options: SaveOptions,
    ):
        self.store = store
        self.process_index = process_index
        self.process_count = process_count
        self.path = path.rstrip("/")
        self.options = options
        self.commit_style = (
            "rename" if store.backend.supports_atomic_rename else "indicator"
        )
        self.tmp_path = self.path  # rename style swaps in a sibling later
        self.phase = "validating"
        self.leader_actions: dict[str, int] = {}
        self.observed_existing: list[str] = []
        self._trees: dict[str, _TreeEntry] = {}
        self._documents: dict[str, Any] = {}
        self._descriptors: list[tuple[str, str]] = []
        self._inline: dict[str, dict[str, dict]] = {}
        self._leaf_meta: dict[str, _LeafPlan] = {}
        self._snapshot: dict[str, list[tuple[tuple[Range, ...], np.ndarray]]] = {}

    def view_for(self, store: Store, process_index: int) -> "SaveSession":
        """This validated session as one worker sees it: the same plan, with
        the worker's own store, index and snapshot."""
        view = copy.copy(self)
        view.store = store
        view.process_index = process_index
        view._snapshot = {}
        return view

    def _advance(self, phase: str) -> None:
        if PHASES.index(phase) < PHASES.index(self.phase):
            raise SaveError(f"phase {self.phase} cannot go back to {phase}")
        self.phase = phase

    # -- synchronous phase --------------------------------------------------

    def _register_tree(self, name: str, tree: treemodel.Tree) -> None:
        self._trees[name] = _TreeEntry(tree, treemodel.tree_metadata(tree))

    def _register_document(self, name: str, doc: Any) -> None:
        # JSON round trip both validates and snapshots the document.
        self._documents[name] = docio.loads(docio.dumps_canonical(doc))

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
        for name, value in sorted(checkpointables.items()):
            handler = resolve_handler(value)
            self._descriptors.append((name, handler.handler_id))
            handler.save(value, _HandlerSaveScope(self, name))
        for name, entry in self._trees.items():
            per_leaf = dict(shardings.get(name, {}))
            flat = dict(treemodel.flatten(entry.tree))
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
                if sharding is not None:
                    if sharding.mesh.process_count != self.process_count:
                        raise ShardingError(
                            f"sharding for {name}/{path} spans "
                            f"{sharding.mesh.process_count} processes, "
                            f"runtime has {self.process_count}"
                        )
                    sharding.check_divisible()
                scoped = f"{name}/{path}" if path else name
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

    def take_snapshot(self) -> None:
        """Deep-copy exactly the byte ranges this process will write."""
        for scoped, (leaf, _, _, sharding) in self._leaf_meta.items():
            pieces = []
            for ranges in write_ranges_for_process(
                sharding,
                leaf.shape,
                self.process_index,
                self.options.replica_parallel,
            ):
                sel = tuple(slice(o, o + e) for o, e in ranges)
                pieces.append((ranges, leaf.data[sel].copy()))
            self._snapshot[scoped] = pieces
        self._advance("snapshotted")

    # -- asynchronous phase ---------------------------------------------------

    def _count_leader_action(self, action: str) -> None:
        self.leader_actions[action] = self.leader_actions.get(action, 0) + 1

    def global_metadata_doc(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "checkpointables": [
                {"name": n, "handler": h} for n, h in sorted(self._descriptors)
            ],
            "trees": {
                name: entry.structure.root
                for name, entry in self._trees.items()
            },
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
            for key in self.store.list_keys(f"{self.path}/"):
                self.store.delete(key)
        self._count_leader_action("create_location")

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
        self._count_leader_action("global_metadata")

    def write_phase(self) -> dict:
        """Write this process's snapshot chunks and per-process metadata."""
        self._advance("writing")
        writer = ProcessArrayWriter(
            self.store,
            f"{self.tmp_path}/process_{self.process_index}",
            self.options.layout,
            self.options.target_file_bytes,
        )
        for scoped in sorted(self._leaf_meta):
            _, meta, descriptor, _ = self._leaf_meta[scoped]
            writer.declare_array(scoped, meta, descriptor)
            pieces = self._snapshot.get(scoped, [])
            if pieces:
                writer.write_array(scoped, pieces, meta, descriptor)
        return writer.finish()

    def finalize_phase(self) -> None:
        """Leader-only: merge per-process indices and commit atomically."""
        self._advance("merging")
        merged = chunkstore.merge_process_indices(
            self.store, self.tmp_path, self.process_count
        )
        self.store.put(
            f"{self.tmp_path}/{MERGED_INDEX_FILE}", docio.dumps_canonical(merged)
        )
        self._count_leader_action("merge")
        if self.commit_style == "rename":
            self.store.rename_prefix(self.tmp_path, self.path)
        else:
            self.store.put(f"{self.path}/{COMMIT_FILE}", b"COMMIT\n")
        self._count_leader_action("commit")
        self._advance("finalized")

    def cleanup_failed(self) -> None:
        if self.options.keep_temp_on_failure:
            return
        try:
            for key in self.store.list_keys(f"{self.tmp_path}/"):
                self.store.delete(key)
        except (SimulatedCrashError, MissingKeyError):
            pass


class SaveHandle(BackgroundTask):
    """Join point for one process's background save phase."""

    def __init__(self, session: SaveSession, body, sync: bool):
        self.session = session
        super().__init__(body, f"save-{session.process_index}", sync)


class CheckpointSaveHandle:
    """Aggregate handle over every participating process."""

    def __init__(self, handles: list[SaveHandle], path: str):
        self.handles = handles
        self.path = path

    def wait(self) -> None:
        errors: list[BaseException] = []
        for h in self.handles:
            try:
                h.wait()
            except BaseException as e:  # noqa: BLE001 - re-raised below
                errors.append(e)
        if errors:
            raise primary_error(errors)

    def done(self) -> bool:
        return all(h.done() for h in self.handles)

    @property
    def phases(self) -> list[str]:
        return [h.session.phase for h in self.handles]

    def leader_action_counts(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for h in self.handles:
            for action, n in h.session.leader_actions.items():
                totals[action] = totals.get(action, 0) + n
        return totals

    def observed_existing(self) -> list[list[str]]:
        return [h.session.observed_existing for h in self.handles]


def _multi_controller_save(
    ctx: ProcessContext,
    path: str,
    checkpointables: Mapping[str, Any],
    shardings: Mapping[str, Mapping[str, Sharding]] | None,
    options: SaveOptions,
) -> SaveHandle:
    session = SaveSession(
        ctx.store, ctx.index, ctx.runtime.process_count, path, options
    )
    op = f"save:{session.path}"
    session.validate(checkpointables, shardings)
    session.check_target_free()
    # Every process must finish its existence check before the leader
    # creates anything, else a process could mistake the fresh location
    # for a previous checkpoint.
    ctx.barrier(f"{op}/validated")
    if session.commit_style == "rename":
        nonce = uuid.uuid4().hex[:12] if ctx.is_leader else None
        payload = nonce.encode() if nonce else None
        session.tmp_path = (
            f"{session.path}.tmp."
            + ctx.leader_broadcast(f"{op}/nonce", payload).decode()
        )
    session.take_snapshot()

    def background() -> None:
        try:
            if ctx.is_leader:
                session.create_location()
                session.write_global_metadata()
            ctx.barrier(f"{op}/created")
            session.write_phase()
            ctx.barrier(f"{op}/written")
            if ctx.is_leader:
                session.finalize_phase()
            else:
                session._advance("merging")
            ctx.barrier(f"{op}/finalized")
            session._advance("finalized")
        except BaseException:
            session.phase = "failed"
            if ctx.is_leader:
                session.cleanup_failed()
            raise

    return SaveHandle(session, background, options.sync)


def _single_controller_save(
    runtime: SimulatedRuntime,
    path: str,
    checkpointables: Mapping[str, Any],
    shardings: Mapping[str, Mapping[str, Sharding]] | None,
    options: SaveOptions,
) -> SaveHandle:
    controller = runtime.controller
    session = SaveSession(
        controller.store, 0, runtime.process_count, path, options
    )
    session.validate(checkpointables, shardings)
    session.check_target_free()
    if session.commit_style == "rename":
        session.tmp_path = f"{session.path}.tmp.{uuid.uuid4().hex[:12]}"
    # Device-to-host copies happen on the workers; each snapshots into its
    # own view of the validated session, the controller never holds bulk
    # bytes.
    def snapshot_task(ctx: ProcessContext) -> SaveSession:
        view = session.view_for(ctx.store, ctx.index)
        view.take_snapshot()
        return view

    worker_sessions = controller.run_on_workers(snapshot_task)
    session._advance("snapshotted")

    def background() -> None:
        try:
            session.create_location()
            session.write_global_metadata()
            controller.run_on_workers(
                lambda ctx: worker_sessions[ctx.index].write_phase()
            )
            session._advance("writing")
            session.finalize_phase()
        except BaseException:
            session.phase = "failed"
            session.cleanup_failed()
            raise

    return SaveHandle(session, background, options.sync)


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
    if runtime.mode is Mode.MULTI_CONTROLLER:
        handles = runtime.run_collective(
            lambda ctx: _multi_controller_save(
                ctx, path, checkpointables, shardings, options
            )
        )
    else:
        handles = [
            _single_controller_save(
                runtime, path, checkpointables, shardings, options
            )
        ]
    return CheckpointSaveHandle(handles, path.rstrip("/"))
