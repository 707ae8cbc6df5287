"""Loading-plan construction and execution.

The caller either supplies an abstract state per checkpointable (the strict
contract: the loaded tree matches its structure and properties, with casts
and reshardings applied) or lets checkpoint metadata drive the load, in
which case the saved device topology must match the current one exactly.

Partial mode relaxes the structure contract: an abstract subset loads only
that subset; abstract paths missing from the checkpoint come back as
PLACEHOLDER leaves for the caller to fill in.

Each simulated process reads the global index ranges its own devices need
(deduplicated within the process), and the global arrays are assembled only
once every process has delivered its pieces.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping

import numpy as np

from . import docio, treemodel
from .backend import Store
from .chunkstore import ArrayStorageMetadata, ChunkReader
from .coordination import BackgroundTask, Mode, ProcessContext, SimulatedRuntime
from .dtypes import numpy_dtype
from .errors import (
    CorruptionError,
    LoadError,
    MissingKeyError,
    SafetensorsError,
    ShardingError,
    StructureMismatchError,
    TreeError,
)
from .save_pipeline import (
    DOCUMENT_FILE,
    GLOBAL_METADATA_FILE,
    MERGED_INDEX_FILE,
    is_finalized,
)
from .sharding import (
    Mesh,
    Range,
    Shard,
    replica_groups,
    shards_of,
    sharding_from_descriptor,
)
from .treemodel import (
    PLACEHOLDER,
    AbstractLeaf,
    AbstractTree,
    DenseArray,
    Leaf,
    Tree,
    TreeStructureDoc,
    cast_leaf,
    inline_to_leaf,
    is_stateful_checkpointable,
)

STRICT = "strict"
PARTIAL = "partial"


@dataclass
class LoadOptions:
    mode: str = STRICT
    broadcast: bool = False


@dataclass
class LoadDirective:
    """What to produce for one target leaf."""

    name: str
    leaf_path: str
    scoped_path: str
    source: str  # "array" | "inline" | "placeholder"
    target: AbstractLeaf
    inline_doc: dict | None = None
    source_meta: ArrayStorageMetadata | None = None
    shard_reads: list[Shard] = field(default_factory=list)

    @property
    def placeholder(self) -> bool:
        return self.source == "placeholder"


@dataclass
class LoadPlan:
    mode: str
    broadcast: bool
    directives: dict[str, list[LoadDirective]]
    skeletons: dict[str, Any]  # AbstractTree or TreeStructureDoc per name
    documents: dict[str, Any]  # name -> abstract (stateful object or None)

    def directive_count(self) -> int:
        return sum(len(d) for d in self.directives.values())


class CheckpointMetadata:
    """Parsed global metadata plus the merged chunk index of a checkpoint."""

    def __init__(self, path: str, doc: dict, merged_index: dict):
        self.path = path
        self.doc = doc
        self.merged_index = merged_index
        self._validate()

    def _validate(self) -> None:
        arrays = self.merged_index.get("arrays", {})
        for name, _ in self.checkpointables():
            structure = self.structure(name)
            if structure is None:
                continue
            inline = self.inline(name)
            for path, leaf_meta in structure.leaf_entries():
                scoped = f"{name}/{path}" if path else name
                if leaf_meta["variant"] == "array":
                    if scoped not in arrays:
                        raise CorruptionError(
                            f"leaf {scoped!r} missing from merged index"
                        )
                elif path not in inline:
                    raise CorruptionError(
                        f"inline leaf {scoped!r} missing from global metadata"
                    )

    def checkpointables(self) -> list[tuple[str, str]]:
        return [
            (c["name"], c["handler"]) for c in self.doc.get("checkpointables", [])
        ]

    def structure(self, name: str) -> TreeStructureDoc | None:
        root = self.doc.get("trees", {}).get(name)
        return TreeStructureDoc(root) if root is not None else None

    def inline(self, name: str) -> dict[str, dict]:
        return self.doc.get("inline", {}).get(name, {})

    def array_entry(self, scoped: str) -> dict:
        try:
            return self.merged_index["arrays"][scoped]
        except KeyError:
            raise CorruptionError(
                f"leaf {scoped!r} missing from merged index"
            ) from None

    def storage_meta(self, scoped: str) -> ArrayStorageMetadata:
        return ArrayStorageMetadata.from_json(self.array_entry(scoped))

    def sharding_descriptor(self, scoped: str) -> dict | None:
        return self.array_entry(scoped).get("sharding")

    def abstract_tree(self, name: str) -> AbstractTree:
        """Structure-and-properties view of one tree checkpointable."""
        structure = self.structure(name)
        if structure is None:
            raise LoadError(f"checkpointable {name!r} has no tree structure")

        def lookup(path: str) -> AbstractLeaf:
            meta = dict(structure.leaf_entries())[path]
            if meta["variant"] == "array":
                return AbstractLeaf("array", tuple(meta["shape"]), meta["dtype"])
            if meta["variant"] == "scalar":
                return AbstractLeaf("scalar", dtype=meta["dtype"])
            return AbstractLeaf("text")

        return structure.reconstruct(lookup)


def checkpoint_metadata(store: Store, path: str) -> CheckpointMetadata:
    """Read a finalized checkpoint's metadata; never touches chunk payload."""
    path = path.rstrip("/")
    if not is_finalized(store, path):
        raise LoadError(f"no finalized checkpoint at {path!r}")
    doc = docio.loads(
        store.get(f"{path}/{GLOBAL_METADATA_FILE}"), what="global metadata"
    )
    merged = docio.loads(
        store.get(f"{path}/{MERGED_INDEX_FILE}"), what="merged index"
    )
    return CheckpointMetadata(path, doc, merged)


def _check_strict_structure(
    mode: str, source: Iterable[str], targets: Iterable[str], message: str
) -> None:
    """In strict mode the target leaf paths must equal the source's."""
    if mode != STRICT:
        return
    missing = sorted(set(source) - set(targets))
    extra = sorted(set(targets) - set(source))
    if missing or extra:
        raise StructureMismatchError(message, missing, extra)


def _resolve_target(
    abstract_leaf: AbstractLeaf | None, source_meta: dict
) -> AbstractLeaf:
    """Fill unspecified target properties from the source leaf metadata."""
    variant = source_meta["variant"]
    shape = tuple(source_meta["shape"]) if variant == "array" else None
    dtype = source_meta.get("dtype")
    if abstract_leaf is None:
        return AbstractLeaf(variant, shape, dtype)
    return AbstractLeaf(
        abstract_leaf.variant,
        abstract_leaf.shape if abstract_leaf.shape is not None else (
            shape if abstract_leaf.variant == "array" else None
        ),
        abstract_leaf.dtype or dtype,
        abstract_leaf.sharding,
    )


def _array_shards(target: AbstractLeaf) -> list[Shard]:
    if target.sharding is None:
        return []
    sharding = target.sharding
    if tuple(sharding.global_shape) != tuple(target.shape or ()):
        raise ShardingError(
            f"target sharding shape {sharding.global_shape} does not match "
            f"leaf shape {target.shape}"
        )
    return shards_of(sharding)


def build_plan(
    meta: CheckpointMetadata,
    abstracts: Mapping[str, Any] | None,
    options: LoadOptions,
    current_mesh: Mesh | None = None,
) -> LoadPlan:
    """Derive per-leaf load directives from the abstract contract.

    With no abstract state, checkpoint metadata drives the plan and the
    saved topology must equal the current one. Checkpointables are
    independently selectable in either mode; strict/partial applies to the
    leaf structure within each tree.
    """
    if options.mode not in (STRICT, PARTIAL):
        raise LoadError(f"unknown load mode {options.mode!r}")
    available = dict(meta.checkpointables())
    if abstracts is None:
        requested: dict[str, Any] = {n: None for n in available}
    else:
        requested = dict(abstracts)
    missing_cp = [n for n in requested if n not in available]
    if missing_cp and (options.mode == STRICT or abstracts is None):
        raise StructureMismatchError(
            "checkpointables not in checkpoint", missing_cp, []
        )

    directives: dict[str, list[LoadDirective]] = {}
    skeletons: dict[str, Any] = {}
    documents: dict[str, Any] = {}
    for name, abstract in requested.items():
        handler = available.get(name)
        if handler in ("json", "stateful"):
            documents[name] = abstract
            continue
        if handler is None:
            # Partial mode: a whole checkpointable made of placeholders.
            if abstract is None or is_stateful_checkpointable(abstract):
                raise StructureMismatchError(
                    "checkpointable not in checkpoint", [name], []
                )
            source_paths: dict[str, dict] = {}
            inline: dict[str, dict] = {}
        else:
            structure = meta.structure(name)
            source_paths = dict(structure.leaf_entries())
            inline = meta.inline(name)

        out: list[LoadDirective] = []
        if abstract is None:
            target_paths = {p: None for p in source_paths}
        else:
            flat = treemodel.flatten(abstract)
            for _, leaf in flat:
                if not isinstance(leaf, AbstractLeaf):
                    raise TreeError(
                        f"abstract tree for {name!r} must contain AbstractLeaf "
                        f"values, found {type(leaf).__name__}"
                    )
                if leaf.placeholder:
                    raise TreeError(
                        "user-supplied abstract leaves must not set placeholder"
                    )
            target_paths = dict(flat)
            _check_strict_structure(
                options.mode,
                source_paths,
                target_paths,
                f"abstract structure for {name!r} does not match the checkpoint",
            )

        for path in sorted(target_paths):
            abstract_leaf = target_paths[path]
            scoped = f"{name}/{path}" if path else name
            if path not in source_paths:
                target = abstract_leaf or AbstractLeaf("array")
                out.append(
                    LoadDirective(
                        name,
                        path,
                        scoped,
                        "placeholder",
                        AbstractLeaf(
                            target.variant,
                            target.shape,
                            target.dtype,
                            placeholder=True,
                        ),
                    )
                )
                continue
            source_meta = source_paths[path]
            target = _resolve_target(abstract_leaf, source_meta)
            if source_meta["variant"] == "array":
                storage = meta.storage_meta(scoped)
                if target.sharding is None and abstract is None:
                    descriptor = meta.sharding_descriptor(scoped)
                    if descriptor is not None:
                        if current_mesh is None:
                            raise LoadError(
                                f"loading {scoped!r} without an abstract "
                                "state requires the current mesh for "
                                "topology validation"
                            )
                        target = AbstractLeaf(
                            target.variant,
                            target.shape,
                            target.dtype,
                            sharding_from_descriptor(descriptor, current_mesh),
                        )
                directive = LoadDirective(
                    name,
                    path,
                    scoped,
                    "array",
                    target,
                    source_meta=storage,
                )
                if target.variant == "array" and target.sharding is not None:
                    directive.shard_reads = _array_shards(target)
                out.append(directive)
            else:
                out.append(
                    LoadDirective(
                        name,
                        path,
                        scoped,
                        "inline",
                        target,
                        inline_doc=inline[path],
                    )
                )
        directives[name] = out
        skeletons[name] = (
            abstract if abstract is not None else meta.structure(name)
        )

    plan = LoadPlan(options.mode, options.broadcast, directives, skeletons, documents)
    if options.broadcast:
        _validate_broadcast(plan)
    return plan


def _validate_broadcast(plan: LoadPlan) -> None:
    for dirs in plan.directives.values():
        for d in dirs:
            sharding = d.target.sharding
            if d.source != "array" or sharding is None:
                continue
            mesh = sharding.mesh
            if mesh.replica_axis is None:
                raise ShardingError(
                    f"broadcast load of {d.scoped_path!r} requires a mesh "
                    "with a replica axis"
                )
            if mesh.replica_axis in sharding.spec.entries:
                raise ShardingError(
                    f"replica group 0 does not hold a complete copy of "
                    f"{d.scoped_path!r} (it is partitioned over the replica "
                    "axis)"
                )


_ReadPiece = tuple[str, tuple[Range, ...], np.ndarray]


def _execute_reads(
    store: Store,
    process_index: int,
    meta: CheckpointMetadata,
    plan: LoadPlan,
) -> list[_ReadPiece]:
    """Read the ranges this process's devices need; dedup within process."""
    reader = ChunkReader(store, meta.path, meta.merged_index)
    pieces: list[_ReadPiece] = []
    for dirs in plan.directives.values():
        for d in dirs:
            if d.source != "array":
                continue
            sharding = d.target.sharding
            if sharding is None:
                if process_index == 0:
                    shape = d.source_meta.global_shape
                    ranges = tuple((0, e) for e in shape)
                    data, _ = reader.read_range(d.scoped_path, ranges)
                    pieces.append((d.scoped_path, ranges, data))
                continue
            mesh = sharding.mesh
            allowed = None
            if plan.broadcast:
                allowed = replica_groups(mesh)[0].devices
            seen: set[tuple[Range, ...]] = set()
            for shard in d.shard_reads:
                if mesh.process_of(shard.device) != process_index:
                    continue
                if allowed is not None and shard.device not in allowed:
                    continue
                if shard.ranges in seen:
                    continue
                seen.add(shard.ranges)
                data, _ = reader.read_range(d.scoped_path, shard.ranges)
                pieces.append((d.scoped_path, shard.ranges, data))
    return pieces


def _assemble(
    meta: CheckpointMetadata,
    plan: LoadPlan,
    pieces: list[_ReadPiece],
    documents: dict[str, Any],
) -> dict[str, Any]:
    by_path: dict[str, list[tuple[tuple[Range, ...], np.ndarray]]] = {}
    for scoped, ranges, data in pieces:
        by_path.setdefault(scoped, []).append((ranges, data))

    result: dict[str, Any] = {}
    for name, dirs in plan.directives.items():
        leaves: dict[str, Leaf] = {}
        for d in dirs:
            if d.source == "placeholder":
                leaves[d.leaf_path] = PLACEHOLDER
                continue
            if d.source == "inline":
                leaf = inline_to_leaf(d.inline_doc)
            else:
                storage = d.source_meta
                nd = numpy_dtype(storage.dtype)
                out = np.empty(storage.global_shape, nd)
                filled = np.zeros(storage.global_shape, bool)
                for ranges, data in by_path.get(d.scoped_path, []):
                    sel = tuple(slice(o, o + e) for o, e in ranges)
                    out[sel] = data
                    filled[sel] = True
                if not filled.all():
                    raise LoadError(
                        f"incomplete read coverage for {d.scoped_path!r}"
                    )
                leaf = DenseArray(storage.dtype, out)
            # Casts run after assembly, per leaf, before the tree is built.
            leaves[d.leaf_path] = cast_leaf(leaf, d.target)

        skeleton = plan.skeletons[name]
        if isinstance(skeleton, TreeStructureDoc):
            result[name] = skeleton.reconstruct(leaves.__getitem__)
        else:
            result[name] = _fill_abstract(skeleton, leaves)
    for name, abstract in plan.documents.items():
        doc = documents[name]
        if is_stateful_checkpointable(abstract):
            abstract.load(doc)
            result[name] = abstract
        else:
            result[name] = doc
    return result


def _fill_abstract(abstract: AbstractTree, leaves: dict[str, Leaf]) -> Tree:
    return treemodel.map_leaves(lambda path, _: leaves[path], abstract)


def _read_documents(store: Store, path: str, plan: LoadPlan) -> dict[str, Any]:
    docs = {}
    for name in plan.documents:
        try:
            docs[name] = docio.loads(
                store.get(f"{path}/{name}/{DOCUMENT_FILE}"),
                what=f"document {name!r}",
            )
        except MissingKeyError:
            raise CorruptionError(f"missing document for {name!r}") from None
    return docs


def _check_plan_matches_runtime(plan: LoadPlan, runtime: SimulatedRuntime) -> None:
    for dirs in plan.directives.values():
        for d in dirs:
            sharding = d.target.sharding
            if sharding is not None and (
                sharding.mesh.process_count != runtime.process_count
            ):
                raise ShardingError(
                    f"target sharding for {d.scoped_path!r} spans "
                    f"{sharding.mesh.process_count} processes, runtime has "
                    f"{runtime.process_count}"
                )


def load_checkpoint(
    runtime: SimulatedRuntime,
    path: str,
    abstracts: Mapping[str, Any] | None = None,
    options: LoadOptions | None = None,
    current_mesh: Mesh | None = None,
) -> dict[str, Any]:
    """Load checkpointables from ``path`` across the simulated runtime.

    Returns {name: value}. Array leaves are read per process for its own
    devices; with ``options.broadcast`` only replica group 0 reads and the
    result is shared through the runtime instead of storage.
    """
    options = options or LoadOptions()
    path = path.rstrip("/")

    if runtime.mode is Mode.MULTI_CONTROLLER:

        def per_process(ctx: ProcessContext):
            meta = checkpoint_metadata(ctx.store, path)
            plan = build_plan(meta, abstracts, options, current_mesh)
            _check_plan_matches_runtime(plan, runtime)
            pieces = _execute_reads(ctx.store, ctx.index, meta, plan)
            docs = _read_documents(ctx.store, path, plan) if ctx.is_leader else {}
            # No process returns before every shard everywhere was read.
            ctx.barrier(f"load:{path}/complete")
            return meta, plan, pieces, docs

        results = runtime.run_collective(per_process)
        meta, plan, _, docs = results[0]
        pieces = [p for _, _, ps, _ in results for p in ps]
        return _assemble(meta, plan, pieces, docs)

    controller = runtime.controller
    meta = checkpoint_metadata(controller.store, path)
    plan = build_plan(meta, abstracts, options, current_mesh)
    _check_plan_matches_runtime(plan, runtime)
    worker_pieces = controller.run_on_workers(
        lambda ctx: _execute_reads(ctx.store, ctx.index, meta, plan)
    )
    docs = _read_documents(controller.store, path, plan)
    pieces = [p for ps in worker_pieces for p in ps]
    return _assemble(meta, plan, pieces, docs)


def load_with_broadcast(
    runtime: SimulatedRuntime,
    path: str,
    abstracts: Mapping[str, Any],
    options: LoadOptions | None = None,
) -> dict[str, Any]:
    """Load with chunk reads restricted to replica group 0."""
    options = replace(options or LoadOptions(), broadcast=True)
    return load_checkpoint(runtime, path, abstracts, options)


def load_checkpoint_async(
    runtime: SimulatedRuntime,
    path: str,
    abstracts: Mapping[str, Any] | None = None,
    options: LoadOptions | None = None,
    current_mesh: Mesh | None = None,
) -> BackgroundTask:
    """Run :func:`load_checkpoint` in the background; ``wait`` returns its
    result."""
    return BackgroundTask(
        lambda: load_checkpoint(runtime, path, abstracts, options, current_mesh),
        "load",
    )


# -- safetensors ------------------------------------------------------------

_SAFETENSORS_DTYPES = {
    "F32": "f32",
    "F64": "f64",
    "I32": "i32",
    "I64": "i64",
    "U8": "u8",
    "BOOL": "bool",
}


def load_safetensors(
    path: str,
    abstract: AbstractTree | None = None,
    mode: str = STRICT,
) -> Tree:
    """Load a safetensors container into a flat mapping of arrays.

    Container: 8-byte little-endian header length, JSON header mapping
    tensor name -> {dtype, shape, data_offsets}, then packed row-major
    data. Offsets are relative to the data section and must be
    non-overlapping and in bounds.
    """
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise SafetensorsError(f"cannot read {path!r}: {e}") from e
    if len(raw) < 8:
        raise SafetensorsError("file too small for a safetensors header")
    (header_len,) = struct.unpack("<Q", raw[:8])
    if 8 + header_len > len(raw):
        raise SafetensorsError("header length extends past end of file")
    try:
        header = json.loads(raw[8 : 8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise SafetensorsError(f"malformed JSON header: {e}") from e
    if not isinstance(header, dict):
        raise SafetensorsError("header must be a JSON object")
    data = raw[8 + header_len :]

    tree: dict[str, Leaf] = {}
    spans: list[tuple[int, int, str]] = []
    for name, entry in header.items():
        if name == "__metadata__":
            continue
        if not isinstance(entry, dict):
            raise SafetensorsError(f"tensor entry {name!r} must be an object")
        try:
            st_dtype = entry["dtype"]
            shape = tuple(int(s) for s in entry["shape"])
            begin, end = (int(x) for x in entry["data_offsets"])
        except (KeyError, TypeError, ValueError) as e:
            raise SafetensorsError(f"invalid tensor entry {name!r}: {e}") from e
        if st_dtype not in _SAFETENSORS_DTYPES:
            raise SafetensorsError(
                f"unsupported dtype {st_dtype!r} for tensor {name!r}"
            )
        if any(s < 0 for s in shape):
            raise SafetensorsError(f"negative extent in shape of {name!r}")
        dtype = _SAFETENSORS_DTYPES[st_dtype]
        nd = numpy_dtype(dtype)
        expected = math.prod(shape) * nd.itemsize
        if begin < 0 or end < begin or end > len(data):
            raise SafetensorsError(
                f"data_offsets of {name!r} out of bounds "
                f"([{begin}, {end}) in {len(data)} data bytes)"
            )
        if end - begin != expected:
            raise SafetensorsError(
                f"tensor {name!r} spans {end - begin} bytes, expected {expected}"
            )
        spans.append((begin, end, name))
        arr = np.frombuffer(data[begin:end], nd).reshape(shape)
        tree[name] = DenseArray(dtype, arr)

    spans.sort()
    for (b1, e1, n1), (b2, _, n2) in zip(spans, spans[1:]):
        if e1 > b2:
            raise SafetensorsError(
                f"tensors {n1!r} and {n2!r} have overlapping data ranges"
            )
    if abstract is None:
        return tree
    return conform_flat_tree(tree, abstract, mode)


def conform_flat_tree(
    tree: dict[str, Leaf], abstract: AbstractTree, mode: str
) -> Tree:
    """Apply the abstract contract (structure, casts, placeholders) to an
    already materialized tree."""
    if mode not in (STRICT, PARTIAL):
        raise LoadError(f"unknown load mode {mode!r}")
    source = dict(treemodel.flatten(tree))
    targets = dict(treemodel.flatten(abstract))
    for path, leaf in targets.items():
        if not isinstance(leaf, AbstractLeaf):
            raise TreeError(f"abstract leaf expected at {path!r}")
    _check_strict_structure(
        mode, source, targets, "abstract structure does not match"
    )
    leaves = {
        path: (
            cast_leaf(source[path], target)
            if path in source
            else PLACEHOLDER
        )
        for path, target in targets.items()
    }
    return _fill_abstract(abstract, leaves)
