"""Nested checkpoint trees, leaf types, and the checkpointable abstraction.

A checkpoint tree is an ordinary nested Python structure (dict / list /
tuple) whose leaves are :class:`DenseArray`, :class:`Scalar`, or
:class:`Text` values. Loaded trees may additionally contain the
:data:`PLACEHOLDER` sentinel at positions requested by the caller but absent
from the checkpoint.

Abstract trees mirror the same structure with :class:`AbstractLeaf` leaves
carrying only properties (shape, dtype, sharding), never element data.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Iterator, Union

import numpy as np

from . import docio
from .dtypes import FLOAT_DTYPES, INT_DTYPES, dtype_name, numpy_dtype
from .errors import CastError, TreeError
from .sharding import Sharding


@dataclass(frozen=True, eq=False)
class DenseArray:
    """Row-major dense array leaf. ``data`` is always C-contiguous."""

    dtype: str
    data: np.ndarray

    def __post_init__(self):
        nd = numpy_dtype(self.dtype)
        arr = np.asarray(self.data, dtype=nd)
        if arr.ndim and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)  # promotes rank-0, hence the guard
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @classmethod
    def from_numpy(cls, arr: np.ndarray) -> "DenseArray":
        return cls(dtype_name(arr.dtype), arr)

    def __eq__(self, other: object) -> bool:
        # Bit-exact comparison (NaN-safe), not elementwise numeric equality.
        return (
            isinstance(other, DenseArray)
            and self.dtype == other.dtype
            and self.shape == other.shape
            and self.data.tobytes() == other.data.tobytes()
        )

    def __repr__(self) -> str:
        return f"DenseArray({self.dtype}, shape={self.shape})"


@dataclass(frozen=True)
class Scalar:
    """Single value leaf; interchangeable with a rank-0 DenseArray."""

    dtype: str
    value: Union[bool, int, float]

    def __post_init__(self):
        nd = numpy_dtype(self.dtype)
        coerced = nd.type(self.value)
        if self.dtype in INT_DTYPES and int(coerced) != int(self.value):
            raise CastError(
                f"value {self.value!r} does not fit in {self.dtype}"
            )
        object.__setattr__(self, "value", coerced.item())

    def to_array(self) -> DenseArray:
        return DenseArray(self.dtype, np.array(self.value, numpy_dtype(self.dtype)))


@dataclass(frozen=True)
class Text:
    """UTF-8 string leaf."""

    value: str


class _Placeholder:
    """Sentinel leaf standing in for values absent from the checkpoint."""

    _instance: ClassVar["_Placeholder | None"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "PLACEHOLDER"


PLACEHOLDER = _Placeholder()

Leaf = Union[DenseArray, Scalar, Text, _Placeholder]
Tree = Union[dict, list, tuple, Leaf]


@dataclass(frozen=True)
class AbstractLeaf:
    """Properties of a leaf without its data.

    ``placeholder=True`` is only produced by the load planner for paths
    missing from a checkpoint; user-supplied abstract trees must not set it.
    """

    variant: str  # "array" | "scalar" | "text"
    shape: tuple[int, ...] | None = None
    dtype: str | None = None
    sharding: Sharding | None = None
    placeholder: bool = False

    def __post_init__(self):
        if self.variant not in ("array", "scalar", "text"):
            raise TreeError(f"unknown leaf variant {self.variant!r}")
        if self.sharding is not None and self.variant != "array":
            raise TreeError("sharding only applies to array leaves")
        if self.shape is not None:
            object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))


AbstractTree = Union[dict, list, tuple, AbstractLeaf]

_LEAF_TYPES = (DenseArray, Scalar, Text, _Placeholder, AbstractLeaf)


def is_leaf(node: Any) -> bool:
    return isinstance(node, _LEAF_TYPES)


def as_tree(obj: Any) -> Tree:
    """Coerce plain Python / numpy values into a checkpoint tree.

    numpy arrays become DenseArray, Python/numpy scalars become Scalar
    (int -> i64, float -> f64), strings become Text. Containers recurse.
    """
    if is_leaf(obj):
        return obj
    if isinstance(obj, dict):
        return {k: as_tree(v) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return tuple(as_tree(v) for v in obj)
    if isinstance(obj, list):
        return [as_tree(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.ndim == 0:
            return Scalar(dtype_name(obj.dtype), obj[()].item())
        return DenseArray.from_numpy(obj)
    if isinstance(obj, np.generic):
        return Scalar(dtype_name(obj.dtype), obj.item())
    if isinstance(obj, bool):
        return Scalar("bool", obj)
    if isinstance(obj, int):
        return Scalar("i64", obj)
    if isinstance(obj, float):
        return Scalar("f64", obj)
    if isinstance(obj, str):
        return Text(obj)
    raise TreeError(f"cannot place {type(obj).__name__} in a checkpoint tree")


def _check_key(key: Any) -> str:
    if not isinstance(key, str):
        raise TreeError(f"mapping keys must be strings, got {type(key).__name__}")
    if not key:
        raise TreeError("mapping keys must be non-empty")
    if "/" in key:
        raise TreeError(f"mapping key {key!r} must not contain '/'")
    return key


def _walk(tree: Tree, prefix: str) -> Iterator[tuple[str, Leaf]]:
    if is_leaf(tree):
        yield prefix, tree
        return
    if isinstance(tree, dict):
        for key in sorted(_check_key(k) for k in tree):
            yield from _walk(tree[key], f"{prefix}/{key}" if prefix else key)
    elif isinstance(tree, (list, tuple)):
        for i, child in enumerate(tree):
            yield from _walk(child, f"{prefix}/{i}" if prefix else str(i))
    else:
        raise TreeError(f"unsupported tree node type {type(tree).__name__}")


def flatten(tree: Tree) -> list[tuple[str, Leaf]]:
    """Depth-first leaf listing; mapping keys sorted, sequences by index.

    Empty containers contribute no entries; use :func:`tree_metadata` to
    record them.
    """
    return list(_walk(tree, ""))


def unflatten(
    pairs: list[tuple[str, Leaf]], structure: "TreeStructureDoc | None" = None
) -> Tree:
    """Rebuild a tree from flatten output.

    Without a structure doc, container kinds are inferred: children keyed
    exactly 0..n-1 become a list, everything else a mapping. Tuples, empty
    containers, and mappings whose keys all look like indices need the
    structure doc to round-trip exactly.
    """
    if structure is not None:
        lookup = dict(pairs)
        if len(lookup) != len(pairs):
            raise TreeError("duplicate leaf paths")
        return structure.reconstruct(lookup.__getitem__, known=set(lookup))
    if not pairs:
        return {}
    if len(pairs) == 1 and pairs[0][0] == "":
        return pairs[0][1]

    root: dict = {}
    for path, leaf in pairs:
        segments = path.split("/")
        node = root
        for seg in segments[:-1]:
            node = node.setdefault(seg, {})
            if not isinstance(node, dict):
                raise TreeError(f"leaf path conflict at {path!r}")
        if segments[-1] in node:
            raise TreeError(f"duplicate leaf path {path!r}")
        node[segments[-1]] = leaf

    def materialize(node: Any) -> Tree:
        if not isinstance(node, dict):
            return node
        if node and all(k.isdigit() for k in node):
            indices = sorted(int(k) for k in node)
            if indices == list(range(len(node))):
                return [materialize(node[str(i)]) for i in indices]
        return {k: materialize(v) for k, v in sorted(node.items())}

    return materialize(root)


def _leaf_meta(leaf: Leaf) -> dict:
    if isinstance(leaf, DenseArray):
        return {"variant": "array", "dtype": leaf.dtype, "shape": list(leaf.shape)}
    if isinstance(leaf, Scalar):
        return {"variant": "scalar", "dtype": leaf.dtype}
    if isinstance(leaf, Text):
        return {"variant": "text"}
    if isinstance(leaf, AbstractLeaf):
        meta: dict = {"variant": leaf.variant}
        if leaf.dtype is not None:
            meta["dtype"] = leaf.dtype
        if leaf.variant == "array":
            meta["shape"] = list(leaf.shape) if leaf.shape is not None else None
        return meta
    raise TreeError(f"cannot describe leaf {leaf!r}")


def _structure_node(tree: Tree) -> dict:
    if is_leaf(tree):
        return {"kind": "leaf", "leaf": _leaf_meta(tree)}
    if isinstance(tree, dict):
        return {
            "kind": "dict",
            "children": {
                _check_key(k): _structure_node(v) for k, v in tree.items()
            },
        }
    if isinstance(tree, (list, tuple)):
        kind = "tuple" if isinstance(tree, tuple) else "list"
        return {"kind": kind, "children": [_structure_node(v) for v in tree]}
    raise TreeError(f"unsupported tree node type {type(tree).__name__}")


class TreeStructureDoc:
    """Serializable description of a tree's skeleton and leaf properties.

    Records node kinds (dict / list / tuple), key names, empty containers,
    and per-leaf variant/shape/dtype. Contains no element data. Canonical
    JSON form round-trips exactly.
    """

    def __init__(self, root: dict):
        self.root = root

    @classmethod
    def from_tree(cls, tree: Tree) -> "TreeStructureDoc":
        return cls(_structure_node(tree))

    def to_bytes(self) -> bytes:
        return docio.dumps_canonical(self.root)

    @classmethod
    def from_bytes(cls, data: bytes) -> "TreeStructureDoc":
        return cls(docio.loads(data, what="tree structure"))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TreeStructureDoc) and self.root == other.root

    def leaf_entries(self) -> list[tuple[str, dict]]:
        """(path, leaf meta) pairs in flatten order."""
        out: list[tuple[str, dict]] = []

        def walk(node: dict, prefix: str) -> None:
            if node["kind"] == "leaf":
                out.append((prefix, node["leaf"]))
                return
            children = node["children"]
            if node["kind"] == "dict":
                for key in sorted(children):
                    walk(children[key], f"{prefix}/{key}" if prefix else key)
            else:
                for i, child in enumerate(children):
                    walk(child, f"{prefix}/{i}" if prefix else str(i))

        walk(self.root, "")
        return out

    def reconstruct(
        self,
        leaf_lookup: Callable[[str], Leaf],
        known: set[str] | None = None,
    ) -> Tree:
        """Rebuild the exact skeleton, pulling leaves by path.

        ``known``, when given, must match the structure's leaf set exactly.
        """
        if known is not None:
            paths = {p for p, _ in self.leaf_entries()}
            if known != paths:
                raise TreeError(
                    f"leaf set mismatch: missing={sorted(paths - known)} "
                    f"extra={sorted(known - paths)}"
                )

        def build(node: dict, prefix: str) -> Tree:
            if node["kind"] == "leaf":
                return leaf_lookup(prefix)
            children = node["children"]
            if node["kind"] == "dict":
                return {
                    k: build(children[k], f"{prefix}/{k}" if prefix else k)
                    for k in sorted(children)
                }
            items = [
                build(c, f"{prefix}/{i}" if prefix else str(i))
                for i, c in enumerate(children)
            ]
            return tuple(items) if node["kind"] == "tuple" else items

        return build(self.root, "")


def tree_metadata(tree: Tree) -> TreeStructureDoc:
    return TreeStructureDoc.from_tree(tree)


def abstract_leaf_of(leaf: Leaf, sharding: Sharding | None = None) -> AbstractLeaf:
    if isinstance(leaf, DenseArray):
        return AbstractLeaf("array", leaf.shape, leaf.dtype, sharding)
    if sharding is not None:
        raise TreeError("sharding only applies to array leaves")
    if isinstance(leaf, Scalar):
        return AbstractLeaf("scalar", dtype=leaf.dtype)
    if isinstance(leaf, Text):
        return AbstractLeaf("text")
    if isinstance(leaf, AbstractLeaf):
        return leaf
    raise TreeError(f"cannot abstract leaf {leaf!r}")


def map_leaves(fn: Callable[[str, Any], Any], tree: Tree) -> Tree:
    """Rebuild ``tree`` with each leaf replaced by ``fn(path, leaf)``.

    Container kinds and mapping order are kept; paths are as in
    :func:`flatten`.
    """

    def walk(node: Tree, prefix: str) -> Tree:
        if is_leaf(node):
            return fn(prefix, node)
        if isinstance(node, dict):
            return {
                k: walk(v, f"{prefix}/{k}" if prefix else k)
                for k, v in node.items()
            }
        items = [
            walk(v, f"{prefix}/{i}" if prefix else str(i))
            for i, v in enumerate(node)
        ]
        return tuple(items) if isinstance(node, tuple) else items

    return walk(tree, "")


def abstract_of(
    tree: Tree, sharding_map: dict[str, Sharding] | None = None
) -> AbstractTree:
    """Replace every leaf by its AbstractLeaf, attaching shardings by path."""
    sharding_map = dict(sharding_map or {})
    paths = {p for p, _ in flatten(tree)}
    unknown = set(sharding_map) - paths
    if unknown:
        raise TreeError(f"sharding map names unknown leaf paths: {sorted(unknown)}")
    return map_leaves(
        lambda path, leaf: abstract_leaf_of(leaf, sharding_map.get(path)), tree
    )


def _convert_values(values: np.ndarray, src: str, dst: str) -> np.ndarray:
    if src == dst:
        return values
    if "bool" in (src, dst):
        raise CastError(f"bool leaves only cast to themselves ({src} -> {dst})")
    dst_np = numpy_dtype(dst)
    if src in INT_DTYPES and dst in INT_DTYPES:
        info = np.iinfo(dst_np)
        if values.size and (
            int(values.min()) < info.min or int(values.max()) > info.max
        ):
            raise CastError(f"integer overflow casting {src} -> {dst}")
        return values.astype(dst_np)
    if src in FLOAT_DTYPES and dst in INT_DTYPES:
        if values.size:
            if not np.all(np.isfinite(values)):
                raise CastError(f"non-finite value casting {src} -> {dst}")
            if not np.all(values == np.floor(values)):
                raise CastError(f"non-integral value casting {src} -> {dst}")
            info = np.iinfo(dst_np)
            if float(values.min()) < info.min or float(values.max()) > info.max:
                raise CastError(f"integer overflow casting {src} -> {dst}")
        return values.astype(dst_np)
    # float->float narrows with round-to-nearest-even; int->float may round.
    return values.astype(dst_np)


def cast_leaf(leaf: Leaf, target: AbstractLeaf) -> Leaf:
    """Convert a leaf to the target's variant/dtype.

    Allowed: numeric dtype casts and rank-0 array <-> scalar. Everything
    else (including any other shape change) is an error.
    """
    if target.placeholder:
        raise CastError("cannot cast to a placeholder")
    if isinstance(leaf, _Placeholder):
        raise CastError("cannot cast a placeholder leaf")

    if isinstance(leaf, Text):
        if target.variant != "text":
            raise CastError(f"text leaf cannot become {target.variant}")
        return leaf
    if target.variant == "text":
        raise CastError("only text leaves can become text")

    if isinstance(leaf, Scalar):
        src_arr, src_shape = leaf.to_array(), ()
    elif isinstance(leaf, DenseArray):
        src_arr, src_shape = leaf, leaf.shape
    else:
        raise CastError(f"cannot cast leaf {leaf!r}")

    dst_dtype = target.dtype or src_arr.dtype
    if target.variant == "scalar":
        if src_shape != ():
            raise CastError(f"cannot scalarize array of shape {src_shape}")
        values = _convert_values(src_arr.data, src_arr.dtype, dst_dtype)
        return Scalar(dst_dtype, values[()].item())

    expected = target.shape if target.shape is not None else src_shape
    if tuple(expected) != src_shape:
        raise CastError(
            f"shape mismatch: have {src_shape}, target {tuple(expected)}"
        )
    if dst_dtype == src_arr.dtype and isinstance(leaf, DenseArray):
        return leaf
    values = _convert_values(src_arr.data, src_arr.dtype, dst_dtype)
    return DenseArray(dst_dtype, values)


def tree_equal(a: Tree, b: Tree) -> bool:
    """Structural equality with bit-exact leaf comparison."""
    if is_leaf(a) or is_leaf(b):
        if isinstance(a, Scalar) and isinstance(b, Scalar):
            return a.dtype == b.dtype and a.to_array() == b.to_array()
        return a == b
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(tree_equal(a[k], b[k]) for k in a)
    return len(a) == len(b) and all(tree_equal(x, y) for x, y in zip(a, b))


def leaf_to_inline(leaf: Leaf) -> dict:
    """JSON form for small host-resident leaves (scalars, text)."""
    if isinstance(leaf, Scalar):
        value: Any = leaf.value
        if isinstance(value, float) and not math.isfinite(value):
            # json emits non-standard literals for these; keep them explicit.
            value = repr(value)
        return {"variant": "scalar", "dtype": leaf.dtype, "value": value}
    if isinstance(leaf, Text):
        return {"variant": "text", "value": leaf.value}
    raise TreeError(f"leaf {leaf!r} is not inlineable")


def inline_to_leaf(doc: dict) -> Leaf:
    if doc["variant"] == "scalar":
        value = doc["value"]
        if isinstance(value, str):
            value = float(value)
        return Scalar(doc["dtype"], value)
    if doc["variant"] == "text":
        return Text(doc["value"])
    raise TreeError(f"unknown inline leaf variant {doc.get('variant')!r}")


class CheckpointableHandler(abc.ABC):
    """Save strategy for one named checkpointable.

    ``save`` hands the value to the save scope as a tree or a document. The
    handler id is recorded in the checkpoint's global metadata, and the
    load path dispatches on that recorded id.
    """

    handler_id: ClassVar[str]

    @abc.abstractmethod
    def save(self, value: Any, scope: Any) -> None: ...


class TreeHandler(CheckpointableHandler):
    """Nested trees of (possibly sharded) arrays, scalars, and text."""

    handler_id = "tree"

    def save(self, value, scope):
        scope.write_tree(as_tree(value))


@dataclass(frozen=True)
class JsonDocument:
    """Wrapper forcing a value to be stored as a single JSON document."""

    obj: Any


class DocumentHandler(CheckpointableHandler):
    handler_id = "json"

    def save(self, value, scope):
        obj = value.obj if isinstance(value, JsonDocument) else value
        scope.write_document(obj)


def is_stateful_checkpointable(obj: Any) -> bool:
    save = getattr(obj, "save", None)
    load = getattr(obj, "load", None)
    return callable(save) and callable(load) and not is_leaf(obj)


class StatefulHandler(CheckpointableHandler):
    """Objects providing their own save() -> state / load(state) methods."""

    handler_id = "stateful"

    def save(self, value, scope):
        scope.write_document(value.save())


HANDLERS: dict[str, CheckpointableHandler] = {
    h.handler_id: h for h in (TreeHandler(), DocumentHandler(), StatefulHandler())
}


def resolve_handler(value: Any) -> CheckpointableHandler:
    if isinstance(value, JsonDocument):
        return HANDLERS["json"]
    if is_stateful_checkpointable(value):
        return HANDLERS["stateful"]
    return HANDLERS["tree"]


class CountingIterator:
    """Example stateful checkpointable: an iterator position as one integer."""

    def __init__(self, index: int = 0):
        self.index = index

    def __next__(self) -> int:
        value = self.index
        self.index += 1
        return value

    def save(self) -> dict:
        return {"index": self.index}

    def load(self, state: dict) -> None:
        self.index = int(state["index"])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CountingIterator) and other.index == self.index
