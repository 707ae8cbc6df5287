"""Chunked n-dimensional array persistence.

Arrays are stored as a regular grid of write chunks (the unit written to
storage, aligned to shard boundaries) optionally subdivided into read
chunks (the smallest readable unit). Two on-disk layouts share the same
chunk grid:

* per-leaf: one object per write chunk at ``<prefix>/<leaf>/c.<i0>.<i1>...``
* aggregated: chunk payloads appended to data files ``<prefix>/d/<file_id>``
  capped near a target size, located through a key-ordered manifest.

No other module knows the layouts: ``ChunkReader.fetch_chunk`` turns a
merged-index location into a read, and ``is_payload_key`` names payload keys.

Chunk payloads are raw row-major little-endian bytes, no compression, so
byte accounting is exact.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

import numpy as np

from . import docio
from .dtypes import itemsize, numpy_dtype
from .errors import (
    AlignmentError,
    ByteRangeError,
    ChunkStoreError,
    ConsistencyError,
    CorruptionError,
    DuplicateChunkError,
    MissingKeyError,
)
from .sharding import Range, segment_axis

if TYPE_CHECKING:  # backend imports is_payload_key from here
    from .backend import Store

PER_LEAF = "per_leaf"
AGGREGATED = "aggregated"
LAYOUTS = (PER_LEAF, AGGREGATED)

DEFAULT_TARGET_FILE_BYTES = 64 * 1024 * 1024

ARRAY_METADATA_FILE = "array_metadata.json"
MANIFEST_FILE = "manifest.json"
DATA_DIR = "d"
FORMAT_VERSION = 1

PROCESS_DIR_RE = re.compile(r"process_(\d+)$")


def process_dir(prefix: str, process: int) -> str:
    """The directory holding one process's chunks and array metadata."""
    return f"{prefix}/process_{process}"


def _divides(part: int, whole: int) -> bool:
    if whole == 0:
        return part == 0
    return part >= 1 and whole % part == 0


@dataclass(frozen=True)
class ArrayStorageMetadata:
    global_shape: tuple[int, ...]
    dtype: str
    shard_shape: tuple[int, ...]
    write_chunk: tuple[int, ...]
    read_chunk: tuple[int, ...]
    layout: str

    def __post_init__(self):
        if self.layout not in LAYOUTS:
            raise ChunkStoreError(f"unknown layout {self.layout!r}")
        if not _grid_consistent(self.global_shape, self.shard_shape):
            raise ChunkStoreError(
                f"shard {self.shard_shape} does not subdivide "
                f"global {self.global_shape}"
            )
        for s, w, r in zip(self.shard_shape, self.write_chunk, self.read_chunk):
            if not _divides(w, s):
                raise ChunkStoreError(
                    f"write chunk {self.write_chunk} does not subdivide "
                    f"shard {self.shard_shape}"
                )
            if not _divides(r, w):
                raise ChunkStoreError(
                    f"read chunk {self.read_chunk} does not subdivide "
                    f"write chunk {self.write_chunk}"
                )
        numpy_dtype(self.dtype)

    @property
    def rank(self) -> int:
        return len(self.global_shape)

    def chunk_counts(self) -> tuple[int, ...]:
        return tuple(
            0 if g == 0 else g // w
            for g, w in zip(self.global_shape, self.write_chunk)
        )

    def total_chunks(self) -> int:
        return math.prod(self.chunk_counts())

    def chunk_nbytes(self) -> int:
        return math.prod(self.write_chunk) * itemsize(self.dtype)

    def to_json(self) -> dict:
        return {
            "global_shape": list(self.global_shape),
            "dtype": self.dtype,
            "shard_shape": list(self.shard_shape),
            "write_chunk": list(self.write_chunk),
            "read_chunk": list(self.read_chunk),
            "layout": self.layout,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ArrayStorageMetadata":
        try:
            return cls(
                tuple(doc["global_shape"]),
                doc["dtype"],
                tuple(doc["shard_shape"]),
                tuple(doc["write_chunk"]),
                tuple(doc["read_chunk"]),
                doc["layout"],
            )
        except (KeyError, TypeError) as e:
            raise CorruptionError(f"malformed array metadata: {e}") from e


def _grid_consistent(global_shape: tuple[int, ...], part: tuple[int, ...]) -> bool:
    return len(part) == len(global_shape) and all(
        _divides(p, g) for p, g in zip(part, global_shape)
    )


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def choose_chunk_shape(
    shard_shape: tuple[int, ...], dtype: str, target_bytes: int
) -> tuple[int, ...]:
    """Pick a read-chunk shape dividing ``shard_shape`` with at most
    ``target_bytes`` per chunk when an even subdivision can achieve it.

    Dimensions are reduced in a fixed priority order (largest input extent
    first, ties to the lowest index): halve while even, otherwise divide by
    the smallest prime factor. If even full reduction cannot reach the
    target, the minimal achievable subdivision (all ones) is returned.
    """
    isz = itemsize(dtype)
    if target_bytes < isz:
        raise ChunkStoreError(
            f"target {target_bytes} B below element size {isz} B"
        )
    chunk = [int(s) for s in shard_shape]
    if 0 in chunk:
        return tuple(chunk)
    order = sorted(range(len(chunk)), key=lambda d: (-shard_shape[d], d))
    for d in order:
        while math.prod(chunk) * isz > target_bytes and chunk[d] > 1:
            if chunk[d] % 2 == 0:
                chunk[d] //= 2
            else:
                chunk[d] //= _smallest_prime_factor(chunk[d])
    return tuple(chunk)


def derive_write_chunk(
    shard_shape: tuple[int, ...], n_segments: int
) -> tuple[int, ...]:
    """Write-chunk shape whose grid aligns with ceil-division segmenting.

    With n=1 the shard itself is the write chunk. Otherwise the segment
    axis extent becomes gcd(ceil(s/n), s): it divides the shard, and every
    ceil-division segment boundary lands on a chunk boundary, so each
    segment is a union of whole chunks.
    """
    if n_segments <= 1 or not shard_shape or 0 in shard_shape:
        return tuple(shard_shape)
    axis = segment_axis(tuple(shard_shape))
    s = shard_shape[axis]
    seg = -(-s // n_segments)
    chunk = list(shard_shape)
    chunk[axis] = math.gcd(seg, s)
    return tuple(chunk)


def coords_key(coords: tuple[int, ...]) -> str:
    if not coords:
        return "0"  # rank-0 arrays get a single pseudo-coordinate
    return ".".join(str(c) for c in coords)


def chunk_object_key(leaf_path: str, ck: str) -> str:
    return f"{leaf_path}/c.{ck}"


def is_payload_key(key: str) -> bool:
    """Whether ``key`` holds chunk payload: a per-leaf chunk object
    (``.../c.<coords>``) or an aggregated data file (``.../d/<file_id>``)."""
    parts = key.split("/")
    last = parts[-1]
    if last.startswith("c.") and len(last) > 2:
        return True
    return len(parts) >= 2 and parts[-2] == DATA_DIR and last.isdigit()


def _covering(ranges: tuple[Range, ...], steps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Grid coordinates whose cells intersect the request ranges."""
    spans = []
    for (off, ext), step in zip(ranges, steps):
        if ext == 0:
            return
        spans.append(range(off // step, (off + ext - 1) // step + 1))
    yield from itertools.product(*spans)


def _cell_ranges(coords: tuple[int, ...], steps: tuple[int, ...]) -> tuple[Range, ...]:
    return tuple((c * s, s) for c, s in zip(coords, steps))


def _intersect(a: tuple[Range, ...], b: tuple[Range, ...]) -> tuple[Range, ...] | None:
    out = []
    for (ao, ae), (bo, be) in zip(a, b):
        lo, hi = max(ao, bo), min(ao + ae, bo + be)
        if lo >= hi:
            return None
        out.append((lo, hi - lo))
    return tuple(out)


def _slab_is_contiguous(extents: tuple[int, ...], shape: tuple[int, ...]) -> bool:
    last_partial = None
    for d, (e, s) in enumerate(zip(extents, shape)):
        if e != s:
            last_partial = d
    if last_partial is None:
        return True
    return all(extents[d] == 1 for d in range(last_partial))


class AggregatedManifest:
    """Chunk-key index into coalesced data files.

    Entries map chunk key -> (file_id, offset, length), held in key order
    so the serialised manifest is canonical. Byte ranges within one file
    must not overlap.
    """

    def __init__(self, entries: dict[str, tuple[int, int, int]], target_file_bytes: int):
        self._entries = dict(sorted(entries.items()))
        self.target_file_bytes = target_file_bytes
        self._validate()

    def _validate(self) -> None:
        by_file: dict[int, list[tuple[int, int]]] = {}
        for fid, off, length in self._entries.values():
            if off < 0 or length < 0:
                raise CorruptionError("negative manifest byte range")
            by_file.setdefault(fid, []).append((off, length))
        for fid, spans in by_file.items():
            spans.sort()
            for (o1, l1), (o2, _) in zip(spans, spans[1:]):
                if o1 + l1 > o2:
                    raise CorruptionError(
                        f"overlapping byte ranges in data file {fid}"
                    )

    def keys(self) -> list[str]:
        return list(self._entries)

    def lookup(self, key: str) -> tuple[int, int, int]:
        try:
            return self._entries[key]
        except KeyError:
            raise MissingKeyError(f"chunk key {key!r} not in manifest") from None

    def to_json(self) -> dict:
        return {
            "target_file_bytes": self.target_file_bytes,
            "entries": {k: list(v) for k, v in self._entries.items()},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "AggregatedManifest":
        try:
            entries = {
                k: (int(f), int(o), int(l))
                for k, (f, o, l) in doc["entries"].items()
            }
            return cls(entries, int(doc["target_file_bytes"]))
        except (KeyError, TypeError, ValueError) as e:
            raise CorruptionError(f"malformed manifest: {e}") from e


class ProcessArrayWriter:
    """Writes one process's array chunks under its own key prefix.

    All arrays of one save share the writer so the aggregated layout can
    coalesce chunks across arrays into few data files. Each chunk is copied
    once, into the bytes ``finish`` puts: by ``tobytes`` per leaf, by one
    join per aggregated data file when ``seal`` closes it, so the caller's
    buffers must stay unchanged until ``seal``. (An aggregated chunk that
    is not contiguous in its buffer is gathered before the join.)
    """

    def __init__(
        self,
        store: Store,
        prefix: str,
        layout: str,
        target_file_bytes: int = DEFAULT_TARGET_FILE_BYTES,
    ):
        if layout not in LAYOUTS:
            raise ChunkStoreError(f"unknown layout {layout!r}")
        self._store = store
        self._prefix = prefix.rstrip("/")
        self._layout = layout
        self._target = target_file_bytes
        self._metas: dict[str, ArrayStorageMetadata] = {}
        self._shardings: dict[str, Optional[dict]] = {}
        self._chunks: dict[str, set[str]] = {}
        self._manifest_entries: dict[str, tuple[int, int, int]] = {}
        self._staged: list[tuple[str, bytes]] = []  # (key, payload) to put
        self._parts: list[np.ndarray] = []  # the open data file's chunk views
        self._size = 0
        self._finished = False

    def declare_array(
        self,
        leaf_path: str,
        meta: ArrayStorageMetadata,
        sharding_descriptor: dict | None = None,
    ) -> None:
        """Record storage metadata for a leaf, with or without local chunks."""
        if meta.layout != self._layout:
            raise ChunkStoreError("array layout differs from writer layout")
        known = self._metas.get(leaf_path)
        if known is not None and known != meta:
            raise ConsistencyError(f"conflicting metadata for {leaf_path!r}")
        self._metas[leaf_path] = meta
        self._shardings.setdefault(leaf_path, sharding_descriptor)
        self._chunks.setdefault(leaf_path, set())

    def write_array(
        self,
        leaf_path: str,
        shards: Iterable[tuple[tuple[Range, ...], np.ndarray]],
        meta: ArrayStorageMetadata,
        sharding_descriptor: dict | None = None,
    ) -> list[str]:
        """Stage shard data as whole write chunks; returns their keys.

        Every shard's ranges must align to the write-chunk grid and carry
        exactly the bytes for its ranges.
        """
        self.declare_array(leaf_path, meta, sharding_descriptor)
        nd = numpy_dtype(meta.dtype)
        written = []
        for ranges, values in shards:
            values = np.asarray(values, nd)
            if len(ranges) != meta.rank:
                raise AlignmentError(f"rank mismatch for {leaf_path!r}")
            for (off, ext), w, g in zip(ranges, meta.write_chunk, meta.global_shape):
                if off < 0 or off + ext > g:
                    raise AlignmentError(
                        f"range ({off}, {ext}) outside global extent {g} "
                        f"for {leaf_path!r}"
                    )
                if ext and (off % w or ext % w):
                    raise AlignmentError(
                        f"range ({off}, {ext}) of {leaf_path!r} not aligned "
                        f"to write chunk {meta.write_chunk}"
                    )
            if tuple(values.shape) != tuple(e for _, e in ranges):
                raise AlignmentError(
                    f"shard buffer shape {values.shape} does not match "
                    f"ranges {ranges} for {leaf_path!r}"
                )
            if values.shape == meta.write_chunk and values.size:  # one write chunk
                coords = tuple(off // e for off, e in ranges)
                written.append(self._stage_chunk(leaf_path, coords, values))
                continue
            for coords in _covering(ranges, meta.write_chunk):
                sel = tuple(
                    slice(c * w - off, (c + 1) * w - off)
                    for c, w, (off, _) in zip(coords, meta.write_chunk, ranges)
                )
                written.append(self._stage_chunk(leaf_path, coords, values[sel]))
        return written

    def _stage_chunk(self, leaf_path: str, coords: tuple[int, ...], chunk: np.ndarray) -> str:
        ck = coords_key(coords)
        seen = self._chunks[leaf_path]
        if ck in seen:
            raise DuplicateChunkError(
                f"chunk {ck} of {leaf_path!r} written twice"
            )
        seen.add(ck)
        rel_key = chunk_object_key(leaf_path, ck)
        if self._layout == PER_LEAF:
            self._staged.append((f"{self._prefix}/{rel_key}", chunk.tobytes()))
            return self._staged[-1][0]
        if self._parts and self._size + chunk.nbytes > self._target:
            self.seal()
        file_id = len(self._staged)  # only data files are staged here
        self._manifest_entries[rel_key] = (file_id, self._size, chunk.nbytes)
        self._parts.append(np.ascontiguousarray(chunk))
        self._size += chunk.nbytes
        return f"{self._prefix}/{DATA_DIR}/{file_id}"

    def seal(self) -> None:
        """Close the open data file: join its chunk views into its bytes."""
        if self._parts:
            key = f"{self._prefix}/{DATA_DIR}/{len(self._staged)}"
            self._staged.append((key, b"".join(self._parts)))
            self._parts, self._size = [], 0

    def finish(self) -> dict:
        """Put the staged chunks, then the metadata; returns the document."""
        if self._finished:
            raise ChunkStoreError("writer already finished")
        self._finished = True
        self.seal()
        for key, payload in self._staged:
            self._store.put(key, payload)
        if self._layout == AGGREGATED:
            manifest = AggregatedManifest(self._manifest_entries, self._target)
            self._store.put(
                f"{self._prefix}/{MANIFEST_FILE}",
                docio.dumps_canonical(manifest.to_json()),
            )
        doc = {
            "format_version": FORMAT_VERSION,
            "layout": self._layout,
            "arrays": {
                leaf: {
                    **meta.to_json(),
                    "sharding": self._shardings.get(leaf),
                    "chunks": sorted(self._chunks[leaf]),
                }
                for leaf, meta in self._metas.items()
            },
        }
        self._store.put(
            f"{self._prefix}/{ARRAY_METADATA_FILE}", docio.dumps_canonical(doc)
        )
        return doc


@dataclass
class ReadStats:
    bytes_requested: int = 0
    bytes_loaded: int = 0


class ChunkReader:
    """Reads array ranges out of a finalized checkpoint via its merged index."""

    def __init__(self, store: Store, ckpt_prefix: str, merged_index: dict):
        self._store = store
        self._prefix = ckpt_prefix.rstrip("/")
        self._arrays = merged_index.get("arrays", {})
        self._metas: dict[str, ArrayStorageMetadata] = {}

    def metadata_for(self, leaf_path: str) -> ArrayStorageMetadata:
        if leaf_path not in self._metas:  # parsed once per reader
            if leaf_path not in self._arrays:
                raise CorruptionError(f"leaf {leaf_path!r} missing from merged index")
            self._metas[leaf_path] = ArrayStorageMetadata.from_json(self._arrays[leaf_path])
        return self._metas[leaf_path]

    def fetch_chunk(
        self, leaf_path: str, ck: str, byte_off: int = 0, nbytes: int | None = None
    ) -> bytes | memoryview:
        """``nbytes`` from ``byte_off`` inside one write chunk, or the whole
        chunk, checked to be ``chunk_nbytes()`` long, when ``nbytes`` is None;
        an aggregated chunk whose manifest length is wrong is not read. A
        range past the end of a truncated chunk raises CorruptionError; a
        padded chunk read by range goes undetected until chunks carry checksums."""
        expected = self.metadata_for(leaf_path).chunk_nbytes()
        loc = self._arrays[leaf_path]["chunks"].get(ck)
        if loc is None:
            raise CorruptionError(
                f"chunk {ck} of {leaf_path!r} missing from merged index"
            )
        pdir = process_dir(self._prefix, loc["p"])
        if "f" in loc:
            key, base = f"{pdir}/{DATA_DIR}/{loc['f']}", loc["o"]
        else:
            key, base = f"{pdir}/{chunk_object_key(leaf_path, ck)}", 0
        if nbytes is not None:
            try:
                return self._store.get_range(key, base + byte_off, nbytes)
            except ByteRangeError as e:
                raise CorruptionError(f"{leaf_path} chunk {ck}: {e}") from e
        data = None if "f" in loc else self._store.get(key)
        size = loc["l"] if data is None else len(data)
        if size != expected:
            raise CorruptionError(
                f"{leaf_path} chunk {ck}: {size} bytes, expected {expected}"
            )
        return self._store.get_range(key, base, size) if data is None else data

    def read_range(
        self, leaf_path: str, ranges: tuple[Range, ...], out: np.ndarray | None = None
    ) -> tuple[np.ndarray, ReadStats]:
        """Assemble exactly the requested elements, loading the minimal set
        of read chunks that covers them, into ``out`` (the caller's view of
        the box's shape and the leaf's dtype) or a new array, returned.

        A write chunk is fetched whole, once, when every one of its read
        chunks is needed or when its read chunks are not contiguous in its
        row-major buffer; the requested part is copied straight out of it
        and bytes_loaded counts the full fetch. Otherwise each needed read
        chunk is fetched with its own byte-range read.
        """
        meta = self.metadata_for(leaf_path)
        nd = numpy_dtype(meta.dtype)
        isz = nd.itemsize
        if len(ranges) != meta.rank:
            raise ChunkStoreError(f"rank mismatch reading {leaf_path!r}")
        for (off, ext), g in zip(ranges, meta.global_shape):
            if off < 0 or ext < 0 or off + ext > g:
                raise ChunkStoreError(
                    f"range ({off}, {ext}) outside global extent {g}"
                )
        extents = tuple(e for _, e in ranges)
        out = np.empty(extents, nd) if out is None else out
        if out.shape != extents or out.dtype != nd:
            raise ChunkStoreError(
                f"destination {out.dtype}{out.shape} does not fit {leaf_path!r}"
            )
        stats = ReadStats(bytes_requested=int(np.prod(extents)) * isz)
        if 0 in extents:
            return out, stats

        w, r = meta.write_chunk, meta.read_chunk
        subs_per_chunk = math.prod(wi // ri for wi, ri in zip(w, r))
        contiguous = _slab_is_contiguous(r, w)
        strides = _strides(w)
        sub_nbytes = math.prod(r) * isz
        for coords in _covering(ranges, w):
            ck = coords_key(coords)
            chunk_ranges = _cell_ranges(coords, w)
            needed = list(_covering(_intersect(ranges, chunk_ranges), r))
            if len(needed) == subs_per_chunk or not contiguous:
                chunk = np.frombuffer(self.fetch_chunk(leaf_path, ck), nd).reshape(w)
                stats.bytes_loaded += meta.chunk_nbytes()
                _copy_overlap(out, ranges, chunk, chunk_ranges)
                continue
            for sub in needed:
                sub_ranges = _cell_ranges(sub, r)
                first = sum(
                    (so - co) * stride
                    for (so, _), (co, _), stride in zip(
                        sub_ranges, chunk_ranges, strides
                    )
                )
                raw = self.fetch_chunk(leaf_path, ck, first * isz, sub_nbytes)
                stats.bytes_loaded += sub_nbytes
                _copy_overlap(
                    out, ranges, np.frombuffer(raw, nd).reshape(r), sub_ranges
                )
        return out, stats


def _copy_overlap(
    dst: np.ndarray,
    dst_ranges: tuple[Range, ...],
    src: np.ndarray,
    src_ranges: tuple[Range, ...],
) -> None:
    """Copy the elements two global boxes share from ``src`` into ``dst``."""
    hit = _intersect(src_ranges, dst_ranges)
    if hit is None:
        return

    def local(box: tuple[Range, ...]) -> tuple[slice, ...]:
        return tuple(
            slice(ho - bo, ho - bo + he) for (ho, he), (bo, _) in zip(hit, box)
        )

    dst[local(dst_ranges)] = src[local(src_ranges)]


def _strides(shape: tuple[int, ...]) -> tuple[int, ...]:
    out = [1] * len(shape)
    for d in range(len(shape) - 2, -1, -1):
        out[d] = out[d + 1] * shape[d + 1]
    return tuple(out)


def _process_doc(store: Store, key: str, what: str) -> dict:
    """A per-process document; one that is missing is a ConsistencyError."""
    try:
        return docio.loads(store.get(key), what=what)
    except MissingKeyError:
        raise ConsistencyError(f"missing {what}") from None


def merge_process_indices(
    store: Store, ckpt_prefix: str, process_count: int
) -> dict:
    """Build the merged index from per-process metadata documents.

    References chunk locations without touching payload bytes; validates
    that all processes agree on every array's shape, dtype, and chunk
    shapes, that no chunk coordinate is claimed twice, and that the final
    grid is complete.
    """
    prefix = ckpt_prefix.rstrip("/")
    layout: str | None = None
    arrays: dict[str, dict] = {}
    metas: dict[str, ArrayStorageMetadata] = {}
    leaf_sets: list[set[str]] = []
    for p in range(process_count):
        pdir = process_dir(prefix, p)
        doc = _process_doc(
            store, f"{pdir}/{ARRAY_METADATA_FILE}", f"array metadata for process {p}"
        )
        if layout is None:
            layout = doc.get("layout")
        elif doc.get("layout") != layout:
            raise ConsistencyError(
                f"process {p} layout {doc.get('layout')!r} != {layout!r}"
            )
        manifest = None
        if layout == AGGREGATED:
            manifest = AggregatedManifest.from_json(
                _process_doc(
                    store, f"{pdir}/{MANIFEST_FILE}", f"manifest for process {p}"
                )
            )
        leaf_sets.append(set(doc.get("arrays", {})))
        for leaf, entry in doc.get("arrays", {}).items():
            meta = ArrayStorageMetadata.from_json(entry)
            if leaf not in metas:
                metas[leaf] = meta
                arrays[leaf] = {
                    **meta.to_json(),
                    "sharding": entry.get("sharding"),
                    "chunks": {},
                }
            elif metas[leaf] != meta:
                raise ConsistencyError(
                    f"process {p} disagrees on storage metadata for {leaf!r}"
                )
            elif arrays[leaf]["sharding"] != entry.get("sharding"):
                raise ConsistencyError(
                    f"process {p} disagrees on sharding for {leaf!r}"
                )
            chunks = arrays[leaf]["chunks"]
            for ck in entry.get("chunks", []):
                if ck in chunks:
                    raise DuplicateChunkError(
                        f"chunk {ck} of {leaf!r} claimed by processes "
                        f"{chunks[ck]['p']} and {p}"
                    )
                loc: dict = {"p": p}
                if manifest is not None:
                    fid, off, length = manifest.lookup(chunk_object_key(leaf, ck))
                    loc.update({"f": fid, "o": off, "l": length})
                chunks[ck] = loc
    if any(s != set(arrays) for s in leaf_sets):
        raise ConsistencyError("processes disagree on the array leaf set")
    for leaf, entry in arrays.items():
        expected = metas[leaf].total_chunks()
        if len(entry["chunks"]) != expected:
            raise ConsistencyError(
                f"{leaf!r} has {len(entry['chunks'])} of {expected} chunks"
            )
    return {
        "format_version": FORMAT_VERSION,
        "layout": layout or PER_LEAF,
        "arrays": arrays,
    }
