"""Chunked n-dimensional array persistence.

Arrays are stored as a regular grid of write chunks (the unit written to
storage, aligned to shard boundaries) optionally subdivided into read
chunks (the smallest readable unit). Two on-disk layouts share the same
chunk grid:

* per-leaf: one object per write chunk at ``<prefix>/<leaf>/c.<i0>.<i1>...``
* aggregated: chunk payloads appended to data files ``<prefix>/d/<file_id>``
  capped near a target size, located through a sorted manifest.

Chunk payloads are raw row-major little-endian bytes, no compression, so
byte accounting is exact.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from . import docio
from .backend import Store
from .dtypes import itemsize, numpy_dtype
from .errors import (
    AlignmentError,
    ChunkStoreError,
    ConsistencyError,
    CorruptionError,
    DuplicateChunkError,
    MissingKeyError,
)
from .sharding import Range, segment_axis

PER_LEAF = "per_leaf"
AGGREGATED = "aggregated"
LAYOUTS = (PER_LEAF, AGGREGATED)

DEFAULT_TARGET_FILE_BYTES = 64 * 1024 * 1024

ARRAY_METADATA_FILE = "array_metadata.json"
MANIFEST_FILE = "manifest.json"
DATA_DIR = "d"


def _divides(part: int, whole: int) -> bool:
    if whole == 0:
        return part == 0
    return part >= 1 and whole % part == 0


@dataclass(frozen=True)
class ChunkGrid:
    """Write-chunk / read-subchunk shapes for one shard grid."""

    shard_shape: tuple[int, ...]
    write_chunk: tuple[int, ...]
    read_chunk: tuple[int, ...]

    def __post_init__(self):
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
        ChunkGrid(self.shard_shape, self.write_chunk, self.read_chunk)
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


def chunk_location(
    prefix: str, leaf_path: str, ck: str, loc: dict
) -> tuple[str, int]:
    """Storage key and byte offset of one chunk from its merged-index entry.

    A per-leaf chunk is a whole object (offset 0); an aggregated chunk sits
    at offset ``loc["o"]`` inside a data file of its process.
    """
    pdir = f"{prefix}/process_{loc['p']}"
    if "f" in loc:
        return f"{pdir}/{DATA_DIR}/{loc['f']}", loc["o"]
    return f"{pdir}/{chunk_object_key(leaf_path, ck)}", 0


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
    """Sorted chunk-key index into coalesced data files.

    Entries map chunk key -> (file_id, offset, length); keys are kept
    sorted so lookups are O(log n). Byte ranges within one file must not
    overlap.
    """

    def __init__(self, entries: dict[str, tuple[int, int, int]], target_file_bytes: int):
        self._keys = sorted(entries)
        self._locs = [entries[k] for k in self._keys]
        self.target_file_bytes = target_file_bytes
        self._validate()

    def _validate(self) -> None:
        by_file: dict[int, list[tuple[int, int]]] = {}
        for fid, off, length in self._locs:
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
        return list(self._keys)

    def lookup(self, key: str) -> tuple[int, int, int]:
        i = bisect_left(self._keys, key)
        if i == len(self._keys) or self._keys[i] != key:
            raise MissingKeyError(f"chunk key {key!r} not in manifest")
        return self._locs[i]

    def to_json(self) -> dict:
        return {
            "target_file_bytes": self.target_file_bytes,
            "entries": {k: list(v) for k, v in zip(self._keys, self._locs)},
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
    coalesce chunks across arrays into few data files. ``finish`` emits the
    per-process metadata document (and manifest for the aggregated layout).
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
        self._buffer = bytearray()
        self._file_id = 0
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
        """Store shard data as whole write chunks; returns the written keys.

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
            for coords in _covering(ranges, meta.write_chunk):
                sel = tuple(
                    slice(c * w - off, (c + 1) * w - off)
                    for c, w, (off, _) in zip(coords, meta.write_chunk, ranges)
                )
                payload = np.ascontiguousarray(values[sel]).tobytes()
                written.append(self._put_chunk(leaf_path, coords, payload))
        return written

    def _put_chunk(self, leaf_path: str, coords: tuple[int, ...], payload: bytes) -> str:
        ck = coords_key(coords)
        seen = self._chunks[leaf_path]
        if ck in seen:
            raise DuplicateChunkError(
                f"chunk {ck} of {leaf_path!r} written twice"
            )
        seen.add(ck)
        rel_key = chunk_object_key(leaf_path, ck)
        if self._layout == PER_LEAF:
            full = f"{self._prefix}/{rel_key}"
            self._store.put(full, payload)
            return full
        if self._buffer and len(self._buffer) + len(payload) > self._target:
            self._flush_file()
        self._manifest_entries[rel_key] = (
            self._file_id,
            len(self._buffer),
            len(payload),
        )
        self._buffer.extend(payload)
        return f"{self._prefix}/{DATA_DIR}/{self._file_id}"

    def _flush_file(self) -> None:
        self._store.put(
            f"{self._prefix}/{DATA_DIR}/{self._file_id}", bytes(self._buffer)
        )
        self._buffer = bytearray()
        self._file_id += 1

    def finish(self) -> dict:
        """Write the per-process metadata document; returns its contents."""
        if self._finished:
            raise ChunkStoreError("writer already finished")
        self._finished = True
        if self._layout == AGGREGATED:
            if self._buffer:
                self._flush_file()
            manifest = AggregatedManifest(self._manifest_entries, self._target)
            self._store.put(
                f"{self._prefix}/{MANIFEST_FILE}",
                docio.dumps_canonical(manifest.to_json()),
            )
        doc = {
            "format_version": 1,
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
        self._arrays = merged_index["arrays"]

    def metadata_for(self, leaf_path: str) -> ArrayStorageMetadata:
        try:
            return ArrayStorageMetadata.from_json(self._arrays[leaf_path])
        except KeyError:
            raise CorruptionError(
                f"leaf {leaf_path!r} missing from merged index"
            ) from None

    def _fetch(
        self, leaf_path: str, ck: str, byte_off: int = 0, nbytes: int | None = None
    ) -> bytes:
        """``nbytes`` from ``byte_off`` inside one write chunk, or the whole
        chunk when ``nbytes`` is None. A whole per-leaf chunk is one ``get``;
        everything else is a ``get_range``."""
        loc = self._arrays[leaf_path]["chunks"].get(ck)
        if loc is None:
            raise CorruptionError(
                f"chunk {ck} of {leaf_path!r} missing from merged index"
            )
        key, base = chunk_location(self._prefix, leaf_path, ck, loc)
        if nbytes is None:
            if "f" not in loc:
                return self._store.get(key)
            nbytes = loc["l"]
        return self._store.get_range(key, base + byte_off, nbytes)

    def read_range(
        self, leaf_path: str, ranges: tuple[Range, ...]
    ) -> tuple[np.ndarray, ReadStats]:
        """Assemble exactly the requested elements, loading the minimal set
        of read chunks that covers them.

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
        out = np.empty(extents, nd)
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
                chunk = np.frombuffer(self._fetch(leaf_path, ck), nd).reshape(w)
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
                raw = self._fetch(leaf_path, ck, first * isz, sub_nbytes)
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
        pdir = f"{prefix}/process_{p}"
        try:
            doc = docio.loads(
                store.get(f"{pdir}/{ARRAY_METADATA_FILE}"),
                what=f"process {p} array metadata",
            )
        except MissingKeyError:
            raise ConsistencyError(
                f"missing array metadata for process {p}"
            ) from None
        if layout is None:
            layout = doc.get("layout")
        elif doc.get("layout") != layout:
            raise ConsistencyError(
                f"process {p} layout {doc.get('layout')!r} != {layout!r}"
            )
        manifest = None
        if layout == AGGREGATED:
            try:
                manifest = AggregatedManifest.from_json(
                    docio.loads(
                        store.get(f"{pdir}/{MANIFEST_FILE}"),
                        what=f"process {p} manifest",
                    )
                )
            except MissingKeyError:
                raise ConsistencyError(
                    f"missing manifest for process {p}"
                ) from None
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
        "format_version": 1,
        "layout": layout or PER_LEAF,
        "arrays": arrays,
    }
