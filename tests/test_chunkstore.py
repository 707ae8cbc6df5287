import itertools
import math
import os
import random
from pathlib import Path

import numpy as np
import pytest

from conftest import DTYPES
from oracles import bytes_loaded_oracle, pack_files, slab_contiguous
from treevault import FaultPlan, FilesystemBackend, MemoryBackend
from treevault.chunkstore import (
    AGGREGATED,
    AggregatedManifest,
    ArrayStorageMetadata,
    ChunkReader,
    PER_LEAF,
    ProcessArrayWriter,
    choose_chunk_shape,
    derive_write_chunk,
    is_payload_key,
    merge_process_indices,
)
from treevault.dtypes import numpy_dtype
from treevault.errors import (
    AlignmentError,
    BackendError,
    ChunkStoreError,
    ConsistencyError,
    CorruptionError,
    DuplicateChunkError,
    MissingKeyError,
    SimulatedCrashError,
)


def meta_for(shape, dtype="f32", shard=None, write=None, read=None, layout=PER_LEAF):
    shard = tuple(shard or shape)
    write = tuple(write or shard)
    read = tuple(read or write)
    return ArrayStorageMetadata(tuple(shape), dtype, shard, write, read, layout)


def full_ranges(shape):
    return tuple((0, e) for e in shape)


def single_writer_checkpoint(backend, arrays, layout=PER_LEAF, target=1 << 20):
    """Write whole arrays from one process and return a reader."""
    store = backend.store("p0")
    writer = ProcessArrayWriter(store, "ck/process_0", layout, target)
    for leaf, (data, meta) in arrays.items():
        writer.write_array(leaf, [(full_ranges(data.shape), data)], meta)
    writer.finish()
    merged = merge_process_indices(store, "ck", 1)
    return ChunkReader(store, "ck", merged), merged, store


class TestChooseChunkShape:
    def test_frozen_example_64x64(self):
        assert choose_chunk_shape((64, 64), "f32", 4096) == (16, 64)

    def test_under_target_is_identity(self):
        assert choose_chunk_shape((8, 8), "f32", 4096) == (8, 8)

    def test_16x16_at_32mib(self):
        assert choose_chunk_shape((16, 16), "f32", 32 * 1024 * 1024) == (16, 16)

    def test_odd_extent_uses_smallest_prime_factor(self):
        # 15 -> /3 -> 5 (20 B, over a 16 B target) -> /5 -> 1
        assert choose_chunk_shape((15,), "f32", 16) == (1,)
        # 15 -> /3 -> 5 (20 B fits a 32 B target)
        assert choose_chunk_shape((15,), "f32", 32) == (5,)
        assert choose_chunk_shape((49,), "f64", 60) == (7,)

    def test_unreachable_target_returns_minimal(self):
        assert choose_chunk_shape((1, 1), "f64", 8) == (1, 1)
        with pytest.raises(ChunkStoreError):
            choose_chunk_shape((4,), "f64", 4)  # below element size

    def test_brute_force_properties(self):
        rng = random.Random(5)
        for _ in range(200):
            shape = tuple(rng.choice([1, 2, 3, 4, 6, 8, 12, 16, 60]) for _ in range(rng.randint(1, 3)))
            dtype = rng.choice(DTYPES)
            isz = numpy_dtype(dtype).itemsize
            target = rng.choice([isz, 16, 64, 256, 4096])
            got = choose_chunk_shape(shape, dtype, target)
            # divides the input shape per-dim
            assert all(s % c == 0 for s, c in zip(shape, got))
            # within target, or nothing smaller exists at all
            divisor_grids = [
                g
                for g in itertools.product(
                    *[[d for d in range(1, s + 1) if s % d == 0] for s in shape]
                )
            ]
            achievable = [
                g for g in divisor_grids if math.prod(g) * isz <= target
            ]
            if achievable:
                assert math.prod(got) * isz <= target
            else:
                assert got == tuple(1 for _ in shape)
            # deterministic
            assert choose_chunk_shape(shape, dtype, target) == got


class TestDeriveWriteChunk:
    def test_identity_for_single_segment(self):
        assert derive_write_chunk((16, 16), 1) == (16, 16)

    @pytest.mark.parametrize(
        "shard,n,expected",
        [
            ((1024,), 4, (256,)),
            ((10,), 4, (1,)),  # gcd(3, 10) = 1
            ((8, 4), 4, (2, 4)),
            ((4, 16), 2, (4, 8)),  # splits the largest dim
        ],
    )
    def test_segment_alignment(self, shard, n, expected):
        got = derive_write_chunk(shard, n)
        assert got == expected
        # every ceil-division segment boundary lands on a chunk boundary
        from oracles import ceil_segments
        from treevault.sharding import segment_axis

        axis = segment_axis(shard)
        for lo, hi in ceil_segments(shard[axis], n):
            assert lo % got[axis] == 0 and hi % got[axis] in (0, shard[axis] % got[axis])
            assert lo % got[axis] == 0
            assert hi % got[axis] == 0 or hi == shard[axis]


class TestGridValidation:
    def test_read_must_divide_write(self):
        with pytest.raises(ChunkStoreError):
            meta_for((8, 8), shard=(8, 8), write=(8, 8), read=(3, 8))

    def test_write_must_divide_shard(self):
        with pytest.raises(ChunkStoreError):
            meta_for((8, 8), shard=(8, 8), write=(5, 8), read=(5, 8))

    def test_shard_must_divide_global(self):
        with pytest.raises(ChunkStoreError):
            meta_for((10, 4), shard=(4, 4))


class TestWriteArray:
    def test_single_chunk_per_leaf_key(self, backend):
        data = np.arange(4, dtype=np.float32).reshape(2, 2)
        store = backend.store("p0")
        writer = ProcessArrayWriter(store, "ck/process_0", PER_LEAF)
        keys = writer.write_array("w", [(full_ranges((2, 2)), data)], meta_for((2, 2)))
        assert keys == ["ck/process_0/w/c.0.0"]
        writer.finish()
        assert backend.dump()["ck/process_0/w/c.0.0"] == data.tobytes()

    def test_subchunks_addressable(self, backend):
        data = np.arange(256, dtype=np.float32).reshape(16, 16)
        meta = meta_for((16, 16), read=(4, 16))
        reader, _, store = single_writer_checkpoint(backend, {"w": (data, meta)})
        for i in range(4):
            out, stats = reader.read_range("w", ((4 * i, 4), (0, 16)))
            assert np.array_equal(out, data[4 * i : 4 * i + 4])
            assert stats.bytes_loaded == stats.bytes_requested == 4 * 16 * 4

    def test_misaligned_shard_rejected(self, backend):
        writer = ProcessArrayWriter(backend.store("p0"), "ck/process_0", PER_LEAF)
        meta = meta_for((8,), shard=(4,))
        with pytest.raises(AlignmentError):
            writer.write_array("w", [(((2, 4),), np.zeros(4, np.float32))], meta)

    def test_wrong_buffer_shape_rejected(self, backend):
        writer = ProcessArrayWriter(backend.store("p0"), "ck/process_0", PER_LEAF)
        with pytest.raises(AlignmentError):
            writer.write_array(
                "w", [(((0, 4),), np.zeros(8, np.float32))], meta_for((4,))
            )

    def test_duplicate_chunk_rejected(self, backend):
        writer = ProcessArrayWriter(backend.store("p0"), "ck/process_0", PER_LEAF)
        meta = meta_for((4,))
        writer.write_array("w", [(full_ranges((4,)), np.zeros(4, np.float32))], meta)
        with pytest.raises(DuplicateChunkError):
            writer.write_array(
                "w", [(full_ranges((4,)), np.zeros(4, np.float32))], meta
            )

    @pytest.mark.parametrize("layout", [PER_LEAF, AGGREGATED])
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(), (3, 4)])
    def test_staged_views_write_row_major_bytes(self, backend, layout, dtype, shape):
        nd = numpy_dtype(dtype)
        data = (np.arange(math.prod(shape)) % 7).astype(nd).reshape(shape)
        meta = meta_for(shape, dtype, layout=layout)
        writer = ProcessArrayWriter(backend.store("p0"), "ck/process_0", layout)
        writer.write_array("w", [(full_ranges(shape), data)], meta)
        writer.finish()
        payload = {k: v for k, v in backend.dump().items() if is_payload_key(k)}
        assert list(payload.values()) == [data.tobytes()]
        assert backend.counters().payload_bytes_written == data.nbytes

    def test_rank0_pseudo_coordinate(self, backend):
        data = np.array(5.0, np.float32)
        meta = meta_for(())
        reader, merged, _ = single_writer_checkpoint(backend, {"s": (data, meta)})
        assert "ck/process_0/s/c.0" in backend.dump()
        out, _ = reader.read_range("s", ())
        assert out[()] == 5.0

    def test_aggregated_packing_matches_simulation(self, backend):
        # 64 chunks of 4 KiB against a 1 MiB file target: one data file.
        data = np.arange(64 * 1024, dtype=np.float32).reshape(64, 1024)
        meta = meta_for((64, 1024), shard=(1, 1024), layout=AGGREGATED)
        reader, merged, store = single_writer_checkpoint(
            backend, {"w": (data, meta)}, layout=AGGREGATED, target=1 << 20
        )
        files = [k for k in backend.dump() if "/d/" in k]
        chunk_sizes = [4096] * 64
        assert len(files) == len(pack_files(chunk_sizes, 1 << 20)) == 1
        out, _ = reader.read_range("w", full_ranges((64, 1024)))
        assert np.array_equal(out, data)

    @pytest.mark.parametrize("target,expected_sizes", [
        (4096, [4096] * 8),
        (10000, [8192, 8192, 8192, 8192]),
        (1 << 20, [8 * 4096]),
    ])
    def test_packing_file_sizes(self, backend, target, expected_sizes):
        data = np.zeros((8, 1024), np.float32)
        meta = meta_for((8, 1024), shard=(1, 1024), layout=AGGREGATED)
        single_writer_checkpoint(
            backend, {"w": (data, meta)}, layout=AGGREGATED, target=target
        )
        sizes = [
            len(v) for k, v in sorted(backend.dump().items()) if "/d/" in k
        ]
        assert sizes == pack_files([4096] * 8, target) == expected_sizes


class TestReadRange:
    def test_aligned_full_chunk(self, backend):
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        meta = meta_for((8, 8), shard=(4, 8))
        reader, _, _ = single_writer_checkpoint(backend, {"w": (data, meta)})
        out, stats = reader.read_range("w", ((0, 4), (0, 8)))
        assert np.array_equal(out, data[:4])
        assert stats.bytes_loaded == stats.bytes_requested

    def test_unsubchunked_overhead_ratio_4(self, backend):
        data = np.arange(256 * 64, dtype=np.float32).reshape(256, 64)
        meta = meta_for((256, 64), shard=(16, 16))
        reader, _, _ = single_writer_checkpoint(backend, {"w": (data, meta)})
        out, stats = reader.read_range("w", ((0, 4), (0, 64)))
        assert np.array_equal(out, data[:4])
        assert stats.bytes_loaded / stats.bytes_requested == 4.0

    def test_subchunked_overhead_ratio_1(self, backend):
        data = np.arange(256 * 64, dtype=np.float32).reshape(256, 64)
        meta = meta_for((256, 64), shard=(16, 16), read=(4, 16))
        reader, _, _ = single_writer_checkpoint(backend, {"w": (data, meta)})
        out, stats = reader.read_range("w", ((0, 4), (0, 64)))
        assert np.array_equal(out, data[:4])
        assert stats.bytes_loaded / stats.bytes_requested == 1.0

    def test_missing_chunk_is_corruption(self, backend):
        data = np.zeros((4, 4), np.float32)
        meta = meta_for((4, 4))
        reader, merged, store = single_writer_checkpoint(backend, {"w": (data, meta)})
        del merged["arrays"]["w"]["chunks"]["0.0"]
        with pytest.raises(CorruptionError):
            ChunkReader(store, "ck", merged).read_range("w", full_ranges((4, 4)))

    def test_deleted_chunk_object_fails(self, backend):
        data = np.zeros((4, 4), np.float32)
        reader, _, store = single_writer_checkpoint(
            backend, {"w": (data, meta_for((4, 4)))}
        )
        store.delete("ck/process_0/w/c.0.0")
        with pytest.raises(MissingKeyError):
            reader.read_range("w", full_ranges((4, 4)))

    @pytest.mark.parametrize("change", [-4, 4], ids=["truncated", "padded"])
    def test_wrong_size_per_leaf_chunk_names_leaf_and_chunk(self, backend, change):
        data = np.arange(8, dtype=np.float32).reshape(2, 4)
        reader, _, store = single_writer_checkpoint(
            backend, {"w": (data, meta_for((2, 4)))}
        )
        key = "ck/process_0/w/c.0.0"
        stored = backend.dump()[key]
        store.put(key, stored[:change] if change < 0 else stored + bytes(change))
        with pytest.raises(CorruptionError, match=r"^w chunk 0\.0: "):
            reader.read_range("w", full_ranges((2, 4)))
        with pytest.raises(CorruptionError, match=f"{32 + change} bytes, expected 32"):
            reader.fetch_chunk("w", "0.0")

    def test_wrong_manifest_length_reads_nothing(self, backend):
        data = np.arange(8, dtype=np.float32)
        reader, merged, store = single_writer_checkpoint(
            backend, {"w": (data, meta_for((8,), layout=AGGREGATED))}, layout=AGGREGATED
        )
        merged["arrays"]["w"]["chunks"]["0"]["l"] = 28
        before = backend.counters()
        with pytest.raises(CorruptionError, match="w chunk 0: 28 bytes, expected 32"):
            ChunkReader(store, "ck", merged).fetch_chunk("w", "0")
        assert backend.counters().minus(before).op_count() == 0

    def test_storage_metadata_parsed_once_per_reader(self, backend, monkeypatch):
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        reader, _, _ = single_writer_checkpoint(
            backend, {"w": (data, meta_for((8, 8), shard=(2, 8)))}
        )
        parses = []
        real = ArrayStorageMetadata.from_json.__func__

        def counted(cls, doc):
            parses.append(doc)
            return real(cls, doc)

        monkeypatch.setattr(ArrayStorageMetadata, "from_json", classmethod(counted))
        for i in range(4):
            out, _ = reader.read_range("w", ((2 * i, 2), (0, 8)))
            assert np.array_equal(out, data[2 * i : 2 * i + 2])
        assert len(parses) == 1

    @pytest.mark.parametrize("layout", [PER_LEAF, AGGREGATED])
    @pytest.mark.parametrize("read", [(4, 8), (1, 8)], ids=["whole", "byte_range"])
    def test_reads_into_given_view(self, backend, layout, read):
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        meta = meta_for((8, 8), shard=(4, 8), read=read, layout=layout)
        reader, _, _ = single_writer_checkpoint(backend, {"w": (data, meta)}, layout)
        dest = np.full((8, 12), -1, np.float32)
        view = dest[2:6, 3:11]  # strided: a box inside a wider destination
        out, stats = reader.read_range("w", ((2, 4), (0, 8)), out=view)
        assert out is view
        assert np.array_equal(dest[2:6, 3:11], data[2:6])
        dest[2:6, 3:11] = -1
        assert (dest == -1).all()  # nothing outside the view was written
        # whole: both 128-byte chunks fetched; byte_range: the four rows only
        assert stats.bytes_loaded == (256 if read == (4, 8) else 128)

    @pytest.mark.parametrize(
        "dest",
        [np.empty((4, 7), np.float32), np.empty((4, 8), np.float64)],
        ids=["shape", "dtype"],
    )
    def test_destination_must_fit(self, backend, dest):
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        reader, _, _ = single_writer_checkpoint(backend, {"w": (data, meta_for((8, 8)))})
        before = backend.counters()
        with pytest.raises(ChunkStoreError, match="destination .* does not fit 'w'"):
            reader.read_range("w", ((0, 4), (0, 8)), out=dest)
        assert backend.counters().minus(before).op_count() == 0

    @pytest.mark.parametrize("layout", [PER_LEAF, AGGREGATED])
    @pytest.mark.parametrize("damage", ["truncate", "delete", "crash"])
    def test_range_read_of_damaged_chunk(self, backend, layout, damage):
        data = np.arange(256, dtype=np.float32).reshape(16, 16)
        meta = meta_for((16, 16), read=(4, 16), layout=layout)
        reader, _, store = single_writer_checkpoint(backend, {"w": (data, meta)}, layout)
        key = "ck/process_0/" + ("w/c.0.0" if layout == PER_LEAF else "d/0")
        if damage == "truncate":
            store.put(key, backend.dump()[key][:-4])
            expected = CorruptionError
            match = r"^w chunk 0\.0: range \[768, 1024\) outside key "
        elif damage == "delete":
            store.delete(key)
            expected, match = MissingKeyError, None
        else:
            backend.set_fault_plan(FaultPlan(crash_after_ops=backend.op_count()))
            expected, match = SimulatedCrashError, None
        with pytest.raises(expected, match=match):
            reader.read_range("w", ((12, 4), (0, 16)))  # one 256-byte range read

    def test_out_of_bounds_request(self, backend):
        reader, _, _ = single_writer_checkpoint(
            backend, {"w": (np.zeros((4,), np.float32), meta_for((4,)))}
        )
        with pytest.raises(ChunkStoreError):
            reader.read_range("w", ((2, 4),))

    def test_zero_extent_request(self, backend):
        reader, _, _ = single_writer_checkpoint(
            backend, {"w": (np.zeros((4,), np.float32), meta_for((4,)))}
        )
        out, stats = reader.read_range("w", ((1, 0),))
        assert out.shape == (0,)
        assert stats.bytes_loaded == stats.bytes_requested == 0


def _random_grid(rng, max_elements=2**14):
    rank = rng.randint(1, 3)
    shape, shard, write, read = [], [], [], []
    for _ in range(rank):
        s = rng.choice([1, 2, 3, 4, 6, 8, 12, 16])
        divisors = [d for d in range(1, s + 1) if s % d == 0]
        sh = rng.choice(divisors)
        wdiv = [d for d in range(1, sh + 1) if sh % d == 0]
        w = rng.choice(wdiv)
        rdiv = [d for d in range(1, w + 1) if w % d == 0]
        r = rng.choice(rdiv)
        shape.append(s), shard.append(sh), write.append(w), read.append(r)
    if math.prod(shape) > max_elements:
        return _random_grid(rng, max_elements)
    return tuple(shape), tuple(shard), tuple(write), tuple(read)


class TestRoundTripAndOverheadLaw:
    @pytest.mark.parametrize("layout", [PER_LEAF, AGGREGATED])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_full_round_trip_bit_exact(self, dtype, layout):
        rng = random.Random(hash((dtype, layout)) & 0xFFFF)
        backend = MemoryBackend()
        from conftest import random_array

        shape, shard, write, read = _random_grid(rng)
        data = random_array(rng, dtype, shape).data
        meta = meta_for(shape, dtype, shard, write, read, layout)
        reader, _, _ = single_writer_checkpoint(
            backend, {"w": (data, meta)}, layout=layout, target=4096
        )
        out, stats = reader.read_range("w", full_ranges(shape))
        assert out.tobytes() == data.tobytes()
        assert stats.bytes_requested == data.nbytes

    def test_overhead_law_against_enumerator(self):
        rng = random.Random(99)
        for _ in range(60):
            shape, shard, write, read = _random_grid(rng)
            dtype = rng.choice(DTYPES)
            isz = numpy_dtype(dtype).itemsize
            backend = MemoryBackend()
            from conftest import random_array

            data = random_array(rng, dtype, shape).data
            meta = meta_for(shape, dtype, shard, write, read)
            reader, _, _ = single_writer_checkpoint(backend, {"w": (data, meta)})
            ranges = tuple(
                (rng.randint(0, s - 1), rng.randint(1, s - rng.randint(0, s - 1)))
                for s in shape
            )
            ranges = tuple(
                (o, min(e, s - o)) for (o, e), s in zip(ranges, shape)
            )
            out, stats = reader.read_range("w", ranges)
            sel = tuple(slice(o, o + e) for o, e in ranges)
            assert out.tobytes() == np.ascontiguousarray(data[sel]).tobytes()
            expected = bytes_loaded_oracle(shape, write, read, isz, ranges)
            assert stats.bytes_loaded == expected

    def test_plain_law_when_subchunks_contiguous(self, backend):
        # leading-dim splits keep subchunks contiguous: bytes_loaded is the
        # exact sum of intersecting read-chunk volumes.
        data = np.arange(32 * 8, dtype=np.float32).reshape(32, 8)
        meta = meta_for((32, 8), shard=(16, 8), read=(2, 8))
        reader, _, _ = single_writer_checkpoint(backend, {"w": (data, meta)})
        out, stats = reader.read_range("w", ((3, 6), (0, 8)))
        assert slab_contiguous((2, 8), (16, 8))
        touched_read_chunks = len({3 // 2, 4 // 2, 5 // 2, 6 // 2, 7 // 2, 8 // 2})
        assert stats.bytes_loaded == touched_read_chunks * 2 * 8 * 4

    def test_layout_read_equivalence(self):
        rng = random.Random(1234)
        from conftest import random_array

        for _ in range(20):
            shape, shard, write, read = _random_grid(rng)
            dtype = rng.choice(DTYPES)
            data = random_array(rng, dtype, shape).data
            o = tuple(rng.randint(0, s - 1) for s in shape)
            ranges = tuple(
                (lo, rng.randint(1, s - lo)) for lo, s in zip(o, shape)
            )
            results = {}
            for layout in (PER_LEAF, AGGREGATED):
                backend = MemoryBackend()
                meta = meta_for(shape, dtype, shard, write, read, layout)
                reader, _, _ = single_writer_checkpoint(
                    backend, {"w": (data, meta)}, layout=layout, target=512
                )
                out, stats = reader.read_range("w", ranges)
                results[layout] = (out.tobytes(), stats.bytes_requested)
            assert results[PER_LEAF] == results[AGGREGATED]


class TestManifest:
    def test_lookup_matches_linear_scan(self):
        rng = random.Random(8)
        entries = {
            f"leaf{rng.randrange(1000)}/c.{i}": (i % 3, i * 64, 64)
            for i in range(100)
        }
        manifest = AggregatedManifest(entries, 1 << 20)
        for key, loc in entries.items():
            linear = next(v for k, v in entries.items() if k == key)
            assert manifest.lookup(key) == linear == loc
        with pytest.raises(MissingKeyError):
            manifest.lookup("absent/c.0")

    def test_sorted_keys(self):
        manifest = AggregatedManifest({"b/c.0": (0, 0, 4), "a/c.0": (0, 4, 4)}, 64)
        assert manifest.keys() == ["a/c.0", "b/c.0"]

    def test_overlap_rejected(self):
        with pytest.raises(CorruptionError):
            AggregatedManifest({"a/c.0": (0, 0, 8), "b/c.0": (0, 4, 8)}, 64)

    def test_json_round_trip(self):
        manifest = AggregatedManifest({"a/c.0": (0, 0, 4), "b/c.1": (1, 0, 9)}, 128)
        back = AggregatedManifest.from_json(manifest.to_json())
        assert back.keys() == manifest.keys()
        assert back.lookup("b/c.1") == (1, 0, 9)


class TestMerge:
    def _write_process(self, backend, p, leaf, data, ranges, meta):
        store = backend.store(f"p{p}")
        writer = ProcessArrayWriter(store, f"ck/process_{p}", meta.layout)
        writer.write_array(leaf, [(ranges, data)], meta)
        writer.finish()
        return store

    def test_single_process_identity(self, backend):
        data = np.arange(16, dtype=np.float32).reshape(4, 4)
        meta = meta_for((4, 4), shard=(2, 4))
        store = self._write_process(
            backend, 0, "w", data, full_ranges((4, 4)), meta
        )
        merged = merge_process_indices(store, "ck", 1)
        assert set(merged["arrays"]["w"]["chunks"]) == {"0.0", "1.0"}
        assert all(
            loc == {"p": 0} for loc in merged["arrays"]["w"]["chunks"].values()
        )

    def test_disjoint_processes_union_no_payload_reads(self, backend):
        meta = meta_for((8, 4), shard=(2, 4))
        for p in range(4):
            data = np.full((2, 4), p, np.float32)
            self._write_process(backend, p, "w", data, ((2 * p, 2), (0, 4)), meta)
        store = backend.store("merger")
        before = backend.counters()
        merged = merge_process_indices(store, "ck", 4)
        delta = backend.counters().minus(before)
        assert delta.payload_bytes_read == 0
        assert len(merged["arrays"]["w"]["chunks"]) == 4
        assert {loc["p"] for loc in merged["arrays"]["w"]["chunks"].values()} == {
            0,
            1,
            2,
            3,
        }

    def test_chunk_collision_rejected(self, backend):
        meta = meta_for((4, 4), shard=(2, 4))
        for p in range(2):
            self._write_process(
                backend, p, "w", np.zeros((2, 4), np.float32), ((0, 2), (0, 4)), meta
            )
        with pytest.raises(DuplicateChunkError):
            merge_process_indices(backend.store("m"), "ck", 2)

    def test_missing_process_doc(self, backend):
        meta = meta_for((4, 4))
        self._write_process(
            backend, 0, "w", np.zeros((4, 4), np.float32), full_ranges((4, 4)), meta
        )
        with pytest.raises(ConsistencyError):
            merge_process_indices(backend.store("m"), "ck", 2)

    def test_conflicting_metadata(self, backend):
        data = np.zeros((2, 4), np.float32)
        self._write_process(
            backend, 0, "w", data, ((0, 2), (0, 4)), meta_for((4, 4), shard=(2, 4))
        )
        self._write_process(
            backend,
            1,
            "w",
            np.zeros((2, 4), np.float64),
            ((2, 2), (0, 4)),
            meta_for((4, 4), "f64", shard=(2, 4)),
        )
        with pytest.raises(ConsistencyError):
            merge_process_indices(backend.store("m"), "ck", 2)

    def test_incomplete_grid_rejected(self, backend):
        meta = meta_for((4, 4), shard=(2, 4))
        self._write_process(
            backend, 0, "w", np.zeros((2, 4), np.float32), ((0, 2), (0, 4)), meta
        )
        store = backend.store("p1")
        writer = ProcessArrayWriter(store, "ck/process_1", PER_LEAF)
        writer.declare_array("w", meta)
        writer.finish()
        with pytest.raises(ConsistencyError):
            merge_process_indices(backend.store("m"), "ck", 2)


class TestCounters:
    def test_memory_get_range_is_read_only_view(self, backend):
        store = backend.store()
        store.put("k", bytes(range(16)))
        got = store.get_range("k", 4, 8)
        assert got == bytes(range(4, 12))
        assert memoryview(got).readonly
        with pytest.raises(TypeError):
            got[0] = 0
        assert backend.counters().bytes_read == 8

    def test_exact_byte_accounting(self, backend):
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        meta = meta_for((8, 8), shard=(2, 8))
        reader, merged, store = single_writer_checkpoint(backend, {"w": (data, meta)})
        written = backend.counters().payload_bytes_written
        assert written == data.nbytes
        before = backend.counters().payload_bytes_read
        reader.read_range("w", ((0, 2), (0, 8)))
        assert backend.counters().payload_bytes_read - before == 2 * 8 * 4

    def test_gate_blocks_payload_puts(self, backend):
        import threading

        backend.set_payload_gate(True)
        store = backend.store("p0")
        writer = ProcessArrayWriter(store, "ck/process_0", PER_LEAF)
        meta = meta_for((4,))
        done = threading.Event()

        def write():
            writer.write_array(
                "w", [(full_ranges((4,)), np.zeros(4, np.float32))], meta
            )
            writer.finish()
            done.set()

        t = threading.Thread(target=write)
        t.start()
        assert not done.wait(0.2)
        assert backend.counters().payload_bytes_written == 0
        backend.set_payload_gate(False)
        assert done.wait(2.0)
        t.join()
        assert backend.counters().payload_bytes_written == 16


class TestFilesystemListing:
    KEYS = (
        "run/step_00000001/COMMIT",
        "run/step_00000001/process_0/w/c.0",
        "run/step_00000010/global_metadata.json",
        "run/step_00000001x/a",
        "other/step_00000001/COMMIT",
        "top",
    )

    @pytest.fixture
    def fs(self, tmp_path):
        backend = FilesystemBackend(tmp_path / "root")
        for key in self.KEYS:
            backend.store().put(key, b"x")
        return backend

    @pytest.mark.parametrize(
        "prefix",
        [
            "",
            "run/",
            "run/step_00000001/",
            "run/step_0000001",
            "run/step_0000000",
            "run/step_00000001/process_0/w/c.0",
            "to",
            "missing/",
            "run/missing",
            "run/step_00000001/missing/deeper/",
        ],
    )
    def test_matches_full_walk_filter(self, fs, prefix):
        everything = fs.store().list_keys("")
        assert sorted(everything) == sorted(self.KEYS)
        expected = [k for k in everything if k.startswith(prefix)]
        assert fs.store().list_keys(prefix) == expected

    def test_sibling_directory_never_walked(self, fs, monkeypatch):
        real_walk = os.walk
        starts, visited = [], []

        def walk(top, *args, **kwargs):
            starts.append(Path(top))
            for entry in real_walk(top, *args, **kwargs):
                visited.append(Path(entry[0]))
                yield entry

        monkeypatch.setattr(os, "walk", walk)
        assert fs.store().list_keys("run/step_0000000") == [
            "run/step_00000001/COMMIT",
            "run/step_00000001/process_0/w/c.0",
            "run/step_00000001x/a",
        ]
        assert starts == [fs.root / "run"]
        assert fs.root / "other" not in visited
        assert all(fs.root / "run" in (d, *d.parents) for d in visited)

    @pytest.mark.parametrize("root", ["root", "nested/../root"])
    def test_relative_root_lists_like_absolute(self, tmp_path, monkeypatch, root):
        monkeypatch.chdir(tmp_path)
        backend = FilesystemBackend(root)
        for key in self.KEYS:
            backend.store().put(key, b"x")
        assert backend.root.is_absolute()
        for prefix in ("", "to", "top", "run/", "run/step_00000001/", "other/s"):
            expected = sorted(k for k in self.KEYS if k.startswith(prefix))
            assert backend.store().list_keys(prefix) == expected
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert backend.store().list_keys("") == sorted(self.KEYS)

    @pytest.mark.parametrize("prefix", ["../", "run/../other/", "../root/run"])
    def test_dot_dot_prefix_raises(self, fs, prefix):
        with pytest.raises(BackendError):
            fs.store().list_keys(prefix)


class TestShallowListing:
    """``list_keys(prefix, shallow=True)`` names each immediate child of the
    prefix once: the first path component after it of every deeper key."""

    KEYS = TestFilesystemListing.KEYS + ("run/step_00000010/process_1/d/0",)
    PREFIXES = (
        "", "run/", "run/step_0000001", "run/step_00000001/", "to",
        "run/step_00000001/process_0/w/c.0", "missing/", "run/missing",
    )

    @staticmethod
    def children_of(keys, prefix):
        return sorted({prefix + k[len(prefix):].split("/", 1)[0]
                       for k in keys if k.startswith(prefix)})

    @pytest.fixture(params=["mem", "fs"])
    def filled(self, request, tmp_path):
        backend = MemoryBackend() if request.param == "mem" else FilesystemBackend(tmp_path / "r")
        for key in self.KEYS:
            backend.store().put(key, b"x")
        return backend

    @pytest.mark.parametrize("prefix", PREFIXES)
    def test_children_of_the_full_listing(self, filled, prefix):
        store = filled.store()
        before = filled.counters()
        assert store.list_keys(prefix, shallow=True) == self.children_of(self.KEYS, prefix)
        assert filled.counters().minus(before).ops == {"list": 1}

    def test_fs_is_one_directory_scan(self, tmp_path, monkeypatch):
        fs = FilesystemBackend(tmp_path / "r")
        for key in self.KEYS:
            fs.store().put(key, b"x")
        monkeypatch.setattr(os, "walk", None)  # a full walk would fail
        assert fs.store().list_keys("run/", shallow=True) == [
            "run/step_00000001", "run/step_00000001x", "run/step_00000010",
        ]

    def test_fs_skips_partial_files_and_names_empty_directories(self, tmp_path):
        fs = FilesystemBackend(tmp_path / "r")
        fs.store().put("run/a", b"x")
        (fs.root / "run" / "b.partial").write_bytes(b"torn")
        (fs.root / "run" / "empty").mkdir()
        assert fs.store().list_keys("run/", shallow=True) == ["run/a", "run/empty"]
        assert fs.store().list_keys("run/") == ["run/a"]
        assert fs.store().list_keys("run/a/", shallow=True) == []


class TestFilesystemDelete:
    def test_last_key_prunes_empty_directories_up_to_the_root(self, tmp_path):
        fs = FilesystemBackend(tmp_path / "r")
        fs.store().put("a/b/c/k", b"x")
        fs.store().delete("a/b/c/k")
        assert fs.root.is_dir()
        assert list(fs.root.iterdir()) == []

    def test_sibling_keeps_its_parent(self, tmp_path):
        fs = FilesystemBackend(tmp_path / "r")
        fs.store().put("a/b/k1", b"x")
        fs.store().put("a/b/k2", b"x")
        fs.store().delete("a/b/k1")
        assert sorted(p.name for p in (fs.root / "a" / "b").iterdir()) == ["k2"]
        fs.store().delete("a/b/k2")
        assert list(fs.root.iterdir()) == []

    def test_missing_key_raises(self, tmp_path):
        fs = FilesystemBackend(tmp_path / "r")
        fs.store().put("a/k", b"x")
        with pytest.raises(MissingKeyError):
            fs.store().delete("a/gone")
        assert fs.store().list_keys("") == ["a/k"]

    def test_empty_directory_is_deleted_by_its_name(self, tmp_path):
        fs = FilesystemBackend(tmp_path / "r")
        fs.store().put("a/k", b"x")
        (fs.root / "a" / "empty").mkdir()
        fs.store().delete("a/empty")
        assert sorted(p.name for p in (fs.root / "a").iterdir()) == ["k"]

    def test_directory_with_keys_is_not_deleted(self, tmp_path):
        fs = FilesystemBackend(tmp_path / "r")
        fs.store().put("a/b/k", b"x")
        with pytest.raises(BackendError, match="not empty"):
            fs.store().delete("a/b")
        assert fs.store().list_keys("") == ["a/b/k"]
