import dataclasses
import random

import numpy as np
import pytest

from conftest import make_runtime, random_array, sharded, simple_mesh
from oracles import write_safetensors
from treevault import (
    PLACEHOLDER,
    AbstractLeaf,
    DenseArray,
    MemoryBackend,
    Mesh,
    PartitionSpec,
    SaveOptions,
    Scalar,
    Sharding,
    abstract_of,
    checkpoint_metadata,
    load_checkpoint,
    load_checkpoint_async,
    load_safetensors,
    save_checkpoint,
    tree_equal,
)
from treevault.errors import (
    CastError,
    CorruptionError,
    LoadError,
    SafetensorsError,
    ShardingError,
    StructureMismatchError,
    TopologyError,
)
from treevault import load_pipeline
from treevault.chunkstore import ChunkReader
from treevault.coordination import Mode
from treevault.load_pipeline import LoadOptions, build_plan
from treevault.treemodel import as_tree


def saved_checkpoint(backend, processes=2, layout="per_leaf", subchunk=None):
    rt = make_runtime(backend, processes)
    mesh = simple_mesh(processes * 2, processes)
    tree = as_tree(
        {
            "layers": {
                "0": {"w": DenseArray("f32", np.arange(64, dtype=np.float32).reshape(8, 8))},
            },
            "lr": 0.5,
            "note": "x",
        }
    )
    shardings = {"model": {"layers/0/w": sharded(mesh, (8, 8), "data")}}
    save_checkpoint(
        rt,
        "c/s0",
        {"model": tree},
        shardings,
        SaveOptions(layout=layout, subchunk_target_bytes=subchunk),
    ).wait()
    return rt, mesh, tree, shardings


class TestMetadata:
    def test_abstract_matches_abstract_of(self, backend):
        rt, mesh, tree, _ = saved_checkpoint(backend)
        meta = checkpoint_metadata(backend.store(), "c/s0")
        assert tree_equal(meta.abstract_tree("model"), abstract_of(tree))

    def test_reads_no_chunk_payload(self, backend):
        rt, *_ = saved_checkpoint(backend)
        before = backend.counters()
        checkpoint_metadata(backend.store(), "c/s0")
        delta = backend.counters().minus(before)
        assert delta.payload_bytes_read == 0

    def test_unfinalized_rejected(self, backend):
        with pytest.raises(LoadError):
            checkpoint_metadata(backend.store(), "missing/path")

    def test_tampered_merged_index_names_leaf(self, backend):
        import json

        rt, *_ = saved_checkpoint(backend)
        store = backend.store()
        doc = json.loads(store.get("c/s0/merged_index.json"))
        del doc["arrays"]["model/layers/0/w"]
        store.put("c/s0/merged_index.json", json.dumps(doc).encode())
        with pytest.raises(CorruptionError) as err:
            checkpoint_metadata(store, "c/s0")
        assert "model/layers/0/w" in str(err.value)


class TestPlan:
    def test_aligned_strict_plan(self, backend):
        rt, mesh, tree, shardings = saved_checkpoint(backend)
        meta = checkpoint_metadata(backend.store(), "c/s0")
        abstract = abstract_of(tree, shardings["model"])
        plan = build_plan(meta, {"model": abstract}, LoadOptions())
        dirs = {d.leaf_path: d for d in plan.directives["model"]}
        assert set(dirs) == {"layers/0/w", "lr", "note"}
        assert dirs["layers/0/w"].source == "array"
        # 4 devices over 2 processes, one distinct box of 2 rows per device
        assert dirs["layers/0/w"].reads == {
            p: [((2 * i, 2), (0, 8)) for i in (2 * p, 2 * p + 1)] for p in (0, 1)
        }
        assert not any(d.source == "placeholder" for d in dirs.values())

    def test_partial_subset_omits_leaves(self, backend):
        rt, mesh, tree, _ = saved_checkpoint(backend)
        meta = checkpoint_metadata(backend.store(), "c/s0")
        subset = {"lr": AbstractLeaf("scalar", dtype="f64")}
        plan = build_plan(meta, {"model": subset}, LoadOptions(mode="partial"))
        assert [d.leaf_path for d in plan.directives["model"]] == ["lr"]

    def test_partial_superset_adds_placeholder(self, backend):
        rt, mesh, tree, _ = saved_checkpoint(backend)
        meta = checkpoint_metadata(backend.store(), "c/s0")
        abstract = abstract_of(tree)
        abstract["new_head"] = {"w": AbstractLeaf("array", (4,), "f32")}
        plan = build_plan(meta, {"model": abstract}, LoadOptions(mode="partial"))
        by_path = {d.leaf_path: d for d in plan.directives["model"]}
        assert by_path["new_head/w"].source == "placeholder"
        assert by_path["new_head/w"].target.placeholder

    def test_strict_rejects_subset_and_superset(self, backend):
        rt, mesh, tree, _ = saved_checkpoint(backend)
        meta = checkpoint_metadata(backend.store(), "c/s0")
        subset = {"lr": AbstractLeaf("scalar", dtype="f64")}
        with pytest.raises(StructureMismatchError) as err:
            build_plan(meta, {"model": subset}, LoadOptions())
        assert "layers/0/w" in str(err.value) and "note" in str(err.value)

        superset = abstract_of(tree)
        superset["extra"] = AbstractLeaf("text")
        with pytest.raises(StructureMismatchError) as err:
            build_plan(meta, {"model": superset}, LoadOptions())
        assert "extra" in str(err.value)

    def test_metadata_driven_plan_validates_topology(self, backend):
        rt, mesh, tree, _ = saved_checkpoint(backend)
        meta = checkpoint_metadata(backend.store(), "c/s0")
        plan = build_plan(meta, None, LoadOptions(), current_mesh=mesh)
        assert sum(len(d) for d in plan.directives.values()) == 3
        other = simple_mesh(2, 2)
        with pytest.raises(TopologyError):
            build_plan(meta, None, LoadOptions(), current_mesh=other)

    def test_user_placeholder_flag_rejected(self, backend):
        rt, mesh, tree, _ = saved_checkpoint(backend)
        meta = checkpoint_metadata(backend.store(), "c/s0")
        bad = {"lr": AbstractLeaf("scalar", dtype="f64", placeholder=True)}
        with pytest.raises(Exception):
            build_plan(meta, {"model": bad}, LoadOptions(mode="partial"))


class TestLoad:
    def test_round_trip_identical_sharding(self, backend):
        rt, mesh, tree, shardings = saved_checkpoint(backend)
        out = load_checkpoint(
            rt, "c/s0", {"model": abstract_of(tree, shardings["model"])}
        )
        assert tree_equal(out["model"], tree)

    def test_load_never_writes(self, backend):
        rt, mesh, tree, _ = saved_checkpoint(backend)
        before = backend.counters()
        load_checkpoint(rt, "c/s0", current_mesh=mesh)
        delta = backend.counters().minus(before)
        assert delta.bytes_written == 0
        assert delta.op_count("put") == delta.op_count("delete") == 0

    def test_partial_load_reads_only_subset(self, backend):
        rt, mesh, tree, _ = saved_checkpoint(backend)
        before = backend.counters()
        out = load_checkpoint(
            rt,
            "c/s0",
            {"model": {"lr": AbstractLeaf("scalar", dtype="f64")}},
            LoadOptions(mode="partial"),
        )
        delta = backend.counters().minus(before)
        assert out["model"]["lr"] == Scalar("f64", 0.5)
        assert delta.payload_bytes_read == 0  # array leaf untouched

    def test_placeholders_at_missing_paths(self, backend):
        rt, mesh, tree, shardings = saved_checkpoint(backend)
        abstract = abstract_of(tree, shardings["model"])
        abstract["new_head"] = {"w": AbstractLeaf("array", (4,), "f32")}
        out = load_checkpoint(rt, "c/s0", {"model": abstract}, LoadOptions(mode="partial"))
        assert out["model"]["new_head"]["w"] is PLACEHOLDER
        assert tree_equal(out["model"]["layers"], tree["layers"])

    def test_widening_cast_exact(self, backend):
        rt, mesh, tree, shardings = saved_checkpoint(backend)
        abstract = abstract_of(tree, shardings["model"])
        w = abstract["layers"]["0"]["w"]
        abstract["layers"]["0"]["w"] = AbstractLeaf("array", w.shape, "f64", w.sharding)
        out = load_checkpoint(rt, "c/s0", {"model": abstract})
        loaded = out["model"]["layers"]["0"]["w"]
        assert loaded.dtype == "f64"
        assert np.array_equal(
            loaded.data, tree["layers"]["0"]["w"].data.astype(np.float64)
        )

    def test_cast_overflow_fails_load(self, backend):
        rt = make_runtime(backend, 1)
        tree = as_tree({"big": Scalar("i64", 2**40)})
        save_checkpoint(rt, "c/i", {"model": tree}).wait()
        with pytest.raises(CastError):
            load_checkpoint(
                rt,
                "c/i",
                {"model": {"big": AbstractLeaf("scalar", dtype="i32")}},
            )

    def test_corrupt_chunk_fails_whole_load(self, backend):
        rt, mesh, tree, _ = saved_checkpoint(backend)
        chunk_keys = [k for k in backend.dump() if "/c." in k]
        backend.store().delete(chunk_keys[0])
        with pytest.raises(Exception):
            load_checkpoint(rt, "c/s0", current_mesh=mesh)

    @pytest.mark.parametrize("mode", [Mode.MULTI_CONTROLLER, Mode.SINGLE_CONTROLLER])
    @pytest.mark.parametrize("defect", ["gap", "overlap"])
    def test_uncovered_leaf_fails_before_any_read(self, backend, monkeypatch, mode, defect):
        _, _, tree, _ = saved_checkpoint(backend)
        # A 2 x 2 grid of 4 x 4 boxes. Dropping one leaves every axis
        # partitioned, so only the box count shows the gap; growing the
        # first row to 5 rows keeps the count, so only the partition
        # check shows the overlap.
        grid = Mesh.create([("a", 2), ("b", 2)], process_count=2)
        target = {"layers/0/w": sharded(grid, (8, 8), "a", "b")}
        real = load_pipeline.shards_of

        def flawed(sharding):
            shards = real(sharding)
            if defect == "gap":
                return shards[1:]
            return [
                dataclasses.replace(s, ranges=((0, 5), s.ranges[1]))
                if s.ranges[0] == (0, 4) else s
                for s in shards
            ]

        monkeypatch.setattr(load_pipeline, "shards_of", flawed)
        rt = make_runtime(backend, 2, mode=mode)
        before = backend.counters()
        with pytest.raises(LoadError, match="model/layers/0/w"):
            load_checkpoint(rt, "c/s0", {"model": abstract_of(tree, target)})
        assert backend.counters().minus(before).payload_bytes_read == 0

    @pytest.mark.parametrize("mode", [Mode.MULTI_CONTROLLER, Mode.SINGLE_CONTROLLER])
    def test_reads_land_in_the_returned_arrays(self, backend, monkeypatch, mode):
        _, mesh, tree, shardings = saved_checkpoint(backend)
        views = []
        real = ChunkReader.read_range

        def recording(self, leaf_path, ranges, out=None):
            views.append(out)
            return real(self, leaf_path, ranges, out)

        monkeypatch.setattr(ChunkReader, "read_range", recording)
        rt = make_runtime(backend, 2, mode=mode)
        out = load_checkpoint(rt, "c/s0", {"model": abstract_of(tree, shardings["model"])})
        w = out["model"]["layers"]["0"]["w"].data
        assert len(views) == mesh.device_count
        assert all(v is not None and np.shares_memory(v, w) for v in views)
        assert tree_equal(out["model"], tree)

    @pytest.mark.parametrize("change", [-4, 4], ids=["truncated", "padded"])
    def test_wrong_size_chunk_names_leaf_and_chunk(self, backend, change):
        rt, mesh, *_ = saved_checkpoint(backend, processes=1)
        key = "c/s0/process_0/model/layers/0/w/c.1.0"
        stored = backend.dump()[key]
        backend.store().put(
            key, stored[:change] if change < 0 else stored + bytes(change)
        )
        with pytest.raises(
            CorruptionError,
            match=rf"^model/layers/0/w chunk 1\.0: {128 + change} bytes, "
            "expected 128$",
        ):
            load_checkpoint(rt, "c/s0", current_mesh=mesh)

    def test_corrupt_chunk_surfaces_unwrapped_on_a_controller(self, backend):
        _, mesh, *_ = saved_checkpoint(backend)
        key = "c/s0/process_1/model/layers/0/w/c.2.0"
        backend.store().put(key, backend.dump()[key][:-4])
        rt = make_runtime(backend, 2, mode=Mode.SINGLE_CONTROLLER)
        with pytest.raises(
            CorruptionError,
            match=r"^model/layers/0/w chunk 2\.0: 60 bytes, expected 64$",
        ):
            load_checkpoint(rt, "c/s0", current_mesh=mesh)

    def test_async_load_handle(self, backend):
        rt, mesh, tree, _ = saved_checkpoint(backend)
        handle = load_checkpoint_async(rt, "c/s0", current_mesh=mesh)
        out = handle.wait()
        assert tree_equal(out["model"], tree)
        assert handle.done()

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("processes", [2, 4])
    def test_concurrent_loads_of_one_path(self, backend, processes, mode):
        """Two loads of one checkpoint in flight at once each meet only at
        their own barriers."""
        _, mesh, tree, _ = saved_checkpoint(backend, processes)
        rt = make_runtime(backend, processes, mode=mode)
        for _ in range(20):
            handles = [
                load_checkpoint_async(rt, "c/s0", current_mesh=mesh) for _ in range(2)
            ]
            for handle in handles:
                assert tree_equal(handle.wait()["model"], tree)

    def test_runtime_process_mismatch_rejected(self, backend):
        rt, mesh, tree, shardings = saved_checkpoint(backend, processes=2)
        other_rt = make_runtime(backend, 4)
        with pytest.raises(ShardingError):
            load_checkpoint(
                other_rt, "c/s0", {"model": abstract_of(tree, shardings["model"])}
            )


class TestReshardingOverhead:
    def _save_256x64(self, backend, subchunk):
        rt = make_runtime(backend, 8)
        mesh = Mesh.create([("x", 16), ("y", 4)], process_count=8)
        data = np.arange(256 * 64, dtype=np.float32).reshape(256, 64)
        tree = {"w": DenseArray("f32", data)}
        shardings = {"model": {"w": Sharding(mesh, PartitionSpec.of("x", "y"), (256, 64))}}
        save_checkpoint(
            rt,
            "c/big",
            {"model": tree},
            shardings,
            SaveOptions(subchunk_target_bytes=subchunk),
        ).wait()
        return data

    def _load_64x1(self, backend):
        rt = make_runtime(backend, 8)
        mesh = Mesh.create([("x", 64)], process_count=8)
        abstract = {
            "w": AbstractLeaf(
                "array",
                (256, 64),
                "f32",
                Sharding(mesh, PartitionSpec.of("x", None), (256, 64)),
            )
        }
        before = backend.counters().payload_bytes_read
        out = load_checkpoint(rt, "c/big", {"model": abstract})
        loaded_bytes = backend.counters().payload_bytes_read - before
        return out["model"]["w"].data, loaded_bytes

    def test_unsubchunked_ratio_4(self, backend):
        data = self._save_256x64(backend, subchunk=None)
        out, loaded = self._load_64x1(backend)
        assert np.array_equal(out, data)
        assert loaded / data.nbytes == 4.0

    def test_subchunked_ratio_1(self, backend):
        # read chunk (4,16) from a 1 KiB target over (16,16) write chunks
        data = self._save_256x64(backend, subchunk=256)
        meta = checkpoint_metadata(backend.store(), "c/big")
        assert tuple(meta.storage_meta("model/w").read_chunk) == (4, 16)
        out, loaded = self._load_64x1(backend)
        assert np.array_equal(out, data)
        assert loaded / data.nbytes == 1.0

    def test_randomized_resharding_equivalence(self):
        rng = random.Random(42)
        for trial in range(15):
            backend = MemoryBackend()
            shape = tuple(
                rng.choice([2, 4, 8, 16]) for _ in range(rng.randint(1, 3))
            )
            dtype = rng.choice(["f32", "i64", "u8"])
            data = random_array(rng, dtype, shape).data

            def random_mesh_sharding():
                axes = []
                entries = []
                for dim, s in enumerate(shape):
                    divisors = [d for d in (1, 2, 4, 8) if s % d == 0]
                    k = rng.choice(divisors)
                    if k > 1:
                        axes.append((f"a{dim}", k))
                        entries.append(f"a{dim}")
                    else:
                        entries.append(None)
                if not axes:
                    axes = [("solo", 1)]
                devices = 1
                for _, k in axes:
                    devices *= k
                procs = rng.choice([p for p in (1, 2, 4) if devices % p == 0])
                mesh = Mesh.create(axes, process_count=procs)
                return mesh, Sharding(mesh, PartitionSpec(tuple(entries)), shape), procs

            src_mesh, src_sharding, src_p = random_mesh_sharding()
            dst_mesh, dst_sharding, dst_p = random_mesh_sharding()
            subchunk = rng.choice([None, 64, 256])

            src_rt = make_runtime(backend, src_p)
            save_checkpoint(
                src_rt,
                "c/r",
                {"m": {"w": DenseArray(dtype, data)}},
                {"m": {"w": src_sharding}},
                SaveOptions(subchunk_target_bytes=subchunk),
            ).wait()

            dst_rt = make_runtime(backend, dst_p)
            abstract = {"w": AbstractLeaf("array", shape, dtype, dst_sharding)}
            out = load_checkpoint(dst_rt, "c/r", {"m": abstract})
            assert out["m"]["w"].data.tobytes() == data.tobytes(), trial


class TestBroadcastLoad:
    def _setup(self, n, fsdp=2):
        backend = MemoryBackend()
        processes = n * fsdp
        rt = make_runtime(backend, processes)
        mesh = Mesh.create(
            [("replica", n), ("fsdp", fsdp)],
            process_count=processes,
            replica_axis="replica",
        )
        data = np.arange(64 * 8, dtype=np.float32).reshape(64, 8)
        tree = {"w": DenseArray("f32", data)}
        shardings = {"m": {"w": sharded(mesh, (64, 8), None, "fsdp")}}
        save_checkpoint(rt, "c/b", {"m": tree}, shardings).wait()
        abstract = {"w": AbstractLeaf("array", (64, 8), "f32", shardings["m"]["w"])}
        return backend, rt, data, abstract

    @pytest.mark.parametrize("n", [2, 4])
    def test_read_ratio_is_one_over_n(self, n):
        backend, rt, data, abstract = self._setup(n)
        base = backend.counters().payload_bytes_read
        plain = load_checkpoint(rt, "c/b", {"m": abstract})
        plain_bytes = backend.counters().payload_bytes_read - base

        base = backend.counters().payload_bytes_read
        bcast = load_checkpoint(rt, "c/b", {"m": abstract}, LoadOptions(broadcast=True))
        bcast_bytes = backend.counters().payload_bytes_read - base

        assert plain_bytes == n * data.nbytes
        assert bcast_bytes == data.nbytes
        assert bcast_bytes / plain_bytes == 1.0 / n
        assert tree_equal(plain["m"], bcast["m"])
        assert np.array_equal(bcast["m"]["w"].data, data)

    def test_single_group_identical_to_plain(self):
        backend, rt, data, abstract = self._setup(1)
        plain = load_checkpoint(rt, "c/b", {"m": abstract})
        bcast = load_checkpoint(rt, "c/b", {"m": abstract}, LoadOptions(broadcast=True))
        assert tree_equal(plain["m"], bcast["m"])

    def test_caller_options_unchanged(self):
        backend, rt, data, abstract = self._setup(2)
        options = LoadOptions()
        base = backend.counters().payload_bytes_read
        bcast = load_checkpoint(
            rt, "c/b", {"m": abstract}, dataclasses.replace(options, broadcast=True)
        )
        assert options.broadcast is False
        assert backend.counters().payload_bytes_read - base == data.nbytes
        assert np.array_equal(bcast["m"]["w"].data, data)

    def test_incomplete_group_zero_rejected(self):
        backend, rt, data, _ = self._setup(2)
        mesh = Mesh.create(
            [("replica", 2), ("fsdp", 2)], process_count=4, replica_axis="replica"
        )
        partitioned_over_replica = {
            "w": AbstractLeaf(
                "array", (64, 8), "f32", sharded(mesh, (64, 8), "replica", "fsdp")
            )
        }
        with pytest.raises(ShardingError):
            load_checkpoint(
                rt, "c/b", {"m": partitioned_over_replica}, LoadOptions(broadcast=True)
            )

    def test_only_group_zero_processes_read(self):
        backend, rt, data, abstract = self._setup(4)
        base = {
            p: backend.counters(f"process_{p}").payload_bytes_read
            for p in range(8)
        }
        load_checkpoint(rt, "c/b", {"m": abstract}, LoadOptions(broadcast=True))
        read = {
            p: backend.counters(f"process_{p}").payload_bytes_read - base[p]
            for p in range(8)
        }
        # group 0 = replica coordinate 0 = devices 0..1 = processes 0..1
        assert all(read[p] > 0 for p in (0, 1))
        assert all(read[p] == 0 for p in range(2, 8))


class TestSafetensors:
    def test_oracle_written_file_loads_exactly(self, tmp_path):
        tensors = {
            "t": np.array([1.0, 2.0], np.float32),
            "m/w": np.arange(12, dtype=np.int64).reshape(3, 4),
            "flag": np.array([True, False]),
        }
        path = write_safetensors(tmp_path / "m.safetensors", tensors)
        tree = load_safetensors(path)
        assert set(tree) == set(tensors)
        for name, arr in tensors.items():
            assert tree[name].data.tobytes() == np.ascontiguousarray(arr).tobytes()

    def test_empty_header_empty_tree(self, tmp_path):
        path = write_safetensors(tmp_path / "e.safetensors", {})
        assert load_safetensors(path) == {}

    def test_metadata_entry_ignored(self, tmp_path):
        path = write_safetensors(
            tmp_path / "m.safetensors",
            {"t": np.zeros(2, np.float32)},
            header_extra={"__metadata__": {"format": "pt"}},
        )
        assert set(load_safetensors(path)) == {"t"}

    def test_truncated_data_rejected(self, tmp_path):
        path = write_safetensors(
            tmp_path / "t.safetensors", {"t": np.zeros(8, np.float32)}
        )
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(SafetensorsError):
            load_safetensors(path)

    def test_malformed_header_rejected(self, tmp_path):
        import struct

        bad = tmp_path / "b.safetensors"
        head = b'{"t": not json'
        bad.write_bytes(struct.pack("<Q", len(head)) + head)
        with pytest.raises(SafetensorsError):
            load_safetensors(bad)

    def test_overlapping_offsets_rejected(self, tmp_path):
        import json
        import struct

        header = {
            "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
            "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
        }
        head = json.dumps(header).encode()
        path = tmp_path / "o.safetensors"
        path.write_bytes(struct.pack("<Q", len(head)) + head + bytes(12))
        with pytest.raises(SafetensorsError):
            load_safetensors(path)

    def test_header_past_eof_rejected(self, tmp_path):
        import struct

        path = tmp_path / "h.safetensors"
        path.write_bytes(struct.pack("<Q", 1000) + b"{}")
        with pytest.raises(SafetensorsError):
            load_safetensors(path)

    def test_unsupported_dtype_rejected(self, tmp_path):
        import json
        import struct

        header = {"t": {"dtype": "BF16", "shape": [2], "data_offsets": [0, 4]}}
        head = json.dumps(header).encode()
        path = tmp_path / "d.safetensors"
        path.write_bytes(struct.pack("<Q", len(head)) + head + bytes(4))
        with pytest.raises(SafetensorsError):
            load_safetensors(path)

    def test_abstract_contract_applied(self, tmp_path):
        path = write_safetensors(
            tmp_path / "a.safetensors", {"t": np.array([1.0, 2.0], np.float32)}
        )
        abstract = {
            "t": AbstractLeaf("array", (2,), "f64"),
            "extra": AbstractLeaf("array", (3,), "f32"),
        }
        tree = load_safetensors(path, abstract, mode="partial")
        assert tree["t"].dtype == "f64"
        assert tree["extra"] is PLACEHOLDER
        with pytest.raises(StructureMismatchError):
            load_safetensors(path, abstract, mode="strict")
