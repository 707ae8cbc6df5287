"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its criterion holds at the stated
tolerance (run with ``pytest -s tests/test_acceptance.py`` to see them);
a failed assertion marks the criterion failed.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from conftest import make_runtime, random_array, sharded, simple_mesh
from oracles import retained_steps, write_safetensors
from treevault import (
    AbstractLeaf,
    Checkpointer,
    DenseArray,
    MemoryBackend,
    Mesh,
    PartitionSpec,
    RetentionPolicy,
    SaveOptions,
    Sharding,
    abstract_of,
    checkpoint_metadata,
    is_finalized,
    load_checkpoint,
    load_safetensors,
    save_checkpoint,
    tree_equal,
)
from treevault.backend import FaultPlan
from treevault.chunkstore import ChunkReader
from treevault.coordination import Mode
from treevault.errors import (
    SafetensorsError,
    SimulatedCrashError,
    StructureMismatchError,
    TreevaultError,
)
from treevault.load_pipeline import LoadOptions, build_plan
from treevault.treemodel import PLACEHOLDER, as_tree


def report(n: int, detail: str) -> None:
    print(f"\nACCEPTANCE {n:02d} PASS: {detail}")


def test_01_resharding_equivalence():
    """200 randomized save/load-with-reshard cases are bit-exact."""
    rng = random.Random(20240810)
    start = time.monotonic()

    def random_sharding(shape):
        axes, entries = [], []
        devices = 1
        for dim, s in enumerate(shape):
            divisors = [d for d in (1, 2, 4, 8) if s % d == 0 and devices * d <= 64]
            k = rng.choice(divisors)
            if k > 1:
                axes.append((f"a{dim}", k))
                entries.append(f"a{dim}")
                devices *= k
            else:
                entries.append(None)
        if not axes:
            axes = [("solo", 1)]
        processes = rng.choice([p for p in (1, 2, 4) if devices % p == 0])
        mesh = Mesh.create(axes, process_count=processes)
        return Sharding(mesh, PartitionSpec(tuple(entries)), shape), processes

    for case in range(200):
        shape = tuple(
            rng.choice([1, 2, 4, 8, 16, 32]) for _ in range(rng.randint(1, 3))
        )
        while math.prod(shape) > 64**3:
            shape = tuple(s // 2 or 1 for s in shape)
        dtype = rng.choice(["f32", "f64", "i32", "u8"])
        data = random_array(rng, dtype, shape).data
        src, src_p = random_sharding(shape)
        dst, dst_p = random_sharding(shape)
        backend = MemoryBackend()
        save_checkpoint(
            make_runtime(backend, src_p),
            "a/ck",
            {"m": {"w": DenseArray(dtype, data)}},
            {"m": {"w": src}},
            SaveOptions(
                layout=rng.choice(["per_leaf", "aggregated"]),
                subchunk_target_bytes=rng.choice([None, 64, 512]),
            ),
        ).wait()
        out = load_checkpoint(
            make_runtime(backend, dst_p),
            "a/ck",
            {"m": {"w": AbstractLeaf("array", shape, dtype, dst)}},
        )
        assert out["m"]["w"].data.tobytes() == data.tobytes(), f"case {case}"
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"took {elapsed:.1f}s, budget 120s"
    report(1, f"200 randomized reshard round trips bit-exact in {elapsed:.1f}s")


def test_02_subchunking_overhead():
    """(16,4)->(64,1) on a (256,64) f32 array: ratio 4.00 unsubchunked,
    1.00 with read chunk (4,16); exact integer arithmetic."""
    ratios = {}
    for subchunk, expected_read_chunk in ((None, (16, 16)), (256, (4, 16))):
        backend = MemoryBackend()
        src_mesh = Mesh.create([("x", 16), ("y", 4)], process_count=8)
        data = np.arange(256 * 64, dtype=np.float32).reshape(256, 64)
        save_checkpoint(
            make_runtime(backend, 8),
            "a/ck",
            {"m": {"w": DenseArray("f32", data)}},
            {"m": {"w": Sharding(src_mesh, PartitionSpec.of("x", "y"), (256, 64))}},
            SaveOptions(subchunk_target_bytes=subchunk),
        ).wait()
        meta = checkpoint_metadata(backend.store(), "a/ck")
        assert tuple(meta.storage_meta("m/w").read_chunk) == expected_read_chunk
        dst_mesh = Mesh.create([("x", 64)], process_count=8)
        abstract = {
            "w": AbstractLeaf(
                "array",
                (256, 64),
                "f32",
                Sharding(dst_mesh, PartitionSpec.of("x", None), (256, 64)),
            )
        }
        before = backend.counters().payload_bytes_read
        out = load_checkpoint(make_runtime(backend, 8), "a/ck", {"m": abstract})
        loaded = backend.counters().payload_bytes_read - before
        assert np.array_equal(out["m"]["w"].data, data)
        assert loaded % data.nbytes == 0
        ratios[subchunk] = loaded // data.nbytes
    assert ratios[None] == 4
    assert ratios[256] == 1
    report(2, "bytes_loaded/bytes_requested = 4 unsubchunked, 1 subchunked (exact)")


@pytest.mark.parametrize("n", [2, 4, 8])
def test_03_replica_parallel_distribution(n):
    """Replica-parallel writes balance to total/(n * per-group processes);
    single-slice leaves non-primary replicas at zero; both load back."""
    fsdp = 2
    processes = n * fsdp  # one device per process; n groups of `fsdp`
    mesh = Mesh.create(
        [("replica", n), ("fsdp", fsdp)],
        process_count=processes,
        replica_axis="replica",
    )
    data = np.arange(128 * 8, dtype=np.float32).reshape(128, 8)
    tree = {"w": DenseArray("f32", data)}
    shardings = {"m": {"w": sharded(mesh, (128, 8), None, "fsdp")}}

    results = {}
    for replica_parallel in (True, False):
        backend = MemoryBackend()
        rt = make_runtime(backend, processes)
        save_checkpoint(
            rt,
            "a/ck",
            {"m": tree},
            shardings,
            SaveOptions(replica_parallel=replica_parallel),
        ).wait()
        per_process = [
            backend.counters(f"process_{p}").payload_bytes_written
            for p in range(processes)
        ]
        out = load_checkpoint(rt, "a/ck", current_mesh=mesh)
        assert np.array_equal(out["m"]["w"].data, data)
        results[replica_parallel] = per_process

    total = data.nbytes
    meta_chunk = total // (fsdp * n)  # write chunk bytes in rp mode

    rp = results[True]
    assert sum(rp) == total
    expected = total / (n * fsdp)  # fsdp = processes per replica group
    assert all(abs(b - expected) <= meta_chunk for b in rp)

    ss = results[False]
    assert sum(ss) == total
    primaries = {p for p in range(processes) if ss[p] > 0}
    assert primaries == set(range(fsdp))  # replica-0 devices only
    assert all(ss[p] == 0 for p in range(fsdp, processes))
    report(3, f"n={n}: per-process writes = total/(n*P_group) +- one chunk; "
              "single-slice writes only from replica 0")


@pytest.mark.parametrize("n", [2, 4, 8])
def test_04_broadcast_loading(n):
    """Broadcast loads read (1/n) the chunk payload and match bit-exactly."""
    fsdp = 2
    processes = n * fsdp
    mesh = Mesh.create(
        [("replica", n), ("fsdp", fsdp)],
        process_count=processes,
        replica_axis="replica",
    )
    data = np.arange(96 * 8, dtype=np.float32).reshape(96, 8)
    backend = MemoryBackend()
    rt = make_runtime(backend, processes)
    shardings = {"m": {"w": sharded(mesh, (96, 8), None, "fsdp")}}
    save_checkpoint(rt, "a/ck", {"m": {"w": DenseArray("f32", data)}}, shardings).wait()
    abstract = {"w": AbstractLeaf("array", (96, 8), "f32", shardings["m"]["w"])}

    before = backend.counters().payload_bytes_read
    plain = load_checkpoint(rt, "a/ck", {"m": abstract})
    plain_bytes = backend.counters().payload_bytes_read - before

    before = backend.counters().payload_bytes_read
    bcast = load_checkpoint(rt, "a/ck", {"m": abstract}, LoadOptions(broadcast=True))
    bcast_bytes = backend.counters().payload_bytes_read - before

    ratio = bcast_bytes / plain_bytes
    assert abs(ratio - 1.0 / n) <= 0.01 / n
    assert tree_equal(plain["m"], bcast["m"])
    assert np.array_equal(bcast["m"]["w"].data, data)
    report(4, f"n={n}: broadcast reads {ratio:.4f} of direct (target {1/n:.4f}), "
              "results bit-identical")


@pytest.mark.parametrize("style", ["indicator", "rename"])
@pytest.mark.parametrize("processes", [1, 2, 4])
def test_05_atomicity_sweep(style, processes):
    """Crash-after-k replays yield either no finalized checkpoint or a
    value-exact loadable one, for every k in the recorded trace."""
    start = time.monotonic()
    mesh = simple_mesh(processes, processes)
    data = np.arange(16 * processes, dtype=np.float32).reshape(-1, 4)
    tree = as_tree({"w": DenseArray("f32", data), "step": 3})
    shardings = {"m": {"w": sharded(mesh, data.shape, "data")}}
    rename = style == "rename"

    def run_save(backend):
        rt = make_runtime(backend, processes, barrier_timeout=5.0)
        handle = save_checkpoint(rt, "a/ck", {"m": tree}, shardings)
        handle.wait()

    clean = MemoryBackend(supports_atomic_rename=rename)
    run_save(clean)
    trace_len = clean.op_count()
    outcomes = {"invisible": 0, "loadable": 0}
    for k in range(trace_len + 1):
        backend = MemoryBackend(supports_atomic_rename=rename)
        backend.set_fault_plan(FaultPlan(crash_after_ops=k))
        try:
            run_save(backend)
        except TreevaultError:
            pass
        backend.clear_fault()
        if is_finalized(backend.store(), "a/ck"):
            rt = make_runtime(backend, processes)
            out = load_checkpoint(rt, "a/ck", current_mesh=mesh)
            assert tree_equal(out["m"], tree), f"crash after {k} ops"
            outcomes["loadable"] += 1
        else:
            outcomes["invisible"] += 1
    assert outcomes["invisible"] > 0 and outcomes["loadable"] > 0
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(5, f"{style} P={processes}: {trace_len + 1} crash points -> "
              f"{outcomes['invisible']} invisible / {outcomes['loadable']} loadable, "
              "no third outcome")


def test_06_async_contract():
    """Gated async saves return with zero chunk payload written; caller
    mutations after return never reach storage (50 randomized trials)."""
    rng = random.Random(606)
    for trial in range(50):
        backend = MemoryBackend()
        rt = make_runtime(backend, 2)
        mesh = simple_mesh(2, 2)
        rows = rng.choice([4, 8, 16])
        data = random_array(rng, "f32", (rows, 4)).data
        tree = {"w": DenseArray("f32", data)}
        snapshot = data.copy()
        backend.set_payload_gate(True)
        handle = save_checkpoint(
            rt, "a/ck", {"m": tree}, {"m": {"w": sharded(mesh, (rows, 4), "data")}}
        )
        assert backend.counters().payload_bytes_written == 0
        data[:] = rng.random()  # mutate right after save() returned
        backend.set_payload_gate(False)
        handle.wait()
        out = load_checkpoint(rt, "a/ck", current_mesh=mesh)
        assert np.array_equal(out["m"]["w"].data, snapshot), f"trial {trial}"
    report(6, "50 gated async saves: payload 0 at return, mutations never stored")


def test_07_partial_loading():
    """Subset abstracts load only the subset, supersets yield placeholders,
    and strict mode rejects both with path-listing errors."""
    backend = MemoryBackend()
    rt = make_runtime(backend, 2)
    mesh = simple_mesh(2, 2)
    tree = as_tree(
        {
            "enc": {"w": DenseArray("f32", np.arange(32, dtype=np.float32).reshape(8, 4))},
            "dec": {"w": DenseArray("f32", np.ones((8, 4), np.float32))},
            "lr": 0.5,
        }
    )
    shardings = {
        "m": {
            "enc/w": sharded(mesh, (8, 4), "data"),
            "dec/w": sharded(mesh, (8, 4), "data"),
        }
    }
    save_checkpoint(rt, "a/ck", {"m": tree}, shardings).wait()
    meta = checkpoint_metadata(backend.store(), "a/ck")

    subset = {"enc": {"w": AbstractLeaf("array", (8, 4), "f32", shardings["m"]["enc/w"])}}
    plan = build_plan(meta, {"m": subset}, LoadOptions(mode="partial"))
    assert [d.leaf_path for d in plan.directives["m"]] == ["enc/w"]
    before = backend.counters().payload_bytes_read
    out = load_checkpoint(rt, "a/ck", {"m": subset}, LoadOptions(mode="partial"))
    loaded = backend.counters().payload_bytes_read - before
    assert loaded == tree["enc"]["w"].nbytes  # omitted leaves never read
    assert tree_equal(out["m"]["enc"]["w"], tree["enc"]["w"])

    superset = abstract_of(tree, shardings["m"])
    superset["new_head"] = {"w": AbstractLeaf("array", (4,), "f32")}
    out = load_checkpoint(rt, "a/ck", {"m": superset}, LoadOptions(mode="partial"))
    assert out["m"]["new_head"]["w"] is PLACEHOLDER
    assert tree_equal(out["m"]["enc"], tree["enc"])

    with pytest.raises(StructureMismatchError) as sub_err:
        load_checkpoint(rt, "a/ck", {"m": subset})
    assert "dec/w" in str(sub_err.value) and "lr" in str(sub_err.value)
    with pytest.raises(StructureMismatchError) as sup_err:
        load_checkpoint(rt, "a/ck", {"m": superset})
    assert "new_head/w" in str(sup_err.value)
    report(7, "subset loads only its leaves, superset fills placeholders, "
              "strict mode lists the offending paths")


def test_08_controller_mode_equivalence():
    """Multi-controller (P=4) and single-controller saves produce byte-
    identical key/value sets; leader/controller actions each run once."""
    mesh = Mesh.create([("data", 4)], process_count=4)
    tree = as_tree(
        {
            "w": DenseArray("f32", np.arange(64, dtype=np.float32).reshape(16, 4)),
            "b": DenseArray("f64", np.linspace(0, 1, 16)),
            "tag": "equiv",
        }
    )
    shardings = {
        "m": {"w": sharded(mesh, (16, 4), "data"), "b": sharded(mesh, (16,), "data")}
    }
    dumps, actions = {}, {}
    for mode in (Mode.MULTI_CONTROLLER, Mode.SINGLE_CONTROLLER):
        backend = MemoryBackend()
        rt = make_runtime(backend, 4, mode=mode)
        handle = save_checkpoint(rt, "a/ck", {"m": tree}, shardings)
        handle.wait()
        dumps[mode] = backend.dump()
        actions[mode] = handle.leader_action_counts()
    assert dumps[Mode.MULTI_CONTROLLER] == dumps[Mode.SINGLE_CONTROLLER]
    expected = {"create_location": 1, "global_metadata": 1, "merge": 1, "commit": 1}
    assert actions[Mode.MULTI_CONTROLLER] == expected
    assert actions[Mode.SINGLE_CONTROLLER] == expected
    report(8, f"{len(dumps[Mode.MULTI_CONTROLLER])} identical keys in both modes; "
              "leader/controller actions all exactly once")


def test_09_layout_equivalence():
    """Per-leaf and aggregated layouts round-trip identically and read
    equivalently on 100 randomized trees; data-file packing is exact."""
    rng = random.Random(909)
    target_file_bytes = 1024
    for case in range(100):
        mesh = simple_mesh(2, 2)
        n_leaves = rng.randint(1, 4)
        tree, shardings = {}, {}
        for i in range(n_leaves):
            rows = rng.choice([2, 4, 8])
            cols = rng.choice([1, 3, 4])
            dtype = rng.choice(["f32", "i64", "u8", "bool"])
            leaf = random_array(rng, dtype, (rows, cols))
            tree[f"leaf{i}"] = leaf
            if rng.random() < 0.8:
                shardings[f"leaf{i}"] = sharded(mesh, (rows, cols), "data")
        probe_leaf = rng.choice(sorted(tree))
        shape = tree[probe_leaf].shape
        probe_range = tuple(
            (o := rng.randint(0, s - 1), rng.randint(1, s - o)) for s in shape
        )

        outs, reads = {}, {}
        for layout in ("per_leaf", "aggregated"):
            backend = MemoryBackend()
            rt = make_runtime(backend, 2)
            save_checkpoint(
                rt,
                "a/ck",
                {"m": tree},
                {"m": shardings},
                SaveOptions(
                    layout=layout,
                    target_file_bytes=target_file_bytes,
                    subchunk_target_bytes=rng.choice([None, 32]),
                ),
            ).wait()
            outs[layout] = load_checkpoint(rt, "a/ck", current_mesh=mesh)
            meta = checkpoint_metadata(backend.store(), "a/ck")
            reader = ChunkReader(backend.store(), "a/ck", meta.merged_index)
            data, stats = reader.read_range(f"m/{probe_leaf}", probe_range)
            reads[layout] = (data.tobytes(), stats.bytes_requested)
            if layout == "aggregated":
                _check_packing(backend, "a/ck", target_file_bytes)
        assert tree_equal(outs["per_leaf"]["m"], outs["aggregated"]["m"]), case
        assert tree_equal(outs["per_leaf"]["m"], tree)
        assert reads["per_leaf"] == reads["aggregated"]
    report(9, "100 randomized trees: layouts round-trip and read identically; "
              "aggregated packing matches the greedy simulation exactly")


def _check_packing(backend, ckpt, target):
    """Re-derive every manifest from the greedy packing rule and compare."""
    from oracles import pack_files

    dump = backend.dump()
    for key in [k for k in dump if k.endswith("/manifest.json")]:
        manifest = json.loads(dump[key])
        entries = sorted(
            ((fid, off, length) for fid, off, length in manifest["entries"].values()),
        )
        sizes_in_order = [length for _, _, length in entries]
        expected_files = pack_files(sizes_in_order, target)
        prefix = key.rsplit("/", 1)[0]
        actual_files = sorted(
            (int(k.rsplit("/", 1)[1]), len(dump[k]))
            for k in dump
            if k.startswith(f"{prefix}/d/")
        )
        assert [s for _, s in actual_files] == expected_files
        # offsets replay the greedy rule exactly
        replay_fid, replay_off = 0, 0
        for fid, off, length in entries:
            if replay_off and replay_off + length > target:
                replay_fid += 1
                replay_off = 0
            assert (fid, off) == (replay_fid, replay_off)
            replay_off += length


def test_10_step_management():
    """20-step run, interval 5, keep_last 2, keep_period 10, one crash
    mid-save: latest_step is always loadable and the final retained set
    matches the policy enumeration."""
    backend = MemoryBackend()
    rt = make_runtime(backend, 1, barrier_timeout=2.0)
    policy = RetentionPolicy(keep_last=2, keep_period=10)
    cp = Checkpointer(rt, "root", policy)
    crash_at = 15
    crashed_once = False
    finalized = []
    step = 0
    while step < 20:
        if step % 5 == 0:
            if step == crash_at and not crashed_once:
                crashed_once = True
                backend.set_fault_plan(
                    FaultPlan(crash_after_ops=backend.op_count() + 5)
                )
                handle = cp.save_step(step, {"m": as_tree({"x": float(step)})})
                with pytest.raises(SimulatedCrashError):
                    handle.wait()
                backend.clear_fault()
                cp = Checkpointer(rt, "root", policy)  # recovery
                latest = cp.latest_step()
                assert latest == 10
                assert cp.load_step(latest)["m"]["x"].value == float(latest)
                continue  # retry the same step after recovery
            cp.save_step(step, {"m": as_tree({"x": float(step)})})
            cp.wait()
            finalized.append(step)
            latest = cp.latest_step()
            assert latest == step
            assert cp.load_step()["m"]["x"].value == float(step)
        step += 1
    expected = sorted(retained_steps(finalized, 2, 10))
    assert cp.all_steps() == expected == [0, 10, 15]
    for s in cp.all_steps():
        assert cp.load_step(s)["m"]["x"].value == float(s)
    report(10, f"crash at step {crash_at} recovered; retained {expected} "
               "matches the policy enumeration; latest always loadable")


def test_11_safetensors(tmp_path):
    """Independently written safetensors files load value-exact; three
    corruption variants are each rejected with parse errors."""
    rng = np.random.default_rng(11)
    tensors = {
        "embed": rng.standard_normal((16, 8)).astype(np.float32),
        "head.bias": rng.standard_normal(8),
        "steps": np.array([1, 2, 3], np.int64),
        "mask": rng.integers(0, 2, (4, 4)).astype(bool),
        "bytes": rng.integers(0, 256, 32).astype(np.uint8),
    }
    path = write_safetensors(tmp_path / "model.safetensors", tensors)
    tree = load_safetensors(path)
    assert set(tree) == set(tensors)
    for name, arr in tensors.items():
        assert tree[name].data.tobytes() == np.ascontiguousarray(arr).tobytes()
        assert tree[name].shape == arr.shape

    raw = path.read_bytes()

    truncated = tmp_path / "truncated.safetensors"
    truncated.write_bytes(raw[:-16])
    with pytest.raises(SafetensorsError):
        load_safetensors(truncated)

    import struct

    bad_header = tmp_path / "badheader.safetensors"
    head = b'{"oops": '
    bad_header.write_bytes(struct.pack("<Q", len(head)) + head)
    with pytest.raises(SafetensorsError):
        load_safetensors(bad_header)

    overlap = tmp_path / "overlap.safetensors"
    header = {
        "a": {"dtype": "F32", "shape": [4], "data_offsets": [0, 16]},
        "b": {"dtype": "F32", "shape": [4], "data_offsets": [8, 24]},
    }
    head = json.dumps(header).encode()
    overlap.write_bytes(struct.pack("<Q", len(head)) + head + bytes(24))
    with pytest.raises(SafetensorsError):
        load_safetensors(overlap)
    report(11, f"{len(tensors)} oracle-written tensors load bit-exact; "
               "3 corruption variants rejected")
