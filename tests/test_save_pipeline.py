import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from conftest import make_runtime, sharded, simple_mesh
from treevault import (
    CountingIterator,
    DenseArray,
    JsonDocument,
    MemoryBackend,
    Mesh,
    SaveOptions,
    SimulatedRuntime,
    is_finalized,
    load_checkpoint,
    save_checkpoint,
    tree_equal,
)
from treevault.backend import FaultPlan
from treevault.coordination import Mode
from treevault.errors import (
    DivisibilityError,
    InjectedFaultError,
    PreExistingCheckpointError,
    ShardingError,
    SimulatedCrashError,
    TreeError,
)
from treevault.treemodel import as_tree


both_modes = pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)


def small_tree():
    return as_tree(
        {
            "w": DenseArray("f32", np.arange(32, dtype=np.float32).reshape(8, 4)),
            "b": DenseArray("f64", np.linspace(0, 1, 8)),
            "step": 7,
            "tag": "run-a",
        }
    )


def tree_shardings(mesh):
    return {
        "model": {
            "w": sharded(mesh, (8, 4), "data"),
            "b": sharded(mesh, (8,), "data"),
        }
    }


class TestBasicSave:
    def test_sync_save_and_load_p1(self, backend):
        rt = make_runtime(backend, 1)
        mesh = simple_mesh(1, 1)
        tree = small_tree()
        handle = save_checkpoint(
            rt, "c/s0", {"model": tree}, tree_shardings(mesh), SaveOptions(sync=True)
        )
        assert handle.done()
        assert is_finalized(backend.store(), "c/s0")
        out = load_checkpoint(rt, "c/s0", current_mesh=mesh)
        assert tree_equal(out["model"], tree)

    def test_occupied_path_rejected_before_snapshot(self, backend):
        rt = make_runtime(backend, 2)
        mesh = simple_mesh(2, 2)
        tree = small_tree()
        save_checkpoint(rt, "c/s0", {"model": tree}, tree_shardings(mesh)).wait()
        payload_before = backend.counters().payload_bytes_written
        with pytest.raises(PreExistingCheckpointError):
            save_checkpoint(rt, "c/s0", {"model": tree}, tree_shardings(mesh))
        assert backend.counters().payload_bytes_written == payload_before

    def test_disjoint_process_key_sets(self, backend):
        rt = make_runtime(backend, 2)
        mesh = simple_mesh(2, 2)
        save_checkpoint(
            rt, "c/s0", {"model": small_tree()}, tree_shardings(mesh)
        ).wait()
        keys = backend.dump()
        p0 = {k for k in keys if "/process_0/" in k and "/c." in k}
        p1 = {k for k in keys if "/process_1/" in k and "/c." in k}
        assert p0 and p1
        assert not (p0 & p1)

    def test_divisibility_checked_synchronously(self, backend):
        rt = make_runtime(backend, 2)
        mesh = simple_mesh(2, 2)
        tree = as_tree({"w": DenseArray("f32", np.zeros((5, 3), np.float32))})
        with pytest.raises(DivisibilityError):
            save_checkpoint(
                rt, "c/s0", {"model": tree}, {"model": {"w": sharded(mesh, (5, 3), "data")}}
            )

    def test_reserved_names_rejected(self, backend):
        rt = make_runtime(backend, 1)
        for name in ("COMMIT", "process_3", "global_metadata.json", "d", "a/b", ""):
            with pytest.raises(TreeError):
                save_checkpoint(rt, "c/s0", {name: small_tree()})

    def test_unknown_sharding_paths_rejected(self, backend):
        rt = make_runtime(backend, 1)
        mesh = simple_mesh(1, 1)
        with pytest.raises(TreeError):
            save_checkpoint(
                rt,
                "c/s0",
                {"model": small_tree()},
                {"model": {"nope": sharded(mesh, (8, 4), "data")}},
            )

    def test_mesh_process_count_must_match_runtime(self, backend):
        rt = make_runtime(backend, 2)
        mesh = simple_mesh(4, 4)
        with pytest.raises(ShardingError):
            save_checkpoint(
                rt,
                "c/s0",
                {"model": small_tree()},
                {"model": {"w": sharded(mesh, (8, 4), "data")}},
            )


class TestMultipleCheckpointables:
    def test_tree_document_and_stateful(self, backend):
        rt = make_runtime(backend, 1)
        mesh = simple_mesh(1, 1)
        iterator = CountingIterator()
        for _ in range(5):
            next(iterator)
        config = JsonDocument({"lr": 0.1, "name": "exp1"})
        tree = small_tree()
        save_checkpoint(
            rt,
            "c/s0",
            {"model": tree, "config": config, "data_iter": iterator},
            tree_shardings(mesh),
        ).wait()

        fresh = CountingIterator()
        out = load_checkpoint(
            rt,
            "c/s0",
            {"model": None, "config": None, "data_iter": fresh},
            current_mesh=mesh,
        )
        assert tree_equal(out["model"], tree)
        assert out["config"] == {"lr": 0.1, "name": "exp1"}
        assert out["data_iter"] is fresh and fresh.index == 5

    def test_single_controller_calls_save_once(self, backend):
        class CountingSaves(CountingIterator):
            save_calls = 0

            def save(self):
                self.save_calls += 1
                return super().save()

        rt = make_runtime(backend, 4, mode=Mode.SINGLE_CONTROLLER)
        iterator = CountingSaves(3)
        save_checkpoint(
            rt,
            "c/s0",
            {"model": small_tree(), "data_iter": iterator},
            tree_shardings(simple_mesh(4, 4)),
        ).wait()
        assert iterator.save_calls == 1
        fresh = CountingIterator()
        load_checkpoint(rt, "c/s0", {"data_iter": fresh})
        assert fresh.index == 3

    def test_checkpointables_separable(self, backend):
        rt = make_runtime(backend, 1)
        mesh = simple_mesh(1, 1)
        save_checkpoint(
            rt,
            "c/s0",
            {"model": small_tree(), "config": JsonDocument({"a": 1})},
            tree_shardings(mesh),
        ).wait()
        out = load_checkpoint(rt, "c/s0", {"config": None})
        assert set(out) == {"config"}


class TestAsyncContract:
    @pytest.mark.parametrize("layout", ["per_leaf", "aggregated"])
    @both_modes
    def test_mutation_after_return_does_not_affect_checkpoint(
        self, backend, mode, layout
    ):
        rt = make_runtime(backend, 2, mode=mode)
        mesh = simple_mesh(2, 2)
        data = np.arange(32, dtype=np.float32).reshape(8, 4)
        tree = {"w": DenseArray("f32", data)}
        snapshot = data.copy()
        shardings = {"model": {"w": sharded(mesh, (8, 4), "data")}}
        backend.set_payload_gate(True)
        handle = save_checkpoint(
            rt, "c/s0", {"model": tree}, shardings, SaveOptions(layout=layout)
        )
        data[:] = -1  # caller mutates immediately after save() returns
        backend.set_payload_gate(False)
        handle.wait()
        out = load_checkpoint(rt, "c/s0", current_mesh=mesh)
        assert np.array_equal(out["model"]["w"].data, snapshot)

    @both_modes
    def test_gated_async_save_writes_no_payload(self, backend, mode):
        rt = make_runtime(backend, 4, mode=mode)
        mesh = simple_mesh(4, 4)
        backend.set_payload_gate(True)
        handle = save_checkpoint(
            rt, "c/s0", {"model": small_tree()}, tree_shardings(mesh)
        )
        # save() already returned while the gate still blocks chunk writes
        assert backend.counters().payload_bytes_written == 0
        assert not handle.done()
        backend.set_payload_gate(False)
        handle.wait()
        assert is_finalized(backend.store(), "c/s0")
        out = load_checkpoint(rt, "c/s0", current_mesh=mesh)
        assert tree_equal(out["model"], small_tree())

    def test_wait_idempotent(self, backend):
        rt = make_runtime(backend, 1)
        mesh = simple_mesh(1, 1)
        handle = save_checkpoint(
            rt, "c/s0", {"model": small_tree()}, tree_shardings(mesh)
        )
        handle.wait()
        handle.wait()
        assert handle.done()


class TestFailures:
    def test_injected_write_failure_names_key(self, backend):
        rt = make_runtime(backend, 2, barrier_timeout=1.0)
        mesh = simple_mesh(2, 2)
        backend.set_fault_plan(FaultPlan(fail_put_substring="model/w/c."))
        handle = save_checkpoint(
            rt, "c/s0", {"model": small_tree()}, tree_shardings(mesh)
        )
        with pytest.raises(InjectedFaultError) as err:
            handle.wait()
        assert "model/w/c." in str(err.value)
        with pytest.raises(InjectedFaultError):
            handle.wait()  # the deferred error is stable across waits
        assert not is_finalized(backend.store(), "c/s0")

    def test_failed_save_cleans_temp(self, backend):
        rt = make_runtime(backend, 1, barrier_timeout=1.0)
        mesh = simple_mesh(1, 1)
        backend.set_fault_plan(FaultPlan(fail_put_substring="model/w/c."))
        handle = save_checkpoint(
            rt, "c/s0", {"model": small_tree()}, tree_shardings(mesh)
        )
        with pytest.raises(InjectedFaultError):
            handle.wait()
        assert [k for k in backend.dump() if k.startswith("c/s0")] == []

    def test_keep_temp_on_failure(self, backend):
        rt = make_runtime(backend, 1, barrier_timeout=1.0)
        mesh = simple_mesh(1, 1)
        backend.set_fault_plan(FaultPlan(fail_put_substring="model/w/c."))
        handle = save_checkpoint(
            rt,
            "c/s0",
            {"model": small_tree()},
            tree_shardings(mesh),
            SaveOptions(keep_temp_on_failure=True),
        )
        with pytest.raises(InjectedFaultError):
            handle.wait()
        residue = [k for k in backend.dump() if k.startswith("c/s0")]
        assert residue
        assert not is_finalized(backend.store(), "c/s0")

    @pytest.mark.parametrize("rename", [False, True], ids=["mem", "mem+rename"])
    @both_modes
    def test_failed_save_leaves_no_residue(self, mode, rename):
        """The leader cleans up only once every process stopped writing, so
        a peer's late chunk never outlives the cleanup."""
        mesh = simple_mesh(4, 4)
        for seed in range(20):
            backend = MemoryBackend(supports_atomic_rename=rename)
            backend.set_fault_plan(FaultPlan(fail_put_substring="process_0/model/w/c."))
            rt = SimulatedRuntime(4, backend, mode=mode, barrier_timeout=10.0, seed=seed)
            handle = save_checkpoint(
                rt, "c/s0", {"model": small_tree()}, tree_shardings(mesh)
            )
            with pytest.raises(InjectedFaultError):
                handle.wait()
            residue = [k for k in backend.dump() if k.startswith("c/s0")]
            assert residue == [], f"seed {seed}"

    @pytest.mark.parametrize("sync", [True, False], ids=["sync", "async"])
    def test_failed_put_aborts_peers_promptly(self, backend, sync):
        rt = SimulatedRuntime(4, backend)  # the default 30 s barrier timeout
        mesh = simple_mesh(4, 4)
        backend.set_fault_plan(FaultPlan(fail_put_substring="process_0/model/w/c."))
        start = time.monotonic()
        handle = save_checkpoint(
            rt,
            "c/s0",
            {"model": small_tree()},
            tree_shardings(mesh),
            SaveOptions(sync=sync),
        )
        with pytest.raises(InjectedFaultError):
            handle.wait()
        assert time.monotonic() - start < 2.0

    def test_crash_before_finalize_leaves_no_checkpoint(self, backend):
        rt = make_runtime(backend, 2, barrier_timeout=2.0)
        mesh = simple_mesh(2, 2)
        # Crash once chunk data starts landing: 8 ops covers validation
        # lists plus global metadata, well before the commit op.
        backend.set_fault_plan(FaultPlan(crash_after_ops=8))
        handle = save_checkpoint(
            rt, "c/s0", {"model": small_tree()}, tree_shardings(mesh)
        )
        with pytest.raises(SimulatedCrashError):
            handle.wait()
        backend.clear_fault()
        assert not is_finalized(backend.store(), "c/s0")


class TestCopyBudget:
    @pytest.mark.parametrize(
        "layout, shape",
        [
            ("per_leaf", (1024, 512)),
            ("aggregated", (1024, 512)),
            ("per_leaf", (512, 1024)),
            pytest.param(
                "aggregated",
                (512, 1024),
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="an aggregated chunk that is not contiguous in its "
                    "leaf is gathered before the join: a second copy",
                ),
            ),
        ],
        ids=[
            "per_leaf-row_segments",
            "aggregated-row_segments",
            "per_leaf-column_segments",
            "aggregated-column_segments",
        ],
    )
    @both_modes
    def test_sync_save_copies_each_payload_byte_once(self, mode, layout, shape):
        """The snapshot is the payload: the traced peak of a sync save to
        ``mem`` is the stored copy of the tree plus bookkeeping. Replicas
        split each row shard along its longest axis: into rows for a tall
        shard, into columns for a wide one."""
        mesh = Mesh.create(
            [("replica", 2), ("fsdp", 2)], process_count=4, replica_axis="replica"
        )
        tree = {
            f"w{i}": DenseArray("f32", np.full(shape, i, np.float32)) for i in range(4)
        }
        nbytes = sum(leaf.nbytes for leaf in tree.values())
        assert nbytes == 8 * 1024 * 1024
        shardings = {"model": {p: sharded(mesh, shape, "fsdp") for p in tree}}
        backend = MemoryBackend()
        rt = make_runtime(backend, 4, mode=mode)
        options = SaveOptions(layout=layout, replica_parallel=True, sync=True)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            save_checkpoint(rt, "c/s0", {"model": tree}, shardings, options).wait()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 1.25 * nbytes
        out = load_checkpoint(rt, "c/s0", current_mesh=mesh)
        assert tree_equal(out["model"], as_tree(tree))


class TestCommitStyles:
    def test_indicator_backend_has_commit_file(self, backend):
        rt = make_runtime(backend, 1)
        mesh = simple_mesh(1, 1)
        save_checkpoint(rt, "c/s0", {"model": small_tree()}, tree_shardings(mesh)).wait()
        assert "c/s0/COMMIT" in backend.dump()

    def test_rename_backend_has_no_commit_file(self, rename_backend):
        rt = make_runtime(rename_backend, 1)
        mesh = simple_mesh(1, 1)
        save_checkpoint(
            rt, "c/s0", {"model": small_tree()}, tree_shardings(mesh)
        ).wait()
        keys = rename_backend.dump()
        assert not any(k.endswith("COMMIT") for k in keys)
        assert not any(".tmp." in k for k in keys)
        out = load_checkpoint(rt, "c/s0", current_mesh=mesh)
        assert tree_equal(out["model"], small_tree())

    def test_rename_tmp_location_used_before_commit(self, rename_backend):
        rt = make_runtime(rename_backend, 1)
        mesh = simple_mesh(1, 1)
        rename_backend.set_payload_gate(True)
        handle = save_checkpoint(
            rt, "c/s0", {"model": small_tree()}, tree_shardings(mesh)
        )
        time.sleep(0.1)
        keys = list(rename_backend.dump())
        assert any(".tmp." in k for k in keys)
        assert not any(k.startswith("c/s0/") for k in keys)
        rename_backend.set_payload_gate(False)
        handle.wait()


class TestLeaderActions:
    def test_exactly_once_multi_controller(self, backend):
        rt = make_runtime(backend, 4)
        mesh = simple_mesh(4, 4)
        handle = save_checkpoint(
            rt, "c/s0", {"model": small_tree()}, tree_shardings(mesh)
        )
        handle.wait()
        assert handle.leader_action_counts() == {
            "create_location": 1,
            "global_metadata": 1,
            "merge": 1,
            "commit": 1,
        }
        followers = [s.leader_actions for s in handle.sessions[1:]]
        assert all(actions == {} for actions in followers)

    def test_exactly_once_single_controller(self, backend):
        rt = make_runtime(backend, 4, mode=Mode.SINGLE_CONTROLLER)
        mesh = simple_mesh(4, 4)
        handle = save_checkpoint(
            rt, "c/s0", {"model": small_tree()}, tree_shardings(mesh)
        )
        handle.wait()
        assert handle.leader_action_counts() == {
            "create_location": 1,
            "global_metadata": 1,
            "merge": 1,
            "commit": 1,
        }


class TestReplicaParallel:
    def _run(self, n_replicas, processes, replica_parallel, fsdp=2):
        backend = MemoryBackend()
        rt = make_runtime(backend, processes)
        mesh = Mesh.create(
            [("replica", n_replicas), ("fsdp", fsdp)],
            process_count=processes,
            replica_axis="replica",
        )
        data = np.arange(64 * 8, dtype=np.float32).reshape(64, 8)
        tree = {"w": DenseArray("f32", data)}
        shardings = {"model": {"w": sharded(mesh, (64, 8), None, "fsdp")}}
        handle = save_checkpoint(
            rt,
            "c/s0",
            {"model": tree},
            shardings,
            SaveOptions(replica_parallel=replica_parallel),
        )
        handle.wait()
        out = load_checkpoint(rt, "c/s0", current_mesh=mesh)
        assert np.array_equal(out["model"]["w"].data, data)
        per_process = [
            backend.counters(f"process_{p}").payload_bytes_written
            for p in range(processes)
        ]
        return per_process, data.nbytes

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_replica_parallel_balances_writes(self, n):
        processes = 2 * n
        per_process, total = self._run(n, processes, replica_parallel=True)
        assert sum(per_process) == total
        expected = total / processes
        chunk_slack = max(per_process) - min(per_process)
        assert all(abs(b - expected) <= expected for b in per_process)
        assert chunk_slack <= total / (2 * n)  # within one chunk of slack
        if n > 1:
            assert min(per_process) > 0  # every replica participates

    @pytest.mark.parametrize("n", [2, 4])
    def test_single_slice_writes_from_replica_zero_only(self, n):
        processes = 2 * n
        per_process, total = self._run(n, processes, replica_parallel=False)
        assert sum(per_process) == total
        # One device per process: replica-0's two fsdp devices sit on the
        # first two processes; everyone else writes nothing.
        writers = [p for p, b in enumerate(per_process) if b > 0]
        assert writers == [0, 1]
        assert all(b == 0 for b in per_process[2:])

    def test_modes_agree_on_content(self):
        for replica_parallel in (False, True):
            backend = MemoryBackend()
            rt = make_runtime(backend, 4)
            mesh = Mesh.create(
                [("replica", 2), ("fsdp", 2)],
                process_count=4,
                replica_axis="replica",
            )
            data = np.arange(40 * 4, dtype=np.float32).reshape(40, 4)
            tree = {"w": DenseArray("f32", data)}
            shardings = {"model": {"w": sharded(mesh, (40, 4), None, "fsdp")}}
            save_checkpoint(
                rt,
                "c/s0",
                {"model": tree},
                shardings,
                SaveOptions(replica_parallel=replica_parallel),
            ).wait()
            out = load_checkpoint(rt, "c/s0", current_mesh=mesh)
            assert np.array_equal(out["model"]["w"].data, data)


class TestControllerModeEquivalence:
    @pytest.mark.parametrize("layout", ["per_leaf", "aggregated"])
    def test_byte_identical_checkpoints(self, layout):
        mesh = Mesh.create([("data", 4)], process_count=4)
        tree = small_tree()
        shardings = tree_shardings(mesh)
        dumps = {}
        for mode in (Mode.MULTI_CONTROLLER, Mode.SINGLE_CONTROLLER):
            backend = MemoryBackend()
            rt = make_runtime(backend, 4, mode=mode)
            save_checkpoint(
                rt,
                "c/s0",
                {"model": tree, "config": JsonDocument({"x": 2})},
                shardings,
                SaveOptions(layout=layout),
            ).wait()
            dumps[mode] = backend.dump()
        assert dumps[Mode.MULTI_CONTROLLER] == dumps[Mode.SINGLE_CONTROLLER]

    @both_modes
    def test_many_processes_share_the_snapshot_and_destination_maps(self, mode):
        """Eight process threads on fewer cores, switching often, each add
        their own entry to the save's snapshot map and the load's
        destination map; a lost entry fails the write or the load."""
        mesh = simple_mesh(8, 8)
        tree = {"w": DenseArray("f32", np.arange(64, dtype=np.float32).reshape(16, 4))}
        shardings = {"model": {"w": sharded(mesh, (16, 4), "data")}}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for i in range(5):
                backend = MemoryBackend()
                rt = make_runtime(backend, 8, mode=mode)
                save_checkpoint(rt, f"c/s{i}", {"model": tree}, shardings).wait()
                out = load_checkpoint(rt, f"c/s{i}", current_mesh=mesh)
                assert tree_equal(out["model"], tree)
        finally:
            sys.setswitchinterval(interval)
