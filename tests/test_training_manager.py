import numpy as np
import pytest

from conftest import make_runtime, sharded, simple_mesh
from oracles import retained_steps
from treevault import (
    Checkpointer,
    DenseArray,
    MemoryBackend,
    RetentionPolicy,
    SaveOptions,
    latest_step,
    load_checkpoint,
    should_save,
    tree_equal,
)
from treevault.backend import FaultPlan
from treevault.errors import (
    GarbageCollectionError,
    SimulatedCrashError,
    StepError,
)
from treevault.training_manager import scan_steps, step_dir_name
from treevault.treemodel import as_tree


def tree_for(step):
    return as_tree(
        {"w": DenseArray("f32", np.full((4, 2), step, np.float32)), "step": step}
    )


class TestShouldSave:
    def test_step_zero(self):
        assert should_save(0, 5) is True

    def test_off_interval(self):
        assert should_save(7, 5) is False

    def test_enumeration_0_to_20(self):
        saves = [s for s in range(21) if should_save(s, 5)]
        assert saves == [0, 5, 10, 15, 20]

    def test_bad_interval(self):
        with pytest.raises(StepError):
            should_save(3, 0)


class TestSaveStep:
    def test_sequence_registers_finalized_steps(self, backend):
        rt = make_runtime(backend, 1)
        cp = Checkpointer(rt, "root", RetentionPolicy(keep_last=10))
        for step in (0, 5, 10):
            cp.save_step(step, {"model": tree_for(step)})
        cp.wait()
        assert cp.all_steps() == [0, 5, 10]

    def test_non_monotonic_rejected(self, backend):
        rt = make_runtime(backend, 1)
        cp = Checkpointer(rt, "root", RetentionPolicy(keep_last=10))
        cp.save_step(10, {"model": tree_for(10)})
        cp.wait()
        with pytest.raises(StepError):
            cp.save_step(5, {"model": tree_for(5)})
        with pytest.raises(StepError):
            cp.save_step(10, {"model": tree_for(10)})

    def test_second_save_waits_for_first(self, backend):
        rt = make_runtime(backend, 1)
        cp = Checkpointer(rt, "root", RetentionPolicy(keep_last=10))
        backend.set_payload_gate(True)
        cp.save_step(0, {"model": tree_for(0)})
        backend.set_payload_gate(False)
        cp.save_step(1, {"model": tree_for(1)})  # waits on step 0 internally
        cp.wait()
        assert cp.all_steps() == [0, 1]

    def test_crash_during_step_10(self, backend):
        rt = make_runtime(backend, 1, barrier_timeout=2.0)
        cp = Checkpointer(rt, "root", RetentionPolicy(keep_last=10))
        for step in (0, 5):
            cp.save_step(step, {"model": tree_for(step)})
        cp.wait()
        ops_so_far = backend.op_count()
        backend.set_fault_plan(FaultPlan(crash_after_ops=ops_so_far + 6))
        handle = cp.save_step(10, {"model": tree_for(10)})
        with pytest.raises(SimulatedCrashError):
            handle.wait()
        backend.clear_fault()

        recovered = Checkpointer(rt, "root", RetentionPolicy(keep_last=10))
        assert recovered.all_steps() == [0, 5]
        assert recovered.latest_step() == 5
        out = recovered.load_step()
        assert tree_equal(out["model"], tree_for(5))


class TestLatestStep:
    def test_empty_root(self, backend):
        rt = make_runtime(backend, 1)
        assert latest_step(rt, "root") is None

    def test_unfinalized_step_skipped(self, backend):
        rt = make_runtime(backend, 1)
        cp = Checkpointer(rt, "root", RetentionPolicy(keep_last=10))
        for step in (0, 5):
            cp.save_step(step, {"model": tree_for(step)})
        cp.wait()
        # partial residue of a dead step-10 save, no commit marker
        backend.store().put(f"root/{step_dir_name(10)}/process_0/x", b"junk")
        assert latest_step(rt, "root") == 5

    def test_listing_on_leader_only(self, backend):
        rt = make_runtime(backend, 8)
        backend.store().put("root/step_00000000/COMMIT", b"COMMIT\n")
        before = {
            i: backend.counters(f"process_{i}").op_count("list") for i in range(8)
        }
        assert latest_step(rt, "root") == 0
        after = {
            i: backend.counters(f"process_{i}").op_count("list") for i in range(8)
        }
        assert after[0] == before[0] + 1
        assert all(after[i] == before[i] for i in range(1, 8))

    def test_multiprocess_checkpointer_catalog(self, backend):
        rt = make_runtime(backend, 4)
        mesh = simple_mesh(4, 4)
        cp = Checkpointer(rt, "root", RetentionPolicy(keep_last=10))
        tree = {"w": DenseArray("f32", np.arange(16, dtype=np.float32).reshape(8, 2))}
        cp.save_step(0, {"model": tree}, {"model": {"w": sharded(mesh, (8, 2), "data")}})
        cp.wait()
        assert cp.all_steps() == [0]
        out = cp.load_step(0, current_mesh=mesh)
        assert tree_equal(out["model"], tree)


class TestGarbageCollection:
    def _run_steps(self, backend, steps, policy):
        rt = make_runtime(backend, 1)
        cp = Checkpointer(rt, "root", policy)
        for step in steps:
            cp.save_step(step, {"model": tree_for(step)})
        cp.wait()
        return cp

    def test_keep_last_3(self, backend):
        cp = self._run_steps(
            backend, range(10), RetentionPolicy(keep_last=3)
        )
        assert cp.all_steps() == sorted(retained_steps(range(10), 3))
        assert cp.all_steps() == [7, 8, 9]

    def test_keep_last_3_period_4(self, backend):
        cp = self._run_steps(
            backend, range(10), RetentionPolicy(keep_last=3, keep_period=4)
        )
        expected = sorted(retained_steps(range(10), 3, 4))
        assert cp.all_steps() == expected == [0, 4, 7, 8, 9]

    def test_single_step_never_deleted(self, backend):
        cp = self._run_steps(backend, [3], RetentionPolicy(keep_last=1))
        assert cp.all_steps() == [3]

    def test_idempotent(self, backend):
        cp = self._run_steps(backend, range(6), RetentionPolicy(keep_last=2))
        assert cp.garbage_collect() == []

    def test_deletes_whole_step_prefix(self, backend):
        self._run_steps(backend, range(4), RetentionPolicy(keep_last=1))
        keys = list(backend.dump())
        assert all(f"/{step_dir_name(s)}/" not in k for s in range(3) for k in keys)

    def test_delete_failure_keeps_step_listed(self, backend):
        rt = make_runtime(backend, 1)
        cp = Checkpointer(rt, "root", RetentionPolicy(keep_last=1))
        for step in (0, 1):
            cp.save_step(step, {"model": tree_for(step)})
            cp.wait()
        cp.save_step(2, {"model": tree_for(2)})
        backend.set_fault_plan(
            FaultPlan(fail_delete_substring=step_dir_name(1))
        )
        with pytest.raises(GarbageCollectionError) as err:
            cp.wait()
        assert 1 in err.value.failures
        assert 1 in cp._catalog.steps  # still listed
        # the fault consumed itself; a retry succeeds
        assert cp.garbage_collect() == [1]
        assert cp.all_steps() == [2]

    def test_catalog_matches_storage_after_operations(self, backend):
        rt = make_runtime(backend, 1)
        cp = Checkpointer(rt, "root", RetentionPolicy(keep_last=2))
        for step in (0, 1, 2, 3):
            cp.save_step(step, {"model": tree_for(step)})
            cp.wait()
            assert scan_steps(backend.store(), "root") == cp._catalog.steps


class TestCatalogLatestStep:
    def test_latest_and_load_issue_no_listing(self, backend):
        rt = make_runtime(backend, 4)
        cp = Checkpointer(rt, "root", RetentionPolicy(keep_last=10))
        for step in (0, 5):
            cp.save_step(step, {"model": tree_for(step)})
        cp.wait()
        before = backend.counters().op_count("list")
        assert cp.latest_step() == 5
        out = cp.load_step()
        assert backend.counters().op_count("list") == before
        assert tree_equal(out["model"], tree_for(5))

    def test_other_writer_seen_after_refresh(self, backend):
        rt = make_runtime(backend, 1)
        reader = Checkpointer(rt, "root", RetentionPolicy(keep_last=10))
        writer = Checkpointer(rt, "root", RetentionPolicy(keep_last=10))
        writer.save_step(3, {"model": tree_for(3)})
        writer.wait()
        assert reader.latest_step() is None
        assert latest_step(rt, "root") == 3
        reader.refresh()
        assert reader.latest_step() == 3


class TestSweepTmp:
    @pytest.mark.parametrize("n", [1, 4])
    def test_one_listing_supplies_ages(self, backend, monkeypatch, n):
        rt = make_runtime(backend, 1)
        cp = Checkpointer(rt, "root", RetentionPolicy(keep_last=5))
        for step in range(n):
            backend.store().put(f"root/{step_dir_name(step)}/process_0/w/c.0", b"x")
        calls = []
        real_list = MemoryBackend._list

        def counted_list(self, prefix):
            calls.append(prefix)
            return real_list(self, prefix)

        monkeypatch.setattr(MemoryBackend, "_list", counted_list)
        assert len(cp.sweep_tmp(0.0)) == n
        # One listing of the root supplies the ages and the deletions.
        assert len(calls) == 1

    def test_sweeps_unfinalized_residue(self, backend):
        rt = make_runtime(backend, 1)
        cp = Checkpointer(rt, "root", RetentionPolicy(keep_last=5))
        cp.save_step(0, {"model": tree_for(0)})
        cp.wait()
        backend.store().put("root/step_00000007/process_0/w/c.0", b"dead")
        swept = cp.sweep_tmp(max_age_seconds=0.0)
        assert swept == ["root/step_00000007"]
        assert cp.all_steps() == [0]
        assert "root/step_00000007/process_0/w/c.0" not in backend.dump()

    def test_sweeps_tmp_dirs(self, rename_backend):
        rt = make_runtime(rename_backend, 1)
        cp = Checkpointer(rt, "root", RetentionPolicy(keep_last=5))
        cp.save_step(0, {"model": tree_for(0)})
        cp.wait()
        rename_backend.store().put(
            "root/step_00000001.tmp.abc123/process_0/w/c.0", b"dead"
        )
        swept = cp.sweep_tmp(max_age_seconds=0.0)
        assert swept == ["root/step_00000001.tmp.abc123"]

    def test_age_threshold_spares_recent(self, backend):
        rt = make_runtime(backend, 1)
        cp = Checkpointer(rt, "root", RetentionPolicy(keep_last=5))
        backend.store().put("root/step_00000009/process_0/w/c.0", b"fresh")
        assert cp.sweep_tmp(max_age_seconds=3600) == []

    def test_never_sweeps_finalized(self, backend):
        rt = make_runtime(backend, 1)
        cp = Checkpointer(rt, "root", RetentionPolicy(keep_last=5))
        cp.save_step(0, {"model": tree_for(0)})
        cp.wait()
        assert cp.sweep_tmp(0.0) == []
        assert cp.all_steps() == [0]


class TestRetentionPolicy:
    def test_oracle_agreement_randomized(self):
        import random

        rng = random.Random(17)
        for _ in range(100):
            steps = sorted(rng.sample(range(40), rng.randint(1, 12)))
            keep_last = rng.randint(1, 5)
            period = rng.choice([None, 2, 5, 10])
            policy = RetentionPolicy(keep_last=keep_last, keep_period=period)
            assert policy.retained(steps) == retained_steps(
                steps, keep_last, period
            )

    def test_validation(self):
        with pytest.raises(StepError):
            RetentionPolicy(keep_last=0)
        with pytest.raises(StepError):
            RetentionPolicy(keep_last=1, keep_period=0)
