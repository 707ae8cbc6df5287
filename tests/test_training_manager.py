import random
import re

import numpy as np
import pytest

from conftest import make_runtime, sharded, simple_mesh
from oracles import retained_steps
from treevault import (
    Checkpointer,
    DenseArray,
    MemoryBackend,
    Mode,
    RetentionPolicy,
    SaveOptions,
    latest_step,
    load_checkpoint,
    should_save,
    tree_equal,
)
from treevault.backend import FaultPlan, FilesystemBackend, Store, make_backend
from treevault.errors import (
    GarbageCollectionError,
    SimulatedCrashError,
    StepError,
)
from treevault.save_pipeline import commit_marker
from treevault.training_manager import scan_steps, step_dir_name
from treevault.treemodel import as_tree


def tree_for(step):
    return as_tree(
        {"w": DenseArray("f32", np.full((4, 2), step, np.float32)), "step": step}
    )


def fill_steps(store, steps, keys_per_step, root="root"):
    """Finalized step directories of ``keys_per_step`` keys, marker included."""
    for step in steps:
        d = f"{root}/{step_dir_name(step)}"
        for i in range(keys_per_step - 1):
            store.put(f"{d}/process_{i % 4}/w/c.{i}", b"x")
        store.put(f"{d}/{commit_marker(store)}", b"m")


def spy_listings(monkeypatch):
    """Record the result of every ``Store.list_keys`` call."""
    listings = []
    real = Store.list_keys

    def list_keys(self, prefix, shallow=False):
        listings.append(real(self, prefix, shallow))
        return listings[-1]

    monkeypatch.setattr(Store, "list_keys", list_keys)
    return listings


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

    def test_listing_on_leader_only(self, backend, monkeypatch):
        """20 steps of 70 keys: the leader lists the root's children once and
        checks each step's commit marker once; followers touch no storage."""
        rt = make_runtime(backend, 8)
        fill_steps(backend.store(), range(20), keys_per_step=70)
        listings = spy_listings(monkeypatch)
        before = {i: backend.counters(f"process_{i}") for i in range(8)}
        assert latest_step(rt, "root") == 19
        delta = {i: backend.counters(f"process_{i}").minus(before[i]) for i in range(8)}
        assert delta[0].ops == {"list": 1, "get_range": 20}
        assert all(delta[i].op_count() == 0 for i in range(1, 8))
        assert len(listings) == 1 and len(listings[0]) <= 21

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
        assert 1 in cp._catalog  # still listed
        # the fault consumed itself; a retry succeeds
        assert cp.garbage_collect() == [1]
        assert cp.all_steps() == [2]

    def test_catalog_matches_storage_after_operations(self, backend):
        rt = make_runtime(backend, 1)
        cp = Checkpointer(rt, "root", RetentionPolicy(keep_last=2))
        for step in (0, 1, 2, 3):
            cp.save_step(step, {"model": tree_for(step)})
            cp.wait()
            assert scan_steps(backend.store(), "root") == cp._catalog


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


_STEP_RE = re.compile(r"step_(\d{8})$")
_TMP_RE = re.compile(r"step_\d{8}\.tmp\.[0-9a-f]+$")


def reference_scan(store, root):
    """Step finality, and the keys of each top-level name, from one full
    listing of the root: discovery as it was before shallow listings."""
    by_dir = {}
    for key in store.list_keys(f"{root}/"):
        by_dir.setdefault(key[len(root) + 1 :].split("/", 1)[0], []).append(key)
    marker = commit_marker(store)
    steps = {
        int(m.group(1)): f"{root}/{top}/{marker}" in keys
        for top, keys in by_dir.items()
        if (m := _STEP_RE.match(top))
    }
    return steps, by_dir


def reference_dead(store, root):
    """The prefixes ``sweep_tmp(0)`` removes, from the full listing."""
    steps, by_dir = reference_scan(store, root)
    dead = {step_dir_name(s) for s, done in steps.items() if not done}
    dead |= {d for d in by_dir if _TMP_RE.match(d)}
    return sorted(f"{root}/{d}" for d in dead)


def random_root(store, rng, root="root"):
    """Finalized steps, unfinalized residue, ``.tmp.<nonce>`` directories,
    stray root-level files and non-step directories under ``root``, plus a
    finalized step under a sibling whose name extends the root's."""
    marker = commit_marker(store)
    for step in rng.sample(range(60), rng.randint(0, 12)):
        d = f"{root}/{step_dir_name(step)}"
        kind = rng.choice(["finalized", "finalized", "residue", "file"])
        if kind == "file":
            store.put(d, b"a file named like a step")
            continue
        for i in range(rng.randint(1, 4)):
            store.put(f"{d}/process_{rng.randrange(3)}/w/c.{i}", b"x")
        if kind == "finalized":
            store.put(f"{d}/{marker}", b"m")
    for _ in range(rng.randint(0, 3)):
        tmp = f"{root}/{step_dir_name(rng.randrange(60))}.tmp.{rng.getrandbits(48):012x}"
        store.put(f"{tmp}/process_0/w/c.0", b"x")
        if rng.random() < 0.5:
            store.put(f"{tmp}/{marker}", b"m")  # renamed in later; still dead
    files = ["notes.txt", "step_1", "step_00000001x", marker, "step_00000002.tmp"]
    for name in rng.sample(files, rng.randint(0, 3)):
        store.put(f"{root}/{name}", b"stray")
    dirs = ["logs", "step_2", "step_00000003x", "step_00000004.tmp.zz", "process_0"]
    for name in rng.sample(dirs, rng.randint(0, 3)):
        store.put(f"{root}/{name}/a/{marker}", b"x")
    store.put(f"{root}x/{step_dir_name(1)}/{marker}", b"m")


class TestShallowDiscovery:
    @pytest.mark.parametrize("spec", ["mem", "mem+rename", "fs"])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_full_listing(self, spec, seed, tmp_path):
        backend = make_backend(f"fs:{tmp_path}" if spec == "fs" else spec)
        store = backend.store()
        random_root(store, random.Random(seed))
        steps, _ = reference_scan(store, "root")
        assert scan_steps(store, "root") == steps
        assert scan_steps(store, "root/") == steps
        cp = Checkpointer(make_runtime(backend, 1), "root", RetentionPolicy(keep_last=99))
        assert cp._catalog == steps
        before = set(backend.dump())
        dead = reference_dead(store, "root")
        assert cp.sweep_tmp(0.0) == dead
        assert set(backend.dump()) == {
            k for k in before if not any(k == d or k.startswith(d + "/") for d in dead)
        }
        assert scan_steps(store, "root") == {s: True for s, ok in steps.items() if ok}

    def test_fs_discovery_is_one_shallow_listing(self, tmp_path, monkeypatch):
        backend = FilesystemBackend(tmp_path)
        fill_steps(backend.store(), range(0, 200, 10), keys_per_step=70)
        listings = spy_listings(monkeypatch)
        before = backend.counters()
        cp = Checkpointer(make_runtime(backend, 4, mode=Mode.SINGLE_CONTROLLER), "root")
        assert cp.all_steps() == list(range(0, 200, 10))
        delta = backend.counters().minus(before)
        assert delta.ops == {"list": 1, "get_range": 20}
        assert [len(names) for names in listings] == [20]

    def test_sweep_with_nothing_dead_lists_only_children(self, backend, monkeypatch):
        fill_steps(backend.store(), range(3), keys_per_step=5)
        cp = Checkpointer(make_runtime(backend, 1), "root", RetentionPolicy(keep_last=9))
        listings = spy_listings(monkeypatch)
        assert cp.sweep_tmp(0.0) == []
        assert listings == [[f"root/{step_dir_name(s)}" for s in range(3)]]

    def test_fs_empty_step_directory_is_unfinalized(self, tmp_path):
        """A crash between ``mkdir`` and the first put leaves a directory
        that only the shallow listing sees; it is never a load candidate,
        and a sweep removes it."""
        backend = FilesystemBackend(tmp_path)
        fill_steps(backend.store(), [1], keys_per_step=2)
        (backend.root / "root" / step_dir_name(2)).mkdir()
        assert scan_steps(backend.store(), "root") == {1: True, 2: False}
        cp = Checkpointer(make_runtime(backend, 1), "root")
        assert cp.latest_step() == 1
        assert cp.sweep_tmp(0.0) == ["root/step_00000002"]
        assert not (backend.root / "root" / step_dir_name(2)).exists()
        assert scan_steps(backend.store(), "root") == {1: True}

    def test_ages_skip_keys_removed_since_the_listing(self, tmp_path):
        """A dead directory that vanished between the sweep's two listings
        has no age, so it is skipped rather than failing the sweep."""
        for backend in (MemoryBackend(), FilesystemBackend(tmp_path)):
            backend.store().put("root/a/k", b"x")
            newest = backend.newest_mtime(["root/a/k"])
            assert newest is not None
            assert backend.newest_mtime(["root/a/k", "root/a/gone"]) == newest
            assert backend.newest_mtime(["root/gone"]) is None
