import sys
import threading
import time

import numpy as np
import pytest

from conftest import make_runtime, sharded, simple_mesh
from treevault import (
    Checkpointer,
    CrashSchedule,
    DenseArray,
    FaultPlan,
    MemoryBackend,
    RetentionPolicy,
    SaveOptions,
    SimulatedRuntime,
    abstract_of,
    load_checkpoint,
    save_checkpoint,
    tree_equal,
)
from treevault.coordination import MAX_BROADCAST_BYTES, Mode
from treevault.errors import (
    BarrierTimeoutError,
    BroadcastPayloadError,
    CoordinationError,
    InjectedFaultError,
    PeerFailedError,
    ProcessCrashedError,
    WorkerTaskError,
)


class TestBarrier:
    def test_single_process_immediate(self, backend):
        rt = make_runtime(backend, 1)
        rt.contexts[0].barrier("phase1")  # returns without blocking

    def test_all_processes_released_together(self, backend):
        rt = make_runtime(backend, 4)
        released = []

        def body(ctx):
            ctx.barrier("sync")
            released.append(ctx.index)

        rt.run_collective(body)
        assert sorted(released) == [0, 1, 2, 3]

    def test_crashed_process_times_out_the_rest(self, backend):
        rt = SimulatedRuntime(
            4,
            backend,
            barrier_timeout=0.3,
            crash_schedule=[CrashSchedule(2, "sync")],
        )
        outcomes = {}

        def body(ctx):
            try:
                ctx.barrier("sync")
                outcomes[ctx.index] = "ok"
            except ProcessCrashedError:
                outcomes[ctx.index] = "crashed"
            except BarrierTimeoutError:
                outcomes[ctx.index] = "timeout"

        rt.run_collective(body)
        assert outcomes[2] == "crashed"
        assert [outcomes[i] for i in (0, 1, 3)] == ["timeout"] * 3

    def test_distinct_names_never_cross_release(self, backend):
        rt = SimulatedRuntime(2, backend, barrier_timeout=0.3)
        log = []

        def body(ctx):
            if ctx.index == 0:
                try:
                    ctx.barrier("phase_a")
                    log.append("a-released")
                except BarrierTimeoutError:
                    log.append("a-timeout")
            else:
                try:
                    ctx.barrier("phase_b")
                    log.append("b-released")
                except BarrierTimeoutError:
                    log.append("b-timeout")

        rt.run_collective(body)
        assert sorted(log) == ["a-timeout", "b-timeout"]

    def test_barrier_names_reusable_across_operations(self, backend):
        rt = make_runtime(backend, 3)
        for _ in range(3):
            rt.run_collective(lambda ctx: ctx.barrier("again"))

    def test_double_arrival_rejected(self, backend):
        rt = make_runtime(backend, 2)
        waiter = threading.Thread(target=lambda: rt.barrier("x", 0, timeout=5.0))
        waiter.start()
        time.sleep(0.05)
        with pytest.raises(CoordinationError):
            rt.barrier("x", 0, timeout=0.5)
        rt.barrier("x", 1, timeout=5.0)  # releases the waiter
        waiter.join()


class FailsFirstSave:
    """A stateful checkpointable whose first ``save()`` call raises."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def save(self):
        with self._lock:
            self.calls += 1
            first = self.calls == 1
        if first:
            raise RuntimeError("first save fails")
        return {"calls": self.calls}

    def load(self, state):
        pass


class TestCollectiveAbort:
    def test_failed_task_aborts_waiting_peers(self, backend):
        rt = make_runtime(backend, 4, barrier_timeout=10.0)
        waited = {}

        def body(ctx):
            if ctx.index == 2:
                time.sleep(0.05)  # let the others start waiting
                raise RuntimeError("boom")
            try:
                ctx.barrier("sync")
            except PeerFailedError as e:
                waited[ctx.index] = e
                raise

        start = time.monotonic()
        with pytest.raises(RuntimeError, match="boom") as err:
            rt.run_collective(body)
        assert time.monotonic() - start < 1.0
        assert sorted(waited) == [0, 1, 3]
        assert all(e.__cause__ is err.value for e in waited.values())
        assert rt._barriers == {}

    def test_next_collective_starts_afresh(self, backend):
        rt = make_runtime(backend, 3)

        def fail_on_one(ctx):
            if ctx.index == 1:
                raise RuntimeError("boom")
            ctx.barrier("sync")

        with pytest.raises(RuntimeError):
            rt.run_collective(fail_on_one)
        assert rt.run_collective(lambda ctx: ctx.barrier("sync")) == [None] * 3

    def test_failed_validation_aborts_save_and_retry_loads(self, backend):
        rt = make_runtime(backend, 2, barrier_timeout=10.0)
        mesh = simple_mesh(2, 2)
        tree = {"w": DenseArray("f32", np.arange(32, dtype=np.float32).reshape(8, 4))}
        shardings = {"m": {"w": sharded(mesh, (8, 4), "data")}}
        state = FailsFirstSave()
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="first save fails"):
            save_checkpoint(rt, "ck", {"m": tree, "state": state}, shardings).wait()
        assert time.monotonic() - start < 2.0  # not the 10 s barrier timeout
        save_checkpoint(rt, "ck", {"m": tree, "state": state}, shardings).wait()
        out = load_checkpoint(rt, "ck", {"m": abstract_of(tree, shardings["m"])})
        assert tree_equal(out["m"], tree)


class TestRendezvousLifecycle:
    def test_late_arrival_at_abandoned_barrier_waits_alone(self, backend):
        rt = make_runtime(backend, 2)
        with pytest.raises(BarrierTimeoutError):
            rt.barrier("x", 0, timeout=0.05)
        with pytest.raises(BarrierTimeoutError, match=r"processes \[0\]"):
            rt.barrier("x", 1, timeout=0.05)
        assert rt._barriers == {}

    def test_failed_save_retried_at_same_path_loads(self, backend):
        rt = make_runtime(backend, 2, barrier_timeout=1.0)
        mesh = simple_mesh(2, 2)
        tree = {"w": DenseArray("f32", np.arange(32, dtype=np.float32).reshape(8, 4))}
        shardings = {"m": {"w": sharded(mesh, (8, 4), "data")}}
        backend.set_fault_plan(FaultPlan(fail_put_substring="process_1/m/w/c."))
        with pytest.raises(InjectedFaultError):
            save_checkpoint(rt, "ck", {"m": tree}, shardings).wait()
        backend.clear_fault()
        save_checkpoint(rt, "ck", {"m": tree}, shardings).wait()
        out = load_checkpoint(rt, "ck", {"m": abstract_of(tree, shardings["m"])})
        assert tree_equal(out["m"], tree)

    def test_reused_broadcast_name_under_contention(self, backend):
        rt = make_runtime(backend, 8)
        rounds = [str(i).encode() for i in range(50)]

        def body(ctx):
            return [
                ctx.leader_broadcast("round", r if ctx.is_leader else None)
                for r in rounds
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = rt.run_collective(body)
        finally:
            sys.setswitchinterval(interval)
        assert results == [rounds] * 8
        assert rt._barriers == {}

    @pytest.mark.parametrize("backend_fixture", ["backend", "rename_backend"])
    def test_no_state_kept_after_steps(self, request, backend_fixture):
        backend = request.getfixturevalue(backend_fixture)
        rt = make_runtime(backend, 2)
        mesh = simple_mesh(2, 2)
        cp = Checkpointer(rt, "root", RetentionPolicy(keep_last=2))
        for step in range(5):
            tree = {"w": DenseArray("f32", np.full((4, 4), step, np.float32))}
            shardings = {"w": sharded(mesh, (4, 4), "data")}
            cp.save_step(step, {"m": tree}, {"m": shardings})
            cp.wait()
            cp.refresh()
            out = cp.load_step(step, {"m": abstract_of(tree, shardings)})
            assert tree_equal(out["m"], tree)
        assert rt._barriers == {}
        assert getattr(rt, "_mailbox", {}) == {}


class TestBroadcast:
    def test_identical_payload_everywhere(self, backend):
        rt = make_runtime(backend, 8)
        payload = b"steps:0,5,10"

        def body(ctx):
            return ctx.leader_broadcast(
                "steps", payload if ctx.is_leader else None
            )

        assert rt.run_collective(body) == [payload] * 8

    def test_single_process_identity(self, backend):
        rt = make_runtime(backend, 1)
        out = rt.run_collective(
            lambda ctx: ctx.leader_broadcast("x", b"data")
        )
        assert out == [b"data"]

    def test_no_storage_ops_attributed(self, backend):
        rt = make_runtime(backend, 32)
        payload = bytes(1024)
        before = backend.counters()
        rt.run_collective(
            lambda ctx: ctx.leader_broadcast("big", payload if ctx.is_leader else None)
        )
        delta = backend.counters().minus(before)
        assert delta.op_count() == 0
        assert delta.bytes_read == delta.bytes_written == 0

    def test_payload_size_limit(self, backend):
        rt = make_runtime(backend, 1)
        too_big = bytes(MAX_BROADCAST_BYTES + 1)
        with pytest.raises(BroadcastPayloadError):
            rt.run_collective(lambda ctx: ctx.leader_broadcast("x", too_big))

    def test_requires_multi_controller(self, backend):
        rt = make_runtime(backend, 2, mode=Mode.SINGLE_CONTROLLER)
        with pytest.raises(CoordinationError):
            rt.contexts[0].leader_broadcast("x", b"y")


class TestRunProgram:
    """One program, written once, in both modes: the mode chooses only
    where each step runs."""

    @staticmethod
    def program(ctx):
        ctx.barrier("start")
        got = ctx.leader_broadcast("plan", b"plan" if ctx.is_leader else None)
        parts = ctx.each(lambda worker: worker.index)
        return ctx.index, got, parts

    def test_multi_controller_runs_on_every_process(self, backend):
        rt = make_runtime(backend, 3)
        assert rt.run_program(self.program) == [
            (0, b"plan", [0]),
            (1, b"plan", [1]),
            (2, b"plan", [2]),
        ]

    def test_single_controller_runs_once_and_steps_on_every_worker(self, backend):
        rt = make_runtime(backend, 3, mode=Mode.SINGLE_CONTROLLER)
        assert rt.run_program(self.program) == [(0, b"plan", [0, 1, 2])]

    def test_controller_broadcast_keeps_the_payload_cap(self, backend):
        rt = make_runtime(backend, 2, mode=Mode.SINGLE_CONTROLLER)
        with pytest.raises(BroadcastPayloadError):
            rt.controller.leader_broadcast("x", b"x" * (MAX_BROADCAST_BYTES + 1))
        with pytest.raises(CoordinationError):
            rt.controller.leader_broadcast("x")


class TestRunOnWorkers:
    def test_acks_from_all_workers(self, backend):
        rt = make_runtime(backend, 4, mode=Mode.SINGLE_CONTROLLER)
        acks = rt.run_on_workers(lambda ctx: f"ack{ctx.index}")
        assert acks == ["ack0", "ack1", "ack2", "ack3"]

    def test_controller_writes_no_chunk_payload(self, backend):
        rt = make_runtime(backend, 2, mode=Mode.SINGLE_CONTROLLER)

        def write_task(ctx):
            ctx.store.put(f"data/process_{ctx.index}/w/c.{ctx.index}", b"x" * 64)

        rt.run_on_workers(write_task)
        assert backend.counters("controller").payload_bytes_written == 0
        assert backend.counters("process_0").payload_bytes_written == 64
        assert backend.counters("process_1").payload_bytes_written == 64

    def test_worker_failure_names_index(self, backend):
        rt = make_runtime(backend, 4, mode=Mode.SINGLE_CONTROLLER)

        def task(ctx):
            if ctx.index == 2:
                raise RuntimeError("boom")
            return "ok"

        with pytest.raises(WorkerTaskError) as err:
            rt.run_on_workers(task)
        assert err.value.failures[0][0] == 2
        assert "worker 2" in str(err.value)

    def test_requires_single_controller(self, backend):
        rt = make_runtime(backend, 2)
        with pytest.raises(CoordinationError):
            rt.run_on_workers(lambda ctx: None)

    def test_worker_subset(self, backend):
        rt = make_runtime(backend, 4, mode=Mode.SINGLE_CONTROLLER)
        out = rt.run_on_workers(lambda ctx: ctx.index, workers=[1, 3])
        assert out == [1, 3]


class TestDirectoryExistenceRace:
    """The existence check must strictly precede directory creation.

    With an indicator-style backend the save writes under the final path,
    so a mis-ordered protocol would let a late validator observe the new
    location's keys. Randomized schedules assert that never happens.
    """

    @pytest.mark.parametrize("processes", [2, 4, 8])
    def test_no_process_observes_fresh_location(self, processes):
        mesh = simple_mesh(processes, processes)
        tree = {"w": DenseArray("f32", np.arange(4 * processes, dtype=np.float32))}
        shardings = {"model": {"w": sharded(mesh, (4 * processes,), "data")}}
        for seed in range(20):
            backend = MemoryBackend()
            rt = SimulatedRuntime(
                processes, backend, barrier_timeout=10.0, seed=seed, jitter=0.002
            )
            handle = save_checkpoint(
                rt, "root/step", {"model": tree}, shardings, SaveOptions()
            )
            handle.wait()
            for observed in handle.observed_existing():
                assert observed == []


def test_seeded_jitter_default():
    rt = SimulatedRuntime(1, MemoryBackend(), seed=3)
    assert rt.jitter > 0
    rt2 = SimulatedRuntime(1, MemoryBackend())
    assert rt2.jitter == 0.0
