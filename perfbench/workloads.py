"""The benchmark's seeded workloads.

Each workload drives treevault's public API from one closed-loop driver
thread; the only other threads are the runtime's simulated processes.
``setup`` builds the trees and meshes (and, for train-resume-fs, the
pre-populated root). ``iteration`` runs one save and one restore inside
the ``region`` context manager, which the traced run uses to install its
wrappers, then checks the restore bit-exactly against the saved tree and
the backend byte counters against the exact invariants.

Module-level functions are called through their module (for example
``save_pipeline.save_checkpoint``) so that the traced run's wrappers are
the bindings resolved.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from treevault import load_pipeline, save_pipeline, training_manager, treemodel
from treevault.backend import CounterSnapshot, FilesystemBackend, MemoryBackend
from treevault.chunkstore import AGGREGATED
from treevault.coordination import Mode, SimulatedRuntime
from treevault.sharding import Mesh, PartitionSpec, Sharding
from treevault.treemodel import AbstractLeaf, DenseArray

PROCESSES = 4
CKPT = "ckpt"


@dataclass
class Outcome:
    """One iteration: phase times, counter figures and the gate's verdict."""

    times: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    payload_written: int = 0
    bytes_written: int = 0
    payload_read: int = 0
    delta: CounterSnapshot | None = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"gate: {what} failed", file=sys.stderr)

    def error(self, what: str) -> "Outcome":
        self.attempted += 1
        self.failed += 1
        print(f"gate: {what} raised", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return self


def tree_bytes(tree: dict) -> int:
    return sum(
        leaf.nbytes
        for _, leaf in treemodel.flatten(tree)
        if isinstance(leaf, DenseArray)
    )


def flip_one_byte(tree: dict) -> None:
    """Corrupt a restored tree in place (self-test of the gate)."""
    _, leaf = next(
        (p, l) for p, l in treemodel.flatten(tree) if isinstance(l, DenseArray)
    )
    leaf.data.reshape(-1).view(np.uint8)[0] ^= 1


def _f32(rng: np.random.Generator, shape) -> DenseArray:
    return DenseArray("f32", rng.standard_normal(shape, dtype=np.float32))


class RoundTrip:
    """One timed save and restore of ``self.tree``, then the gate.

    Subclasses provide ``begin`` (returns the iteration's runtime),
    ``save`` (returns what to ``wait()`` on) and ``restore`` (returns the
    restored tree and the time the load proper started). The runtime stays
    local to the iteration, so a fresh backend is freed before the next
    one. With ``exact_reads``, the restore must read exactly the tree's
    payload bytes. ``fixture_s`` is the part of the last ``setup`` that
    ran none of the program's code, and is left out of ``setup_s``.
    """

    exact_reads = True
    fixture_s = 0.0

    def iteration(self, region, corrupt: bool) -> Outcome:
        out = Outcome()
        runtime = self.begin()
        backend = runtime.backend
        before = backend.counters()
        with region:
            t0 = time.perf_counter()
            try:
                pending = self.save(runtime)
                t1 = time.perf_counter()
                pending.wait()
                t2 = time.perf_counter()
            except Exception:
                return out.error("save")
            saved = backend.counters().minus(before)
            out.check(saved.payload_bytes_written == self.nbytes, "save payload bytes")
            t3 = time.perf_counter()
            try:
                restored, t4 = self.restore(runtime)
                t5 = time.perf_counter()
            except Exception:
                return out.error("restore")
        out.delta = backend.counters().minus(before)
        out.payload_written = saved.payload_bytes_written
        out.bytes_written = saved.bytes_written
        out.payload_read = out.delta.payload_bytes_read - saved.payload_bytes_read
        out.times = {
            "save_blocking": t1 - t0,
            "save": t2 - t0,
            "restore": t5 - t4,
            "resume": t5 - t3,
            "wall": t5 - t0,
        }
        if corrupt:
            flip_one_byte(restored)
        out.check(
            treemodel.tree_equal(restored, self.tree)
            and (out.payload_read == self.nbytes or not self.exact_reads),
            "restore bit-exact",
        )
        return out

    def close(self) -> None:
        pass


class BulkReshard(RoundTrip):
    """Large aggregated save on replica 2 x fsdp 4, restored onto fsdp 16.

    Replica-parallel writes with subchunks well below the write chunk, so
    each target shard is half a write chunk and is fetched by byte range.
    A fresh ``mem`` backend per iteration, since each is a new checkpoint.
    """

    name = "bulk-reshard"
    sizes = {
        "full": {"leaves": 16, "rows": 8192, "cols": 256, "subchunk": 128 * 1024},
        "tiny": {"leaves": 2, "rows": 256, "cols": 32, "subchunk": 1024},
    }

    def __init__(self, size: str, seed: int, scratch: str):
        self.cfg = self.sizes[size]
        self.seed = seed

    def setup(self) -> None:
        cfg = self.cfg
        rng = np.random.default_rng(self.seed)
        shape = (cfg["rows"], cfg["cols"])
        save_mesh = Mesh.create(
            [("replica", 2), ("fsdp", 4)], PROCESSES, replica_axis="replica"
        )
        load_mesh = Mesh.create([("fsdp", 16)], PROCESSES)
        spec = PartitionSpec.of("fsdp", None)
        self.tree = {f"w{i:02d}": _f32(rng, shape) for i in range(cfg["leaves"])}
        self.shardings = {p: Sharding(save_mesh, spec, shape) for p in self.tree}
        self.target = {
            p: AbstractLeaf("array", shape, "f32", Sharding(load_mesh, spec, shape))
            for p in self.tree
        }
        self.options = save_pipeline.SaveOptions(
            layout=AGGREGATED,
            subchunk_target_bytes=cfg["subchunk"],
            replica_parallel=True,
        )
        self.nbytes = tree_bytes(self.tree)

    def begin(self):
        return SimulatedRuntime(PROCESSES, MemoryBackend())

    def save(self, runtime):
        return save_pipeline.save_checkpoint(
            runtime, CKPT, {"model": self.tree},
            {"model": self.shardings}, self.options,
        )

    def restore(self, runtime):
        start = time.perf_counter()
        restored = load_pipeline.load_checkpoint(
            runtime, CKPT, {"model": self.target}
        )
        return restored["model"], start


class TrainResumeFs(RoundTrip):
    """Training-style step saves with retention on a durable ``fs:`` root.

    One backend for the whole run. Each iteration mutates the tree, saves
    the next step asynchronously, waits (commit plus retention), then
    resumes: a fresh Checkpointer and a broadcast load of the latest step.
    """

    name = "train-resume-fs"
    sizes = {
        "full": {"leaves": 16, "rows": 512, "cols": 256, "steps": 20},
        "tiny": {"leaves": 4, "rows": 32, "cols": 32, "steps": 3},
    }
    root = "run"

    def __init__(self, size: str, seed: int, scratch: str):
        self.cfg = self.sizes[size]
        self.seed = seed
        self.scratch = scratch
        self.dirs: list[str] = []

    def setup(self) -> None:
        cfg = self.cfg
        rng = np.random.default_rng(self.seed)
        self.rng = rng
        shape = (cfg["rows"], cfg["cols"])
        mesh = Mesh.create(
            [("replica", 2), ("fsdp", 4)], PROCESSES, replica_axis="replica"
        )
        spec = PartitionSpec.of("fsdp", None)
        self.tree = {f"p{i:02d}": _f32(rng, shape) for i in range(cfg["leaves"])}
        self.shardings = {p: Sharding(mesh, spec, shape) for p in self.tree}
        self.abstract = treemodel.abstract_of(self.tree, self.shardings)
        self.policy = training_manager.RetentionPolicy(keep_last=2, keep_period=10)
        self.nbytes = tree_bytes(self.tree)
        # A fresh root per set-up; earlier ones are removed by close(), so
        # that their deletion is not timed as set-up.
        root_dir = tempfile.mkdtemp(prefix="train-resume-fs-", dir=self.scratch)
        self.dirs.append(root_dir)

        # Save step 0 once, then hard-link its files into steps 10, 20, ...
        # so that every pre-populated step is a retained (keep_period) step.
        # These steps are only listed, never read or deleted, so they hold a
        # small tree with the same leaf paths and chunk grid: the same keys,
        # with little payload. The links run none of the program's code, so
        # their time is left out of setup_s: it is almost all ext4 mkdir,
        # whose cost varied 15-fold with how much the filesystem had churned
        # in the minute before.
        small = (8, 8)
        seeder = training_manager.Checkpointer(
            SimulatedRuntime(PROCESSES, FilesystemBackend(root_dir)), self.root,
            self.policy, save_pipeline.SaveOptions(sync=True),
        )
        seeder.save_step(
            0,
            {"model": {p: _f32(rng, small) for p in self.tree}},
            {"model": {p: Sharding(mesh, spec, small) for p in self.tree}},
        )
        first = os.path.join(root_dir, seeder.step_path(0))
        t = time.perf_counter()
        for step in range(10, 10 * cfg["steps"], 10):
            shutil.copytree(
                first, os.path.join(root_dir, seeder.step_path(step)),
                copy_function=os.link,
            )
        self.fixture_s = time.perf_counter() - t
        self.step = 10 * (cfg["steps"] - 1)

        self.runtime = SimulatedRuntime(PROCESSES, FilesystemBackend(root_dir))
        self.ckpt = training_manager.Checkpointer(self.runtime, self.root, self.policy)

    def begin(self):
        self.step += 1
        for leaf in self.tree.values():
            np.add(leaf.data, np.float32(self.rng.standard_normal()), out=leaf.data)
        return self.runtime

    def save(self, runtime):
        self.ckpt.save_step(self.step, {"model": self.tree}, {"model": self.shardings})
        return self.ckpt  # Checkpointer.wait joins the save and runs retention

    def restore(self, runtime):
        fresh = training_manager.Checkpointer(runtime, self.root, self.policy)
        start = time.perf_counter()
        restored = fresh.load_step(
            None, {"model": self.abstract}, load_pipeline.LoadOptions(broadcast=True)
        )
        return restored["model"], start

    def close(self) -> None:
        while self.dirs:
            shutil.rmtree(self.dirs.pop(), ignore_errors=True)


class ManyLeaves(RoundTrip):
    """Many small leaves on a 256-device mesh, single-controller.

    Payload is negligible; the restore goes the way ``treevault reshard``
    does: checkpoint metadata, abstract tree, attach shardings, load. Every
    process reads every shard of a ``model``-sharded leaf, so the restore
    is not held to read amplification 1.
    """

    name = "many-leaves"
    sizes = {
        "full": {"layers": 250},
        "tiny": {"layers": 8},
    }
    exact_reads = False

    def __init__(self, size: str, seed: int, scratch: str):
        self.cfg = self.sizes[size]
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        mesh = Mesh.create([("data", 16), ("model", 16)], PROCESSES)
        spec = PartitionSpec.of("model", None)
        self.tree = {}
        self.shardings = {}
        for i in range(self.cfg["layers"]):
            name = f"layer{i:04d}"
            self.tree[name] = {"w": _f32(rng, (256, 32)), "b": _f32(rng, (256,))}
            self.shardings[f"{name}/w"] = Sharding(mesh, spec, (256, 32))
        self.nbytes = tree_bytes(self.tree)

    def begin(self):
        return SimulatedRuntime(
            PROCESSES, MemoryBackend(), mode=Mode.SINGLE_CONTROLLER
        )

    def save(self, runtime):
        return save_pipeline.save_checkpoint(
            runtime, CKPT, {"model": self.tree}, {"model": self.shardings}
        )

    def restore(self, runtime):
        start = time.perf_counter()
        meta = load_pipeline.checkpoint_metadata(runtime.controller.store, CKPT)
        targets = {
            path: AbstractLeaf(
                leaf.variant, leaf.shape, leaf.dtype, self.shardings.get(path)
            )
            for path, leaf in treemodel.flatten(meta.abstract_tree("model"))
        }
        target = meta.structure("model").reconstruct(targets.__getitem__)
        restored = load_pipeline.load_checkpoint(runtime, CKPT, {"model": target})
        return restored["model"], start


WORKLOADS = {w.name: w for w in (BulkReshard, TrainResumeFs, ManyLeaves)}
