"""Span recorder that wraps treevault's public callables from outside.

The wrappers are installed only around the timed region of a traced
iteration and removed afterwards, so an untraced run executes the program
unmodified. Each wrapper records one span (name, start, end, parent span on
the same thread, thread, identity) plus a few counts taken from the call's
arguments or result. Spans stay in memory until :meth:`Tracer.write`.

Where a module imports a callable by name (``from .sharding import
shards_of``), the caller resolves that module's own binding, so every such
binding is patched alongside the home module.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "parent", "thread", "identity", "start", "end", "error", "counts")

    def __init__(self, name, parent, thread, identity):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.identity = identity
        self.start = 0.0
        self.end = 0.0
        self.error = False
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start


# -- count extractors: (args, kwargs, result) -> dict -----------------------


def _put_bytes(args, kwargs, result):
    data = args[2] if len(args) > 2 else kwargs["data"]
    return {"bytes": len(data)}


def _result_bytes(args, kwargs, result):
    return {"bytes": len(result)}


def _arg_bytes(args, kwargs, result):
    return {"bytes": len(args[0])}


def _result_keys(args, kwargs, result):
    return {"keys": len(result)}


def _result_steps(args, kwargs, result):
    return {"steps": len(result)}


def _written_chunks(args, kwargs, result):
    return {"chunks": len(result)}


def _read_stats(args, kwargs, result):
    stats = result[1]
    return {"requested": stats.bytes_requested, "loaded": stats.bytes_loaded}


def wrap_targets():
    """(owner, attribute, span name, count extractor) for every binding."""
    from treevault import (
        backend,
        chunkstore,
        coordination,
        docio,
        load_pipeline,
        save_pipeline,
        sharding,
        training_manager,
        treemodel,
    )

    store = backend.Store
    session = save_pipeline.SaveSession
    runtime = coordination.SimulatedRuntime
    checkpointer = training_manager.Checkpointer
    return [
        (store, "put", "backend.put", _put_bytes),
        (store, "get", "backend.get", _result_bytes),
        (store, "get_range", "backend.get_range", _result_bytes),
        (store, "list_keys", "backend.list", _result_keys),
        (store, "delete", "backend.delete", None),
        (store, "rename_prefix", "backend.rename", None),
        (chunkstore.ProcessArrayWriter, "write_array", "chunkstore.write_array", _written_chunks),
        (chunkstore.ProcessArrayWriter, "finish", "chunkstore.finish", None),
        (chunkstore.ChunkReader, "read_range", "chunkstore.read_range", _read_stats),
        (chunkstore, "merge_process_indices", "chunkstore.merge", None),
        (session, "validate", "save_pipeline.validate", None),
        (session, "check_target_free", "save_pipeline.check_target_free", None),
        (session, "take_snapshot", "save_pipeline.snapshot", None),
        (session, "create_location", "save_pipeline.create_location", None),
        (session, "write_global_metadata", "save_pipeline.global_metadata", None),
        (session, "write_phase", "save_pipeline.write_phase", None),
        (session, "finalize_phase", "save_pipeline.finalize", None),
        (save_pipeline, "save_checkpoint", "save_pipeline.save_checkpoint", None),
        (training_manager, "save_checkpoint", "save_pipeline.save_checkpoint", None),
        (save_pipeline.CheckpointSaveHandle, "wait", "save_pipeline.wait", None),
        (load_pipeline, "checkpoint_metadata", "load_pipeline.metadata", None),
        (load_pipeline.CheckpointMetadata, "abstract_tree", "load_pipeline.abstract_tree", None),
        (load_pipeline, "build_plan", "load_pipeline.plan", None),
        (load_pipeline, "cast_leaf", "load_pipeline.cast", None),
        (treemodel, "cast_leaf", "load_pipeline.cast", None),
        (load_pipeline, "load_checkpoint", "load_pipeline.load_checkpoint", None),
        (training_manager, "load_checkpoint", "load_pipeline.load_checkpoint", None),
        (sharding, "shards_of", "sharding.shards_of", None),
        (save_pipeline, "shards_of", "sharding.shards_of", None),
        (load_pipeline, "shards_of", "sharding.shards_of", None),
        (sharding, "unique_shards_for_process", "sharding.unique_shards", None),
        (save_pipeline, "unique_shards_for_process", "sharding.unique_shards", None),
        (treemodel, "flatten", "treemodel.flatten", None),
        (treemodel, "tree_metadata", "treemodel.tree_metadata", None),
        (docio, "dumps_canonical", "docio.dumps", _result_bytes),
        (docio, "loads", "docio.loads", _arg_bytes),
        (runtime, "barrier", "coordination.barrier", None),
        (runtime, "run_collective", "coordination.run_collective", None),
        (runtime, "run_on_workers", "coordination.run_on_workers", None),
        (training_manager, "scan_steps", "training_manager.scan", _result_steps),
        (checkpointer, "garbage_collect", "training_manager.gc", None),
        (checkpointer, "__init__", "training_manager.open", None),
        (checkpointer, "save_step", "training_manager.save_step", None),
        (checkpointer, "wait", "training_manager.wait", None),
        (checkpointer, "load_step", "training_manager.load_step", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._targets = wrap_targets()

    def _wrap(self, fn, name, extract):
        spans = self.spans
        local = self._local
        from treevault.backend import Store

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            thread = threading.current_thread()
            identity = (
                args[0].identity
                if args and isinstance(args[0], Store)
                else thread.name
            )
            span = Span(name, stack[-1] if stack else None, thread.ident, identity)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                spans.append(span)
            if extract is not None:
                span.counts = extract(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, extract in self._targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, extract))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextlib.contextmanager
    def region(self):
        """Wrappers in place for the duration of the block only."""
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def write(self, path) -> None:
        """One JSON object per span, parents referenced by span index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": index.get(id(s.parent)) if s.parent else None,
                    "thread": s.thread,
                    "identity": s.identity,
                }
                if s.error:
                    row["error"] = True
                if s.counts:
                    row.update(s.counts)
                f.write(json.dumps(row) + "\n")


def reconciles(spans, delta) -> bool:
    """True iff the backend spans' bytes and successful ops equal a counter
    delta exactly (span ``backend.<op>`` counts as counter op ``<op>``)."""
    read = written = 0
    ops: dict[str, int] = defaultdict(int)
    for s in spans:
        if not s.name.startswith("backend.") or s.error:
            continue
        kind = s.name[len("backend."):]
        ops[kind] += 1
        if kind == "put":
            written += s.counts["bytes"]
        elif kind in ("get", "get_range"):
            read += s.counts["bytes"]
    return (
        read == delta.bytes_read
        and written == delta.bytes_written
        and ops == {k: v for k, v in delta.ops.items() if v}
    )


def layer_metrics(spans, driver_thread: int, iterations: int, traced_wall: float) -> dict:
    """Per-layer metrics, per traced iteration, from the recorded spans.

    ``.s`` sums span durations over all threads, ``.self_s`` subtracts the
    direct child spans on the same thread, counts are summed. Each is
    divided by ``iterations``; ratios are taken over the totals.
    """
    total = defaultdict(float)
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] += s.duration

    def ancestor(span, name):
        p = span.parent
        while p is not None:
            if p.name == name:
                return True
            p = p.parent
        return False

    covered = 0.0
    for s in spans:
        n = s.name
        total[f"{n}.s"] += s.duration
        total[f"{n}.calls"] += 1
        total[f"{n}.self_s"] += s.duration - child_time.get(id(s), 0.0)
        if s.error and n.startswith("backend."):
            total["backend.errors"] += 1
        if s.thread == driver_thread:
            if s.parent is None:
                covered += s.duration
            if n in ("save_pipeline.save_checkpoint", "load_pipeline.load_checkpoint"):
                total[f"{n}.driver_self_s"] += s.duration - child_time.get(id(s), 0.0)
        if s.counts:
            for k, v in s.counts.items():
                total[f"{n}.{k}"] += v
        if n == "backend.list" and ancestor(s, "training_manager.scan"):
            total["scan.keys"] += s.counts["keys"]
        if n == "backend.delete" and not s.error and ancestor(s, "training_manager.gc"):
            total["gc.keys_deleted"] += 1

    def per_iter(key):
        return total.get(key, 0.0) / iterations

    def ratio(num, den):
        return total[num] / total[den] if total.get(den) else 0.0

    out = {}
    for op in ("put", "get", "get_range", "list", "delete", "rename"):
        out[f"backend.{op}.s"] = per_iter(f"backend.{op}.s")
        out[f"backend.{op}.calls"] = per_iter(f"backend.{op}.calls")
    for op in ("put", "get", "get_range"):
        out[f"backend.{op}.bytes"] = per_iter(f"backend.{op}.bytes")
    out["backend.list.keys"] = per_iter("backend.list.keys")
    out["backend.errors"] = per_iter("backend.errors")

    out["chunkstore.write_array.self_s"] = per_iter("chunkstore.write_array.self_s")
    out["chunkstore.write_array.chunks"] = per_iter("chunkstore.write_array.chunks")
    out["chunkstore.finish.s"] = per_iter("chunkstore.finish.s")
    out["chunkstore.read_range.self_s"] = per_iter("chunkstore.read_range.self_s")
    out["chunkstore.read_range.calls"] = per_iter("chunkstore.read_range.calls")
    out["chunkstore.read_range.bytes_requested"] = per_iter("chunkstore.read_range.requested")
    out["chunkstore.read_range.bytes_loaded"] = per_iter("chunkstore.read_range.loaded")
    out["chunkstore.read_range.amplification"] = ratio(
        "chunkstore.read_range.loaded", "chunkstore.read_range.requested"
    )
    out["chunkstore.merge.s"] = per_iter("chunkstore.merge.s")

    for phase in ("validate", "check_target_free", "snapshot", "create_location", "global_metadata"):
        out[f"save_pipeline.{phase}.s"] = per_iter(f"save_pipeline.{phase}.s")
    out["save_pipeline.validate.calls"] = per_iter("save_pipeline.validate.calls")
    out["save_pipeline.write_phase.self_s"] = per_iter("save_pipeline.write_phase.self_s")
    out["save_pipeline.finalize.self_s"] = per_iter("save_pipeline.finalize.self_s")
    out["save_pipeline.driver_self_s"] = per_iter("save_pipeline.save_checkpoint.driver_self_s")

    for phase in ("metadata", "abstract_tree", "plan", "cast"):
        out[f"load_pipeline.{phase}.s"] = per_iter(f"load_pipeline.{phase}.s")
    out["load_pipeline.driver_self_s"] = per_iter("load_pipeline.load_checkpoint.driver_self_s")

    for fn in ("shards_of", "unique_shards"):
        out[f"sharding.{fn}.s"] = per_iter(f"sharding.{fn}.s")
        out[f"sharding.{fn}.calls"] = per_iter(f"sharding.{fn}.calls")

    out["treemodel.flatten.s"] = per_iter("treemodel.flatten.s")
    out["treemodel.tree_metadata.s"] = per_iter("treemodel.tree_metadata.s")
    for fn in ("dumps", "loads"):
        out[f"docio.{fn}.s"] = per_iter(f"docio.{fn}.s")
        out[f"docio.{fn}.bytes"] = per_iter(f"docio.{fn}.bytes")

    out["coordination.barrier_wait_s"] = per_iter("coordination.barrier.s")
    out["coordination.barrier.calls"] = per_iter("coordination.barrier.calls")
    out["coordination.run_collective.s"] = per_iter("coordination.run_collective.s")
    out["coordination.run_on_workers.s"] = per_iter("coordination.run_on_workers.s")

    out["training_manager.scan.s"] = per_iter("training_manager.scan.s")
    out["training_manager.scan.keys"] = per_iter("scan.keys")
    out["training_manager.scan.keys_per_step"] = ratio("scan.keys", "training_manager.scan.steps")
    out["training_manager.gc.s"] = per_iter("training_manager.gc.s")
    out["training_manager.gc.keys_deleted"] = per_iter("gc.keys_deleted")

    out["trace.coverage"] = covered / traced_wall if traced_wall else 0.0
    return out
