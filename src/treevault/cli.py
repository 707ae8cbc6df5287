"""Operator command line: inspect, validate, reshard, bench, gc.

Exit codes: 0 success, 1 operation error, 2 usage error or target not
found. A JSON config file can supply defaults for any flag (keyed by the
flag's dest name); explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Sequence

import numpy as np

from . import chunkstore
from .backend import Store, make_backend
from .coordination import Mode, SimulatedRuntime
from .dtypes import numpy_dtype
from .errors import LoadError, MissingKeyError, StepError, TreevaultError
from .load_pipeline import (
    LoadOptions,
    checkpoint_metadata,
    load_checkpoint,
    load_safetensors,
)
from .save_pipeline import SaveOptions, save_checkpoint
from .sharding import Mesh, PartitionSpec, Sharding
from .training_manager import Checkpointer, RetentionPolicy
from .treemodel import (
    AbstractLeaf,
    DenseArray,
    abstract_of,
    flatten,
    tree_equal,
    unflatten,
)

OK, OPERATION_ERROR, USAGE_ERROR = 0, 1, 2


def _resolve_target(backend_spec: str | None, path: str) -> tuple[Store, str]:
    """Map a CLI path onto (store, key).

    With --backend the path is a key inside that backend; otherwise a
    filesystem backend is rooted at the path's parent directory.
    """
    if backend_spec:
        return make_backend(backend_spec).store("driver"), path.rstrip("/")
    parent, name = os.path.split(os.path.abspath(path.rstrip("/")))
    return make_backend(f"fs:{parent}").store("driver"), name


def _parse_partitions(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.split(",") if x)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad partition list {text!r}")
    if not parts or any(p < 1 for p in parts):
        raise argparse.ArgumentTypeError(f"bad partition list {text!r}")
    return parts


def _parse_subchunk(text: str) -> int | None:
    if text == "off":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad byte count {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("subchunk target must be >= 1")
    return value


def _format_table(rows: list[Sequence[str]], header: Sequence[str]) -> str:
    table = [tuple(header)] + [tuple(r) for r in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _describe_spec(descriptor: dict | None) -> str:
    if not descriptor:
        return "-"
    axes = ",".join(f"{n}:{s}" for n, s in descriptor["axes"])
    spec = ",".join(str(e) for e in descriptor["spec"])
    return f"[{spec}] over {axes}"


def _shape_str(shape: Sequence[int]) -> str:
    return "(" + ",".join(str(s) for s in shape) + ")"


# -- inspect -----------------------------------------------------------------


def cmd_inspect(args: argparse.Namespace) -> int:
    store, path = _resolve_target(args.backend, args.path)
    before = store.backend.counters()
    try:
        meta = checkpoint_metadata(store, path)
    except (LoadError, MissingKeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    rows = []
    for name, handler in meta.checkpointables():
        if handler != "tree":
            rows.append((name, handler, "-", "-", "-", "-", "-"))
            continue
        structure = meta.structure(name)
        for leaf_path, leaf_meta in structure.leaf_entries():
            scoped = f"{name}/{leaf_path}" if leaf_path else name
            if leaf_meta["variant"] == "array":
                entry = meta.array_entry(scoped)
                rows.append(
                    (
                        scoped,
                        "array",
                        _shape_str(leaf_meta["shape"]),
                        leaf_meta["dtype"],
                        _describe_spec(entry.get("sharding")),
                        _shape_str(entry["write_chunk"]),
                        _shape_str(entry["read_chunk"]),
                    )
                )
            else:
                rows.append(
                    (
                        scoped,
                        leaf_meta["variant"],
                        "()",
                        leaf_meta.get("dtype", "-"),
                        "-",
                        "-",
                        "-",
                    )
                )
    print(
        _format_table(
            rows,
            ("leaf", "variant", "shape", "dtype", "sharding", "write_chunk", "read_chunk"),
        )
    )
    delta = store.backend.counters().minus(before)
    if delta.payload_bytes_read:
        print("warning: inspect touched chunk payload", file=sys.stderr)
        return OPERATION_ERROR
    return OK


# -- validate -----------------------------------------------------------------


def _process_count_of(store: Store, path: str) -> int:
    indices = set()
    for key in store.list_keys(f"{path}/"):
        first = key[len(path) + 1 :].split("/", 1)[0]
        if first.startswith("process_") and first[8:].isdigit():
            indices.add(int(first[8:]))
    return max(indices) + 1 if indices else 0


def cmd_validate(args: argparse.Namespace) -> int:
    store, path = _resolve_target(args.backend, args.path)
    problems: list[str] = []
    try:
        meta = checkpoint_metadata(store, path)
    except (LoadError, MissingKeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except TreevaultError as e:
        print(f"invalid: {e}")
        return OPERATION_ERROR

    process_count = _process_count_of(store, path)
    try:
        remerged = chunkstore.merge_process_indices(store, path, process_count)
        if remerged != meta.merged_index:
            problems.append(
                "merged index does not match a fresh merge of the "
                "per-process metadata"
            )
    except TreevaultError as e:
        problems.append(f"per-process metadata: {e}")

    for scoped, entry in sorted(meta.merged_index.get("arrays", {}).items()):
        try:
            storage = meta.storage_meta(scoped)
        except TreevaultError as e:
            problems.append(str(e))
            continue
        expected = storage.chunk_nbytes()
        for ck, loc in sorted(entry.get("chunks", {}).items()):
            try:
                key, offset = chunkstore.chunk_location(path, scoped, ck, loc)
                if "f" in loc:
                    # The manifest holds the length; read only a sane span.
                    size = loc["l"]
                    if size == expected:
                        store.get_range(key, offset, size)
                else:
                    size = len(store.get(key))
                if size != expected:
                    problems.append(
                        f"{scoped} chunk {ck}: {size} bytes, expected {expected}"
                    )
            except TreevaultError as e:
                problems.append(f"{scoped} chunk {ck}: {e}")

    if problems:
        for p in problems:
            print(f"invalid: {p}")
        return OPERATION_ERROR
    print(f"ok: {path} ({process_count} process dirs)")
    return OK


# -- reshard -------------------------------------------------------------------


def _target_mesh(
    partitions: tuple[int, ...], processes: int, replicas: int
) -> Mesh:
    axes = [(f"p{i}", size) for i, size in enumerate(partitions)]
    replica_axis = None
    if replicas > 1:
        axes.insert(0, ("replica", replicas))
        replica_axis = "replica"
    return Mesh.create(axes, process_count=processes, replica_axis=replica_axis)


def _spec_for_rank(
    mesh: Mesh, partitions: tuple[int, ...], rank: int
) -> PartitionSpec:
    entries: list[str | None] = []
    for dim in range(rank):
        entries.append(f"p{dim}" if dim < len(partitions) else None)
    return PartitionSpec(tuple(entries))


def _reshard_abstracts(meta, mesh, partitions, select):
    abstracts = {}
    for name, handler in meta.checkpointables():
        if handler != "tree":
            continue
        flat = flatten(meta.abstract_tree(name))
        if select:
            flat = [
                (p, leaf)
                for p, leaf in flat
                if any(p.startswith(prefix) for prefix in select)
            ]
            if not flat:
                continue
        shardings = {}
        resharded = {}
        for leaf_path, leaf in flat:
            if leaf.variant == "array":
                spec = _spec_for_rank(mesh, partitions, len(leaf.shape))
                sharding = Sharding(mesh, spec, leaf.shape)
                sharding.check_divisible()
                leaf = AbstractLeaf(leaf.variant, leaf.shape, leaf.dtype, sharding)
                shardings[leaf_path] = sharding
            resharded[leaf_path] = leaf
        if select:
            # Subsets cannot keep the exact source skeleton; infer one.
            tree = unflatten(list(resharded.items()))
        else:
            tree = meta.structure(name).reconstruct(resharded.__getitem__)
        abstracts[name] = (tree, shardings)
    return abstracts


def cmd_reshard(args: argparse.Namespace) -> int:
    mesh = _target_mesh(args.partitions, args.processes, args.replicas)
    select = [s for s in (args.select or "").split(",") if s]

    if args.src_layout == "auto":
        src_layout = "safetensors" if args.src.endswith(".safetensors") else "native"
    else:
        src_layout = args.src_layout

    save_options = SaveOptions(
        layout=args.layout,
        subchunk_target_bytes=args.subchunk_target_bytes,
        replica_parallel=args.replica_parallel,
        sync=args.sync,
    )
    load_options = LoadOptions(
        mode="partial" if (select or args.partial) else "strict",
        broadcast=args.broadcast,
    )

    if src_layout == "safetensors":
        flat_tree = load_safetensors(args.src)
        trees = {"model": flat_tree}
        shardings = {
            "model": {
                p: Sharding(
                    mesh,
                    _spec_for_rank(mesh, args.partitions, len(leaf.shape)),
                    leaf.shape,
                )
                for p, leaf in flatten(flat_tree)
                if isinstance(leaf, DenseArray)
            }
        }
        for s in shardings["model"].values():
            s.check_divisible()
    else:
        src_store, src_path = _resolve_target(args.backend, args.src)
        src_runtime = SimulatedRuntime(
            args.processes, src_store.backend, barrier_timeout=args.barrier_timeout
        )
        meta = checkpoint_metadata(src_store, src_path)
        abstracts = _reshard_abstracts(meta, mesh, args.partitions, select)
        loaded = load_checkpoint(
            src_runtime,
            src_path,
            {name: tree for name, (tree, _) in abstracts.items()},
            load_options,
        )
        trees = loaded
        shardings = {name: sh for name, (_, sh) in abstracts.items()}

    dst_store, dst_path = _resolve_target(args.backend, args.dst)
    dst_runtime = SimulatedRuntime(
        args.processes, dst_store.backend, barrier_timeout=args.barrier_timeout
    )
    handle = save_checkpoint(dst_runtime, dst_path, trees, shardings, save_options)
    handle.wait()

    reloaded = load_checkpoint(dst_runtime, dst_path, options=LoadOptions(), current_mesh=mesh)
    for name, tree in trees.items():
        if not tree_equal(tree, reloaded[name]):
            print(f"error: reshard verification failed for {name!r}", file=sys.stderr)
            return OPERATION_ERROR
    n_leaves = sum(len(flatten(t)) for t in trees.values())
    print(f"resharded {n_leaves} leaves -> {dst_path} on {mesh.device_count} devices")
    return OK


# -- bench ---------------------------------------------------------------------


def _load_model_spec(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as f:
        spec = json.load(f)
    if not isinstance(spec, list):
        raise ValueError("model spec must be a JSON list")
    return spec


def _bench_tree(spec: list[dict], mesh: Mesh, rng: np.random.Generator):
    tree: dict[str, Any] = {}
    shardings: dict[str, Sharding] = {}
    for entry in spec:
        path = entry["path"]
        shape = tuple(int(s) for s in entry["shape"])
        dtype = entry.get("dtype", "f32")
        nd = numpy_dtype(dtype)
        if dtype in ("f32", "f64"):
            data = rng.standard_normal(shape).astype(nd)
        elif dtype == "bool":
            data = rng.integers(0, 2, shape).astype(nd)
        else:
            data = rng.integers(0, 100, shape).astype(nd)
        node = tree
        segments = path.split("/")
        for seg in segments[:-1]:
            node = node.setdefault(seg, {})
        node[segments[-1]] = DenseArray(dtype, data)
        partition = entry.get("partition")
        if partition is not None:
            entries = tuple(partition) + (None,) * (len(shape) - len(partition))
            shardings[path] = Sharding(mesh, PartitionSpec(entries), shape)
            shardings[path].check_divisible()
    return tree, shardings


def cmd_bench(args: argparse.Namespace) -> int:
    spec = _load_model_spec(args.model_spec)
    devices = args.processes * args.devices_per_process
    if devices % args.replicas:
        print(
            f"error: {args.replicas} replicas do not divide {devices} devices",
            file=sys.stderr,
        )
        return OPERATION_ERROR
    mesh = Mesh.create(
        [("replica", args.replicas), ("fsdp", devices // args.replicas)],
        process_count=args.processes,
        replica_axis="replica",
    )
    backend = make_backend(args.backend or "mem")
    runtime = SimulatedRuntime(
        args.processes,
        backend,
        mode=(
            Mode.SINGLE_CONTROLLER
            if args.mode == "single"
            else Mode.MULTI_CONTROLLER
        ),
        barrier_timeout=args.barrier_timeout,
    )
    rng = np.random.default_rng(args.seed)
    tree, shardings = _bench_tree(spec, mesh, rng)
    tree_bytes = sum(
        leaf.nbytes for _, leaf in flatten(tree) if isinstance(leaf, DenseArray)
    )

    options = SaveOptions(
        layout=args.layout,
        subchunk_target_bytes=args.subchunk_target_bytes,
        replica_parallel=(args.strategy == "replica-parallel"),
    )
    path = "bench/step_00000000"
    t0 = time.perf_counter()
    handle = save_checkpoint(runtime, path, {"model": tree}, {"model": shardings}, options)
    t_sync = time.perf_counter() - t0
    handle.wait()
    t_background = time.perf_counter() - t0 - t_sync
    after_save = backend.counters()

    abstract = abstract_of(tree, shardings)
    t1 = time.perf_counter()
    load_checkpoint(
        runtime,
        path,
        {"model": abstract},
        LoadOptions(broadcast=(args.load_strategy == "broadcast")),
    )
    t_load = time.perf_counter() - t1

    per_identity = {
        ident: backend.counters(ident).to_json() for ident in backend.identities()
    }
    writes = {
        ident: backend.counters(ident).payload_bytes_written
        for ident in backend.identities()
    }
    report = {
        "config": {
            "model_spec": args.model_spec,
            "processes": args.processes,
            "devices_per_process": args.devices_per_process,
            "replicas": args.replicas,
            "strategy": args.strategy,
            "load_strategy": args.load_strategy,
            "layout": args.layout,
            "subchunk_target_bytes": args.subchunk_target_bytes,
            "mode": args.mode,
            "seed": args.seed,
        },
        "phases_s": {
            "save_sync": t_sync,
            "save_background": t_background,
            "load": t_load,
        },
        "tree_bytes": tree_bytes,
        "counters": {
            "total": backend.counters().to_json(),
            "per_identity": per_identity,
        },
        "derived": {
            "payload_bytes_written_per_identity": writes,
            "max_payload_bytes_written": max(writes.values(), default=0),
            "payload_bytes_read_total": backend.counters().payload_bytes_read
            - after_save.payload_bytes_read,
        },
    }
    rows = [
        (
            ident,
            str(c["payload_bytes_written"]),
            str(c["payload_bytes_read"]),
            str(c["bytes_written"]),
            str(c["bytes_read"]),
        )
        for ident, c in sorted(per_identity.items())
    ]
    print(
        _format_table(
            rows,
            ("identity", "payload_w", "payload_r", "bytes_w", "bytes_r"),
        )
    )
    print(
        f"phases: save_sync={t_sync:.4f}s save_background={t_background:.4f}s "
        f"load={t_load:.4f}s tree_bytes={tree_bytes}"
    )
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            f.write(payload + "\n")
    else:
        print(payload)
    return OK


# -- gc ---------------------------------------------------------------------


def cmd_gc(args: argparse.Namespace) -> int:
    store, root = _resolve_target(args.backend, args.root)
    if not store.list_keys(f"{root}/"):
        print(f"error: no checkpoint root at {args.root!r}", file=sys.stderr)
        return USAGE_ERROR
    runtime = SimulatedRuntime(1, store.backend)
    policy = RetentionPolicy(keep_last=args.keep_last, keep_period=args.keep_period)
    checkpointer = Checkpointer(runtime, root, policy=policy)
    deleted = checkpointer.garbage_collect()
    print(f"deleted steps: {deleted if deleted else '[]'}")
    if args.sweep_tmp:
        swept = checkpointer.sweep_tmp(args.tmp_age)
        print(f"swept temp locations: {swept if swept else '[]'}")
    print(f"retained steps: {checkpointer.all_steps()}")
    return OK


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treevault",
        description="Distributed checkpoint inspection and management.",
    )
    parser.add_argument(
        "--backend",
        help="storage backend: mem, mem+rename, or fs:<dir> "
        "(default: filesystem rooted at the target's parent)",
    )
    parser.add_argument(
        "--config", help="JSON file providing defaults for any flag"
    )
    parser.add_argument(
        "--barrier-timeout", type=float, default=30.0, help=argparse.SUPPRESS
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="list a checkpoint's leaves (metadata only)")
    p.add_argument("path")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("validate", help="check checkpoint integrity")
    p.add_argument("path")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("reshard", help="load a checkpoint and save it resharded")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--partitions", type=_parse_partitions, required=True,
                   help="per-dimension partition counts, e.g. 16,4")
    p.add_argument("--processes", type=int, default=1)
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--layout", choices=chunkstore.LAYOUTS, default=chunkstore.PER_LEAF)
    p.add_argument("--subchunk-target-bytes", type=_parse_subchunk, default=None,
                   metavar="N|off")
    p.add_argument("--replica-parallel", action="store_true")
    p.add_argument("--sync", action="store_true")
    p.add_argument("--src-layout", choices=("auto", "native", "safetensors"),
                   default="auto")
    p.add_argument("--partial", action="store_true")
    p.add_argument("--select", help="comma-separated leaf path prefixes to load")
    p.add_argument("--broadcast", action="store_true")
    p.set_defaults(fn=cmd_reshard)

    p = sub.add_parser("bench", help="seeded synthetic save/load with counters")
    p.add_argument("--model-spec", required=True,
                   help="JSON list of {path, shape, dtype, partition}")
    p.add_argument("--processes", type=int, default=1)
    p.add_argument("--devices-per-process", type=int, default=1)
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--strategy", choices=("single-slice", "replica-parallel"),
                   default="single-slice")
    p.add_argument("--load-strategy", choices=("direct", "broadcast"),
                   default="direct")
    p.add_argument("--mode", choices=("multi", "single"), default="multi")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layout", choices=chunkstore.LAYOUTS, default=chunkstore.PER_LEAF)
    p.add_argument("--subchunk-target-bytes", type=_parse_subchunk, default=None,
                   metavar="N|off")
    p.add_argument("--json-out", help="write the JSON report to a file")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("gc", help="apply the retention policy to a step root")
    p.add_argument("root")
    p.add_argument("--keep-last", type=int, default=1)
    p.add_argument("--keep-period", type=int, default=None)
    p.add_argument("--sweep-tmp", action="store_true",
                   help="also delete temp locations of dead saves")
    p.add_argument("--tmp-age", type=float, default=0.0,
                   help="minimum age in seconds for --sweep-tmp")
    p.set_defaults(fn=cmd_gc)

    parser._tv_subparsers = dict(sub.choices)  # config defaults reach these
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    config_probe = argparse.ArgumentParser(add_help=False)
    config_probe.add_argument("--config")
    probed, _ = config_probe.parse_known_args(argv)
    if probed.config:
        try:
            with open(probed.config, "r", encoding="utf-8") as f:
                defaults = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: bad config file: {e}", file=sys.stderr)
            return USAGE_ERROR
        if not isinstance(defaults, dict):
            print("error: config file must hold a JSON object", file=sys.stderr)
            return USAGE_ERROR
        parser.set_defaults(**defaults)
        for sub in parser._tv_subparsers.values():
            sub.set_defaults(
                **{k: v for k, v in defaults.items() if k != "fn"}
            )
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StepError as e:
        print(f"error: {e}", file=sys.stderr)
        return OPERATION_ERROR
    except TreevaultError as e:
        print(f"error: {e}", file=sys.stderr)
        return OPERATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
