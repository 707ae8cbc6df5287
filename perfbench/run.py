"""Run one treevault benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload bulk-reshard --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout; the run fails
with a non-zero exit code, and prints no result, when it is not there.
Set-up runs several times and its median is ``setup_s``. After warm-up
iterations (at least one, and at least two seconds' worth) the workload
repeats for ``--seconds``. With ``--trace 0`` the
last stdout line holds the end-to-end metrics; with ``--trace 1``
iterations alternate between untraced and traced, and the last line holds
the per-layer metrics of the traced ones. The line before it is a record
of the machine, the seed and every sample. Metric names, units and
directions are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
MIN_TIMED = 3
WARMUP_SECONDS = 2.0
GIB = 1024**3
# glibc malloc settings under which freed memory stays in the process for
# reuse (see keep_freed_memory).
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(1 << 30),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 32),
}


def keep_freed_memory() -> None:
    """Re-execute this process with glibc told to keep freed memory.

    By default every buffer over 32 MiB is a fresh mmap, and freed heap
    memory goes back to the kernel, so each iteration faults in its
    buffers again. On a 2-vCPU VM a bulk-reshard iteration took about
    170k page faults and 0.35 to 0.66 s of system time, more than half
    its wall time and the most variable part of it; with these settings,
    after warm-up, it took under 300 faults and under 0.03 s. The run then
    measures the program's own copies and not the guest kernel's page
    zeroing. The settings apply only to glibc; elsewhere they are inert.
    """
    if all(os.environ.get(k) == v for k, v in MALLOC_ENV.items()):
        return
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **MALLOC_ENV})


def import_treevault() -> None:
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import treevault

    if Path(treevault.__file__).resolve().parent.parent != src:
        raise ImportError(f"treevault resolved outside {src}: {treevault.__file__}")


def pin_to_one_cpu() -> int:
    """Run this process, and every thread it starts later, on one CPU.

    The simulated processes are Python threads that share one interpreter
    lock. Spread over two vCPUs, hand-offs of the lock wake the other vCPU,
    and whole runs came out 20 to 40 % slower at random: many-leaves
    ``save_blocking_s`` medians were 0.52 to 0.64 s pinned and 0.58 to
    0.84 s unpinned over three runs each. The cost of pinning is that work
    done outside the lock (numpy copies, file I/O) gets no second CPU.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def machine() -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def timed_setup(workload, fixture: list[float]) -> float:
    """Set ``workload`` up; return the time, less its untimed fixture."""
    gc.collect()
    t = time.perf_counter()
    workload.setup()
    fixture.append(workload.fixture_s)
    return time.perf_counter() - t - workload.fixture_s


def measure(make, seconds: float, trace: bool, corrupt: bool) -> dict:
    """Set up, warm up, then repeat the workload's iteration for ``seconds``.

    ``make`` returns a new workload. The first is set up and measured; the
    other set-ups are of throwaway workloads, spread evenly over the timed
    window, so that ``setup_s`` samples the machine over the whole run as
    the iteration timings do, and not only its first seconds.
    """
    workload = make()
    try:
        return _measure(workload, make, seconds, trace, corrupt)
    finally:
        workload.close()


def _measure(workload, make, seconds: float, trace: bool, corrupt: bool) -> dict:
    from tracer import Tracer, layer_metrics, reconciles

    fixture: list[float] = []
    setup = [timed_setup(workload, fixture)]

    def spare_setup() -> None:
        spare = make()
        try:
            setup.append(timed_setup(spare, fixture))
        finally:
            spare.close()

    tracer = Tracer() if trace else None
    runs = {"untraced": [], "traced": []}
    totals = {"attempted": 0, "failed": 0}
    reconciled = True

    def iterate(traced: bool, keep: bool) -> None:
        nonlocal reconciled
        gc.collect()
        mark = len(tracer.spans) if tracer else 0
        region = tracer.region() if traced else contextlib.nullcontext()
        out = workload.iteration(region, corrupt)
        totals["attempted"] += out.attempted
        totals["failed"] += out.failed
        if traced and out.delta is not None and not reconciles(tracer.spans[mark:], out.delta):
            reconciled = False
            print("trace: span byte counts differ from backend counters", file=sys.stderr)
        if keep and out.times:
            runs["traced" if traced else "untraced"].append(out)

    warm_until = time.perf_counter() + WARMUP_SECONDS
    iterate(False, keep=False)
    while time.perf_counter() < warm_until:
        iterate(False, keep=False)
    start = time.perf_counter()
    deadline = start + seconds
    n = 0
    # Past the deadline, go on only until each kind has MIN_TIMED samples,
    # and give up after a few failed tries.
    while time.perf_counter() < deadline or (
        n < 4 * MIN_TIMED
        and (
            len(runs["untraced"]) < MIN_TIMED
            or (trace and len(runs["traced"]) < MIN_TIMED)
        )
    ):
        iterate(trace and n % 2 == 1, keep=True)
        n += 1
        due = start + seconds * len(setup) / SETUP_REPEATS
        if len(setup) < SETUP_REPEATS and time.perf_counter() >= due:
            spare_setup()
    while len(setup) < SETUP_REPEATS:
        spare_setup()

    ok = runs["untraced"]
    nbytes = workload.nbytes

    def med(key):
        return statistics.median(o.times[key] for o in ok) if ok else float("nan")

    if trace:
        traced = runs["traced"]
        wall = sum(o.times["wall"] for o in traced)
        metrics = layer_metrics(
            tracer.spans, threading.main_thread().ident, max(len(traced), 1), wall
        )
        metrics["trace.overhead"] = (
            statistics.median(o.times["wall"] for o in traced) / med("wall") - 1
            if traced and ok
            else float("nan")
        )
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "save_blocking_s": med("save_blocking"),
            "save_gibps": nbytes / med("save") / GIB,
            "load_gibps": nbytes / med("restore") / GIB,
            "resume_s": med("resume"),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "read_amplification": (
                statistics.median(o.payload_read for o in ok) / nbytes if ok else float("nan")
            ),
            "write_amplification": (
                statistics.median(o.bytes_written for o in ok) / nbytes if ok else float("nan")
            ),
        }
    return {
        "metrics": metrics,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "correct": totals["failed"] == 0 and reconciled and bool(ok),
        "tracer": tracer,
        "record": {
            "tree_bytes": nbytes,
            "setup_s": setup,
            "fixture_s": fixture,
            "iterations": {k: len(v) for k, v in runs.items()},
            "samples": {
                f"{kind}.{key}": [o.times[key] for o in v]
                for kind, v in runs.items()
                for key in ("save_blocking", "save", "restore", "resume", "wall")
                if v
            },
            "payload_written": sorted({o.payload_written for o in ok}),
            "payload_read": sorted({o.payload_read for o in ok}),
            "bytes_written": sorted({o.bytes_written for o in ok}),
            "reconciled": reconciled,
        },
    }


def finite(value: float) -> float:
    """JSON has no NaN; a run with no successful iteration reports 0."""
    return value if math.isfinite(value) else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--corrupt-restore",
        action="store_true",
        help="flip one restored byte before the correctness gate (self-test)",
    )
    args = parser.parse_args(argv)
    if argv is None:
        keep_freed_memory()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import_treevault()
    except (OSError, ValueError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    cpus = sorted(os.sched_getaffinity(0))
    pinned = pin_to_one_cpu()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        result = measure(
            lambda: WORKLOADS[args.workload](args.size, args.seed, run_dir),
            args.seconds, bool(args.trace), args.corrupt_restore,
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    metrics = result["metrics"]
    if set(metrics) != set(units):
        print(
            f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
            file=sys.stderr,
        )
        return 3
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "seconds": args.seconds,
        "machine": {
            **machine(), "allowed_cpus": cpus, "pinned_cpu": pinned,
            "malloc_env": {k: os.environ.get(k) for k in MALLOC_ENV},
        },
        **result["record"],
    }
    if result["tracer"] is not None:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
        result["tracer"].write(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": finite(metrics[name]), "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
