"""Smoke test of the benchmark itself, at tiny sizes.

From the repository root::

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its format; runs every workload (the
ungated many-leaves included) once untraced and once traced, each in its
own process, and checks that every metric BENCHMARK.json names is emitted
with its unit and direction and that the correctness gate and the trace's
byte reconciliation pass; feeds a deliberately corrupted restore through
the gate of every workload and checks that the failure is counted; and
checks that the benchmark exits non-zero, printing no result, in a
directory without the program.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)
        print(f"FAIL {what}", file=sys.stderr)


def run(cwd: Path, workload: str, trace: int, *extra: str):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), *extra,
    ]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, proc.stderr


def check_spec() -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    check(set(SPEC) == keys, f"BENCHMARK.json keys {sorted(SPEC)}")
    check(isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60, "run_seconds")
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    check(len(names) == len(set(names)), "names are used once")
    check(all(NAME.match(n) for n in names), "name format")
    for w in SPEC["workloads"]:
        check(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200, f"workload {w['name']}")
    for m in SPEC["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"keys of {m['name']}")
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    for m in SPEC["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"keys of {m['name']}")
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        check(m["better"] in ("higher", "lower"), f"direction of {m['name']}")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    check(
        len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
        and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"]),
        "setup_s has unit s, lower, and the largest bound",
    )


def all_workloads() -> list[str]:
    """The gated workloads of BENCHMARK.json and the ungated ones."""
    sys.path.insert(0, str(HERE))
    import run

    run.import_treevault()
    from workloads import WORKLOADS

    gated = [w["name"] for w in SPEC["workloads"]]
    check(set(gated) <= set(WORKLOADS), "BENCHMARK.json names known workloads")
    return list(WORKLOADS)


def check_workloads() -> None:
    for w in all_workloads():
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            label = f"{w} --trace {trace}"
            rc, result, err = run(ROOT, w, trace, "--size", "tiny")
            check(rc == 0 and result is not None, f"{label} ran (rc {rc}): {err[-500:]}")
            if result is None:
                continue
            check(set(result) == RESULT_KEYS, f"{label} result keys")
            check(result["correct"] is True and result["failed"] == 0, f"{label} correct")
            check(result["attempted"] >= 1, f"{label} attempted")
            metrics = result["metrics"]
            check(
                set(metrics) == {m["name"] for m in declared},
                f"{label} emits exactly the declared metrics",
            )
            for m in declared:
                got = metrics.get(m["name"], {})
                check(got.get("unit") == m["unit"], f"{label} unit of {m['name']}")
                value = got.get("value")
                check(
                    isinstance(value, (int, float)) and math.isfinite(value),
                    f"{label} value of {m['name']}",
                )
            if trace:
                check(metrics["trace.coverage"]["value"] >= 0.9, f"{label} coverage")


def check_gate_fires() -> None:
    for w in all_workloads():
        rc, result, _ = run(ROOT, w, 0, "--size", "tiny", "--corrupt-restore")
        check(
            rc == 0 and result is not None and result["failed"] > 0
            and result["correct"] is False,
            f"{w}: a corrupted restore is counted as failed",
        )


def check_refuses_without_program() -> None:
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(
                ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__")
            )
        rc, result, _ = run(bare, SPEC["workloads"][0]["name"], 0, "--size", "tiny")
        check(rc != 0 and result is None, "exits non-zero without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


def main() -> int:
    check_spec()
    check_workloads()
    check_gate_fires()
    check_refuses_without_program()
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
