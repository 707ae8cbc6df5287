"""Run the benchmark over several seeds and summarise each metric's spread.

From the repository root::

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/baseline.json

Runs are separate processes, one after another. For each workload and
end-to-end metric the summary holds every run's value, their median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median, beside the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seconds = SPEC["run_seconds"]
    summary: dict = {"seeds": args.seeds, "seconds": seconds, "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            cmd = SPEC["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            summary.setdefault("machine", json.loads(lines[-2])["record"]["machine"])
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        rows = {}
        for name, v in values.items():
            median = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {
                "unit": units[name], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": bounds[name], "values": v,
            }
            print(
                f"{workload:16s} {name:20s} median {median:12.5g} {units[name]:6s}"
                f" spread {spread:6.3f} (bound {bounds[name]})"
            )
        summary["workloads"][workload] = rows
    summary["all_correct"] = ok
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
