"""Run-to-run spread of the end-to-end metrics, and the baseline file.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--baseline FILE]

Runs run.py once per workload and seed, one process at a time, with the
run length of BENCHMARK.json.  For each end-to-end metric it prints the
median and the distance between the first and third quartiles as a share
of the median (statistics.quantiles, n=4), next to a third of the metric's
bound.  With --baseline it also makes one traced run per workload (first
seed) and writes medians, quartiles, per-layer values and provenance to
FILE as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--baseline", default=None, help="write a baseline JSON file here")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = seed_range(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for name in names:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        start = time.time()
        for seed in seeds:
            for metric, got in run_once(name, seed, spec["run_seconds"], 0)["metrics"].items():
                values[metric].append(got["value"])
        print(f"{name}: {len(seeds)} runs in {time.time() - start:.0f} s")
        entry = {"why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
                 "seeds": seeds, "end_to_end": {}}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            unit = next(m["unit"] for m in spec["end_to_end"] if m["name"] == metric)
            flag = "" if share < bounds[metric] / 3 else "  <-- not below a third of the bound"
            print(f"  {metric:16s} median {med:12.6g} {unit:5s} spread {share:6.3f} "
                  f"(bound {bounds[metric]}){flag}")
            print("    " + " ".join(f"{v:.4g}" for v in vals))
            entry["end_to_end"][metric] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                                           "unit": unit, "values": vals}
        if args.baseline:
            traced = run_once(name, seeds[0], spec["run_seconds"], 1)["metrics"]
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {m: v["value"] for m, v in traced.items()}
        report[name] = entry
    if args.baseline:
        from run import _git_commit
        doc = {
            "note": "end-to-end values are medians over seeds; per-layer values are from "
                    "one traced run",
            "commit": _git_commit(),
            "python": platform.python_version(),
            "host": platform.node(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "run_seconds": spec["run_seconds"],
            "workloads": report,
        }
        Path(args.baseline).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
