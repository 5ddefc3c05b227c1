"""Self-check of the benchmark: every workload at its smallest size.

    python3 perfbench/selfcheck.py

Runs each workload for one round (--seconds 0) untraced, again untraced
with the same seed, and traced, one process at a time, and asserts:

  * exit code 0 and, as the last line, the result object with exactly the
    keys correct, attempted, failed and metrics;
  * every end-to-end metric (untraced) and every per-layer metric (traced)
    of BENCHMARK.json is emitted with its unit and a finite value;
  * failed = 0 (failed_ratio 0) and correct is true;
  * both untraced runs print the same round-0 output digest;
  * the top-level spans of the traced run cover at most its request time.

Finally it checks that run.py refuses, with a nonzero exit and no result,
in a directory holding only BENCHMARK.json and perfbench/.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 300


def run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    return proc


def check_result(proc, declared, label: str) -> dict:
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}, f"{label}: metric names differ"
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), \
            f"{label}: {m['name']} = {got['value']}"
    return metrics


def digest(proc) -> str:
    return next(line.split()[-1] for line in proc.stdout.splitlines()
                if line.startswith("# round 0 output digest"))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        first, second = run(name, 0), run(name, 0)
        e2e = check_result(first, spec["end_to_end"], f"{name} trace 0")
        check_result(second, spec["end_to_end"], f"{name} trace 0, second run")
        assert digest(first) == digest(second), f"{name}: outputs differ between runs"
        layer = check_result(run(name, 1), spec["per_layer"], f"{name} trace 1")
        coverage = layer["trace.span_coverage"]["value"]
        assert 0 < coverage <= 1, f"{name}: span coverage {coverage}"
        print(f"ok {name}: {e2e['requests_per_s']['value']:.4g} requests/s, span coverage "
              f"{coverage:.3f}, overhead {layer['trace.overhead_ratio']['value']:.3f}")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, "ran without the package"
    print("ok refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
