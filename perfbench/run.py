"""Seeded benchmark for invopoly: one workload per process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from src/.  One
client sends requests one after another, with no threads.  A run measures
whole rounds (see workloads.py), stopping at the round boundary nearest
to --seconds of request time, checks every output, and prints a report
and, as its last line, one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are scaled to a reference host speed (see HostSpeed).  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics, from a run that replays a
fixed number of rounds untraced and then traced (the ratio of the two is
the tracing overhead).  Spans are written to .perfbench/ at the end.
The exit code is 0 only when every output was correct.

    python3 perfbench/run.py --record-goldens

rewrites cli_goldens.json from the code under src/.
"""
from __future__ import annotations

import argparse
import array
import bisect
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# Round length on the reference host at the seed commit; sizes traced runs
# so that their per-layer totals cover the same work on every commit.
NOMINAL_ROUND_S = {"search-small": 0.036, "verify-large": 3.5, "construct": 1.2, "cli": 0.65}
MAX_REPORTED_FAILURES = 5
SPEED_INTERVAL_S = 0.1    # longest time between two samples of the host speed
SPEED_WINDOW_S = 0.5      # samples this close to a request set its scale
KERNEL_REF_S = 0.004      # _speed_kernel's run time at the reference speed


class Lib:
    """The invopoly modules of one import."""

    def __init__(self):
        self.package = importlib.import_module("invopoly")
        for name in layers.MODULES + ("errors",):
            setattr(self, name, importlib.import_module(f"invopoly.{name}"))


def _forget_invopoly() -> None:
    for name in [m for m in sys.modules if m == "invopoly" or m.startswith("invopoly.")]:
        del sys.modules[name]
    gc.collect()


def set_up(workload, tracer, speed: HostSpeed):
    """Import and build the workload's fields SETUP_REPEATS times, each
    from a fresh import; returns the last set-up and the median time, raw
    and scaled to the reference speed.  With a tracer, the last set-up is
    traced."""
    raw = []
    lib = fields = None
    first_sample = len(speed.cost)
    for i in range(SETUP_REPEATS):
        lib = fields = None
        _forget_invopoly()
        traced = tracer is not None and i == SETUP_REPEATS - 1
        speed.sample()
        start = time.perf_counter()
        lib = Lib()
        if traced:
            layers.install(tracer, lib)
        first_mul = tracer.span if traced else (lambda name: contextlib.nullcontext())
        fields = workload.setup(lib, first_mul)
        raw.append(time.perf_counter() - start)
        speed.sample()
        if traced:
            tracer.uninstall()
    # one scale for the whole set-up phase: single samples are too noisy
    # against set-ups of a few tens of milliseconds
    scale = KERNEL_REF_S / statistics.median(speed.cost[first_sample:])
    return lib, fields, statistics.median(raw), statistics.median(raw) * scale


def _speed_kernel(n: int = 12000) -> int:
    """Fixed pure-Python work (tuples, a dict, integer arithmetic) whose
    run time tracks the host's current speed for interpreted code."""
    acc = 0
    seen: dict = {}
    for i in range(n):
        pair = (i & 255, i * 7 % 13)
        seen[pair] = seen.get(pair, 0) + 1
        acc = (acc * 31 + pair[0] * pair[1]) % 65521
    return acc


class HostSpeed:
    """Samples of the speed kernel, taken between requests at least every
    SPEED_INTERVAL_S.

    On a shared 2-vCPU virtual machine the same code ran up to 1.6x slower
    from one minute to the next, and the kernel's time follows the library's
    (correlation 0.8 over 3 s rounds).  Every reported time is scaled by
    KERNEL_REF_S over the kernel time around it, which gives the time the
    work takes at the reference speed; the report prints the unscaled
    figures too.  One sample varies by about 20%, so a request's scale
    comes from the median of the samples within SPEED_WINDOW_S of it."""

    def __init__(self):
        self.at = array.array("d")       # sample midpoints
        self.cost = array.array("d")     # kernel run times
        self.last = -math.inf

    def sample(self) -> None:
        start = time.perf_counter()
        _speed_kernel()
        end = time.perf_counter()
        self.at.append((start + end) / 2)
        self.cost.append(end - start)
        self.last = end

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= SPEED_INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """KERNEL_REF_S over the median kernel time of the samples within
        SPEED_WINDOW_S of [start, end], or of the two samples around it."""
        lo = bisect.bisect_left(self.at, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + SPEED_WINDOW_S)
        if hi - lo < 2:
            lo = max(bisect.bisect_right(self.at, start) - 1, 0)
            hi = bisect.bisect_left(self.at, end) + 1
        return KERNEL_REF_S / statistics.median(self.cost[lo:hi])


class Pass:
    """Everything one sequence of rounds produced."""

    def __init__(self):
        self.starts = array.array("d")
        self.latencies = array.array("d")
        self.watched: dict = {}          # request -> latencies, for workload.watch
        self.attempted = self.failed = self.refused = 0
        self.digests: list[str] = []
        self.failures: list[str] = []

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    def scaled_latencies(self, speed: HostSpeed) -> array.array:
        return array.array("d", (lat * speed.scale(t, t + lat)
                                 for t, lat in zip(self.starts, self.latencies)))


def run_rounds(workload, lib, fields, make_round, speed: HostSpeed, *, seconds=None,
               rounds=None, tracer=None) -> Pass:
    """Closed loop over rounds make_round(0), make_round(1), ... until
    `rounds` rounds are done or about `seconds` of request time have
    passed.  Generating a round, the post-checks of its outputs and the
    speed samples are untimed."""
    out = Pass()
    k = 0
    while True:
        reqs = make_round(k)
        kept = []
        digest = hashlib.sha256()
        for req in reqs:
            speed.maybe_sample()
            if tracer is not None:
                tracer.request = out.attempted
            t0 = time.perf_counter()
            try:
                res = workload.execute(lib, fields, req)
            except Exception:
                res = workloads.Result("failed", traceback.format_exc())
            latency = time.perf_counter() - t0
            out.starts.append(t0)
            out.latencies.append(latency)
            if req in workload.watch:
                out.watched.setdefault(req, []).append(latency)
            out.attempted += 1
            digest.update(res.text.encode() + b"\n")
            if res.status == "failed":
                out.failed += 1
                out.failures.append(f"{req!r}: {res.text}")
            elif res.status == "refused":
                out.refused += 1
            if res.keep is not None:
                kept.append(res.keep)
        speed.maybe_sample()
        out.digests.append(digest.hexdigest())
        if tracer is None:
            post = workload.post_check(lib, fields, kept)
            out.failed += len(post)
            out.failures += post
        k += 1
        # stop at the round boundary nearest to `seconds`
        wall = out.wall
        if rounds is not None and k >= rounds or (
                seconds is not None and wall + wall / k / 2 >= seconds):
            speed.sample()
            return out


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentiles(latencies) -> tuple[float, float]:
    if len(latencies) < 2:
        return latencies[0], latencies[0]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return statistics.median(latencies), deciles[8]


def _headroom(p: Pass) -> dict:
    out = {}
    for metric, (argv, limit) in workloads.HEADROOM_LIMITS.items():
        lat = p.watched.get(argv)
        out[metric] = limit / statistics.median(lat) if lat else 0.0
    return out


def _emit(spec_metrics, values: dict) -> dict:
    names = [m["name"] for m in spec_metrics]
    if set(values) != set(names):
        raise KeyError(f"metrics computed {sorted(values)} differ from those declared {names}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def run(args, spec) -> int:
    workload = workloads.WORKLOADS[args.workload]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print(f"# workload {workload.name}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}: {why}")
    print(f"# python {platform.python_version()}, host {platform.node()}, "
          f"nproc {os.cpu_count()}, commit {_git_commit()}")

    tracer = Tracer() if args.trace else None
    speed = HostSpeed()
    lib, fields, setup_raw, setup_s = set_up(workload, tracer, speed)
    prep = workload.prepare(lib, fields)

    def make_round(k):
        return workload.round(prep, workloads.round_rng(args.seed, workload.name, k))

    if args.trace:
        rounds = max(1, round(args.seconds / 2 / NOMINAL_ROUND_S[workload.name]))
        plain = run_rounds(workload, lib, fields, make_round, speed, rounds=rounds)
        layers.install(tracer, lib)
        try:
            traced = run_rounds(workload, lib, fields, make_round, speed, rounds=rounds,
                                tracer=tracer)
            top = sum(end - start for _, start, end, parent, request, _ in tracer.spans
                      if parent < 0 and request is not None)
            probes = workload.probes(workloads.round_rng(args.seed, workload.name, -1))
            tracer.request = None
            passes = [plain, traced] + ([run_rounds(workload, lib, fields, lambda k: probes,
                                                    speed, rounds=1, tracer=tracer)]
                                        if probes else [])
        finally:
            tracer.uninstall()
        if traced.digests != plain.digests:
            traced.failed += 1
            traced.failures.append("traced outputs differ from untraced outputs")
    else:
        passes = [run_rounds(workload, lib, fields, make_round, speed, seconds=args.seconds)]
    peak_rss = _peak_rss_mb()
    main = passes[0]
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed = sum(p.failed for p in passes)
    refused = sum(p.refused for p in passes)
    for line in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"# round 0 output digest {main.digests[0]}")
    print(f"# failed_ratio = {failed / attempted:.6g} ({failed} failed of {attempted} "
          f"attempted; {refused} expected refusals)")

    if args.trace:
        extra = {"trace.overhead_ratio": (sum(traced.scaled_latencies(speed))
                                          / sum(plain.scaled_latencies(speed))),
                 "trace.span_coverage": top / traced.wall}
        extra.update(_headroom(plain))
        names = [m["name"] for m in spec["per_layer"]]
        metrics = _emit(spec["per_layer"], layers.layer_values(tracer, names, extra))
        dump = ROOT / ".perfbench" / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.dump(dump)
        print(f"# {len(tracer.spans)} spans over {len(traced.digests)} rounds written "
              f"to {dump.relative_to(ROOT)}")
    else:
        n = main.attempted
        scaled = main.scaled_latencies(speed)
        p50, p90 = _percentiles(scaled)
        values = {
            "setup_s": setup_s,
            "requests_per_s": n / sum(scaled),
            "latency_p50_ms": p50 * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "peak_rss_mb": peak_rss,
        }
        metrics = _emit(spec["end_to_end"], values)
        raw50, raw90 = _percentiles(main.latencies)
        print(f"# {n} requests in {main.wall:.3f} s over {len(main.digests)} rounds, "
              f"{n - n * 9 // 10} above p90; set-up is the median of {SETUP_REPEATS}")
        print(f"# unscaled: setup_s {setup_raw:.6g}, requests_per_s {n / main.wall:.6g}, "
              f"p50 {raw50 * 1e3:.6g} ms, p90 {raw90 * 1e3:.6g} ms; host speed "
              f"{KERNEL_REF_S / statistics.median(speed.cost):.3f} of the reference "
              f"(median of {len(speed.cost)} samples)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def record_goldens() -> int:
    lib = Lib()
    goldens = {}
    for argv in workloads.all_cli_commands():
        rc, out, err = workloads.run_cli(lib, argv)
        goldens[workloads.command_key(argv)] = {
            "rc": rc, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}
        print(rc, " ".join(argv), err.strip())
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "invopoly" / "__init__.py").is_file():
        print(f"error: no invopoly package under {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_goldens:
        return record_goldens()
    if args.workload is None or args.seconds < 0:
        ap.error("--workload is required and --seconds must be >= 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return run(args, spec)

if __name__ == "__main__":
    sys.exit(main())
