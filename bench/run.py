"""Benchmark entry point.

    python3 bench/run.py --workload orders --seed 1 --seconds 55 --trace 0

Runs passes of one workload (orders or morphisms) for
--seconds, each pass in a fresh interpreter started from the checkout's
src/, one after another, with THETA_CONF_THREADS unset and without
bytecode caches.  Every pass runs the workload's whole job list, so a
run attempts whole rounds of the same operations.

With --trace 0 the result holds the end-to-end metrics: setup_s,
wall_s and peak_rss_mb.  On a shared host other tenants slow the CPU by
up to half, for seconds to minutes at a time, so the two times are
taken as follows:

- wall_s starts from the job list's time at the host's fastest: the sum
  over operations of each operation's fastest time among the run's
  passes (every pass runs the same operations in the same order);
- setup_s starts from the median set-up time of the run's passes;
- both are scaled by REFERENCE_LOOP_S over the low (5th percentile)
  time of the integer loop that every pass times between operations
  (workloads.loop_time), so that a run made wholly in a slow phase
  reads as one made in a fast phase.

They are thus times on a CPU as fast as the one whose loop time is
REFERENCE_LOOP_S.  peak_rss_mb is the median over the passes.  With
--trace 1 the run alternates untraced and traced passes and the result
holds the per-layer metrics of the traced ones (medians), plus
trace.overhead_s, the traced minus the untraced wall_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it records the
Python version, nproc, the commit and the hash seed.  The run's passes,
with their trace aggregates, are written to bench/runs/.  The exit code
is 1 when an output check fails and 2 when the run cannot be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("orders", "morphisms")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "trees.self_s": "s", "trees.calls": "count",
    "gamma.self_s": "s", "gamma.maps": "count", "gamma.kept_ratio": "ratio",
    "theta.self_s": "s", "theta.calls": "count",
    "nord.self_s": "s", "nord.poset_s": "s", "nord.covers_s": "s",
    "nord.leq_calls": "count",
    "labelled.self_s": "s", "labelled.calls": "count",
    "homology.self_s": "s", "homology.order_complex_s": "s",
    "homology.boundary_s": "s", "homology.snf_s": "s",
    "homology.chains": "count", "homology.nonzeros": "count",
    "cells.self_s": "s", "cells.calls": "count",
    "verify.self_s": "s",
    "trace.overhead_s": "s",
}
MIN_PASSES = 3
# The 5th percentile of workloads.loop_time on the host where the figures
# in README.md were taken (2 vCPUs reported as a 2.0 GHz Xeon).
REFERENCE_LOOP_S = 0.00165
RUN_LIMIT_S = 170       # no pass may end later than this after the start


class PassError(Exception):
    pass


def run_pass(workload, seed, traced, env, started):
    cmd = [sys.executable, str(BENCH / "passes.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    start = time.perf_counter()
    timeout = RUN_LIMIT_S - (start - started)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise PassError(f"a pass did not end within {timeout:.0f} s") from None
    if proc.returncode:
        raise PassError(f"a pass exited with {proc.returncode}:\n"
                        f"{proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["setup_s"] = record.pop("first") - start
    record["traced"] = traced
    return record


def run_info(hash_seed):
    # A checkout without .git (an exported tree) is named by its digest.
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "thetaconf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "commit": commit, "source_sha256": digest.hexdigest(),
            "hash_seed": hash_seed}


def op_minima(passes):
    """Each operation's fastest time among the passes."""
    if len({len(p["op_s"]) for p in passes}) != 1:
        raise PassError("passes ran different numbers of operations")
    return [min(times) for times in zip(*(p["op_s"] for p in passes))]


def loop_low(passes):
    """The 5th percentile of the loop times of the passes."""
    return statistics.quantiles((t for p in passes for t in p["loop_s"]),
                                n=20)[0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "thetaconf" / "__init__.py").is_file():
        print(f"no thetaconf sources under {SRC}", file=sys.stderr)
        return 2
    hash_seed = args.seed % 2**32
    # Passes compile thetaconf from source every time, so that setup_s does
    # not depend on whether the checkout already holds bytecode caches.
    env = {k: v for k, v in os.environ.items() if k != "THETA_CONF_THREADS"}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed),
               PYTHONDONTWRITEBYTECODE="1")

    kinds = (False, True) if args.trace else (False,)
    passes = []
    started = time.perf_counter()
    try:
        while len(passes) < MIN_PASSES * len(kinds) \
                or time.perf_counter() - started < args.seconds:
            for traced in kinds:
                passes.append(run_pass(args.workload, args.seed, traced, env,
                                       started))
        plain = [p for p in passes if not p["traced"]]
        scale = REFERENCE_LOOP_S / loop_low(passes)
        plain_minima = op_minima(plain)
        wall = scale * sum(plain_minima)
        if args.trace:
            traced = [p for p in passes if p["traced"]]
            # median_low keeps the counts whole numbers.
            metrics = {name: statistics.median_low(p["layers"][name]
                                                   for p in traced)
                       for name in PER_LAYER if name != "trace.overhead_s"}
            metrics["trace.overhead_s"] = \
                scale * sum(op_minima(traced)) - wall
            units = PER_LAYER
        else:
            metrics = {
                "setup_s": scale * statistics.median(p["setup_s"]
                                                     for p in plain),
                "wall_s": wall,
                "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                                 for p in plain),
            }
            units = END_TO_END
    except PassError as exc:
        print(exc, file=sys.stderr)
        return 2
    problems = [problem for p in passes for problem in p["problems"]]
    failed = [op for p in passes for op in p["failed"]]
    info = run_info(hash_seed)

    out_dir = BENCH / "runs"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    for p in passes:
        del p["op_s"], p["loop_s"]
    out_file.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "info": info, "metrics": metrics,
         "op_minima_s": plain_minima, "loop_low_s": REFERENCE_LOOP_S / scale,
         "passes": passes}, indent=1))

    for line in (problems + failed)[:20]:
        print(line, file=sys.stderr)
    print("run " + json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
