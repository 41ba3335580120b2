"""One pass of a benchmark workload, in a fresh interpreter.

run.py starts this file once per pass with PYTHONPATH pointing at the
checkout's src/.  The pass imports thetaconf, makes the workload's inputs
from --seed, runs the job list and checks it, then prints one JSON line:

- `first`: time.perf_counter() when the first operation started.  On
  Linux that clock is system-wide, so run.py subtracts its own reading
  from just before the start to get the set-up time;
- `wall_s`, the sum of `op_s`, the time of each operation in job-list
  order;
- `loop_s`, the times of the integer loop that `Ops` runs between
  operations (see `workloads.loop_time`);
- `peak_rss_mb`, `attempted`, `failed`, `problems`, `facts`;
- with --trace 1, `layers` (per-layer metrics) and `trace` (the span
  aggregates).  Wrappers are installed only then.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import thetaconf
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(thetaconf.__file__).resolve().parent != src / "thetaconf":
        print(f"thetaconf imported from {thetaconf.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import workloads
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.prepare(random.Random(args.seed))
    ops = workloads.Ops()
    if tracer:
        tracer.reset()
    first = time.perf_counter()
    results = workload.execute(inputs, ops)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        layers, trace = tracing.layer_metrics(tracer), tracer.summary()

    record = {
        "first": first,
        "wall_s": sum(ops.seconds),
        "op_s": ops.seconds,
        "loop_s": ops.loop_seconds,
        "peak_rss_mb": peak_kib / 1024,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "problems": workload.check(inputs, results),
        "facts": workload.facts(inputs, results),
    }
    if tracer:
        record["layers"], record["trace"] = layers, trace
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
