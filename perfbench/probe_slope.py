"""Measure how strongly a workload's op latency follows the speed probe.

    python3 perfbench/probe_slope.py --workload cli --seconds 180 [--setup]

Runs the workload's ops as a timed run does, probing the machine speed
(harness.Speed) between them, and prints the least-squares slope of
log(op latency) against log(probe median around the op).  Each op is
compared only with the other runs of its own stream position, so the slope
is free of differences between ops.  With --setup it repeats the set-up
instead of the ops.  The slope is meaningful only when the
machine changed speed during the run: the report gives the probe's range.
The workloads' PROBE_POWER constants were set from this.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/probe_slope.py")
    parser.add_argument("--workload", required=True,
                        choices=["polygons", "decompose", "enumerate", "cli"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=180)
    parser.add_argument("--setup", action="store_true",
                        help="time repeated set-ups instead of ops")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(WORK, exist_ok=True)
    import harness

    harness.pin_to_one_cpu()
    w = harness.build(args.workload, args.seed, WORK)
    harness.warm_up(w)
    speed, out = harness.Speed(), harness.Outcome()
    if args.setup:
        def setup(i):
            harness.warm_up(harness.build(args.workload, args.seed, WORK))

        op, check, positions = setup, lambda i, answer: None, 1
    else:
        op, check, positions = w.op, w.check, len(w.stream)
    end = perf_counter() + args.seconds
    n = 0
    while perf_counter() < end:
        speed.maybe_probe()
        out.run(op, check, n)
        n += 1
    speed.probe()

    by_position: dict[int, list[tuple[float, float]]] = {}
    for i, (t, d) in enumerate(zip(out.starts, out.latencies)):
        probe = speed.PROBE_REF_S / speed.scale(t)
        by_position.setdefault(i % positions, []).append((math.log(probe), math.log(d)))
    sxx = sxy = 0.0
    pairs = 0
    for points in by_position.values():
        if len(points) < 2:
            continue
        mx = sum(x for x, _ in points) / len(points)
        my = sum(y for _, y in points) / len(points)
        sxx += sum((x - mx) ** 2 for x, _ in points)
        sxy += sum((x - mx) * (y - my) for x, y in points)
        pairs += len(points)
    probes = [speed.PROBE_REF_S / speed.scale(t) for t in out.starts]
    print(f"{args.workload}{' set-up' if args.setup else ''}: {n} ops, {pairs} in repeated positions, "
          f"probe {1000 * min(probes):.2f}-{1000 * max(probes):.2f} ms, "
          f"slope {sxy / sxx if sxx else float('nan'):.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
