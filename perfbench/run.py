"""zok benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload polygons --seed 1 --seconds 20 --trace 0

It builds every input from the seed, runs the workload as a closed loop,
checks every answer, prints a readable report and, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones from a separate traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=["polygons", "decompose", "enumerate", "cli"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many ops (self-test sizes)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "zok", "__init__.py")):
        print(f"perfbench: no zok sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(WORK, exist_ok=True)

    import harness
    import tracing

    harness.pin_to_one_cpu()

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    if args.trace:
        spans = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl")
        w, outcomes, values = harness.traced_run(args.workload, args.seed, WORK, spans, args.ops)
        units, ops = tracing.PER_LAYER, outcomes[1].attempted
        print(f"spans written to {os.path.relpath(spans, ROOT)}")
    else:
        w, out, values, (beyond, unscaled) = harness.timed_run(
            args.workload, args.seed, args.seconds, WORK, args.ops)
        outcomes, units, ops = [out], harness.END_TO_END, out.attempted

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    failures = sum((o.failures for o in outcomes), start=Counter())
    refused = sum((o.refused for o in outcomes), start=Counter())
    print("meta " + json.dumps(harness.metadata(ROOT, args.workload, args.seed, w, ops),
                               sort_keys=True))
    print(f"error_rate {failed / attempted:.4f} ratio ({failed} of {attempted} executions)")
    print("failures_by_kind " + json.dumps(dict(sorted(failures.items()))))
    print("refused_by_kind " + json.dumps(dict(sorted(refused.items()))))
    for o in outcomes:
        for line in o.wrong[:5]:
            print("wrong answer: " + line)
    if not args.trace:
        print(f"op_p90_ms over {ops} ops, {beyond} beyond it")
        print("unscaled " + " ".join(f"{k}={v:.6g}" for k, v in unscaled.items()))
    for name, unit in units:
        print(f"{name} {values[name]:.6g} {unit}")
    result = {
        "correct": all(not o.wrong for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
