"""Re-record the cli workload's reference: exit code and stdout of every
command in cli_reference.json, run as ``python -m zok.cli`` against ./src.

    python3 perfbench/record_cli_reference.py

The reference pins zok's CLI output byte for byte, so re-record it only in a
change that redefines the benchmark, never in one that claims a speed-up.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(WORK, exist_ok=True)
    import harness
    from workloads import REFERENCE, Cli

    cli = Cli(harness.load_zok(), 0, WORK)
    for k, entry in enumerate(cli.entries):
        code, out = cli.process(k)
        entry["exit"], entry["stdout"] = code, out.decode("utf-8")
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    ref["ops"] = cli.entries
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(ref, indent=1) + "\n")
    print(f"recorded {len(cli.entries)} commands into {REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
