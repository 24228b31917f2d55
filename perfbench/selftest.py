"""Self-test of the benchmark at tiny sizes; about two minutes on two cores.

    python3 perfbench/selftest.py

It checks that every workload prints every metric by name with its unit and
ends with the result object, that a corrupted answer or an unexpected
exception counts as a failed op and a wrong answer while a mixed-radicand
failure counts as a refused op only, and that two traced runs of one seed
give identical work counts (under different hash seeds).
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import tracing  # noqa: E402

TINY_OPS = {"polygons": 6, "decompose": 42, "enumerate": 20, "cli": 5}
SEED = 3


def bench(workload: str, trace: int, hash_seed: str = "0") -> tuple[list[str], dict]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--trace", str(trace), "--ops", str(TINY_OPS[workload])],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_output(lines, result, names) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [n for n, _ in names]
    for name, unit in names:
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines), name


def check_workload(workload: str) -> None:
    lines, result = bench(workload, 0)
    check_output(lines, result, harness.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values()), result
    runs = []
    for hash_seed in ("1", "2"):
        lines, result = bench(workload, 1, hash_seed)
        check_output(lines, result, tracing.PER_LAYER)
        runs.append(result["metrics"])
    exact = {n for n, u in tracing.PER_LAYER if u == "count"} | {
        "zariski.not_psef_ratio", "zariski.nd_tests_per_family",
        "okounkov.decomps_per_chamber", "oracle.subsets_per_class"}
    for name in sorted(exact):
        assert runs[0][name]["value"] == runs[1][name]["value"], (workload, name)


def corrupted_ops(workload: str, corrupt, indices) -> harness.Outcome:
    w = harness.build(workload, SEED, WORK)
    corrupt(w)
    out = harness.Outcome()
    for i in indices:
        out.run(w.op, w.check, i)
    return out


def shift_vertex(w) -> None:
    z, build = w.z, w.z.okounkov.okounkov_polygon

    def shifted(*args):
        poly = build(*args)
        (x, y), rest = poly.vertices[0], poly.vertices[1:]
        return dataclasses.replace(poly, vertices=((x, y - 1),) + rest)

    z.okounkov.okounkov_polygon = shifted


def shift_positive_part(w) -> None:
    z, decompose = w.z, w.z.zariski.zariski_decompose

    def shifted(model, alpha):
        dec = decompose(model, alpha)
        return dataclasses.replace(dec, positive=(dec.positive[0] + 1,) + dec.positive[1:])

    z.zariski.zariski_decompose = shifted


def drop_family(w) -> None:
    z, enumerate_families = w.z, w.z.zariski.enumerate_exceptional_families
    z.zariski.enumerate_exceptional_families = lambda model: enumerate_families(model)[:-1]


def raise_in_classify(w) -> None:
    def broken(model, alpha):
        raise ZeroDivisionError("injected")

    w.z.zariski.classify = broken


def check_corruption() -> None:
    # Mixed radicands are refused ops, neither failed nor wrong, and the polygons
    # of such an op are still checked: a shifted vertex is a wrong answer on
    # every op.
    out = corrupted_ops("polygons", lambda w: None, range(12))
    assert out.refused["mixed_radicand"] >= 1 and not out.failed and not out.wrong, (out.refused, out.wrong)
    out = corrupted_ops("polygons", shift_vertex, range(12))
    assert len(out.wrong) == out.attempted == 12 and not out.refused, (out.failures, out.refused)

    w = harness.build("decompose", SEED, WORK)
    picks = [i for i, (_, kind, args) in enumerate(w.stream) if kind == "zariski" and args[1] == "psef"][:4]
    out = corrupted_ops("decompose", shift_positive_part, picks)
    assert out.failures["wrong_answer"] == out.attempted == 4, out.failures

    # Any other exception is a failed op and a wrong answer.
    picks = [i for i, (_, kind, _) in enumerate(w.stream) if kind == "classify"][:2]
    out = corrupted_ops("decompose", raise_in_classify, picks)
    assert out.failures["ZeroDivisionError"] == len(out.wrong) == 2, out.failures

    w = harness.build("enumerate", SEED, WORK)
    picks = [i for i, entry in enumerate(w.stream[:40]) if entry[0] == "families"][:3]
    out = corrupted_ops("enumerate", drop_family, picks)
    assert out.failures["wrong_answer"] == out.attempted == 3, out.failures


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    check_corruption()
    print("corrupted answers count as failed ops: ok", flush=True)
    for workload in TINY_OPS:
        check_workload(workload)
        print(f"{workload}: metrics and units printed, traced counts repeat: ok", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
