"""Closed-loop runner, end-to-end metrics, traced runs and run metadata.

One client, one process: op i+1 starts only after op i and its check have
finished.  There are no threads and no worker processes apart from the cli
workload's one zok process at a time.
"""

from __future__ import annotations

import bisect
import hashlib
import importlib
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace

import tracing
from checks import Refused
from workloads import WORKLOADS

ZOK_MODULES = ("errors", "exact", "lattice", "zariski", "okounkov", "polygon",
               "oracle", "io", "fixtures", "cli")
SETUP_REPEATS = 5
MIN_OPS = 100
HARD_CAP_S = 150.0

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("answered_rate", "ratio"),
]


def load_zok() -> SimpleNamespace:
    """Import zok afresh: drop every loaded zok module first, so each set-up
    pays the import of zok itself (stdlib modules stay loaded)."""
    for name in [n for n in sys.modules if n == "zok" or n.startswith("zok.")]:
        del sys.modules[name]
    importlib.import_module("zok")
    return SimpleNamespace(**{n: importlib.import_module(f"zok.{n}") for n in ZOK_MODULES})


class Outcome:
    """Start times, latencies and verdicts of a sequence of ops."""

    def __init__(self):
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.failures: Counter = Counter()
        self.refused: Counter = Counter()
        self.wrong: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def answered(self) -> int:
        return self.attempted - self.failed - sum(self.refused.values())

    def _wrong(self, i, kind: str, reason: str) -> None:
        self.failures[kind] += 1
        self.wrong.append(f"op {i}: {reason}")

    def run(self, op, check, i, tracer=None) -> None:
        """Op i, timed; then its check, untimed and untraced.  An op that
        raises, a check that raises anything but Refused, and a wrong
        answer are failed ops and wrong answers; Refused is a refused op,
        neither failed nor wrong."""
        if tracer is not None:
            tracer.op, tracer.active = i, True
        t0 = perf_counter()
        try:
            answer = op(i)
        except Exception as exc:  # noqa: BLE001 - any escape is a wrong answer
            self.starts.append(t0)
            self.latencies.append(perf_counter() - t0)
            self._wrong(i, type(exc).__name__, f"raised {type(exc).__name__}: {exc}")
            return
        finally:
            if tracer is not None:
                tracer.active = False
        self.starts.append(t0)
        self.latencies.append(perf_counter() - t0)
        try:
            reason = check(i, answer)
        except Refused as exc:
            self.refused[exc.kind] += 1
            return
        except Exception as exc:  # noqa: BLE001
            self._wrong(i, f"{type(exc).__name__} in check", f"check raised {exc!r}")
            return
        if reason is not None:
            self._wrong(i, "wrong_answer", reason)


def build(name: str, seed: int, work: str):
    z = load_zok()
    return WORKLOADS[name](z, seed, work)


def warm_up(w) -> None:
    """Op 0, untimed and unchecked; the run repeats and checks it."""
    try:
        w.op(0)
    except Exception:  # noqa: BLE001 - counted when the run repeats op 0
        pass


def pin_to_one_cpu() -> None:
    """Run this process, and the zok processes it starts, on one CPU, the
    lowest it may use.  The speed probe then times the CPU that the ops run
    on: the two vCPUs of the machine the bounds were set on change speed
    independently, and unpinned, a cli op's latency followed the probe with
    a log-log slope of 0.47 against 0.98 pinned (probe_slope.py)."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _probe() -> Fraction:
    """The machine-speed probe: Gaussian elimination of a 7x7 Hilbert
    matrix in Fractions, three times (about 2 ms).  It is stdlib-only, so
    no change to zok moves it, and it is made of the same small-Fraction
    arithmetic that zok's kernels spend their time in."""
    for _ in range(3):
        a = [[Fraction(1, i + j + 1) for j in range(7)] for i in range(7)]
        for c in range(7):
            for r in range(c + 1, 7):
                f = a[r][c] / a[c][c]
                for k in range(c, 7):
                    a[r][k] -= f * a[c][k]
    return a[6][6]


class Speed:
    """Machine speed over a run, for reporting times at a fixed speed.

    The shared machine the bounds were set on changes speed by up to 2x in
    phases of seconds to minutes, far more than a change to zok should be
    judged by.  The run therefore times ``_probe`` about every PROBE_EVERY_S
    and multiplies each timing by (PROBE_REF_S / p) ** power, where p is
    the median probe time of the WINDOW_S seconds around it.  ``power`` is
    how strongly the timing follows the probe, the slope of log(time)
    against log(p) that probe_slope.py measures over ops (or set-ups)
    repeated in slow and fast phases: the workload's PROBE_POWER for ops
    and SETUP_POWER for set-ups.  With power 1, a timing taken while the
    probe ran twice as slow as PROBE_REF_S would be halved.  Times are thus
    in seconds at the probe speed PROBE_REF_S.  The report prints the
    unscaled figures and the probe's median beside the scaled ones."""

    PROBE_REF_S = 0.002
    PROBE_EVERY_S = 0.05
    WINDOW_S = 1.0

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = perf_counter()
            _probe()
            self.at.append(t0)
            self.took.append(perf_counter() - t0)

    def maybe_probe(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= self.PROBE_EVERY_S:
            self.probe()

    def scale(self, t: float, power: float = 1.0) -> float:
        """PROBE_REF_S over the median probe time within WINDOW_S of t, to
        the power ``power``."""
        lo = bisect.bisect_left(self.at, t - self.WINDOW_S)
        hi = bisect.bisect_right(self.at, t + self.WINDOW_S)
        return (self.PROBE_REF_S / statistics.median(self.took[lo:hi] or self.took)) ** power

    def scaled(self, starts, durations, power: float) -> list[float]:
        return [d * self.scale(t, power) for t, d in zip(starts, durations)]


def timed_run(name: str, seed: int, seconds: float, work: str, max_ops=None):
    """Set up SETUP_REPEATS times (report the median), then run whole rounds
    of ops until ``seconds`` of wall time have passed and at least MIN_OPS
    ops are done, or exactly ``max_ops`` ops when that is given.  Every
    timing is scaled to the reference speed (see Speed).  Returns the
    workload, the outcome, the metrics and, for the report, the count of
    ops beyond op_p90_ms and the unscaled figures."""
    speed = Speed()
    setup_at, setup_took = [], []
    for _ in range(SETUP_REPEATS):
        speed.probe(5)
        t0 = perf_counter()
        w = build(name, seed, work)
        warm_up(w)
        setup_at.append(t0)
        setup_took.append(perf_counter() - t0)
        speed.probe(5)
    out = Outcome()
    start = perf_counter()
    n = 0
    while True:
        speed.maybe_probe()
        out.run(w.op, w.check, n)
        n += 1
        if max_ops is not None:
            if n >= max_ops:
                break
        elif n % w.ROUND == 0:
            elapsed = perf_counter() - start
            if (n >= MIN_OPS and elapsed >= seconds) or elapsed >= HARD_CAP_S:
                break
    speed.probe()
    lat = speed.scaled(out.starts, out.latencies, w.PROBE_POWER)
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(speed.scaled(setup_at, setup_took, w.SETUP_POWER)),
        "ops_per_s": out.attempted / sum(lat),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p90_ms": 1000 * statistics.quantiles(lat, n=10)[-1],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "answered_rate": out.answered / out.attempted,
    }
    beyond = sum(1 for t in lat if 1000 * t > metrics["op_p90_ms"])
    unscaled = {
        "setup_s": statistics.median(setup_took),
        "ops_per_s": out.attempted / sum(out.latencies),
        "op_p50_ms": 1000 * statistics.median(out.latencies),
        "op_p90_ms": 1000 * statistics.quantiles(out.latencies, n=10)[-1],
        "probe_ms": 1000 * statistics.median(speed.took),
    }
    return w, out, metrics, (beyond, unscaled)


def _paired(op, check, indices, tracer):
    """Run each op untraced and then traced, back to back, after one
    discarded pass that takes the first-execution costs; both halves of a
    pair see the same machine speed."""
    for i in indices:
        Outcome().run(op, check, i)
    plain, traced = Outcome(), Outcome()
    for i in indices:
        plain.run(op, check, i)
        tracer.install()
        try:
            traced.run(op, check, i, tracer)
        finally:
            tracer.uninstall()
    return plain, traced


def traced_run(name: str, seed: int, work: str, spans_path: str, max_ops=None):
    """Per-layer metrics.  The set-up is traced (for random_model); then one
    round of ops runs untraced and traced (see _paired), which gives
    trace.overhead.  On the cli workload the round is the cli op list
    replayed in process through zok.cli.main (for the io and cli layers);
    the list also runs once as subprocesses (for the process overhead) and
    the interpreter and import times are taken.  Other workloads read 0 on
    those layers.  All spans are written to ``spans_path`` at the end."""
    tracer = tracing.Tracer()
    z = load_zok()
    tracer.install()
    tracer.op, tracer.active = "setup", True
    try:
        w = WORKLOADS[name](z, seed, work)
    finally:
        tracer.active = False
        tracer.uninstall()
    warm_up(w)

    extra = {}
    outcomes = []
    if name == "cli":
        entries = range(len(w.entries))
        plain, traced = _paired(w.inprocess, w.check_entry, entries, tracer)
        procs = Outcome()
        for k in entries:
            procs.run(w.process, w.check_entry, k)
        empty, imports = w.startup_ms()
        extra["cli.interpreter_ms"] = 1000 * statistics.median(empty)
        extra["cli.import_ms"] = statistics.median(imports)
        extra["cli.process_overhead_ms"] = 1000 * (statistics.median(procs.latencies)
                                                   - statistics.median(plain.latencies))
        outcomes.append(procs)
    else:
        plain, traced = _paired(w.op, w.check, range(max_ops or w.ROUND), tracer)
    extra["exact.mixed_radicand_failures"] = traced.refused["mixed_radicand"]
    extra["trace.overhead"] = sum(traced.latencies) / sum(plain.latencies)
    metrics = tracing.layer_metrics(tracer.spans, extra)
    with open(spans_path, "w", encoding="utf-8") as fh:
        tracer.write(fh)
    return w, [plain, traced] + outcomes, metrics


def metadata(root: str, name: str, seed: int, w, ops: int) -> dict:
    """Facts about the run that are not metrics."""
    src = os.path.join(root, "src", "zok")
    files = sorted(
        os.path.join(d, f) for d, _, fs in os.walk(src) for f in fs if f.endswith(".py")
    )
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, src).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "workload": name,
        "seed": seed,
        "ops": ops,
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_zok_lines": lines,
        "line_rule": "newlines in every *.py under src/zok, recursively "
                     "(wc -l src/zok/*.py omits src/zok/fixtures/__init__.py)",
        "src_zok_sha256": digest.hexdigest(),
        "inputs_sha256": w.digest(),
    }
