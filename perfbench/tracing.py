"""Per-layer tracing of zok from outside the program.

A :class:`Tracer` wraps a fixed list of zok's public functions.  Installing
it rebinds each function's name in every loaded ``zok`` module that holds
it (``zariski_decompose`` lives in ``zok.zariski`` but is also imported by
``zok.okounkov``, ``zok.oracle``, ``zok.cli`` and the package), and wraps
``SurfaceModel`` methods on the class.  Each call becomes a span: name,
start, end, parent span, op id, the exception type it raised and, for
functions that return collections, the result length.  Spans stay in memory
until :func:`layer_metrics` reduces them.

Self time of a span is its duration minus the durations of its direct child
spans; calls are strictly nested on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, metric prefix); "SurfaceModel.x" wraps a method.
TARGETS = [
    ("zok.exact", "squarefree_split", "exact.squarefree_split"),
    ("zok.lattice", "gram_product", "lattice.gram_product"),
    ("zok.lattice", "signature", "lattice.signature"),
    ("zok.lattice", "is_negative_definite", "lattice.is_negative_definite"),
    ("zok.lattice", "SurfaceModel.gram_submatrix", "lattice.gram_submatrix"),
    ("zok.lattice", "solve_linear", "lattice.solve_linear"),
    ("zok.zariski", "zariski_decompose", "zariski.zariski_decompose"),
    ("zok.zariski", "enumerate_exceptional_families",
     "zariski.enumerate_exceptional_families"),
    ("zok.okounkov", "segment_chambers", "okounkov.segment_chambers"),
    ("zok.okounkov", "first_chamber_along", "okounkov.first_chamber_along"),
    ("zok.okounkov", "okounkov_polygon", "okounkov.okounkov_polygon"),
    ("zok.polygon", "normalize_convex", "polygon.normalize_convex"),
    ("zok.polygon", "minkowski_sum", "polygon.minkowski_sum"),
    ("zok.polygon", "polygon_contains", "polygon.polygon_contains"),
    ("zok.oracle", "brute_force_zariski", "oracle.brute_force_zariski"),
    ("zok.oracle", "area_by_integration", "oracle.area_by_integration"),
    ("zok.oracle", "random_model", "oracle.random_model"),
    ("zok.io", "load_model", "io.load_model"),
    ("zok.io", "dumps_canonical", "io.dumps_canonical"),
    ("zok.io", "polygon_to_svg", "io.polygon_to_svg"),
    ("zok.cli", "main", "cli.main"),
]

# Functions whose result length is recorded on the span.
_SIZED = {"okounkov.segment_chambers", "zariski.enumerate_exceptional_families"}

# (metric name, unit) in the order they are printed.  Every name is printed
# on every traced run; a function a workload never calls reads 0, and so do
# the cli.*_ms figures, which only the cli workload measures.
PER_LAYER = (
    [(f"{prefix}.calls", "count") for _, _, prefix in TARGETS]
    + [(f"{prefix}.self_s", "s") for _, _, prefix in TARGETS]
    + [
        ("exact.mixed_radicand_failures", "count"),
        ("zariski.not_psef_ratio", "ratio"),
        ("zariski.nd_tests_per_family", "ratio"),
        ("okounkov.chambers", "count"),
        ("okounkov.decomps_per_chamber", "ratio"),
        ("oracle.subsets_per_class", "ratio"),
        ("cli.interpreter_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("cli.process_overhead_ms", "ms"),
        ("trace.overhead", "ratio"),
    ]
)


class Tracer:
    """Span recorder; ``active`` gates recording so checks run unrecorded."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = None
        self.active = False
        self._undo: list = []

    def _wrap(self, name: str, fn):
        tracer = self
        sized = name in _SIZED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(index)
            err = None
            size = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if sized:
                    size = len(result)
                return result
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op, err, size)

        return wrapper

    def install(self) -> None:
        """Wrap every target in the currently loaded zok modules."""
        mods = [m for n, m in sys.modules.items() if n == "zok" or n.startswith("zok.")]
        for module_name, attr, prefix in TARGETS:
            home = sys.modules[module_name]
            if attr.startswith("SurfaceModel."):
                cls, meth = home.SurfaceModel, attr.split(".", 1)[1]
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(prefix, orig))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(prefix, orig)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def write(self, fh) -> None:
        """One JSON line per span: index, name, start, end, parent, op id,
        exception type, result length."""
        for index, span in enumerate(self.spans):
            fh.write(json.dumps([index, *span]) + "\n")


def _reduce(spans, keep):
    """Per-name calls and self seconds over the spans that ``keep`` accepts,
    plus the span list itself for ancestor queries."""
    child_time = defaultdict(float)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for index, span in enumerate(spans):
        if not keep(span):
            continue
        calls[span[0]] += 1
        self_s[span[0]] += (span[2] - span[1]) - child_time[index]
    return calls, self_s


def _under(spans, index: int, names) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(op_spans, extra: dict) -> dict:
    """Every PER_LAYER value: layers from the op spans (set-up spans count
    only for random_model), and the measured values passed in ``extra``."""

    def keep(span):
        return span[4] != "setup" or span[0] == "oracle.random_model"

    k_calls, k_self = _reduce(op_spans, keep)
    out = {name: 0 for name, _ in PER_LAYER}
    for _, _, prefix in TARGETS:
        out[f"{prefix}.calls"] = k_calls[prefix]
        out[f"{prefix}.self_s"] = k_self[prefix]

    ops = [(i, s) for i, s in enumerate(op_spans) if s[4] != "setup"]
    decomps = [i for i, s in ops if s[0] == "zariski.zariski_decompose"]
    not_psef = sum(1 for i in decomps if op_spans[i][5] == "NotPseudoEffective")
    out["zariski.not_psef_ratio"] = _ratio(not_psef, len(decomps))

    families = sum(s[6] or 0 for _, s in ops if s[0] == "zariski.enumerate_exceptional_families")
    nd_tests = sum(
        1 for i, s in ops
        if s[0] == "lattice.is_negative_definite"
        and _under(op_spans, i, {"zariski.enumerate_exceptional_families"})
    )
    out["zariski.nd_tests_per_family"] = _ratio(nd_tests, families)

    walks = {"okounkov.segment_chambers", "okounkov.first_chamber_along"}
    chambers = sum(s[6] or 0 for _, s in ops if s[0] == "okounkov.segment_chambers")
    chambers += sum(1 for _, s in ops if s[0] == "okounkov.first_chamber_along" and s[5] is None)
    walk_decomps = sum(1 for i in decomps if _under(op_spans, i, walks))
    out["okounkov.chambers"] = chambers
    out["okounkov.decomps_per_chamber"] = _ratio(walk_decomps, chambers)

    subsets = sum(
        1 for i, s in ops
        if s[0] == "lattice.gram_submatrix"
        and _under(op_spans, i, {"oracle.brute_force_zariski"})
    )
    out["oracle.subsets_per_class"] = _ratio(subsets, k_calls["oracle.brute_force_zariski"])
    out.update(extra)
    return out
