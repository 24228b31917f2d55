"""Serialization: the model JSON schema, exact-value encodings, canonical
JSON output, and the deterministic SVG rendering of a polygon.

Rationals serialize as bare integers when integral and as "p/q" strings
otherwise; quadratic irrationals as {"p": rat, "q": rat, "d": int} meaning
p + q*sqrt(d).  JSON stays exact; SVG coordinates are 12-significant-digit
decimal renderings for display only.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import ModelValidationError, UsageError
from .exact import ExtRat, QuadExt, format_rat, parse_rat
from .lattice import SurfaceModel, make_model, validate_model

if TYPE_CHECKING:  # result types appear in annotations only
    from .okounkov import BoundaryBody, OkounkovPolygon, PiecewiseLinear, SegmentChamber
    from .oracle import OracleReport
    from .zariski import Classification, MorseCertificate, ZariskiDecomp


def ext_to_json(x: ExtRat):
    if isinstance(x, QuadExt):
        return {"p": format_rat(x.p), "q": format_rat(x.q), "d": x.d}
    return format_rat(x)


def ext_from_json(value) -> ExtRat:
    """The exact value of ext_to_json's encoding; a radicand d that is not
    an int, or is a bool, raises ValueError, as parse_rat does."""
    if isinstance(value, Mapping):
        p, q, d = parse_rat(value["p"]), parse_rat(value["q"]), value["d"]
        if isinstance(d, bool) or not isinstance(d, int):
            raise ValueError(f"not an integer radicand: {d!r}")
        return QuadExt.new(p, q, d)
    return parse_rat(value)


def vec_to_json(v: Sequence) -> list:
    return [format_rat(x) for x in v]


def dumps_canonical(payload) -> str:
    """Byte-deterministic JSON: sorted keys, two-space indent, newline at end."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# model schema
# ---------------------------------------------------------------------------


def _array(value, what: str) -> list:
    # a string would iterate as its characters, and "01" load as (0, 1)
    if not isinstance(value, list):
        raise TypeError(f"{what} must be an array, not {type(value).__name__}")
    return value


def model_from_dict(data: Mapping) -> SurfaceModel:
    try:
        if not isinstance(data, Mapping):
            raise TypeError(f"top level must be an object, not {type(data).__name__}")
        name = str(data.get("name", "unnamed"))
        rank = data["rank"]
        if type(rank) is not int:
            raise TypeError(f"rank must be an integer, got {rank!r}")
        gram = [_array(row, "gram row") for row in _array(data["gram"], "gram")]
        kahler = _array(data["kahler"], "kahler")
        curves = [(str(c["name"]), _array(c["class"], "curve class")) for c in data["curves"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed model data: {exc}") from exc
    try:
        model = make_model(name, rank, gram, curves, kahler)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed model data: {exc}") from exc
    problems = validate_model(model)
    if problems:
        raise ModelValidationError(problems)
    return model


def model_to_dict(model: SurfaceModel) -> dict:
    return {
        "name": model.name,
        "rank": model.rank,
        "gram": [vec_to_json(row) for row in model.gram],
        "kahler": vec_to_json(model.kahler),
        "curves": [
            {"name": c.name, "class": vec_to_json(c.cls)} for c in model.curves
        ],
    }


def read_model_json(path: str):
    """Parsed JSON of a model file; an unreadable or malformed file is a UsageError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read model file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"model file {path!r} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"model file {path!r} is not valid JSON: {exc}") from exc


def load_model(path: str) -> SurfaceModel:
    return model_from_dict(read_model_json(path))


# ---------------------------------------------------------------------------
# result payloads
# ---------------------------------------------------------------------------


def decomposition_to_dict(model: SurfaceModel, dec: ZariskiDecomp) -> dict:
    return {
        "class": vec_to_json(dec.alpha),
        "Z": vec_to_json(dec.positive),
        "N": [
            {"curve": model.curve_name(i), "coeff": format_rat(a)}
            for i, a in zip(dec.support, dec.coeffs)
        ],
        "volume": format_rat(dec.volume()),
        "numdim": dec.numdim(),
    }


def classification_to_dict(cls: Classification) -> dict:
    return {"kind": cls.kind.value, "numdim": cls.numdim}


def morse_to_dict(cert: MorseCertificate) -> dict:
    return {
        "lhs": format_rat(cert.lhs),
        "conclusionBig": cert.conclusion_big,
        "vol": None if cert.vol is None else format_rat(cert.vol),
        "holds": cert.holds,
    }


def piecewise_to_dict(pl: PiecewiseLinear) -> dict:
    return {
        "breakpoints": [ext_to_json(b) for b in pl.breakpoints],
        "values": [ext_to_json(v) for v in pl.values],
    }


def polygon_to_dict(poly: OkounkovPolygon) -> dict:
    return {
        "a": ext_to_json(poly.a),
        "s": ext_to_json(poly.s),
        "vertices": [[ext_to_json(x), ext_to_json(y)] for x, y in poly.vertices],
        "area": ext_to_json(poly.area),
        "f": piecewise_to_dict(poly.f),
        "g": piecewise_to_dict(poly.g),
    }


def boundary_body_to_dict(body: BoundaryBody) -> dict:
    return {
        "kind": body.kind,
        "base": [0, format_rat(body.base_y)],
        "top": None if body.top is None else format_rat(body.top),
    }


def chambers_to_dict(model: SurfaceModel, chambers: Sequence[SegmentChamber]) -> dict:
    return {
        "chambers": [
            {
                "t_lo": ext_to_json(ch.t_lo),
                "t_hi": ext_to_json(ch.t_hi),
                "support": [model.curve_name(i) for i in ch.support],
                "Z": [vec_to_json(ch.z0), vec_to_json(ch.z1)],
                "coeffs": {
                    model.curve_name(i): [format_rat(p), format_rat(q)]
                    for i, p, q in zip(ch.support, ch.coeff0, ch.coeff1)
                },
            }
            for ch in chambers
        ]
    }


def report_to_json_line(report: OracleReport) -> str:
    payload = {
        "subject": report.subject,
        "agrees": report.agrees,
        "witness": report.witness,
    }
    return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_SVG_SCALE = 100  # drawing units per lattice unit
_DECIMAL_DIGITS = 12  # significant digits of a rendered value


def ext_to_decimal_str(x: ExtRat) -> str:
    """Deterministic decimal rendering of an exact value, display only."""
    from decimal import Context, Decimal  # only the SVG rendering needs it

    ctx = Context(prec=_DECIMAL_DIGITS + 10)

    def dec(q: Fraction) -> Decimal:
        return ctx.divide(Decimal(q.numerator), Decimal(q.denominator))

    if isinstance(x, QuadExt):
        value = ctx.add(dec(x.p), ctx.multiply(dec(x.q), ctx.sqrt(Decimal(x.d))))
    else:
        value = dec(x)
    out = Context(prec=_DECIMAL_DIGITS).create_decimal(value)
    return format(out.normalize(), "f")


def _svg_xy(x: ExtRat, y: ExtRat, y_flip_about: tuple) -> tuple[str, str]:
    lo, hi = y_flip_about
    flipped = (lo + hi) - y
    return (
        ext_to_decimal_str(x * _SVG_SCALE),
        ext_to_decimal_str(flipped * _SVG_SCALE),
    )


def polygon_to_svg(poly: OkounkovPolygon) -> str:
    """Deterministic standalone SVG of the polygon with breakpoint ticks."""
    xs = [v[0] for v in poly.vertices]
    ys = [v[1] for v in poly.vertices]
    x_lo, x_hi = min(math.floor(x) for x in xs), max(math.ceil(x) for x in xs)
    y_lo, y_hi = min(math.floor(y) for y in ys), max(math.ceil(y) for y in ys)
    if x_hi == x_lo:
        x_hi += 1
    if y_hi == y_lo:
        y_hi += 1
    flip = (Fraction(y_lo), Fraction(y_hi))
    pad = _SVG_SCALE // 2
    view = (
        x_lo * _SVG_SCALE - pad,
        y_lo * _SVG_SCALE - pad,
        (x_hi - x_lo) * _SVG_SCALE + 2 * pad,
        (y_hi - y_lo) * _SVG_SCALE + 2 * pad,
    )
    points = [_svg_xy(x, y, flip) for x, y in poly.vertices]
    path = "M " + " L ".join(f"{px} {py}" for px, py in points) + " Z"
    base_y = _svg_xy(Fraction(0), Fraction(y_lo), flip)[1]
    top_y = _svg_xy(Fraction(0), Fraction(y_hi), flip)[1]
    ticks = []
    for b in poly.f.breakpoints:
        px = ext_to_decimal_str(b * _SVG_SCALE)
        ticks.append(
            f'<line x1="{px}" y1="{base_y}" x2="{px}" '
            f'y2="{top_y}" stroke="#999" stroke-width="2" stroke-dasharray="6 6"/>'
        )
        ticks.append(
            f'<text x="{px}" y="{base_y}" dy="28" font-size="24" '
            f'text-anchor="middle">{b}</text>'
        )
    tick_markup = "\n  ".join(ticks)
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{view[0]} {view[1]} {view[2]} {view[3]}">\n'
        f'  <path d="{path}" fill="#cfe3ff" stroke="#1f4e98" stroke-width="3"/>\n'
        f"  {tick_markup}\n"
        "</svg>\n"
    )
