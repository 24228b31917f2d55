"""Command-line front end.

One dispatcher (_run) loads the model, parses -c/--cls into a class and
calls the subcommand's handler, a function of (model, args) that returns
(output, exit code); main writes the output, a JSON payload through
io.dumps_canonical or text (SVG, CSV, verify's JSON lines) as it is.
The okounkov and oracle modules are imported by the handlers that run them,
so a subcommand loads only what it uses.

Exit codes: 0 success, 1 mathematically negative verdict (not psef, Morse
hypothesis fails, unsupported direction, ...), 2 input or usage error
(UsageError only), 3 anything else: an internal invariant breach or any
unexpected exception, always a bug; a reproduction file is dumped, and
named in the JSON error ("repro": null when it cannot be written).
All output is deterministic: canonical JSON with sorted keys, no timestamps.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Optional

from . import io as zio
from .errors import (
    InvariantError,
    MathVerdictError,
    ModelValidationError,
    UnknownCurve,
    UsageError,
    ZokError,
)
from .exact import format_rat, parse_rat
from .fixtures import FIXTURE_NAMES, fixture_path
from .lattice import SurfaceModel
from .zariski import (
    classify,
    derivative_vol,
    enumerate_exceptional_families,
    morse_gap,
    volume,
    zariski_decompose,
)

if TYPE_CHECKING:
    from .okounkov import FlagSpec

REPRO_FILE = "zok-repro.json"


def _resolve_model_path(spec: str) -> str:
    if spec in FIXTURE_NAMES and not os.path.exists(spec):
        return fixture_path(spec)
    return spec


def _parse_class(model: SurfaceModel, text: str):
    """A class argument is a curve name or a comma-separated rational vector."""
    try:
        return model.curve_class(model.resolve_curve(text))
    except UnknownCurve:
        pass
    try:
        coords = tuple(parse_rat(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse class {text!r}: {exc}") from exc
    if len(coords) != model.rank:
        raise UsageError(
            f"class {text!r} has {len(coords)} coordinates, model rank is {model.rank}"
        )
    return coords


def _parse_flag(model: SurfaceModel, name: str, mults: list[str]) -> FlagSpec:
    from .okounkov import FlagSpec, validate_flag

    curve = model.resolve_curve(name)
    mult_map = {}
    try:
        for item in mults:
            cname, sep, value = item.partition("=")
            if not sep:
                raise UsageError(f"--mult needs NAME=VALUE, got {item!r}")
            index = model.resolve_curve(cname.strip())
            if index in mult_map:
                raise UsageError(f"--mult names curve {model.curve_name(index)!r} twice")
            mult_map[index] = parse_rat(value.strip())
        flag = FlagSpec.make(curve, mult_map)
        validate_flag(model, flag)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return flag


def _csv(rows) -> str:
    """CSV text, one line per row; a field holding a comma, quote or newline
    is quoted."""

    def field(value: str) -> str:
        if any(ch in value for ch in ',"\n'):
            return '"' + value.replace('"', '""') + '"'
        return value

    return "".join(",".join(map(field, row)) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# subcommands: (model, args) -> (output, exit code), where args.cls is
# already a class and the output is a JSON payload or text emitted as is
# ---------------------------------------------------------------------------


def _cmd_validate(model, args):
    # an invalid model never gets here: _run reports its problems
    return {"valid": True, "problems": []}, 0


def _cmd_zariski(model, args):
    dec = zariski_decompose(model, args.cls)
    return zio.decomposition_to_dict(model, dec), 0


def _cmd_classify(model, args):
    return zio.classification_to_dict(classify(model, args.cls)), 0


def _cmd_volume(model, args):
    return {"class": zio.vec_to_json(args.cls), "volume": format_rat(volume(model, args.cls))}, 0


def _cmd_derivative(model, args):
    beta = _parse_class(model, args.direction)
    value = derivative_vol(model, args.cls, beta)
    return {
        "alpha": zio.vec_to_json(args.cls),
        "beta": zio.vec_to_json(beta),
        "derivative": format_rat(value),
    }, 0


def _cmd_morse(model, args):
    cert = morse_gap(model, args.cls, _parse_class(model, args.beta))
    return zio.morse_to_dict(cert), 0 if cert.lhs > 0 else 1


def _cmd_okounkov(model, args):
    from .okounkov import okounkov_polygon

    poly = okounkov_polygon(model, args.cls, _parse_flag(model, args.flag, args.mult))
    svg = zio.polygon_to_svg(poly)
    if args.svg:
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as exc:
            raise UsageError(f"cannot write SVG file {args.svg!r}: {exc}") from exc
    return (svg if args.format == "svg" else zio.polygon_to_dict(poly)), 0


def _cmd_restricted(model, args):
    from .okounkov import restricted_body

    lo, hi = restricted_body(model, args.cls, _parse_flag(model, args.flag, args.mult))
    return {"interval": [format_rat(lo), format_rat(hi)]}, 0


def _cmd_boundary(model, args):
    from .okounkov import boundary_body

    body = boundary_body(model, args.cls, _parse_flag(model, args.flag, args.mult))
    return zio.boundary_body_to_dict(body), 0


def _cmd_chambers(model, args):
    from .okounkov import chamber_slopes, segment_chambers

    curve = model.resolve_curve(args.curve)
    chambers = segment_chambers(model, args.cls, curve)
    a, s = chamber_slopes(chambers, curve)
    if args.format == "csv":
        # each cell is str() of the exact value: "1/2", "-1+8/7*sqrt(14)"
        return _csv([["t_lo", "t_hi", "support", "Z0", "Z1"]] + [
            [str(ch.t_lo), str(ch.t_hi), ";".join(model.curve_name(i) for i in ch.support),
             ";".join(map(str, ch.z0)), ";".join(map(str, ch.z1))]
            for ch in chambers
        ]), 0
    payload = zio.chambers_to_dict(model, chambers)
    payload["a"] = zio.ext_to_json(a)
    payload["s"] = zio.ext_to_json(s)
    return payload, 0


def _cmd_families(model, args):
    families = enumerate_exceptional_families(model, allow_large=args.allow_large)
    named = [[model.curve_name(i) for i in fam] for fam in families]
    if args.format == "csv":
        return _csv([["family"]] + [[";".join(fam)] for fam in named]), 0
    return {"families": named}, 0


def _cmd_verify(model, args):
    from .oracle import DEFAULT_SUBSET_CAP, run_model_verification

    cap = DEFAULT_SUBSET_CAP
    env_cap = os.environ.get("ZOK_MAX_SUBSET_CURVES")
    if env_cap is not None:
        try:
            cap = int(env_cap)
        except ValueError:
            raise UsageError(
                f"ZOK_MAX_SUBSET_CURVES must be an integer, got {env_cap!r}"
            ) from None
    reports = run_model_verification(
        model, grid_bound=args.grid_bound, max_subset_curves=cap
    )
    lines = "".join(zio.report_to_json_line(r) + "\n" for r in reports)
    if all(r.agrees for r in reports):
        return lines, 0
    # stdout carries only the error document; the reports show the mismatch
    sys.stderr.write(lines)
    raise InvariantError("oracle verification found a mismatch")


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zok",
        description="Exact Zariski decompositions, volumes and Okounkov "
        "polygons on finite rational intersection lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument(
            "-m",
            "--model",
            required=True,
            help="model JSON path, or a bundled name: " + ", ".join(FIXTURE_NAMES),
        )
        return p

    add("validate", _cmd_validate, "check every model invariant")

    for name, func, help_text in [
        ("zariski", _cmd_zariski, "divisorial Zariski decomposition of a class"),
        ("classify", _cmd_classify, "kind and numerical dimension of a class"),
        ("volume", _cmd_volume, "volume of a pseudo-effective class"),
    ]:
        p = add(name, func, help_text)
        p.add_argument("-c", "--cls", required=True, metavar="CLASS",
                       help="curve name or comma-separated rational vector")

    p = add("derivative", _cmd_derivative, "one-sided volume derivative")
    p.add_argument("-c", "--cls", required=True, metavar="CLASS")
    p.add_argument("-d", "--direction", required=True, metavar="CLASS",
                   help="nef class or listed curve (name or vector)")

    p = add("morse", _cmd_morse, "Morse-gap certificate for a nef pair")
    p.add_argument("-c", "--cls", required=True, metavar="ALPHA")
    p.add_argument("-b", "--beta", required=True, metavar="BETA")

    for name, func, help_text in [
        ("okounkov", _cmd_okounkov, "generalized Okounkov polygon of a big class"),
        ("restricted", _cmd_restricted, "restricted body along the flag curve"),
        ("boundary", _cmd_boundary, "point/segment body of a volume-zero class"),
    ]:
        p = add(name, func, help_text)
        p.add_argument("-c", "--cls", required=True, metavar="CLASS")
        p.add_argument("--flag", required=True, metavar="CURVE",
                       help="flag curve name")
        p.add_argument("--mult", action="append", default=[], metavar="NAME=RAT",
                       help="local multiplicity of a curve at the flag point")
        if name == "okounkov":
            p.add_argument("--svg", metavar="PATH", help="also write an SVG drawing")
            p.add_argument("--format", choices=["json", "svg"], default="json")

    p = add("chambers", _cmd_chambers, "chamber walk along class - t*curve")
    p.add_argument("-c", "--cls", required=True, metavar="CLASS")
    p.add_argument("--curve", required=True, metavar="CURVE")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = add("families", _cmd_families, "all exceptional families of the model")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--allow-large", action="store_true",
                   help="lift the 20-curve enumeration guard")

    p = add("verify", _cmd_verify, "run the oracle suite against the model")
    p.add_argument("--grid-bound", type=int, default=2)

    return parser


def _dump_repro(argv, model: str, exc: Exception) -> Optional[str]:
    """Write REPRO_FILE for an exit-3 run and return its name, or None when
    it cannot be written: the run still ends in one JSON document.  model is
    the parsed -m/--model value; the file's JSON goes in as "model", null
    when it can no longer be read."""
    import traceback  # only a failing run pays for the import

    payload = {
        "argv": list(argv),
        "error": f"{type(exc).__name__}: {exc}",
        "traceback": traceback.format_exception(exc),
    }
    try:
        payload["model"] = zio.read_model_json(_resolve_model_path(model))
    except ZokError:
        payload["model"] = None
    try:
        with open(REPRO_FILE, "w", encoding="utf-8") as fh:
            fh.write(zio.dumps_canonical(payload))
    except OSError:
        return None
    return REPRO_FILE


_VALUE_OPTIONS = {"-c", "--cls", "-d", "--direction", "-b", "--beta"}


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join '-c -1,0' into '-c=-1,0' so argparse accepts negative vectors."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in _VALUE_OPTIONS
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and len(argv[i + 1]) > 1
            and argv[i + 1][1].isdigit()
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _run(args):
    """Load the model, parse -c/--cls into a class and run the subcommand;
    validate alone reports a model's problems instead of raising them."""
    try:
        model = zio.load_model(_resolve_model_path(args.model))
    except ModelValidationError as exc:
        if args.command != "validate":
            raise
        return {"valid": False, "problems": exc.problems}, 2
    if "cls" in args:
        args.cls = _parse_class(model, args.cls)
    return args.func(model, args)


def _error(exc: Exception) -> dict:
    payload = {"error": type(exc).__name__, "detail": str(exc)}
    if isinstance(exc, ModelValidationError):
        payload["problems"] = exc.problems
    return payload


def main(argv=None) -> int:
    argv = _merge_negative_values(list(sys.argv[1:] if argv is None else argv))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        output, code = _run(args)
    except MathVerdictError as exc:
        output, code = _error(exc), 1
    except UsageError as exc:
        output, code = _error(exc), 2
    except Exception as exc:  # an invariant breach, or any other bug
        output, code = dict(_error(exc), repro=_dump_repro(argv, args.model, exc)), 3
    sys.stdout.write(output if isinstance(output, str) else zio.dumps_canonical(output))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
