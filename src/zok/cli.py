"""Command-line front end.

Exit codes: 0 success, 1 mathematically negative verdict (not psef, Morse
hypothesis fails, unsupported direction, ...), 2 input or usage error,
3 internal invariant breach (always a bug; a reproduction file is dumped).
All output is deterministic: canonical JSON with sorted keys, no timestamps.
"""

from __future__ import annotations

import argparse
import os
import sys

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
from .okounkov import (
    FlagSpec,
    boundary_body,
    chamber_slopes,
    okounkov_polygon,
    restricted_body,
    segment_chambers,
)
from .oracle import DEFAULT_SUBSET_CAP, run_model_verification
from .zariski import (
    classify,
    derivative_vol,
    enumerate_exceptional_families,
    morse_gap,
    zariski_decompose,
)

REPRO_FILE = "zok-repro.json"


def _resolve_model_path(spec: str) -> str:
    if spec in FIXTURE_NAMES and not os.path.exists(spec):
        return fixture_path(spec)
    return spec


def _parse_class(model: SurfaceModel, text: str):
    """A class argument is a curve name or a comma-separated rational vector."""
    try:
        return model.curve_class(model.curve_index(text))
    except KeyError:
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
    try:
        curve = model.curve_index(name)
    except KeyError:
        raise UnknownCurve(f"no curve named {name!r}") from None
    mult_map = {}
    for item in mults:
        if "=" not in item:
            raise UsageError(f"--mult needs NAME=VALUE, got {item!r}")
        cname, value = item.split("=", 1)
        try:
            index = model.curve_index(cname.strip())
        except KeyError:
            raise UnknownCurve(f"no curve named {cname.strip()!r}") from None
        try:
            mult_map[index] = parse_rat(value.strip())
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    try:
        flag = FlagSpec.make(curve, mult_map)
        from .okounkov import validate_flag

        validate_flag(model, flag)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return flag


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _csv_escape(value: str) -> str:
    if any(ch in value for ch in ',"\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    # bypass load_model so an invalid model prints its report instead of erroring
    path = _resolve_model_path(args.model)
    try:
        zio.model_from_dict(zio.read_model_json(path))
        problems: list[str] = []
    except ModelValidationError as exc:
        problems = exc.problems
    _emit(zio.dumps_canonical({"valid": not problems, "problems": problems}))
    return 0 if not problems else 2


def _cmd_zariski(args) -> int:
    model = zio.load_model(_resolve_model_path(args.model))
    dec = zariski_decompose(model, _parse_class(model, args.cls))
    _emit(zio.dumps_canonical(zio.decomposition_to_dict(model, dec)))
    return 0


def _cmd_classify(args) -> int:
    model = zio.load_model(_resolve_model_path(args.model))
    cls = classify(model, _parse_class(model, args.cls))
    _emit(zio.dumps_canonical(zio.classification_to_dict(cls)))
    return 0


def _cmd_volume(args) -> int:
    model = zio.load_model(_resolve_model_path(args.model))
    alpha = _parse_class(model, args.cls)
    dec = zariski_decompose(model, alpha)
    _emit(
        zio.dumps_canonical(
            {"class": zio.vec_to_json(alpha), "volume": format_rat(dec.volume(model))}
        )
    )
    return 0


def _cmd_derivative(args) -> int:
    model = zio.load_model(_resolve_model_path(args.model))
    alpha = _parse_class(model, args.cls)
    beta = _parse_class(model, args.direction)
    value = derivative_vol(model, alpha, beta)
    _emit(
        zio.dumps_canonical(
            {
                "alpha": zio.vec_to_json(alpha),
                "beta": zio.vec_to_json(beta),
                "derivative": format_rat(value),
            }
        )
    )
    return 0


def _cmd_morse(args) -> int:
    model = zio.load_model(_resolve_model_path(args.model))
    alpha = _parse_class(model, args.cls)
    beta = _parse_class(model, args.beta)
    cert = morse_gap(model, alpha, beta)
    _emit(zio.dumps_canonical(zio.morse_to_dict(cert)))
    return 0 if cert.lhs > 0 else 1


def _cmd_okounkov(args) -> int:
    model = zio.load_model(_resolve_model_path(args.model))
    alpha = _parse_class(model, args.cls)
    flag = _parse_flag(model, args.flag, args.mult)
    poly = okounkov_polygon(model, alpha, flag)
    svg = zio.polygon_to_svg(poly)
    if args.svg:
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as exc:
            raise UsageError(f"cannot write SVG file {args.svg!r}: {exc}") from exc
    if args.format == "svg":
        _emit(svg)
    else:
        _emit(zio.dumps_canonical(zio.polygon_to_dict(poly)))
    return 0


def _cmd_restricted(args) -> int:
    model = zio.load_model(_resolve_model_path(args.model))
    alpha = _parse_class(model, args.cls)
    flag = _parse_flag(model, args.flag, args.mult)
    lo, hi = restricted_body(model, alpha, flag)
    _emit(zio.dumps_canonical({"interval": [format_rat(lo), format_rat(hi)]}))
    return 0


def _cmd_boundary(args) -> int:
    model = zio.load_model(_resolve_model_path(args.model))
    alpha = _parse_class(model, args.cls)
    flag = _parse_flag(model, args.flag, args.mult)
    body = boundary_body(model, alpha, flag)
    _emit(zio.dumps_canonical(zio.boundary_body_to_dict(body)))
    return 0


def _cmd_chambers(args) -> int:
    model = zio.load_model(_resolve_model_path(args.model))
    alpha = _parse_class(model, args.cls)
    try:
        curve = model.curve_index(args.curve)
    except KeyError:
        raise UnknownCurve(f"no curve named {args.curve!r}") from None
    chambers = segment_chambers(model, alpha, curve)
    a, s = chamber_slopes(chambers, curve)
    if args.format == "csv":
        lines = ["t_lo,t_hi,support,Z0,Z1"]
        for ch in chambers:
            lines.append(
                ",".join(
                    [
                        _csv_escape(str(zio.ext_to_json(ch.t_lo))),
                        _csv_escape(str(zio.ext_to_json(ch.t_hi))),
                        _csv_escape(";".join(model.curve_name(i) for i in ch.support)),
                        _csv_escape(";".join(map(str, zio.vec_to_json(ch.z0)))),
                        _csv_escape(";".join(map(str, zio.vec_to_json(ch.z1)))),
                    ]
                )
            )
        _emit("\n".join(lines) + "\n")
    else:
        payload = zio.chambers_to_dict(model, chambers)
        payload["a"] = zio.ext_to_json(a)
        payload["s"] = zio.ext_to_json(s)
        _emit(zio.dumps_canonical(payload))
    return 0


def _cmd_families(args) -> int:
    model = zio.load_model(_resolve_model_path(args.model))
    families = enumerate_exceptional_families(model, allow_large=args.allow_large)
    named = [[model.curve_name(i) for i in fam] for fam in families]
    if args.format == "csv":
        lines = ["family"] + [_csv_escape(";".join(fam)) for fam in named]
        _emit("\n".join(lines) + "\n")
    else:
        _emit(zio.dumps_canonical({"families": named}))
    return 0


def _cmd_verify(args) -> int:
    model = zio.load_model(_resolve_model_path(args.model))
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
    for report in reports:
        _emit(zio.report_to_json_line(report) + "\n")
    if all(r.agrees for r in reports):
        return 0
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


def _dump_repro(argv, exc: Exception) -> None:
    payload = {
        "argv": list(argv),
        "error": f"{type(exc).__name__}: {exc}",
    }
    model_arg = None
    for i, a in enumerate(argv):
        if a in ("-m", "--model") and i + 1 < len(argv):
            model_arg = argv[i + 1]
    if model_arg:
        try:
            payload["model"] = zio.read_model_json(_resolve_model_path(model_arg))
        except ZokError:
            payload["model"] = None
    with open(REPRO_FILE, "w", encoding="utf-8") as fh:
        fh.write(zio.dumps_canonical(payload))


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


def main(argv=None) -> int:
    argv = _merge_negative_values(list(sys.argv[1:] if argv is None else argv))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except MathVerdictError as exc:
        _emit(zio.dumps_canonical({"error": type(exc).__name__, "detail": str(exc)}))
        return 1
    except (UsageError, ValueError) as exc:
        payload = {"error": type(exc).__name__, "detail": str(exc)}
        if isinstance(exc, ModelValidationError):
            payload["problems"] = exc.problems
        _emit(zio.dumps_canonical(payload))
        return 2
    except InvariantError as exc:
        _dump_repro(argv, exc)
        _emit(
            zio.dumps_canonical(
                {
                    "error": type(exc).__name__,
                    "detail": str(exc),
                    "repro": REPRO_FILE,
                }
            )
        )
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
