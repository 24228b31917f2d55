from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from zok.cli import main
from zok.fixtures import FIXTURE_NAMES, fixture_path, load_fixture
from zok.io import dumps_canonical, model_to_dict
from zok.oracle import ModelGenSpec, OracleReport, random_model


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_zariski_golden(capsys):
    code, out = run_cli(capsys, "zariski", "-m", fixture_path("blowup1"), "-c", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["Z"] == [1, 0]
    assert payload["N"] == [{"coeff": 1, "curve": "E"}]


def test_bundled_model_names_resolve(capsys):
    code, out = run_cli(capsys, "volume", "-m", "p2", "-c", "3")
    assert code == 0
    assert json.loads(out)["volume"] == 9


def test_okounkov_golden_p2(capsys):
    code, out = run_cli(capsys, "okounkov", "-m", "p2", "-c", "1", "--flag", "L")
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == [[0, 0], [1, 0], [0, 1]]
    assert payload["area"] == "1/2"


def test_volume_negative_verdict_exit_1(capsys):
    code, out = run_cli(capsys, "volume", "-m", "blowup1", "-c", "-1,0")
    assert code == 1
    assert json.loads(out)["error"] == "NotPseudoEffective"


def test_classify_outputs_null_numdim(capsys):
    code, out = run_cli(capsys, "classify", "-m", "blowup1", "-c", "-1,0")
    assert code == 0
    assert json.loads(out) == {"kind": "NotPsefInModel", "numdim": None}


def test_usage_errors_exit_2(capsys, tmp_path):
    code, out = run_cli(capsys, "volume", "-m", "blowup1", "-c", "1,2,3")
    assert code == 2
    # an empty or blank coordinate is not skipped
    for text in ("1,,0", "1, ,0", "1,0,", ",1,0", ""):
        code, out = run_cli(capsys, "zariski", "-m", "blowup1", "-c", text)
        assert code == 2
        assert json.loads(out)["detail"].startswith(f"cannot parse class {text!r}: ")
    code, out = run_cli(capsys, "volume", "-m", str(tmp_path / "missing.json"), "-c", "1")
    assert code == 2
    # JSON reads 1e400 as inf, which has no integer value
    huge = tmp_path / "huge.json"
    huge.write_text(
        '{"name": "huge", "rank": 1e400, "gram": [[1]], "kahler": [1], "curves": []}',
        encoding="utf-8",
    )
    code, out = run_cli(capsys, "volume", "-m", str(huge), "-c", "1")
    assert code == 2
    assert json.loads(out)["error"] == "UsageError"
    assert json.loads(out)["detail"].startswith("malformed model data: ")
    bad = tmp_path / "asym.json"
    bad.write_text(
        json.dumps(
            {
                "name": "asym", "rank": 2, "gram": [[1, 2], [3, -1]],
                "kahler": [1, 0], "curves": [{"name": "D", "class": [1, 0]}],
            }
        ),
        encoding="utf-8",
    )
    code, out = run_cli(capsys, "volume", "-m", str(bad), "-c", "1,0")
    assert code == 2
    assert any("(0,1)" in p for p in json.loads(out)["problems"])
    # a UTF-16 byte-order mark before "{}": not UTF-8, so not a model file
    binary = tmp_path / "bad.json"
    binary.write_bytes(b"\xff\xfe{}")
    code, out = run_cli(capsys, "volume", "-m", str(binary), "-c", "1")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "UsageError"
    assert payload["detail"].startswith(f"model file {str(binary)!r} is not valid UTF-8: ")


def test_non_object_model_json_is_a_usage_error(capsys, tmp_path):
    for text in ("[]", "3", '"p2"', "null"):
        bad = tmp_path / "top.json"
        bad.write_text(text, encoding="utf-8")
        for argv in (("validate",), ("volume", "-c", "1")):
            code, out = run_cli(capsys, argv[0], "-m", str(bad), *argv[1:])
            assert code == 2
            payload = json.loads(out)
            assert payload["error"] == "UsageError"
            assert "top level must be an object" in payload["detail"]


def test_validate_reports(capsys, tmp_path):
    code, out = run_cli(capsys, "validate", "-m", "hirzebruch2")
    assert code == 0
    assert json.loads(out) == {"problems": [], "valid": True}

    bad = tmp_path / "badomega.json"
    bad.write_text(
        json.dumps(
            {
                "name": "b", "rank": 2, "gram": [[1, 0], [0, -1]],
                "kahler": [1, 0],
                "curves": [
                    {"name": "E", "class": [0, 1]},
                    {"name": "H-E", "class": [1, -1]},
                    {"name": "H", "class": [1, 0]},
                ],
            }
        ),
        encoding="utf-8",
    )
    code, out = run_cli(capsys, "validate", "-m", str(bad))
    assert code == 2
    payload = json.loads(out)
    assert payload["valid"] is False
    assert any("omega.E" in p for p in payload["problems"])


def _model_file(tmp_path, name, kahler, curves, gram=((1, 0), (0, -1))):
    """A rank-2 model over gram, diag(1, -1) by default, with the given
    Kahler class and (name, class) curves, written as JSON; its path as a
    string."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "name": name, "rank": 2, "gram": gram, "kahler": kahler,
        "curves": [{"name": n, "class": cls} for n, cls in curves],
    }), encoding="utf-8")
    return str(path)


def test_validate_output_on_invalid_models_is_exact(capsys, tmp_path):
    """Each problem read off an integer sign, byte for byte: a zero class,
    omega.C <= 0, curves meeting negatively with a fractional product
    (printed as that Fraction), omega.omega <= 0, a duplicate name and a
    form of the wrong signature."""
    bad = _model_file(tmp_path, "bad", [1, 0], [
        ("Z", [0, 0]), ("A", ["1/2", "1/2"]), ("B", ["1/2", 1]), ("E", ["-1/2", "1/4"])])
    code, out = run_cli(capsys, "validate", "-m", bad)
    assert code == 2
    assert out == (
        '{\n  "problems": [\n'
        '    "curve \'Z\' has zero class",\n'
        '    "kahler class fails omega.E > 0",\n'
        '    "distinct curves \'A\' and \'B\' meet negatively (-1/4)",\n'
        '    "distinct curves \'A\' and \'E\' meet negatively (-3/8)",\n'
        '    "distinct curves \'B\' and \'E\' meet negatively (-1/2)"\n'
        '  ],\n  "valid": false\n}\n'
    )
    square = _model_file(tmp_path, "square", [1, 2], [("A", [1, "-1/3"]), ("A", [1, 0])])
    code, out = run_cli(capsys, "validate", "-m", square)
    assert code == 2
    assert out == (
        '{\n  "problems": [\n'
        '    "kahler class fails omega.omega > 0",\n'
        '    "duplicate curve name \'A\'"\n'
        '  ],\n  "valid": false\n}\n'
    )
    definite = _model_file(tmp_path, "definite", [1, 0], [("A", [1, 0])], gram=[[1, 0], [0, 1]])
    code, out = run_cli(capsys, "validate", "-m", definite)
    assert code == 2
    assert out == (
        '{\n  "problems": [\n'
        '    "gram signature is (2, 0, 0), need (1, 1, 0)"\n'
        '  ],\n  "valid": false\n}\n'
    )


def test_mult_at_a_fractional_cap_is_accepted_and_above_it_refused(capsys, tmp_path):
    """F.G = 3/2: a multiplicity equal to that cap passes, one above it is a
    usage error naming the cap as a Fraction."""
    cap = _model_file(tmp_path, "cap", [1, 0], [("F", [1, "1/2"]), ("G", [1, -1])])
    argv = ("okounkov", "-m", cap, "-c", "2,0", "--flag", "F", "--mult")
    code, out = run_cli(capsys, *argv, "G=3/2")
    assert code == 0 and json.loads(out)["area"] == 2
    code, out = run_cli(capsys, *argv, "G=7/4")
    assert code == 2
    assert out == (
        '{\n  "detail": "multiplicity 7/4 for curve \'G\' exceeds its total '
        'intersection 3/2 with the flag curve",\n  "error": "UsageError"\n}\n'
    )


def test_morse_exit_codes(capsys):
    code, out = run_cli(capsys, "morse", "-m", "blowup1", "-c", "3,0", "-b", "1,-1")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"conclusionBig": True, "holds": True, "lhs": 3, "vol": 4}

    code, out = run_cli(capsys, "morse", "-m", "blowup1", "-c", "2,0", "-b", "1,-1")
    assert code == 1  # hypothesis fails (lhs = 0)
    assert json.loads(out)["lhs"] == 0


def test_derivative_by_curve_name(capsys):
    code, out = run_cli(
        capsys, "derivative", "-m", "blowup1", "-c", "2,1", "-d", "H-E"
    )
    assert code == 0
    assert json.loads(out)["derivative"] == 4


def test_boundary_and_restricted(capsys):
    code, out = run_cli(
        capsys, "boundary", "-m", "blowup1", "-c", "0,1", "--flag", "H-E",
        "--mult", "E=1",
    )
    assert code == 0
    assert json.loads(out) == {"base": [0, 1], "kind": "Point", "top": None}

    code, out = run_cli(
        capsys, "restricted", "-m", "blowup1", "-c", "2,1", "--flag", "H-E",
        "--mult", "E=1",
    )
    assert code == 0
    assert json.loads(out) == {"interval": [1, 3]}

    code, out = run_cli(
        capsys, "restricted", "-m", "blowup1", "-c", "2,0", "--flag", "E"
    )
    assert code == 1


def test_mult_naming_a_curve_twice_is_a_usage_error(capsys):
    code, out = run_cli(
        capsys, "okounkov", "-m", "blowup2", "-c", "3,-1,-1", "--flag", "L12",
        "--mult", "E1=1", "--mult", "E1=0",
    )
    assert code == 2
    payload = json.loads(out)  # one document: the error
    assert payload["error"] == "UsageError"
    assert payload["detail"] == "--mult names curve 'E1' twice"


def test_chambers_json_and_csv(capsys):
    code, out = run_cli(
        capsys, "chambers", "-m", "blowup1", "-c", "1,1", "--curve", "E"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["a"] == 1 and payload["s"] == 2
    assert [c["support"] for c in payload["chambers"]] == [["E"], []]

    code, out = run_cli(
        capsys, "chambers", "-m", "blowup1", "-c", "1,1", "--curve", "E",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "t_lo,t_hi,support,Z0,Z1"
    assert len(out.splitlines()) == 3


def test_chambers_csv_writes_an_irrational_endpoint_as_its_exact_text(capsys, tmp_path):
    # the walk ends at the root (sqrt(5) - 1)/2 of Z(t)^2 = 2 - 2t - 2t^2
    golden = tmp_path / "golden.json"
    golden.write_text(
        json.dumps(
            {
                "name": "golden", "rank": 2, "gram": [[2, 1], [1, -2]],
                "kahler": [1, 0],
                "curves": [{"name": "A", "class": [1, 0]}, {"name": "N", "class": [0, 1]}],
            }
        ),
        encoding="utf-8",
    )
    code, out = run_cli(
        capsys, "chambers", "-m", str(golden), "-c", "1,0", "--curve", "N",
        "--format", "csv",
    )
    assert code == 0
    assert out == (
        "t_lo,t_hi,support,Z0,Z1\n"
        "0,-1/2+1/2*sqrt(5),,1;0,0;-1\n"
    )


def test_chambers_csv_cells_are_the_exact_values_as_text(capsys, tmp_path):
    """Each cell is str() of its exact value, the text of the SVG tick
    labels: a walk on the rank-4 reference model that ends at an irrational
    t, and one whose cells are all rational, byte for byte as recorded in
    perfbench/cli_reference.json."""
    path = tmp_path / "rank4.json"
    model = random_model(ModelGenSpec(seed=2015, rank=4, num_curves=6))
    path.write_text(dumps_canonical(model_to_dict(model)), encoding="utf-8")
    code, out = run_cli(capsys, "chambers", "-m", str(path), "-c", "5,-2,-2,-1",
                        "--curve", "E3", "--format", "csv")
    assert code == 0
    assert out == "t_lo,t_hi,support,Z0,Z1\n0,-1+8/7*sqrt(14),C3,32/7;-8/7;-8/7;-1,0;0;0;-1\n"
    code, out = run_cli(capsys, "chambers", "-m", str(path), "-c", "7,-1,-1,-1",
                        "--curve", "C3", "--format", "csv")
    assert code == 0
    assert out == (
        "t_lo,t_hi,support,Z0,Z1\n0,1/2,,7;-1;-1;-1,-1;2;2;0\n1/2,6,E1;E2,7;0;0;-1,-1;0;0;0\n"
    )


def test_chambers_output_is_the_recorded_output(capsys, tmp_path):
    """`zok chambers` JSON and CSV, with their exit codes, over the four
    fixtures, the rank-4 reference model and twelve seeded random models:
    from omega and from 2*omega + v for the first three integer v in
    {-1, 0, 1}^rank (some not big, so error payloads are covered too), with
    every curve.  The digest was recorded from the walk that built every
    chamber field as a Fraction; walks that end at an irrational t are
    among them."""
    import hashlib
    import itertools

    models = [(name, name, load_fixture(name)) for name in FIXTURE_NAMES]
    specs = [ModelGenSpec(seed=2015, rank=4, num_curves=6)]
    specs += [ModelGenSpec(seed=seed, rank=3 + seed % 4, num_curves=5 + seed % 3)
              for seed in range(12)]
    for k, spec in enumerate(specs):
        model = random_model(spec)
        path = tmp_path / f"model{k}.json"
        path.write_text(dumps_canonical(model_to_dict(model)), encoding="utf-8")
        models.append((model.name, str(path), model))
    texts = []
    for name, source, model in models:
        shifts = list(itertools.islice(itertools.product((-1, 0, 1), repeat=model.rank), 3))
        classes = [model.kahler] + [tuple(2 * w + x for w, x in zip(model.kahler, v))
                                    for v in shifts]
        for cls in classes:
            text = ",".join(map(str, cls))
            for curve in model.curves:
                for fmt in ("json", "csv"):
                    code, out = run_cli(capsys, "chambers", "-m", source, "-c", text,
                                        "--curve", curve.name, "--format", fmt)
                    texts.append(f"{name} {text} {curve.name} {fmt} {code}\n{out}")
    joined = "".join(texts)
    assert len(texts) == 696 and "sqrt" in joined and '"error"' in joined
    digest = hashlib.sha256(joined.encode()).hexdigest()
    assert digest == "9c61ebacc09b0b3c8c1360e320b1d65448a56508a457bc8bf08f640b977556ac"


def _mult_flag(model):
    """--mult for one flag of the model: the first curve pair (flag, other)
    that meets positively, at half their intersection; None when no pair
    does."""
    den, table = model._curve_gram_ints
    for flag, other in itertools.permutations(range(len(model.curves)), 2):
        if table[other][flag] > 0:
            half = Fraction(table[other][flag], 2 * den)
            return model.curves[flag].name, f"{model.curves[other].name}={half}"
    return None


def test_okounkov_outputs_are_the_recorded_outputs(capsys, tmp_path):
    """`zok okounkov` JSON, with its exit codes: over each fixture's integer
    grid [-1, 2]^rank with every curve as the flag and with one flag that
    carries a --mult, and over twelve seeded random models from omega and
    from 2*omega + v for the first three integer v in {-1, 0, 1}^rank, the
    same flags.  Error payloads and walks that end at an irrational t (a
    value with a radicand "d") are among them.  The digest was recorded
    from the walk whose start was a full rational decomposition of the
    class."""
    import hashlib

    cases = []
    for name in FIXTURE_NAMES:
        model = load_fixture(name)
        classes = list(itertools.product(range(-1, 3), repeat=model.rank))
        cases.append((name, name, model, classes))
    for seed in range(12):
        model = random_model(ModelGenSpec(seed=seed, rank=3 + seed % 4, num_curves=5 + seed % 3))
        path = tmp_path / f"model{seed}.json"
        path.write_text(dumps_canonical(model_to_dict(model)), encoding="utf-8")
        shifts = itertools.islice(itertools.product((-1, 0, 1), repeat=model.rank), 3)
        classes = [model.kahler] + [tuple(2 * w + x for w, x in zip(model.kahler, v))
                                    for v in shifts]
        cases.append((model.name, str(path), model, classes))
    texts = []
    for name, source, model, classes in cases:
        flags = [[curve.name] for curve in model.curves]
        mult = _mult_flag(model)
        if mult is not None:
            flags.append([mult[0], "--mult", mult[1]])
        for cls in classes:
            text = ",".join(map(str, cls))
            for flag in flags:
                code, out = run_cli(capsys, "okounkov", "-m", source, "-c", text,
                                    "--flag", *flag)
                texts.append(f"{name} {text} {' '.join(flag)} {code}\n{out}")
    joined = "".join(texts)
    assert len(texts) == 704 and '"d": ' in joined and '"error"' in joined
    assert "--mult" in joined
    digest = hashlib.sha256(joined.encode()).hexdigest()
    assert digest == "cc2c0c406214db3a34e1132d056e30c10aec8eb99871a98670b1c5bbcb2f0f20"


def test_body_and_volume_outputs_are_the_recorded_outputs(capsys):
    """`zok volume`, `zok restricted` and `zok boundary`, with their exit
    codes, over each fixture's integer grid [-1, 2]^rank, the bodies with
    every curve as the flag (error payloads included).  The digest was
    recorded before these commands shared one volume, flag-slice and
    bigness read-off."""
    import hashlib
    import itertools

    texts = []
    for name in FIXTURE_NAMES:
        model = load_fixture(name)
        for coords in itertools.product(range(-1, 3), repeat=model.rank):
            text = ",".join(map(str, coords))
            code, out = run_cli(capsys, "volume", "-m", name, "-c", text)
            texts.append(f"volume {name} {text} {code}\n{out}")
            for curve, command in itertools.product(model.curves, ("restricted", "boundary")):
                code, out = run_cli(capsys, command, "-m", name, "-c", text,
                                    "--flag", curve.name)
                texts.append(f"{command} {name} {text} {curve.name} {code}\n{out}")
    joined = "".join(texts)
    assert len(texts) == 652 and '"error"' in joined and '"interval"' in joined
    digest = hashlib.sha256(joined.encode()).hexdigest()
    assert digest == "3bad00213da84fe1aa2d2cb5a7e764f344e8d542360c10be298899ce09c9b8e7"


def test_families_command(capsys):
    code, out = run_cli(capsys, "families", "-m", "blowup2")
    assert code == 0
    assert json.loads(out)["families"] == [[], ["E1"], ["E1", "E2"], ["E2"], ["L12"]]


def test_okounkov_svg_file(capsys, tmp_path):
    target = tmp_path / "poly.svg"
    code, out = run_cli(
        capsys, "okounkov", "-m", "blowup1", "-c", "2,0", "--flag", "H-E",
        "--svg", str(target),
    )
    assert code == 0
    assert target.read_text(encoding="utf-8").startswith("<svg ")
    # --format svg emits the same drawing on stdout
    code, out = run_cli(
        capsys, "okounkov", "-m", "blowup1", "-c", "2,0", "--flag", "H-E",
        "--format", "svg",
    )
    assert code == 0
    assert out == target.read_text(encoding="utf-8")


def test_okounkov_unwritable_svg_is_a_usage_error(capsys, tmp_path):
    # a directory, and a file in a directory that does not exist
    for target in (tmp_path, tmp_path / "missing" / "poly.svg"):
        code, out = run_cli(
            capsys, "okounkov", "-m", "blowup1", "-c", "2,0", "--flag", "H-E",
            "--svg", str(target),
        )
        assert code == 2
        payload = json.loads(out)  # one document: the error, no polygon
        assert payload["error"] == "UsageError"
        assert payload["detail"].startswith(f"cannot write SVG file {str(target)!r}: ")


def test_verify_jsonl(capsys):
    code, out = run_cli(capsys, "verify", "-m", "blowup1", "--grid-bound", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        assert json.loads(line)["agrees"] is True


def test_verify_negative_grid_bound_is_a_usage_error(capsys):
    code, out = run_cli(capsys, "verify", "-m", "p2", "--grid-bound", "-3")
    assert code == 2
    assert json.loads(out) == {
        "detail": "grid bound must be >= 0, got -3", "error": "UsageError"
    }
    code, out = run_cli(capsys, "verify", "-m", "p2", "--grid-bound", "0")
    assert code == 0
    assert "grid 0, 1 classes" in out


def test_verify_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("ZOK_MAX_SUBSET_CURVES", "2")
    code, out = run_cli(capsys, "verify", "-m", "blowup2", "--grid-bound", "1")
    assert code == 2  # three curves exceed the lowered cap


def test_invariant_breach_dumps_repro(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    import zok.oracle as oracle_mod

    monkeypatch.setattr(
        oracle_mod,
        "run_model_verification",
        lambda model, grid_bound, max_subset_curves: [
            OracleReport(subject="forced", agrees=False, witness="forced mismatch")
        ],
    )
    code = main(["verify", "-m", "blowup1"])
    out, err = capsys.readouterr()
    assert code == 3
    # stdout is the error document alone; the failing report went to stderr
    assert json.loads(out)["error"] == "InvariantError"
    assert json.loads(err) == {"agrees": False, "subject": "forced", "witness": "forced mismatch"}
    repro = json.loads((tmp_path / "zok-repro.json").read_text(encoding="utf-8"))
    assert repro["error"].startswith("InvariantError")
    assert repro["model"]["name"] == "blowup1"


# the module whose attribute main's handler reads: cli imports zariski when it
# loads, okounkov only inside the handlers that run it
_HOMES = {"zariski_decompose": "zok.cli", "okounkov_polygon": "zok.okounkov"}


@pytest.mark.parametrize(
    "target, argv, exc",
    [
        ("zariski_decompose", ["zariski", "-m", "blowup1", "-c", "1,1"],
         ValueError("internal value error")),
        ("okounkov_polygon", ["okounkov", "-m", "p2", "-c", "1", "--flag", "L"],
         RuntimeError("internal runtime error")),
    ],
)
def test_unexpected_exception_exits_3_with_repro(capsys, monkeypatch, tmp_path, target, argv, exc):
    """Only a UsageError exits 2; any other exception that is not a verdict
    is a bug: exit 3, the JSON error and zok-repro.json."""
    monkeypatch.chdir(tmp_path)

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(importlib.import_module(_HOMES[target]), target, broken)
    code, out = run_cli(capsys, *argv)
    assert code == 3
    name = type(exc).__name__
    assert json.loads(out) == {"error": name, "detail": str(exc), "repro": "zok-repro.json"}
    repro = json.loads((tmp_path / "zok-repro.json").read_text(encoding="utf-8"))
    assert repro["argv"] == argv
    assert repro["error"] == f"{name}: {exc}"
    assert repro["model"]["name"] == argv[2]
    # format_exception's last entry is the exception line, its last frame the one before
    assert repro["traceback"][-1] == f"{name}: {exc}\n"
    assert repro["traceback"][-2].splitlines()[0].endswith(", in broken")


def test_unwritable_repro_file_still_exits_3_with_one_document(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zok-repro.json").mkdir()
    import zok.cli as cli_mod

    def broken(*args, **kwargs):
        raise RuntimeError("internal runtime error")

    monkeypatch.setattr(cli_mod, "zariski_decompose", broken)
    code, out = run_cli(capsys, "zariski", "-m", "blowup1", "-c", "1,1")
    assert code == 3
    assert json.loads(out) == {
        "error": "RuntimeError", "detail": "internal runtime error", "repro": None,
    }


def _raise_runtime_error(*args, **kwargs):
    raise RuntimeError("internal runtime error")


@pytest.mark.parametrize(
    "spelling",
    [["-m", "p2"], ["--model", "p2"], ["--model=p2"], ["-mp2"], ["-m=p2"], ["--mod", "p2"]],
)
def test_repro_file_keeps_the_model_for_every_spelling_of_the_option(
        capsys, monkeypatch, tmp_path, spelling):
    """argparse reads each of these as the model option, and so does the
    repro file."""
    monkeypatch.chdir(tmp_path)
    import zok.cli as cli_mod

    monkeypatch.setattr(cli_mod, "zariski_decompose", _raise_runtime_error)
    code, out = run_cli(capsys, "zariski", *spelling, "-c", "1")
    assert code == 3 and json.loads(out)["repro"] == "zok-repro.json"
    repro = json.loads((tmp_path / "zok-repro.json").read_text(encoding="utf-8"))
    assert repro["argv"] == ["zariski", *spelling, "-c", "1"]
    with open(fixture_path("p2"), encoding="utf-8") as fh:
        assert repro["model"] == json.load(fh)


def test_repro_model_is_null_when_the_model_file_is_gone(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "gone.json"
    path.write_text(dumps_canonical(model_to_dict(load_fixture("p2"))), encoding="utf-8")
    import zok.cli as cli_mod

    def broken(*args, **kwargs):
        path.unlink()
        _raise_runtime_error()

    monkeypatch.setattr(cli_mod, "zariski_decompose", broken)
    code, out = run_cli(capsys, "zariski", "-m", str(path), "-c", "1")
    assert code == 3
    repro = json.loads((tmp_path / "zok-repro.json").read_text(encoding="utf-8"))
    assert repro["error"] == "RuntimeError: internal runtime error"
    assert "model" in repro and repro["model"] is None


_RANK2 = {"name": "m", "rank": 2, "gram": [[1, 0], [0, -1]], "kahler": [1, 0],
          "curves": [{"name": "E", "class": [0, 1]}]}


@pytest.mark.parametrize(
    "changes, problems",
    [
        ({"rank": 0}, ["rank must be >= 1, got 0"]),
        ({"rank": -3}, ["rank must be >= 1, got -3"]),
        ({"gram": [[1, 0], [0]]}, ["gram must be 2x2"]),
        ({"kahler": [1, 0, 0]}, ["kahler class must have length 2"]),
        ({"curves": [{"name": "E", "class": [0, 1, 0]}, {"name": "F", "class": [1]}]},
         ["curve 'E' class must have length 2", "curve 'F' class must have length 2"]),
        ({"gram": [[1, 2], [3, -1]], "kahler": [1]},
         ["gram not symmetric at entry (0,1)", "kahler class must have length 2"]),
    ],
)
def test_malformed_models_exit_2_with_every_problem_in_order(capsys, tmp_path, changes, problems):
    """validate lists the problems; any other subcommand refuses the model
    with the same list."""
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(dict(_RANK2, **changes)), encoding="utf-8")
    code, out = run_cli(capsys, "validate", "-m", str(path))
    assert (code, out) == (2, dumps_canonical({"problems": problems, "valid": False}))
    code, out = run_cli(capsys, "volume", "-m", str(path), "-c", "1,0")
    assert (code, out) == (2, dumps_canonical({
        "detail": "; ".join(problems), "error": "ModelValidationError", "problems": problems,
    }))


def test_verify_refuses_a_subset_cap_that_is_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("ZOK_MAX_SUBSET_CURVES", "abc")
    code, out = run_cli(capsys, "verify", "-m", "p2")
    assert code == 2
    assert out == dumps_canonical({
        "detail": "ZOK_MAX_SUBSET_CURVES must be an integer, got 'abc'", "error": "UsageError",
    })


def test_help_paths(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 2  # a command is required
    capsys.readouterr()
    assert main(["zariski", "-m", "blowup1"]) == 2  # missing -c
    capsys.readouterr()


def test_byte_identical_repeated_runs(capsys):
    commands = [
        ["zariski", "-m", "blowup1", "-c", "1,1"],
        ["okounkov", "-m", "blowup1", "-c", "2,0", "--flag", "H-E"],
        ["chambers", "-m", "hirzebruch2", "-c", "3,1", "--curve", "C0"],
        ["families", "-m", "blowup2"],
        ["verify", "-m", "p2"],
    ]
    for argv in commands:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


def test_chambers_walks_once(capsys, monkeypatch):
    import zok.okounkov as okounkov_module

    walks = []
    walk = okounkov_module.segment_chambers

    def counting(*args, **kwargs):
        walks.append(args[1])
        return walk(*args, **kwargs)

    monkeypatch.setattr(okounkov_module, "segment_chambers", counting)
    code, out = run_cli(
        capsys, "chambers", "-m", "blowup2", "-c", "3,-1,-1", "--curve", "L12"
    )
    assert code == 0
    assert len(walks) == 1
    assert len(json.loads(out)["chambers"]) == 2


_MODELS = {name: load_fixture(name) for name in FIXTURE_NAMES}
GENERATED_FILE = "generated-model.json"


@st.composite
def cli_argv(draw):
    """(argv, output format, generated model) for every subcommand, on a
    bundled model or on a random_model of rank 2-4 that the test writes to
    GENERATED_FILE: small rational classes of about the right length, curve
    names known and unknown, good and bad --mult values, and verify's grid
    bounds from -1 to 1."""
    generated = None
    name = draw(st.sampled_from(FIXTURE_NAMES + ("random",)))
    if name == "random":
        rank = draw(st.integers(2, 4))
        spec = ModelGenSpec(seed=draw(st.integers(0, 49)), rank=rank,
                            num_curves=rank + draw(st.integers(1, 3)))
        model = generated = random_model(spec)
        name = GENERATED_FILE
    else:
        model = _MODELS[name]
    # mostly well-formed: an unknown name or a bad length ends every run early
    curves = st.sampled_from([c.name for c in model.curves] * 4 + ["Q"])
    rat = st.fractions(min_value=-3, max_value=3, max_denominator=3).map(str)
    lengths = [model.rank] * 6 + [max(1, model.rank - 1), model.rank + 1]

    def cls():
        if draw(st.integers(0, 7)) == 0:
            return draw(curves)
        n = draw(st.sampled_from(lengths))
        return ",".join(draw(st.lists(rat, min_size=n, max_size=n)))

    value = st.sampled_from(["0", "1", "1/2", "0", "1", "1/2", "-1", "5", "x"])
    mult = st.one_of(st.builds("{}={}".format, curves, value), curves)
    command = draw(st.sampled_from([
        "validate", "zariski", "classify", "volume", "derivative", "morse",
        "okounkov", "restricted", "boundary", "chambers", "families", "verify",
    ]))
    argv = [command, "-m", name]
    fmt = "json"
    if command == "verify":
        argv += ["--grid-bound", str(draw(st.integers(-1, 1)))]
        fmt = "lines"
    elif command not in ("validate", "families"):
        argv += ["-c", cls()]
    if command == "derivative":
        argv += ["-d", cls()]
    elif command == "morse":
        argv += ["-b", cls()]
    elif command in ("okounkov", "restricted", "boundary"):
        argv += ["--flag", draw(curves)]
        for item in draw(st.lists(mult, max_size=1)):
            argv += ["--mult", item]
    elif command == "chambers":
        argv += ["--curve", draw(curves)]
    if command in ("okounkov", "chambers", "families"):
        fmt = draw(st.sampled_from(["json", "svg" if command == "okounkov" else "csv"]))
        argv += ["--format", fmt]
    return argv, fmt, generated


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cli_argv())
def test_every_run_exits_0_to_3_with_one_document(monkeypatch, tmp_path, case):
    """The exit contract: any argv ends in exit 0-3, never a traceback; a
    JSON-format command, and any run that fails, prints exactly one JSON
    document; a verify run that passes prints one JSON document a line."""
    monkeypatch.chdir(tmp_path)
    argv, fmt, generated = case
    if generated is not None:
        (tmp_path / GENERATED_FILE).write_text(
            dumps_canonical(model_to_dict(generated)), encoding="utf-8"
        )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if fmt == "lines" and code == 0:
        lines = out.getvalue().splitlines()
        assert lines and all(json.loads(line)["agrees"] for line in lines)
    elif fmt == "json" or code:
        json.loads(out.getvalue())
