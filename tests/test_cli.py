from __future__ import annotations

import json

from zok.cli import main
from zok.fixtures import fixture_path
from zok.oracle import OracleReport


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
    code, out = run_cli(capsys, "volume", "-m", str(tmp_path / "missing.json"), "-c", "1")
    assert code == 2
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


def test_verify_jsonl(capsys):
    code, out = run_cli(capsys, "verify", "-m", "blowup1", "--grid-bound", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        assert json.loads(line)["agrees"] is True


def test_verify_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("ZOK_MAX_SUBSET_CURVES", "2")
    code, out = run_cli(capsys, "verify", "-m", "blowup2", "--grid-bound", "1")
    assert code == 2  # three curves exceed the lowered cap


def test_invariant_breach_dumps_repro(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    import zok.cli as cli_mod

    monkeypatch.setattr(
        cli_mod,
        "run_model_verification",
        lambda model, grid_bound, max_subset_curves: [
            OracleReport(subject="forced", agrees=False, witness="forced mismatch")
        ],
    )
    code, out = run_cli(capsys, "verify", "-m", "blowup1")
    assert code == 3
    repro = json.loads((tmp_path / "zok-repro.json").read_text(encoding="utf-8"))
    assert repro["error"].startswith("InvariantError")
    assert repro["model"]["name"] == "blowup1"


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
    import zok.cli as cli_module
    import zok.okounkov as okounkov_module

    walks = []
    walk = okounkov_module.segment_chambers

    def counting(*args, **kwargs):
        walks.append(args[1])
        return walk(*args, **kwargs)

    monkeypatch.setattr(okounkov_module, "segment_chambers", counting)
    monkeypatch.setattr(cli_module, "segment_chambers", counting)
    code, out = run_cli(
        capsys, "chambers", "-m", "blowup2", "-c", "3,-1,-1", "--curve", "L12"
    )
    assert code == 0
    assert len(walks) == 1
    assert len(json.loads(out)["chambers"]) == 2
