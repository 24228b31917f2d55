"""The import contract: a CLI subcommand loads only the modules it runs, and
the package's lazy export table keeps ``from zok import ...`` working.

Each check runs in a fresh interpreter, so the modules this test process has
already imported cannot mask a stray import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import zok

SRC = os.path.dirname(os.path.dirname(os.path.abspath(zok.__file__)))

# the names the package exported when its __init__ imported every submodule
EXPORTS = [
    "BoundaryBody", "Classification", "CurveRecord", "EpsilonTooLarge",
    "ExtRat", "FlagInNonKahlerLocus", "FlagSpec", "HypothesisViolated",
    "InvariantError", "Kind", "MathVerdictError", "ModelGenSpec",
    "ModelValidationError", "MorseCertificate", "MultipleCandidates",
    "NotBig", "NotNef", "NotOnBoundary", "NotPseudoEffective",
    "OkounkovPolygon", "OracleReport", "PiecewiseLinear", "QuadExt", "Rat",
    "SegmentChamber", "SurfaceModel", "UnknownCurve", "UnsupportedDirection",
    "UsageError", "ZariskiDecomp", "ZokError", "area_by_integration",
    "boundary_body", "brute_force_zariski", "classify",
    "derivative_by_chambers", "derivative_vol",
    "enumerate_exceptional_families", "envelopes", "intersect",
    "is_nef_in_model", "is_negative_definite", "make_model", "minkowski_sum",
    "morse_gap", "non_kahler_curves", "null_curves", "okounkov_polygon",
    "orthogonal_nef_lift", "perturbed_decomposition", "polygon_contains",
    "random_model", "restricted_body", "run_model_verification",
    "segment_chambers", "shoelace_area", "signature", "slopes",
    "solve_linear", "sqrt_rat", "validate_model", "volume",
    "zariski_decompose",
]
SUBMODULES = ["errors", "exact", "lattice", "okounkov", "oracle", "polygon", "zariski"]

# Runs one CLI argv in process and prints the exit code and the decimal and
# zok modules left loaded.  fractions imports decimal itself on some Python
# versions; dropping it from sys.modules first makes any later import of
# decimal load it again, and so show.
_RUN_MAIN = """
import contextlib, io, json, sys
import fractions
sys.modules.pop("decimal", None)
from zok.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m == "decimal" or m.startswith("zok"))
print(json.dumps({"code": code, "loaded": loaded}))
"""


def _python(code: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout


def _run_main(*argv: str) -> tuple[int, set]:
    result = json.loads(_python(_RUN_MAIN, *argv))
    return result["code"], set(result["loaded"])


def test_volume_loads_no_polygon_oracle_or_decimal():
    code, loaded = _run_main("volume", "-m", "p2", "-c", "2")
    assert code == 0
    assert not loaded & {"zok.okounkov", "zok.oracle", "zok.polygon", "decimal"}


def test_okounkov_loads_no_oracle():
    code, loaded = _run_main("okounkov", "-m", "blowup1", "-c", "2,0", "--flag", "H-E")
    assert code == 0
    assert "zok.okounkov" in loaded
    assert "zok.oracle" not in loaded


# Resolves each name of argv in a fresh interpreter, through ``from zok
# import`` first or through getattr first, and prints the names whose two
# lookups disagree, with dir(zok).
_RESOLVE = """
import json, sys
import zok
getattr_first = sys.argv[1] == "getattr"
bad = []
for name in sys.argv[2:]:
    namespace = {}
    if getattr_first:
        value = getattr(zok, name)
    exec(f"from zok import {name}", namespace)
    if not getattr_first:
        value = getattr(zok, name)
    if value is not namespace[name] or value is None:
        bad.append(name)
print(json.dumps({"bad": bad, "dir": dir(zok)}))
"""


def test_every_export_resolves():
    for order in ("from", "getattr"):
        result = json.loads(_python(_RESOLVE, order, *EXPORTS, *SUBMODULES))
        assert result["bad"] == []
        assert set(EXPORTS + SUBMODULES) <= set(result["dir"])


def test_bare_import_loads_no_submodule():
    out = _python(
        "import json, sys, zok\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('zok'))))\n"
    )
    assert json.loads(out) == ["zok"]
