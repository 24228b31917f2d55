from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from zok.errors import ModelValidationError, UsageError
from zok.exact import QuadExt
from zok.io import (
    decomposition_to_dict,
    dumps_canonical,
    ext_from_json,
    ext_to_decimal_str,
    ext_to_json,
    load_model,
    model_from_dict,
    model_to_dict,
    polygon_to_dict,
    polygon_to_svg,
)
from zok.okounkov import FlagSpec, okounkov_polygon
from zok.zariski import zariski_decompose

from conftest import F


def test_ext_json_roundtrip():
    values = [Fraction(3), Fraction(-7, 2), QuadExt.new(Fraction(1, 2), 1, 5)]
    for v in values:
        assert ext_from_json(json.loads(json.dumps(ext_to_json(v)))) == v
    assert ext_to_json(Fraction(4, 2)) == 2
    assert ext_to_json(Fraction(1, 3)) == "1/3"
    assert ext_to_json(QuadExt.new(0, 1, 2)) == {"p": 0, "q": 1, "d": 2}


@pytest.mark.parametrize("d", [2.7, 2.0, True, "2", None])
def test_ext_from_json_refuses_a_radicand_that_is_not_an_int(d):
    """A float radicand is not truncated (2.7 is not sqrt(2)), nor a bool
    read as 1, nor a string parsed: each raises ValueError."""
    with pytest.raises(ValueError) as err:
        ext_from_json({"p": 0, "q": 1, "d": d})
    assert str(err.value) == f"not an integer radicand: {d!r}"


def test_model_roundtrip(blowup1):
    assert model_from_dict(model_to_dict(blowup1)) == blowup1


def test_model_from_dict_rejects_invalid():
    data = {
        "name": "bad",
        "rank": 2,
        "gram": [[1, 0], [0, 1]],
        "kahler": [1, 1],
        "curves": [{"name": "D", "class": [1, 0]}],
    }
    with pytest.raises(ModelValidationError) as err:
        model_from_dict(data)
    assert any("signature" in p for p in err.value.problems)


def test_model_from_dict_rejects_malformed():
    with pytest.raises(UsageError):
        model_from_dict({"rank": 2})
    with pytest.raises(UsageError):
        model_from_dict(
            {"name": "x", "rank": 2, "gram": [[1, 0], [0, -1]],
             "kahler": [1, 0], "curves": [{"name": "E", "class": [0, 0.5]}]}
        )


def test_model_from_dict_rejects_strings_and_fractional_rank():
    """A string where an array belongs would iterate as its characters ("01"
    loading as (0, 1)), and int() would truncate a rank of 2.9 to 2."""
    good = {
        "name": "x", "rank": 2, "gram": [[1, 0], [0, -1]], "kahler": [2, -1],
        "curves": [{"name": "E", "class": [0, 1]}],
    }
    assert model_from_dict(good).rank == 2
    bad_values = [
        ("rank", 2.9), ("rank", 2.0), ("rank", True), ("rank", "2"),
        ("gram", "10"), ("gram", [[1, 0], "01"]), ("kahler", "10"),
        ("curves", [{"name": "E", "class": "01"}]),
    ]
    for key, value in bad_values:
        with pytest.raises(UsageError, match="^malformed model data: ") as err:
            model_from_dict(dict(good, **{key: value}))
        assert not isinstance(err.value, ModelValidationError)


def test_load_model_missing_file(tmp_path):
    with pytest.raises(UsageError):
        load_model(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(UsageError):
        load_model(str(bad))


def test_decomposition_dict(blowup1):
    dec = zariski_decompose(blowup1, F(2, 1))
    payload = decomposition_to_dict(blowup1, dec)
    assert payload == {
        "class": [2, 1],
        "Z": [2, 0],
        "N": [{"curve": "E", "coeff": 1}],
        "volume": 4,
        "numdim": 2,
    }


def test_polygon_dict_keys_and_exactness(golden_model):
    poly = okounkov_polygon(golden_model, F(1, 0), FlagSpec.make(1))
    payload = polygon_to_dict(poly)
    assert sorted(payload) == ["a", "area", "f", "g", "s", "vertices"]
    assert payload["area"] == 1
    assert payload["s"] == {"p": "-1/2", "q": "1/2", "d": 5}
    assert ext_from_json(payload["s"]) == poly.s


def test_dumps_canonical_is_stable():
    a = dumps_canonical({"b": 1, "a": [2, {"z": 0, "y": 1}]})
    b = dumps_canonical({"a": [2, {"y": 1, "z": 0}], "b": 1})
    assert a == b
    assert a.endswith("\n")


def test_decimal_rendering():
    assert ext_to_decimal_str(Fraction(1, 2)) == "0.5"
    assert ext_to_decimal_str(Fraction(-3)) == "-3"
    third = ext_to_decimal_str(Fraction(1, 3))
    assert third.startswith("0.33333333333") and len(third) <= 14
    root2 = ext_to_decimal_str(QuadExt.new(0, 1, 2))
    assert root2.startswith("1.4142135623")


def test_svg_deterministic_and_well_formed(blowup1):
    poly = okounkov_polygon(blowup1, F(2, 0), FlagSpec.make(1))
    svg1 = polygon_to_svg(poly)
    svg2 = polygon_to_svg(okounkov_polygon(blowup1, F(2, 0), FlagSpec.make(1)))
    assert svg1 == svg2
    assert svg1.startswith("<svg ") and svg1.rstrip().endswith("</svg>")
    assert "viewBox" in svg1 and "path d=" in svg1
    assert "timestamp" not in svg1


def test_svg_handles_irrational_endpoint(golden_model):
    poly = okounkov_polygon(golden_model, F(1, 0), FlagSpec.make(1))
    svg = polygon_to_svg(poly)
    assert "61.80339887" in svg  # s*100 rendered at 12 significant digits


def test_svg_of_huge_irrational_polygon(golden_model):
    # s = 10**22 * (sqrt(5) - 1) / 2; its floor from an integer square root
    scale = 10**22
    poly = okounkov_polygon(golden_model, F(scale, 0), FlagSpec.make(1))
    assert poly.s == QuadExt.new(-scale / Fraction(2), scale / Fraction(2), 5)
    floor_s = (math.isqrt(5 * scale * scale) - scale) // 2
    svg = polygon_to_svg(poly)
    assert f'viewBox="-50 -50 {(floor_s + 1) * 100 + 100} ' in svg
