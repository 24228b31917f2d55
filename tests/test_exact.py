from __future__ import annotations

import decimal
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zok.exact import (
    QuadExt,
    format_rat,
    parse_rat,
    quad_sign,
    sqrt_rat,
    squarefree_split,
)

from reference import smallest_quadratic_root_above

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def test_parse_rat_accepts_ints_strings_fractions():
    assert parse_rat(3) == 3
    assert parse_rat("-7/2") == Fraction(-7, 2)
    assert parse_rat(Fraction(1, 3)) == Fraction(1, 3)
    assert parse_rat(" 5/3 ") == Fraction(5, 3)


@pytest.mark.parametrize("bad", ["", "x", "1/0", 1.5, None, True])
def test_parse_rat_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rat(bad)


def test_format_rat_roundtrip():
    assert format_rat(Fraction(4, 2)) == 2
    assert format_rat(Fraction(-3, 4)) == "-3/4"
    assert parse_rat(format_rat(Fraction(22, 7))) == Fraction(22, 7)


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, (1, 1)), (4, (2, 1)), (12, (2, 3)), (45, (3, 5)), (49, (7, 1)), (50, (5, 2)),
        # a square factor above the trial bound next to a small prime
        (2 * 100003**2, (100003, 2)), (12 * 100003**2, (200006, 3)),
    ],
)
def test_squarefree_split(n, expected):
    assert squarefree_split(n) == expected


def test_sqrt_rat_exact_cases():
    assert sqrt_rat(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_rat(Fraction(0)) == 0
    r = sqrt_rat(Fraction(2))
    assert isinstance(r, QuadExt) and r.d == 2 and r.q == 1 and r.p == 0
    assert r * r == 2
    r = sqrt_rat(Fraction(8))  # 2*sqrt(2)
    assert r == QuadExt.new(0, 2, 2)
    # a square factor above the trial bound: the same radicand as QuadExt.new's
    assert sqrt_rat(Fraction(2 * 100003**2)) - QuadExt.new(0, 100003, 2) == 0
    with pytest.raises(ValueError):
        sqrt_rat(Fraction(-1))


def test_quadext_demotes_to_fraction():
    assert QuadExt.new(1, 0, 5) == Fraction(1)
    assert QuadExt.new(Fraction(1, 2), Fraction(3), 9) == Fraction(1, 2) + 9
    assert isinstance(QuadExt.new(0, 1, 18), QuadExt)
    assert QuadExt.new(0, 1, 18) == QuadExt.new(0, 3, 2)


def test_quadext_field_identities():
    phi = QuadExt.new(Fraction(1, 2), Fraction(1, 2), 5)  # golden ratio
    assert phi * phi == phi + 1
    inv = 1 / phi
    assert inv == phi - 1
    assert phi * inv == 1
    assert (phi - phi) == 0
    assert phi / phi == 1


def test_quadext_mixed_radicands_refuse():
    a = QuadExt.new(0, 1, 2)
    b = QuadExt.new(0, 1, 3)
    with pytest.raises(ValueError):
        _ = a + b


def test_quadext_exact_ordering():
    s2 = sqrt_rat(Fraction(2))
    assert Fraction(7, 5) < s2 < Fraction(3, 2)
    assert s2 > 1 and not s2 < 1
    assert -s2 < Fraction(-7, 5)
    # 3 - 2*sqrt(2) is positive but tiny
    x = QuadExt.new(3, -2, 2)
    assert x > 0 and x < Fraction(1, 5)
    assert sorted([s2, Fraction(1), x]) == [x, Fraction(1), s2]


@given(rationals, rationals, rationals, rationals)
def test_quadext_arithmetic_matches_field_axioms(p1, q1, p2, q2):
    d = 7
    a = QuadExt.new(p1, q1, d)
    b = QuadExt.new(p2, q2, d)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * (a - b) == a * a - b * b
    if not (p2 == 0 and q2 == 0):
        assert (a / b) * b == a


def _parts(x):
    """(type, p, q, types of p and q) of an ExtRat, q = 0 for a rational."""
    if isinstance(x, QuadExt):
        return QuadExt, x.p, x.q, type(x.p), type(x.q)
    return type(x), x, 0, None, None


@given(rationals, st.fractions(min_value=-100, max_value=100, max_denominator=50).filter(bool),
       st.one_of(rationals, st.integers(-100, 100), st.booleans()))
def test_quadext_rational_operand_matches_the_general_formulas(p, q, r):
    """+, - and * with an int or Fraction (a bool among the ints) give the
    value and the part types of the general formulas over (Fraction(r), 0)."""
    x = QuadExt.new(p, q, 7)
    o, z = Fraction(r), Fraction(0)
    general = {
        "add": QuadExt._of(x.p + o, x.q + z, 7),
        "sub": QuadExt._of(x.p - o, x.q - z, 7),
        "rsub": QuadExt._of(o - x.p, z - x.q, 7),
        "mul": QuadExt._of(x.p * o + x.q * z * 7, x.p * z + x.q * o, 7),
    }
    fast = {"add": (x + r, r + x), "sub": (x - r,), "rsub": (r - x,), "mul": (x * r, r * x)}
    for name, results in fast.items():
        for result in results:
            assert _parts(result) == _parts(general[name])
    if r == 0:
        assert type(x * r) is Fraction and x * r == 0


@given(rationals, st.fractions(min_value=Fraction(1, 50), max_value=100, max_denominator=50))
def test_quadext_sign_agrees_with_float(p, q):
    for qq in (q, -q):
        x = QuadExt.new(p, qq, 5)
        if isinstance(x, QuadExt):
            approx = float(x)
            if abs(approx) > 1e-9:
                assert x.sign() == (1 if approx > 0 else -1)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.sampled_from((2, 3, 5, 7, 10, 30)),
       rationals, rationals)
def test_quad_sign_matches_the_fraction_sign(a, b, d, p, q):
    """quad_sign on integers, and QuadExt.sign through it, give the sign
    QuadExt.sign took over Fractions, near the cancellation a**2 = b**2*d
    too (a = isqrt(b**2*d) + 1 and the neighbours of the root)."""
    from math import isqrt

    from reference import reference_sign

    root = isqrt(b * b * d)
    for x in (a, root, root + 1, -root, -root - 1):
        assert quad_sign(x, b, d) == reference_sign(Fraction(x), Fraction(b), d)
    x = QuadExt.new(p, q, d)
    if isinstance(x, QuadExt):
        assert x.sign() == reference_sign(x.p, x.q, x.d)


def test_smallest_quadratic_root_above_affine_and_quadratic():
    # affine: 2 - t
    assert smallest_quadratic_root_above(Fraction(2), Fraction(-1), Fraction(0), Fraction(0)) == 2
    # no root ahead
    assert smallest_quadratic_root_above(Fraction(2), Fraction(1), Fraction(0), Fraction(0)) is None
    # constant
    assert smallest_quadratic_root_above(Fraction(3), Fraction(0), Fraction(0), Fraction(0)) is None
    # (t-1)(t-3) = t^2 -4t +3, from t0=2 the next root is 3
    assert smallest_quadratic_root_above(Fraction(3), Fraction(-4), Fraction(1), Fraction(2)) == 3
    # 2 - 2t - 2t^2 at t0=0: golden-ratio conjugate root
    root = smallest_quadratic_root_above(Fraction(2), Fraction(-2), Fraction(-2), Fraction(0))
    assert root == QuadExt.new(Fraction(-1, 2), Fraction(1, 2), 5)
    # negative discriminant
    assert smallest_quadratic_root_above(Fraction(1), Fraction(0), Fraction(1), Fraction(0)) is None


def test_quadratic_root_double_root():
    # (t-2)^2: double root at 2
    assert smallest_quadratic_root_above(Fraction(4), Fraction(-4), Fraction(1), Fraction(0)) == 2
    # from beyond the root: nothing ahead
    assert smallest_quadratic_root_above(Fraction(4), Fraction(-4), Fraction(1), Fraction(2)) is None


def test_quadext_arithmetic_keeps_its_canonical_radicand(monkeypatch):
    import zok.exact as exact_module

    root5 = sqrt_rat(Fraction(5))
    calls = []
    split = exact_module.squarefree_split
    monkeypatch.setattr(exact_module, "squarefree_split", lambda n: calls.append(n) or split(n))
    total = root5 + 1
    product = root5 * root5
    assert total == QuadExt(Fraction(1), Fraction(1), 5)
    assert product == 5
    assert root5 < 3
    assert calls == []
    # a radicand from outside is still made canonical
    assert QuadExt.new(0, 1, 20) == QuadExt(Fraction(0), Fraction(2), 5)
    assert calls == [20]


def test_floor_and_ceil_are_exact():
    ctx = decimal.Context(prec=80)
    for d in (2, 3, 5, 7, 10**6 + 3):
        for p in (Fraction(0), Fraction(7, 3), Fraction(-10**20, 7)):
            for q in (Fraction(1), Fraction(-1), Fraction(10**22, 3), Fraction(-1, 10**9)):
                x = QuadExt.new(p, q, d)
                value = ctx.add(
                    ctx.divide(p.numerator, p.denominator),
                    ctx.multiply(ctx.divide(q.numerator, q.denominator), ctx.sqrt(d)),
                )
                assert math.floor(x) == math.floor(value)
                assert math.floor(-x) == math.floor(-value)
                assert math.ceil(x) == math.ceil(value)
