from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zok.exact import (
    EpsPoly,
    QuadExt,
    format_rat,
    parse_rat,
    smallest_quadratic_root_above,
    sqrt_rat,
    squarefree_split,
)

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
    [(1, (1, 1)), (4, (2, 1)), (12, (2, 3)), (45, (3, 5)), (49, (7, 1)), (50, (5, 2))],
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


@given(rationals, st.fractions(min_value=Fraction(1, 50), max_value=100, max_denominator=50))
def test_quadext_sign_agrees_with_float(p, q):
    for qq in (q, -q):
        x = QuadExt.new(p, qq, 5)
        if isinstance(x, QuadExt):
            approx = float(x)
            if abs(approx) > 1e-9:
                assert x.sign() == (1 if approx > 0 else -1)


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


# -- formal infinitesimals ------------------------------------------------------


def test_epspoly_order_is_by_first_nonzero_coefficient():
    eps = EpsPoly.new((0, 1))
    assert 0 < eps < Fraction(1, 10**30)
    assert -eps < 0
    assert 1 - eps < 1 < 1 + eps
    assert eps * eps < eps  # eps**2 is infinitesimal relative to eps
    assert EpsPoly.new((0, 0, -1)) < 0 < EpsPoly.new((0, 0, 1))
    assert EpsPoly.new((2, -5)) > EpsPoly.new((2, -6))
    assert EpsPoly.new((1, 1)) >= 1 and not EpsPoly.new((1, 1)) <= 1
    assert sorted([1 + eps, Fraction(1), 1 - eps]) == [1 - eps, Fraction(1), 1 + eps]
    # reflected comparisons from Fraction and int
    assert Fraction(1) < 1 + eps and 1 > 1 - eps


def test_epspoly_demotes_to_fraction():
    eps = EpsPoly.new((0, 1))
    assert EpsPoly.new((3,)) == 3 and isinstance(EpsPoly.new((3, 0, 0)), Fraction)
    assert isinstance(EpsPoly.new((Fraction(1, 2), 0)), Fraction)
    for value in (eps - eps, (1 + eps) - eps, eps * 0, (2 + eps) + (-eps)):
        assert isinstance(value, Fraction)
    assert (1 + eps) - eps == 1
    assert EpsPoly.new((1, 2, 0)) == EpsPoly.new((1, 2))
    assert hash(EpsPoly.new((1, 2, 0))) == hash(EpsPoly.new((1, 2)))
    assert 1 + eps != 1 and eps != 0


def test_epspoly_mixed_arithmetic():
    eps = EpsPoly.new((0, 1))
    t = EpsPoly.new((Fraction(1, 3), 1))  # 1/3 + eps
    assert t + Fraction(2, 3) == 1 + eps == Fraction(2, 3) + t
    assert t - 1 == EpsPoly.new((Fraction(-2, 3), 1))
    assert 1 - t == EpsPoly.new((Fraction(2, 3), -1))
    assert 3 * t == 1 + 3 * eps == t * 3
    assert Fraction(3, 2) * t == EpsPoly.new((Fraction(1, 2), Fraction(3, 2)))
    assert t / 2 == EpsPoly.new((Fraction(1, 6), Fraction(1, 2)))
    assert t * t == EpsPoly.new((Fraction(1, 9), Fraction(2, 3), 1))
    assert (t + eps) * (t - eps) == t * t - eps * eps
    assert all(isinstance(c, Fraction) for c in (t * 3 + 1).coeffs)
    with pytest.raises(TypeError):
        _ = 1 / t
    with pytest.raises(TypeError):
        _ = t + QuadExt.new(0, 1, 2)


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
