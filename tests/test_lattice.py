from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zok.lattice import (
    intersect,
    is_negative_definite,
    make_model,
    mat,
    signature,
    solve_linear,
    validate_model,
    vec,
)

from conftest import F

rat = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def test_intersect_examples(blowup1, hirzebruch2):
    g = mat([[1, 0], [0, -1]])
    m = make_model("t", 2, g, [("E", [0, 1])], [2, -1])
    assert intersect(m, F(1, 0), F(0, 1)) == 0
    assert intersect(m, F(2, 1), F(2, 1)) == 3
    assert intersect(hirzebruch2, F(1, 1), F(1, 1)) == 0


def test_intersect_dimension_mismatch(blowup1):
    with pytest.raises(ValueError):
        intersect(blowup1, F(1), F(1, 0))


@given(st.lists(rat, min_size=2, max_size=2), st.lists(rat, min_size=2, max_size=2),
       st.lists(rat, min_size=2, max_size=2))
def test_intersect_bilinear_symmetric(u, v, w):
    m = make_model("t", 2, [[1, 3], [3, -1]], [("D", [1, 0])], [1, 0])
    u, v, w = vec(u), vec(v), vec(w)
    uv = intersect(m, u, v)
    assert uv == intersect(m, v, u)
    upw = tuple(a + b for a, b in zip(u, w))
    assert intersect(m, upw, v) == uv + intersect(m, w, v)


@pytest.mark.parametrize(
    "gram,expected",
    [
        ([[1, 0], [0, -1]], (1, 1, 0)),
        ([[0, 1], [1, -2]], (1, 1, 0)),
        ([[-2, 1], [1, -2]], (0, 2, 0)),
        ([[0, 0], [0, 0]], (0, 0, 2)),
        ([[0, 1], [1, 0]], (1, 1, 0)),
        ([[1]], (1, 0, 0)),
        ([], (0, 0, 0)),
    ],
)
def test_signature_examples(gram, expected):
    assert signature(mat(gram)) == expected


def test_signature_rejects_asymmetric():
    with pytest.raises(ValueError):
        signature(mat([[1, 2], [3, 4]]))


def _random_symmetric(rng, n, bound=4):
    entries = [[Fraction(rng.randint(-bound, bound)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            entries[i][j] = entries[j][i]
    return mat(entries)


def _random_unimodular(rng, n):
    m = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return mat(m)


def test_signature_congruence_invariant():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(25):
            q = _random_symmetric(rng, n)
            p = _random_unimodular(rng, n)
            # P^T Q P entry-by-entry
            pq = [[sum(p[k][i] * q[k][l] for k in range(n)) for l in range(n)] for i in range(n)]
            ptqp = mat(
                [[sum(pq[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            )
            assert signature(ptqp) == signature(q)


def _leading_minor_criterion(gram) -> bool:
    """Negative definite iff leading principal minors alternate, starting negative."""
    n = len(gram)
    sign = -1
    for k in range(1, n + 1):
        det = _det([row[:k] for row in gram[:k]])
        if sign * det <= 0:
            return False
        sign = -sign
    return True


def _det(m):
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


@pytest.mark.parametrize(
    "gram,expected",
    [([[-1]], True), ([[-2, 1], [1, -2]], True), ([[0]], False), ([], True)],
)
def test_negative_definite_examples(gram, expected):
    assert is_negative_definite(mat(gram)) is expected


def test_negative_definite_matches_minor_criterion():
    rng = random.Random(11)
    for n in range(1, 6):
        for _ in range(60):
            g = _random_symmetric(rng, n, bound=3)
            assert is_negative_definite(g) == _leading_minor_criterion(g)


def test_solve_linear_examples():
    assert solve_linear(mat([[-1]]), vec([1])) == F(-1)
    assert solve_linear(mat([[-2, 1], [1, -2]]), vec([-1, -1])) == F(1, 1)
    a, b = Fraction(5, 3), Fraction(-2, 7)
    assert solve_linear(mat([[1, 0], [0, 1]]), (a, b)) == (a, b)


def test_solve_linear_roundtrip_and_singular():
    rng = random.Random(3)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            m = _random_symmetric(rng, n)
            b = vec([rng.randint(-5, 5) for _ in range(n)])
            if _det(m) == 0:
                with pytest.raises(ValueError):
                    solve_linear(m, b)
                continue
            x = solve_linear(m, b)
            recon = tuple(sum(m[i][j] * x[j] for j in range(n)) for i in range(n))
            assert recon == b


def test_integer_input_gives_exact_answers():
    # plain Python ints, whose true quotients are floats: every division
    # must be a Fraction for the answers to stay exact
    x = solve_linear(((-2, 1), (1, -2)), (1, 1))
    assert x == (-1, -1) and all(type(v) is Fraction for v in x)
    big = 10**17
    assert signature(((-big, big), (big, -big + 1))) == (1, 1, 0)
    assert is_negative_definite(((-big, big - 1), (big - 1, -big + 1))) is True


def test_validate_model_accepts_fixtures(all_fixture_models):
    for model in all_fixture_models:
        assert validate_model(model) == []


def test_validate_model_p2_valid():
    m = make_model("p2", 1, [[1]], [("L", [1])], [1])
    assert validate_model(m) == []


def test_validate_model_hodge_violation():
    m = make_model("bad", 2, [[1, 0], [0, 1]], [("D", [1, 0])], [1, 1])
    problems = validate_model(m)
    assert any("signature" in p and "(2, 0, 0)" in p for p in problems)


def test_validate_model_kahler_not_positive_on_curve():
    m = make_model(
        "bad-omega", 2, [[1, 0], [0, -1]],
        [("E", [0, 1]), ("H-E", [1, -1]), ("H", [1, 0])], [1, 0],
    )
    problems = validate_model(m)
    assert any("omega.E" in p for p in problems)


def test_validate_model_other_violations():
    m = make_model(
        "bad", 2, [[1, 0], [0, -1]],
        [("E", [0, 1]), ("E", [0, 1]), ("Z", [0, 0])], [2, -1],
    )
    problems = validate_model(m)
    assert any("duplicate curve name" in p for p in problems)
    assert any("zero class" in p for p in problems)


def test_validate_model_negative_pairwise_meeting():
    m = make_model(
        "bad-pair", 2, [[1, 0], [0, -1]], [("E", [0, 1]), ("E2", [0, 2])], [3, -1]
    )
    problems = validate_model(m)
    assert any("meet negatively" in p for p in problems)


def test_validate_model_asymmetric_names_entry():
    m = make_model("asym", 2, [[1, 2], [3, -1]], [("D", [1, 0])], [1, 0])
    problems = validate_model(m)
    assert any("(0,1)" in p for p in problems)


def test_validate_model_builds_no_fraction_on_a_valid_model():
    """validate_model reads integer signs only, the signature test
    included: on a freshly built rank-10 model, whose integer tables are not
    built yet, it constructs no Fraction."""
    from zok.oracle import ModelGenSpec, random_model

    m = random_model(ModelGenSpec(seed=1, rank=10, num_curves=16))
    fresh = make_model(m.name, m.rank, m.gram, [(c.name, c.cls) for c in m.curves], m.kahler)
    original = vars(Fraction)["__new__"]
    built = []

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        problems = validate_model(fresh)
    finally:
        Fraction.__new__ = original
    assert problems == [] and "_gram_ints" in vars(fresh)
    assert built == []
