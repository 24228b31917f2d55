"""The exact elimination kernel: the curve table, the in-order negative-definite
factorization and the hereditary search over negative-definite curve sets."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zok.lattice import gram_product, make_model, negative_ldl, signature
from zok.oracle import ModelGenSpec, random_model
from zok.zariski import enumerate_exceptional_families

from conftest import F

small = st.sampled_from([Fraction(0)] * 4 + [Fraction(k) for k in (-3, -2, -1, 1, 2)]
                        + [Fraction(-1, 2), Fraction(1, 3), Fraction(-5, 3)])


def _symmetric(n: int, entries: list) -> tuple:
    m = [[Fraction(0)] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = next(it)
    return tuple(tuple(row) for row in m)


@st.composite
def symmetric_matrices(draw):
    """Symmetric rationals of size 0-6: free entries (indefinite, singular,
    zero-diagonal), or -B^T B (semidefinite when B has fewer rows than
    columns, definite otherwise), or either with one diagonal entry zeroed."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["free", "gram", "gram-zeroed"]))
    if kind == "free":
        return _symmetric(n, draw(st.lists(small, min_size=n * (n + 1) // 2,
                                           max_size=n * (n + 1) // 2)))
    rows = draw(st.integers(0, n + 1))
    b = [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(rows)]
    m = [[-sum((b[k][i] * b[k][j] for k in range(rows)), Fraction(0)) for j in range(n)]
         for i in range(n)]
    if kind == "gram-zeroed" and n:
        m[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = Fraction(0)
        m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return tuple(tuple(row) for row in m)


@settings(max_examples=400, deadline=None)
@given(symmetric_matrices())
def test_negative_ldl_decides_like_signature(g):
    n = len(g)
    factor = negative_ldl(g)
    assert (factor is not None) == (signature(g) == (0, n, 0))
    if factor is not None:
        rhs = tuple(Fraction(k - 2, k + 1) for k in range(n))
        x = factor.solve(rhs)
        assert tuple(sum((g[i][j] * x[j] for j in range(n)), Fraction(0))
                     for i in range(n)) == rhs


def test_negative_ldl_examples():
    assert negative_ldl(()) is not None
    assert negative_ldl(((Fraction(0),),)) is None
    # a zero leading pivot ends the elimination even where a pivot search
    # would continue: [[0, 1], [1, 0]] is indefinite
    assert negative_ldl(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))) is None
    f = negative_ldl(((Fraction(-2), Fraction(1)), (Fraction(1), Fraction(-2))))
    assert f.pivots == (Fraction(-2), Fraction(-3, 2))
    assert f.solve((Fraction(-1), Fraction(-1))) == (Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        f.solve((Fraction(1),))


def test_curve_table_matches_gram_product(blowup2, hirzebruch2):
    for model in (blowup2, hirzebruch2, random_model(ModelGenSpec(seed=5, rank=5, num_curves=8))):
        classes = [c.cls for c in model.curves]
        for i, a in enumerate(classes):
            for j, b in enumerate(classes):
                assert model.curve_gram[i][j] == gram_product(model.gram, a, b)
        alpha = tuple(Fraction(k + 1, 2) for k in range(model.rank))
        assert model.pairings(alpha) == tuple(
            gram_product(model.gram, alpha, c) for c in classes
        )
        with pytest.raises(ValueError):
            model.pairings(alpha[:-1])


@pytest.mark.parametrize("seed,rank,curves", [(1, 4, 7), (2, 5, 8), (7, 5, 9), (13, 6, 9)])
def test_families_are_exactly_the_negative_definite_sets(seed, rank, curves):
    model = random_model(ModelGenSpec(seed=seed, rank=rank, num_curves=curves))
    families = enumerate_exceptional_families(model)
    assert families == sorted(set(families))
    listed = set(families)

    def nd(indices):
        return signature(model.gram_submatrix(indices)) == (0, len(indices), 0)

    # with ND hereditary, the extension check makes the list complete by
    # induction on the size of a set
    for fam in families:
        assert nd(fam)
        for i in range(len(model.curves)):
            ext = tuple(sorted(fam + (i,)))
            if i not in fam and ext not in listed:
                assert not nd(ext)


def del_pezzo(r: int):
    """P^2 blown up at r <= 7 general points with every (-1)-curve, as
    d*H - sum m_i E_i: the E_i, the lines through two points, the conics
    through five and, for r = 7, the cubics double at one point."""
    rank = r + 1
    gram = [[(1 if i == 0 else -1) if i == j else 0 for j in range(rank)] for i in range(rank)]
    points = range(1, rank)

    def cls(degree, mults):
        return [degree] + [-mults.get(j, 0) for j in points]

    curves = [(f"E{i}", cls(0, {i: -1})) for i in points]
    curves += [("L" + "".join(map(str, p)), cls(1, dict.fromkeys(p, 1)))
               for p in itertools.combinations(points, 2)]
    curves += [("Q" + "".join(map(str, p)), cls(2, dict.fromkeys(p, 1)))
               for p in itertools.combinations(points, 5)]
    if r == 7:
        curves += [(f"K{i}", cls(3, {j: 2 if j == i else 1 for j in points})) for i in points]
    return make_model(f"dP{r}", rank, gram, curves, [3] + [-1] * r)


def test_del_pezzo_family_counts():
    # Zariski chamber counts of Bauer-Funke-Neumann (J. Algebra 2010),
    # the empty family included
    for r, count in ((2, 5), (3, 18), (4, 76), (5, 393), (6, 2764)):
        model = del_pezzo(r)
        assert len(model.curves) == (3, 6, 10, 16, 27)[r - 2]
        assert all(model.curve_gram[i][i] == -1 for i in range(len(model.curves)))
        assert len(enumerate_exceptional_families(model, allow_large=True)) == count


def test_brute_force_still_detects_multiple_candidates():
    from zok.errors import MultipleCandidates
    from zok.oracle import brute_force_zariski

    # a curve listed twice: the supports {E} and {E'} both decompose E
    model = make_model("twice", 2, [[1, 0], [0, -1]],
                       [("E", [0, 1]), ("E'", [0, 1]), ("H-E", [1, -1])], [2, -1])
    with pytest.raises(MultipleCandidates):
        brute_force_zariski(model, F(0, 1))
