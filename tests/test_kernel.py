"""The exact kernels: the integer pairing kernel over the curve table, the
integer bordering step behind the definiteness test and the support table,
the integer pivoted step behind signature and solve_linear, and the
hereditary search over negative-definite curve sets."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zok.errors import InvariantError, NotPseudoEffective
from zok.exact import QuadExt
from zok.lattice import (
    _int_rows,
    _over_lcm,
    gram_product,
    is_negative_definite,
    make_model,
    negative_definite_subsets,
    signature,
    solve_linear,
)
from zok.okounkov import segment_chambers
from zok.oracle import ModelGenSpec, random_model
from zok.zariski import _grow_support, enumerate_exceptional_families, zariski_decompose

from conftest import F, int_grid
from reference import (
    negative_solve,
    reference_growth,
    reference_signature,
    reference_solve_linear,
    vec_scale,
)

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


def _table_model(g):
    """A model whose curve table is g: the form g with the unit vectors as
    curves."""
    n = len(g)
    return make_model("table", n, g, [(f"C{i}", [int(i == k) for k in range(n)])
                                      for i in range(n)], [1] * n)


def _reference_forms(g, support):
    """support_forms(support) of _table_model(g) as rationals, by the
    reference negative_solve: (G_S^-1 e_k for each k, G_S^-1 G[S][j] for
    every j), or None."""
    size = len(support)
    units = [[int(i == k) for i in range(size)] for k in range(size)]
    cross = [[g[i][j] for i in support] for j in range(len(g))]
    solved = negative_solve(tuple(tuple(g[i][j] for j in support) for i in support),
                            units + cross)
    return None if solved is None else (solved[:size], solved[size:])


def _as_rationals(forms):
    if forms is None:
        return None
    den, coeff_rows, residual_rows = forms
    return tuple(tuple(tuple(Fraction(x, den) for x in row) for row in rows)
                 for rows in (coeff_rows, residual_rows))


@settings(max_examples=400, deadline=None)
@given(symmetric_matrices())
def test_integer_kernel_decides_like_signature(g):
    """is_negative_definite, the subset search and the support table, all on
    the integer bordering step, decide like signature, and the table's rows
    are the reference negative_solve's."""
    n = len(g)
    nd = signature(g) == (0, n, 0)
    assert is_negative_definite(g) is nd
    subsets = list(negative_definite_subsets(g))
    assert subsets == sorted(subsets)
    assert set(subsets) == {s for s in _subsets(n)
                            if signature(tuple(tuple(g[i][j] for j in s) for i in s))
                            == (0, len(s), 0)}
    model = _table_model(g)
    assert model.curve_gram == g
    for support in (tuple(range(n)), tuple(reversed(range(n)))):
        forms = model.support_forms(support)
        assert (forms is None) is not nd
        assert _as_rationals(forms) == _reference_forms(g, support)
        if forms is not None:
            assert forms[0] > 0


def test_integer_kernel_examples():
    assert is_negative_definite(()) is True
    assert list(negative_definite_subsets(())) == [()]
    assert is_negative_definite(((Fraction(0),),)) is False
    # a zero leading pivot ends the elimination even where a pivot search
    # would continue: [[0, 1], [1, 0]] is indefinite
    assert is_negative_definite(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))) is False
    g = ((Fraction(-2), Fraction(1)), (Fraction(1), Fraction(-2)))
    model = _table_model(g)
    # den is det(-G_S): 3 for both curves, and the rows are 3 * G_S^-1 and
    # 3 * G_S^-1 * G[S][j]
    assert model.support_forms((0, 1)) == (3, ((-2, -1), (-1, -2)), ((3, 0), (0, 3)))
    assert model.support_forms((1,)) == (2, ((-1,),), ((-1,), (2,)))
    assert model.support_forms(()) == (1, (), ((), ()))
    assert list(negative_definite_subsets(g)) == [(), (0,), (0, 1), (1,)]
    with pytest.raises(ValueError, match="^matrix must be square$"):
        is_negative_definite(((Fraction(-1), Fraction(0)),))


def test_support_table_cold_unsorted_non_definite_prefix_and_repeats():
    """A cold model answers a long or unsorted support directly; a support
    whose prefix is not negative definite, and one that repeats an index,
    is None, whether or not its prefix was asked first."""
    g = _symmetric(6, [Fraction(x) for x in (-3, 1, 0, 1, 0, 0,
                                             -4, 1, 0, 2, 0,
                                             -2, 1, 0, 3,
                                             -5, 1, 0,
                                             -3, 1,
                                             -2)])
    assert signature(g)[2] == 0 and not is_negative_definite(g)
    for support in [(4, 0, 3, 1, 2), (0, 1, 2, 3, 4), (3, 1), (5, 2), (2, 5, 0),
                    (0, 0), (1, 0, 1), (2, 5, 5), (3, 2, 0, 2)]:
        cold = _table_model(g)
        forms = cold.support_forms(support)
        assert list(cold._support_table) == [support]
        assert _as_rationals(forms) == _reference_forms(g, support)
        warm = _table_model(g)
        for k in range(len(support) + 1):
            assert _as_rationals(warm.support_forms(support[:k])) == _reference_forms(
                g, support[:k])
        assert warm.support_forms(support) == forms
    model = _table_model(g)
    assert model.support_forms((2, 5)) is None  # not negative definite
    assert model.support_forms((2, 5, 0)) is None
    assert _table_model(g).support_forms((2, 5, 0)) is None
    assert model.support_forms((0, 0)) is None and model.support_forms((1, 0, 1)) is None


def test_integer_kernel_reads_float_and_large_entries_exactly():
    big = 10**17
    assert is_negative_definite(((-big, big - 1), (big - 1, -big + 1))) is True
    assert is_negative_definite(((-big, big), (big, -big + 1))) is False
    assert list(negative_definite_subsets(((-big, big), (big, -big + 1)))) == [(), (0,), (1,)]
    # read exactly, 0.1**2 > 0.01 but < 0.010000000000000002: float
    # elimination finds a zero pivot where the exact one is negative
    for g, sig in [(((-1.0, 0.1), (0.1, -0.010000000000000002)), (0, 2, 0)),
                   (((-1.0, 0.1), (0.1, -0.01)), (1, 1, 0)),
                   (((-0.5, 0.25), (0.25, -0.125)), (0, 1, 1))]:
        exact = tuple(tuple(Fraction(x) for x in row) for row in g)
        assert signature(exact) == sig
        nd = sig == (0, 2, 0)
        assert is_negative_definite(g) is nd
        assert list(negative_definite_subsets(g)) == list(negative_definite_subsets(exact))
        assert (_table_model(exact).support_forms((0, 1)) is None) is not nd


# --- the pivoted step: signature and solve_linear -------------------------------


def _pivoted_case(rng, k: int) -> tuple:
    """A random symmetric matrix of size 1-8 with small entries and a
    right-hand side, by case k % 5: general; singular (one index repeats
    another); zero diagonal, so the first step is the rank-2 split; a
    definite-ish block next to a zero-diagonal block, which meets the split
    after pivots, on a scaled block; a rational diagonal."""
    n = rng.randint(1, 8)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = rng.randint(-3, 3)
    kind = k % 5
    if kind == 1 and n > 1:
        i, j = rng.sample(range(n), 2)
        g[j] = list(g[i])
        for row in g:
            row[j] = row[i]
    elif kind == 2:
        for i in range(n):
            g[i][i] = 0
    elif kind == 3:
        cut = rng.randint(0, n)
        for i in range(n):
            for j in range(n):
                if (i < cut) != (j < cut) or (i == j and i >= cut):
                    g[i][j] = 0
        order = rng.sample(range(n), n)
        g = [[g[i][j] for j in order] for i in order]
    elif kind == 4:
        for i in range(n):
            g[i][i] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    rhs = [rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-5, 5), 3))) for _ in range(n)]
    return tuple(map(tuple, g)), tuple(rhs)


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as err:
        return f"ValueError: {err}"


def test_pivoted_step_matches_the_fraction_reference():
    """5,000 seeded symmetric matrices: the integer signature has the
    Fraction reference's inertia, and the integer solve_linear gives its
    solution or the same ValueError text."""
    rng = random.Random(26)
    splits = singular = 0
    for k in range(5000):
        g, rhs = _pivoted_case(rng, k)
        sig = signature(g)
        assert sig == reference_signature(g), g
        x = _outcome(solve_linear, g, rhs)
        assert x == _outcome(reference_solve_linear, g, rhs), (g, rhs)
        assert isinstance(x, str) or all(type(v) is Fraction for v in x)
        singular += sig[2] > 0
        n = len(g)
        splits += any(g[i][j] for i in range(n) for j in range(n)) and not any(
            g[i][i] for i in range(n))
    assert singular > 1000 and splits > 500


@pytest.mark.parametrize("bad", ["-1", None, True, QuadExt._of(Fraction(0), Fraction(1), 2)],
                         ids=["str", "None", "bool", "QuadExt"])
@pytest.mark.parametrize("call", [signature, is_negative_definite,
                                  lambda g: solve_linear(g, (1, 1))],
                         ids=["signature", "is_negative_definite", "solve_linear"])
def test_matrix_functions_refuse_entries_that_are_not_rational(call, bad):
    """One entry rule (_int_rows): ints, Fractions and floats are read, any
    other entry is a TypeError naming its type, before the symmetry check."""
    with pytest.raises(TypeError) as err:
        call(((-1, bad), (0, -1)))
    assert str(err.value) == f"unsupported scalars in a matrix: [{type(bad).__name__!r}]"


def test_matrix_functions_read_ints_fractions_and_floats_exactly():
    g = ((-1.0, 0.5), (0.5, Fraction(-1, 2)))
    assert signature(g) == (0, 2, 0) and is_negative_definite(g) is True
    assert solve_linear(g, (0.25, 1)) == (Fraction(-5, 2), Fraction(-9, 2))
    assert signature(((0.1, 0), (0, -1))) == (1, 1, 0)
    with pytest.raises(TypeError, match=r"^unsupported scalars in a matrix: \['str'\]$"):
        solve_linear(((1, 0), (0, 1)), (1, "1"))


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


def test_family_atlas_holds_the_inverse_forms():
    """The atlas is the support table's own entries, one per family of the
    model's one search and in its order: rows den * G_S^-1 and den * G_S^-1
    (C_S . C_j) for every curve j over one positive den, where a support
    curve's residual row is den * e_k."""
    scaled = random_model(ModelGenSpec(seed=7, rank=5, num_curves=9))
    scaled = make_model("scaled", 5, [vec_scale(Fraction(2, 3), row) for row in scaled.gram],
                        [(c.name, vec_scale(Fraction(k + 1, 4), c.cls))
                         for k, c in enumerate(scaled.curves)], scaled.kahler)
    for model in (del_pezzo(4), del_pezzo(6), scaled):
        table = model.curve_gram
        assert model.families == tuple(negative_definite_subsets(table))
        for support, entry in zip(model.families, model.family_atlas, strict=True):
            assert entry is model.support_forms(support)
            den, coeff_rows, residual_rows = entry
            assert den > 0 and len(residual_rows) == len(table)
            g = model.gram_submatrix(support)
            inverse = [[Fraction(x, den) for x in row] for row in coeff_rows]
            assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inverse)]
                    for row in g] == [[int(i == j) for j in support] for i in support]
            for j, row in enumerate(residual_rows):
                assert tuple(Fraction(x, den) for x in row) == solve_linear(
                    g, [table[i][j] for i in support]
                )
            for k, i in enumerate(support):
                assert residual_rows[i] == tuple(den * (m == k) for m in range(len(support)))


def test_brute_force_still_detects_multiple_candidates():
    from zok.errors import MultipleCandidates
    from zok.oracle import brute_force_zariski

    # a curve listed twice: the supports {E} and {E'} both decompose E
    model = make_model("twice", 2, [[1, 0], [0, -1]],
                       [("E", [0, 1]), ("E'", [0, 1]), ("H-E", [1, -1])], [2, -1])
    assert model._family_index is None  # E and E' meet negatively: the full scan
    with pytest.raises(MultipleCandidates):
        brute_force_zariski(model, F(0, 1))


def test_brute_force_reads_only_the_families_that_can_pass():
    """On a model whose distinct curves meet pairwise non-negatively, the
    subset search reads only the atlas entries of the families that contain
    every curve alpha meets negatively, and only the empty family's when
    alpha meets none: with every other entry None, it gives the answer of
    the full atlas."""
    from zok.fixtures import load_fixture
    from zok.oracle import brute_force_zariski

    blowup2, dp4 = load_fixture("blowup2"), del_pezzo(4)
    cases = [
        (blowup2, F(3, -1, -1), 0), (blowup2, F(3, 1, -1), 1), (blowup2, F(3, 1, 1), 2),
        (blowup2, F(2, -2, -2), 1), (blowup2, F(-3, 1, 1), 3),
        (dp4, F(3, -1, -1, -1, -1), 0), (dp4, F(3, 1, -1, -1, -1), 1),
        (dp4, F(3, 1, 1, -1, -1), 2), (dp4, F(5, -3, -3, 0, 0), 1),
        (dp4, F(-3, 1, 1, 1, 1), 10),
    ]
    cases += [(blowup2, alpha, None) for alpha in int_grid(3, 2)]
    read = set()
    for model, alpha, negative in cases:
        assert model._family_index is not None
        want = brute_force_zariski(model, alpha)
        need = {i for i, x in enumerate(model.pairings(alpha)) if x < 0}
        assert negative is None or len(need) == negative
        full = model.family_atlas
        kept = [entry if need <= set(support) and (need or not support) else None
                for support, entry in zip(model.families, full)]
        model.__dict__["family_atlas"] = tuple(kept)
        try:
            got = brute_force_zariski(model, alpha)
        finally:
            model.__dict__["family_atlas"] = full
        assert got == want
        if got is not None:
            assert got.positive_pairings == want.positive_pairings
            assert got.positive_square == want.positive_square
        read.add((model.name, len(need), len(kept) - kept.count(None)))
    # the class that meets no curve negatively reads the empty family alone
    assert ("dP4", 0, 1) in read and ("blowup2", 0, 1) in read


# --- the integer pairing kernel against gram_product -------------------------

rationals = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 12))


@st.composite
def rational_models(draw):
    """Symmetric rational forms of rank 1-5 with 0-5 rational curve classes;
    the kernel needs no model invariant, so none is imposed."""
    n = draw(st.integers(1, 5))
    gram = _symmetric(n, draw(st.lists(rationals, min_size=n * (n + 1) // 2,
                                       max_size=n * (n + 1) // 2)))
    curves = [(f"C{k}", draw(st.lists(rationals, min_size=n, max_size=n)))
              for k in range(draw(st.integers(0, 5)))]
    return make_model("rational", n, gram, curves, [1] * n)


def _assert_kernel_matches_reference(model, u, v):
    classes = [c.cls for c in model.curves]
    assert model.pairings(u) == tuple(gram_product(model.gram, u, c) for c in classes)
    for i, c in enumerate(classes):
        assert model.pairing(u, i) == gram_product(model.gram, u, c)
    assert model.intersect(u, v) == gram_product(model.gram, u, v)
    assert model.intersect(v, u) == gram_product(model.gram, v, u)
    # the integer tables are the reference values over their least common
    # denominators, and the Fraction view shares one object per value
    units = [tuple(Fraction(int(k == m)) for m in range(model.rank)) for k in range(model.rank)]
    assert model.duals == _int_rows([[gram_product(model.gram, e, c) for e in units]
                                     for c in classes])
    reference = tuple(tuple(gram_product(model.gram, a, b) for b in classes) for a in classes)
    assert model._curve_gram_ints == _int_rows(reference)
    assert model.curve_gram == reference
    first = {}
    assert all(first.setdefault(x, x) is x for row in model.curve_gram for x in row)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_on_rational_models_and_classes(data):
    model = data.draw(rational_models())
    vectors = st.lists(rationals, min_size=model.rank, max_size=model.rank)
    _assert_kernel_matches_reference(model, tuple(data.draw(vectors)), tuple(data.draw(vectors)))


def test_kernel_on_a_model_with_halves():
    model = make_model("halves", 2, [["1/2", 0], [0, "-1/2"]],
                       [("A", ["1/2", "1/2"]), ("B", [1, "-3/2"])], [2, 0])
    assert model.duals == (4, ((1, -1), (2, 3)))
    assert model.curve_gram == ((0, Fraction(5, 8)), (Fraction(5, 8), Fraction(-5, 8)))
    u = (Fraction(2, 3), Fraction(-1, 5))
    _assert_kernel_matches_reference(model, u, (Fraction(1), Fraction(7, 2)))


def test_kernel_errors(blowup2):
    # the kernel pairs rational classes only
    quad = (QuadExt._of(Fraction(0), Fraction(1), 2), Fraction(1), Fraction(0))
    for call in (lambda: blowup2.pairings(quad), lambda: blowup2.pairing(quad, 0),
                 lambda: blowup2.intersect(quad, blowup2.kahler),
                 lambda: blowup2.intersect(blowup2.kahler, quad)):
        with pytest.raises(TypeError) as err:
            call()
        assert str(err.value) == "unsupported scalars in a class vector: ['QuadExt']"
    short = (Fraction(1), Fraction(0))
    for call in (lambda: blowup2.pairings(short), lambda: blowup2.pairing(short, 0),
                 lambda: blowup2.intersect(short, blowup2.kahler),
                 lambda: blowup2.intersect(blowup2.kahler, short)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "vector length must be 3"


# --- the integer class record ------------------------------------------------------


def _record_models(fixtures):
    """The fixtures, seeded random models and a model with fractional
    curve classes, whose curve tables have denominators other than 1."""
    thirds = make_model("thirds", 2, [["1/2", 0], [0, "-1/2"]],
                        [("A", ["1/3", "1/3"]), ("B", [1, "-3/2"])], [2, 0])
    return [*fixtures, thirds, *(random_model(ModelGenSpec(seed=s, rank=3 + s % 4,
                                                           num_curves=5 + s % 4))
                                 for s in range(1, 6))]


def _rational(u) -> tuple:
    """(nums / den, pairs / pd) of an IntClass, as Fractions."""
    return (tuple(Fraction(x, u.den) for x in u.nums), tuple(Fraction(v, u.pd) for v in u.pairs))


def test_minus_curve_is_the_class_pairing_ints_gives_minus_c(all_fixture_models):
    """-C read off the curve tables (okounkov._minus_curve, whose pd is the
    curve Gram table's den, not den times the duals') is the record
    pairing_ints gives -C: the same class and the same pairings as
    rationals, and the same square, for every curve of every model."""
    from zok.okounkov import _minus_curve

    other_pd = 0
    for model in _record_models(all_fixture_models):
        gd = model._gram_ints[0]
        for i, curve in enumerate(model.curves):
            read = _minus_curve(model, i)
            paired = model.pairing_ints(tuple(-x for x in curve.cls))
            assert _rational(read) == _rational(paired)
            assert _rational(read)[0] == tuple(-x for x in curve.cls)
            assert (Fraction(read.square, read.den ** 2 * gd)
                    == Fraction(paired.square, paired.den ** 2 * gd)
                    == gram_product(model.gram, curve.cls, curve.cls))
            other_pd += read.pd != read.den * model.duals[0]
    assert other_pd  # the thirds model's: its curve Gram table is over 24, not 6 * 12


def test_record_met_and_square_are_the_reference_and_kept(all_fixture_models):
    """A record's met (the form's integer rows times nums) and square (nums
    . met) equal the gram_product reference, over den times the form's den
    and den^2 times it; each is computed on first read and kept, so a
    second read returns the kept object.  The decomposition check builds
    its record with the square set, and square / (den^2 * the form's den)
    is the decomposition's positive_square."""
    from zok.zariski import _check_ints, _decompose_or_none

    rng = random.Random(36)
    checked = 0
    for model in _record_models(all_fixture_models):
        gd = model._gram_ints[0]
        units = [tuple(Fraction(int(k == m)) for m in range(model.rank))
                 for k in range(model.rank)]
        classes = [model.kahler] + [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                          for _ in range(model.rank)) for _ in range(30)]
        for u in classes:
            rec = model.pairing_ints(u)
            assert rec._met is None and rec._square is None
            met = rec.met
            assert [Fraction(x, rec.den * gd) for x in met] == [
                gram_product(model.gram, e, u) for e in units]
            assert rec.met is met
            square = rec.square
            assert Fraction(square, rec.den ** 2 * gd) == gram_product(model.gram, u, u)
            assert rec.square is square and rec.met is met
            dec = _decompose_or_none(model, u)
            if dec is None:
                continue
            support, (den,), (a,), _ = _grow_support(model, (rec.pairs,), (rec.pd,))
            kept = _check_ints(model, model.rank, rec.den, rec.nums, support, den, a)
            assert kept._square is not None
            assert (Fraction(kept.square, kept.den ** 2 * gd) == dec.positive_square
                    == gram_product(model.gram, dec.positive, dec.positive))
            checked += 1
    assert checked > 20


# --- the support table and the integer support growth --------------------------


def fraction_growth(model, columns, start=()):
    """zariski._grow_support on the rational columns, each scaled to integer
    numerators first, with its integer form (support, dens, coeff_nums,
    residual_nums) read as the reference's (support, coeffs, left)."""
    scales, integer_columns = zip(*[_over_lcm(col) for col in columns])
    support, dens, coeff_nums, residual_nums = _grow_support(model, integer_columns, scales, start)
    return (support,
            tuple(tuple(Fraction(a, d) for a in nums) for d, nums in zip(dens, coeff_nums)),
            tuple(tuple(Fraction(v, d) for v in nums) for d, nums in zip(dens, residual_nums)))


def _growth_outcome(grow, model, columns, start):
    try:
        return repr(grow(model, columns, start))
    except (NotPseudoEffective, InvariantError) as exc:
        return type(exc).__name__, str(exc)


def _assert_support_forms(model, support):
    table = model.curve_gram
    g = model.gram_submatrix(support)
    forms = model.support_forms(support)
    assert (forms is None) == (signature(g) != (0, len(support), 0))
    if forms is None:
        return
    den, coeff_rows, residual_rows = forms
    assert den > 0 and len(coeff_rows) == len(support) and len(residual_rows) == len(table)
    for k, row in enumerate(coeff_rows):
        unit = [int(i == k) for i in range(len(support))]
        assert tuple(Fraction(x, den) for x in row) == solve_linear(g, unit)
    for j, row in enumerate(residual_rows):
        assert tuple(Fraction(x, den) for x in row) == solve_linear(
            g, [table[i][j] for i in support])
    assert model.support_forms(support) is forms


def _subsets(n):
    return [s for size in range(n + 1) for s in itertools.combinations(range(n), size)]


@settings(max_examples=100, deadline=None)
@given(rational_models())
def test_support_forms_on_rational_models(model):
    for support in _subsets(len(model.curves)):
        _assert_support_forms(model, support)


@pytest.mark.parametrize("seed,rank,curves", [(1, 4, 7), (5, 5, 8)])
def test_support_forms_on_random_models(seed, rank, curves):
    model = random_model(ModelGenSpec(seed=seed, rank=rank, num_curves=curves))
    for support in _subsets(curves):
        if len(support) <= 4:
            _assert_support_forms(model, support)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_growth_matches_the_fraction_reference_on_rational_models(data):
    model = data.draw(rational_models())
    n = len(model.curves)
    k = data.draw(st.integers(1, 2))
    columns = tuple(tuple(data.draw(st.lists(rationals, min_size=n, max_size=n)))
                    for _ in range(k))
    start = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=2))) if n else ()
    assert (_growth_outcome(fraction_growth, model, columns, start)
            == _growth_outcome(reference_growth, model, columns, start))


@pytest.mark.parametrize("seed,rank,curves", [(2, 4, 7), (7, 5, 9), (13, 6, 9)])
def test_growth_matches_the_fraction_reference_on_random_models(seed, rank, curves):
    model = random_model(ModelGenSpec(seed=seed, rank=rank, num_curves=curves))
    classes = [vec_scale(Fraction(c, 2), model.kahler) for c in (1, 3)]
    classes += [tuple(Fraction(x, 3) for x in alpha) for alpha in int_grid(rank, 1)][::7]
    seen = set()
    for alpha in classes:
        pairs = model.pairings(alpha)
        columns = [(pairs,)]
        columns += [(pairs, model.pairings(vec_scale(-1, c.cls))) for c in model.curves]
        for cols in columns:
            outcome = _growth_outcome(fraction_growth, model, cols, ())
            assert outcome == _growth_outcome(reference_growth, model, cols, ())
            seen.add(type(outcome))
    assert seen == {str, tuple}  # grown supports and refusals both met


def test_each_support_is_solved_once_per_model(support_steps):
    """A repeated walk or decomposition solves no support again: each support
    a model meets is stored once, into its support table, by bordering steps
    along its own prefix."""
    steps, log = support_steps
    model = random_model(ModelGenSpec(seed=3, rank=5, num_curves=8))
    table = log(model)
    classes = [vec_scale(Fraction(c, 2), model.kahler) for c in (2, 3)]
    classes += [tuple(a + b for a, b in zip(model.kahler, c.cls)) for c in model.curves[:3]]

    def walk_and_decompose():
        walked = []
        for alpha in classes:
            walked.append(zariski_decompose(model, alpha))
            for curve in range(len(model.curves)):
                walked.append(segment_chambers(model, alpha, curve))
        return walked

    first = walk_and_decompose()
    assert steps and table.stores == list(table)
    assert all(any(support[:len(prefix) + 1] == (*prefix, m) for support in table)
               for prefix, m in steps)
    stored = dict(table)
    steps.clear()
    assert walk_and_decompose() == first
    assert steps == [] and table == stored and table.stores == list(stored)
