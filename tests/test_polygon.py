from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zok.exact import QuadExt
from zok.polygon import (
    ConvexPolygon,
    convex_hull,
    minkowski_sum,
    normalize_convex,
    polygon_contains,
    shoelace_area,
)

TRI = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
SQUARE = (
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0)),
    (Fraction(1), Fraction(1)),
    (Fraction(0), Fraction(1)),
)


def _hull_of_sums(p, q):
    """Independent Minkowski oracle: hull of all pairwise vertex sums."""
    return convex_hull([(a[0] + b[0], a[1] + b[1]) for a in p for b in q])


def test_minkowski_triangle_doubles():
    doubled = minkowski_sum(TRI, TRI)
    assert set(doubled) == {(0, 0), (2, 0), (0, 2)}
    assert shoelace_area(doubled) == 2


def test_minkowski_matches_hull_oracle_random(all_fixture_models, golden_model):
    """The merge is canonical as it stands: the same tuple as the hull of
    all pairwise vertex sums, and a ConvexPolygon.  Inputs are random
    polygons, points and segments, and Okounkov bodies of the fixtures and of
    the golden model (QuadExt vertices), paired wherever they share one
    quadratic field."""
    from zok.errors import NotBig, NotPseudoEffective
    from zok.exact import QuadExt
    from zok.okounkov import FlagSpec, okounkov_polygon

    rng = random.Random(5)
    pairs = [
        tuple(
            convex_hull(
                [
                    (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
                    for _ in range(rng.randint(1, 6))
                ]
            )
            for _ in range(2)
        )
        for _ in range(200)
    ]
    bodies = []
    for model in all_fixture_models + [golden_model]:
        big = 0
        for coords in itertools.product(range(-1, 4), repeat=model.rank):
            alpha = tuple(Fraction(c) for c in coords)
            try:
                bodies += [
                    okounkov_polygon(model, alpha, FlagSpec.make(i)).vertices
                    for i in range(len(model.curves))
                ]
            except (NotBig, NotPseudoEffective):
                continue
            big += 1
            if big == 3:
                break

    def radicands(poly):
        return {c.d for v in poly for c in v if isinstance(c, QuadExt)}

    assert any(radicands(p) for p in bodies)
    pairs += [(p, q) for p in bodies for q in bodies if len(radicands(p) | radicands(q)) <= 1]
    for p, q in pairs:
        got = minkowski_sum(p, q)
        assert type(got) is ConvexPolygon
        assert got == _hull_of_sums(p, q)


def test_minkowski_with_point_translates():
    shifted = minkowski_sum(TRI, [(Fraction(2), Fraction(3))])
    assert set(shifted) == {(2, 3), (3, 3), (2, 4)}


def test_minkowski_with_segment():
    seg = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
    out = minkowski_sum(TRI, seg)
    assert set(out) == set(_hull_of_sums(TRI, seg))


def test_contains_basic():
    assert polygon_contains(SQUARE, TRI)
    assert not polygon_contains(TRI, SQUARE)
    assert not polygon_contains(SQUARE, [(Fraction(2), Fraction(2))])
    assert polygon_contains(SQUARE, [(Fraction(1), Fraction(1))])  # boundary counts


def test_contains_degenerate_targets():
    seg = ((Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)))
    assert polygon_contains(seg, [(Fraction(1), Fraction(0))])
    assert not polygon_contains(seg, [(Fraction(3), Fraction(0))])
    assert not polygon_contains(seg, [(Fraction(1), Fraction(1))])
    point = ((Fraction(1), Fraction(1)),)
    assert polygon_contains(point, point)
    assert not polygon_contains(point, seg)


def test_non_convex_input_rejected():
    lshape = (
        (Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(0)),
        (Fraction(2), Fraction(2)),
        (Fraction(1), Fraction(1)),  # reflex: strictly inside the hull
        (Fraction(0), Fraction(2)),
    )
    with pytest.raises(ValueError):
        normalize_convex(lshape)
    with pytest.raises(ValueError):
        minkowski_sum(lshape, TRI)
    with pytest.raises(ValueError):
        polygon_contains(lshape, TRI)


def test_collinear_edge_subdivision_accepted():
    subdivided = (
        (Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(0)),  # on the bottom edge
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    )
    assert set(normalize_convex(subdivided)) == set(normalize_convex(TRI))


def test_minkowski_homogeneity_on_fixture_bodies(blowup1):
    from zok.okounkov import FlagSpec, okounkov_polygon
    from conftest import F

    poly = okounkov_polygon(blowup1, F(2, 1), FlagSpec.make(1)).vertices
    doubled = okounkov_polygon(blowup1, F(4, 2), FlagSpec.make(1)).vertices
    assert set(minkowski_sum(poly, poly)) == set(normalize_convex(doubled))


def test_minkowski_p2_body_sum_equals_doubled_body(p2):
    from zok.okounkov import FlagSpec, okounkov_polygon
    from conftest import F

    body_l = okounkov_polygon(p2, F(1), FlagSpec.make(0)).vertices
    body_2l = okounkov_polygon(p2, F(2), FlagSpec.make(0)).vertices
    summed = minkowski_sum(body_l, body_l)
    assert polygon_contains(body_2l, summed)
    assert set(summed) == set(normalize_convex(body_2l))  # containment with equality


# -- canonical polygons pass through ----------------------------------------------


def test_canonical_polygons_are_not_renormalized(monkeypatch, blowup2):
    import zok.polygon
    from zok.okounkov import FlagSpec, okounkov_polygon
    from conftest import F

    flag = FlagSpec.make(blowup2.curve_index("L12"))
    a, b = F(3, -1, -1), F(2, 0, -1)
    pa, pb, pab = (okounkov_polygon(blowup2, x, flag).vertices for x in (a, b, F(5, -1, -2)))
    assert all(type(p) is ConvexPolygon for p in (pa, pb, pab))
    hull = zok.polygon.convex_hull
    calls = []

    def counting(points):
        calls.append(points)
        return hull(points)

    monkeypatch.setattr(zok.polygon, "convex_hull", counting)
    assert polygon_contains(pab, minkowski_sum(pa, pb))
    # the merged boundary of the sum is canonical as it stands
    assert calls == []
    assert normalize_convex(pa) is pa


def test_non_canonical_inputs_are_normalized_as_before():
    canonical = convex_hull(SQUARE)
    assert type(canonical) is ConvexPolygon and canonical == SQUARE
    rotated = SQUARE[2:] + SQUARE[:2]
    subdivided = SQUARE[:1] + ((Fraction(1, 2), Fraction(0)),) + SQUARE[1:]
    duplicated = SQUARE + SQUARE[:2]
    for points in (rotated, subdivided, duplicated, list(rotated)):
        got = normalize_convex(points)
        assert type(got) is ConvexPolygon and got == canonical
        assert minkowski_sum(points, TRI) == minkowski_sum(canonical, TRI)
        assert polygon_contains(points, TRI) and not polygon_contains(TRI, points)
    interior = SQUARE + ((Fraction(1, 2), Fraction(1, 2)),)
    for call in (
        lambda: normalize_convex(interior),
        lambda: minkowski_sum(interior, TRI),
        lambda: polygon_contains(TRI, interior),
    ):
        with pytest.raises(ValueError, match="^non-convex polygon input$"):
            call()
    for empty in ((), [], ConvexPolygon()):
        with pytest.raises(ValueError, match="^polygon needs at least one vertex$"):
            normalize_convex(empty)
        with pytest.raises(ValueError, match="^polygon needs at least one vertex$"):
            minkowski_sum(empty, TRI)


# -- the integer kernel against the Fraction and QuadExt reference -----------------

_small = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def _scalar(draw, d):
    """A rational, or an element of Q(sqrt(d)) when d > 1."""
    p = draw(_small)
    return QuadExt.new(p, draw(_small), d) if d > 1 and draw(st.booleans()) else p


@st.composite
def _points(draw, d):
    """Vertices of a general polygon, a segment (collinear points) or a point."""
    kind = draw(st.sampled_from(("general", "segment", "point")))
    start = (draw(_scalar(d)), draw(_scalar(d)))
    if kind == "point":
        return [start] * draw(st.integers(1, 2))
    if kind == "segment":
        step = (draw(_scalar(d)), draw(_scalar(d)))
        ks = draw(st.lists(_small, min_size=1, max_size=4))
        return [start] + [(start[0] + k * step[0], start[1] + k * step[1]) for k in ks]
    return [start] + draw(st.lists(st.tuples(_scalar(d), _scalar(d)), min_size=1, max_size=6))


@st.composite
def _vertical_pair_at_s(draw, d):
    """Rational vertices left of an irrational s and the pair (s, f(s)),
    (s, g(s)) for rational affine f <= g, as an Okounkov polygon ends."""
    s = QuadExt.new(draw(st.fractions(1, 3, max_denominator=4)),
                    draw(st.fractions(1, 2, max_denominator=4)), d)
    f0, f1, w0 = draw(_small), draw(_small), draw(st.fractions(0, 4, max_denominator=3))
    left = draw(st.lists(st.tuples(st.fractions(-6, 0, max_denominator=4), _small),
                         min_size=1, max_size=4))
    return left + [(s, f0 + f1 * s), (s, f0 + w0 + f1 * s)]


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


def _subdivided(poly):
    """poly rotated, with the midpoint of each edge inserted and its first
    vertex repeated: non-canonical input with collinear subdivisions."""
    poly = list(poly)
    out = []
    for a, b in zip(poly, poly[1:] + poly[:1]):
        out += [a, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)]
    return out[1:] + out[:2]


def _check_against_reference(points_p, points_q):
    from reference import (
        reference_convex_hull,
        reference_minkowski_sum,
        reference_normalize_convex,
        reference_polygon_contains,
        reference_shoelace_area,
    )

    for points in (points_p, points_q, points_p + points_q):
        assert _outcome(convex_hull, points) == _outcome(reference_convex_hull, points)
    p, q = reference_convex_hull(points_p), reference_convex_hull(points_q)
    s = reference_minkowski_sum(p, q)
    inputs = [p, q, s, list(p), _subdivided(p), _subdivided(s)]
    if len(p) >= 3:
        centre = tuple(sum(c) / len(p) for c in zip(*p))
        inputs.append(list(p) + [centre])  # strictly inside: non-convex input
    for x in inputs:
        assert _outcome(normalize_convex, x) == _outcome(reference_normalize_convex, x)
        assert _outcome(shoelace_area, x) == _outcome(reference_shoelace_area, x)
        for y in inputs:
            assert _outcome(minkowski_sum, x, y) == _outcome(reference_minkowski_sum, x, y)
            assert _outcome(polygon_contains, x, y) == _outcome(reference_polygon_contains, x, y)
    assert polygon_contains(s, _subdivided(s)) and polygon_contains(_subdivided(s), s)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 2, 5)).flatmap(lambda d: st.tuples(_points(d), _points(d))))
def test_integer_kernel_matches_the_reference(pair):
    """Hull, normalization, shoelace area, Minkowski sum and containment
    give the reprs, answers and errors of the Fraction and QuadExt kernel on
    convex polygons, segments and points over Q or one Q(sqrt(d)), canonical
    or not (rotated, collinear edge subdivisions, a repeated vertex), and on
    input with a strictly interior point."""
    _check_against_reference(*pair)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((2, 3, 7)).flatmap(lambda d: st.tuples(_vertical_pair_at_s(d), _points(d))))
def test_integer_kernel_matches_the_reference_at_an_irrational_end(pair):
    """As above, for polygons whose right edge is a vertex pair at an
    irrational x = s, as the Okounkov polygons that end at an irrational s."""
    _check_against_reference(*pair)


# -- mixed radicands, refused up front ------------------------------------------------

_ROOT2 = QuadExt.new(Fraction(0), Fraction(1), 2)
_ROOT3 = QuadExt.new(Fraction(0), Fraction(1), 3)


def test_mixed_radicands_raise_up_front_naming_the_first_input_first():
    """Two inputs over Q(sqrt(2)) and Q(sqrt(3)) raise before any predicate
    runs, the first input's radicand named first.  The pair below returned
    False before, since its first vertex of q fails p's first (rational)
    edge before any mixed operation; that is a declared change."""
    from reference import reference_polygon_contains

    p = convex_hull([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), _ROOT2)])
    q = convex_hull([(Fraction(0), Fraction(-1)), (_ROOT3, Fraction(5))])
    assert reference_polygon_contains(p, q) is False
    for call, first, second in (
        (lambda: polygon_contains(p, q), 2, 3),
        (lambda: polygon_contains(q, p), 3, 2),
        (lambda: minkowski_sum(p, q), 2, 3),
        (lambda: minkowski_sum(q, p), 3, 2),
        (lambda: convex_hull(list(p) + list(q)), 2, 3),
        (lambda: convex_hull(list(q) + list(p)), 3, 2),
    ):
        with pytest.raises(ValueError, match=rf"^mixed radicands sqrt\({first}\) and sqrt\({second}\)$"):
            call()
