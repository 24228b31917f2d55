"""Exact convex polygon kernel: canonical form, shoelace area, Minkowski sum
by edge-angle merging, and half-plane containment.

Vertices are pairs of exact scalars: int, Fraction or QuadExt.  Each
function lifts its polygons once to integer rows (_lift), so that every
predicate is the sign of an integer pair (exact.quad_sign), and builds
Fractions and QuadExts only for what it returns; any other scalar raises
TypeError and inputs that span two radicands ValueError, up front.
Degenerate polygons (a single point, a segment) are legal inputs.  A
polygon in canonical form is a :class:`ConvexPolygon`; every function here
takes one as it is, and normalizes and validates any other vertex sequence.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import lcm
from operator import add, sub
from typing import Sequence

from .exact import ExtRat, QuadExt, quad_of_ints, quad_sign

Point = tuple[ExtRat, ExtRat]


class ConvexPolygon(tuple):
    """Vertices of a convex polygon in canonical form: distinct, counter-
    clockwise, no three consecutive ones collinear, starting at the leftmost-
    lowest vertex.  It equals, hashes and prints as the plain tuple; only code
    that has established that form builds one (convex_hull, minkowski_sum,
    and okounkov_polygon from its checked envelopes)."""

    __slots__ = ()


def _lift(*polygons: Sequence[Point]) -> tuple:
    """(d, L, rows): one radicand d (1 when every coordinate is rational),
    one denominator L, and per polygon one integer row (Ax, Bx, Ay, By) per
    vertex ((Ax + Bx*sqrt(d)) / L, (Ay + By*sqrt(d)) / L).  A coordinate
    whose type is not exactly int, Fraction or QuadExt (a float, a bool)
    raises TypeError naming the types, before anything else; a second
    radicand raises ValueError, naming the first one met first."""
    kinds = {type(c) for poly in polygons for point in poly for c in point[:2]}
    kinds -= {int, Fraction, QuadExt}
    if kinds:
        names = sorted(k.__name__ for k in kinds)
        raise TypeError(f"unsupported scalars in a polygon: {names}")
    d, dens = 1, {1}
    for poly in polygons:
        for point in poly:
            for c in point[:2]:
                if isinstance(c, QuadExt):
                    if c.d != d != 1:
                        raise ValueError(f"mixed radicands sqrt({d}) and sqrt({c.d})")
                    d = c.d
                    dens.add(c.q.denominator)
                    c = c.p
                dens.add(c.denominator)
    big = lcm(*dens)

    def lift(c) -> tuple[int, int]:
        if isinstance(c, QuadExt):
            p, q = c.p, c.q
            return p.numerator * (big // p.denominator), q.numerator * (big // q.denominator)
        return c.numerator * (big // c.denominator), 0

    return d, big, [[(*lift(p[0]), *lift(p[1])) for p in poly] for poly in polygons]


def _point(row, d: int, big: int) -> Point:
    return quad_of_ints(row[0], row[1], d, big), quad_of_ints(row[2], row[3], d, big)


def _cross(u, v, d: int) -> tuple[int, int]:
    """u x v = P + Q*sqrt(d) for two rows u and v, as (P, Q)."""
    ux, uxb, uy, uyb = u
    vx, vxb, vy, vyb = v
    return (ux * vy - uy * vx + (uxb * vyb - uyb * vxb) * d,
            ux * vyb + uxb * vy - uy * vxb - uyb * vx)


def _turn(o, a, b, d: int) -> int:
    """Sign of (a - o) x (b - o): 1 for a left turn o, a, b."""
    return quad_sign(*_cross(tuple(map(sub, a, o)), tuple(map(sub, b, o)), d), d)


def _cmp(u, v, d: int) -> int:
    """Lexicographic comparison of two rows as points."""
    return quad_sign(u[0] - v[0], u[1] - v[1], d) or quad_sign(u[2] - v[2], u[3] - v[3], d)


def _hull(rows, d: int) -> list:
    """Monotone-chain hull of rows, counter-clockwise, collinear points dropped."""
    pts = sorted(set(rows), key=None if d == 1 else cmp_to_key(lambda u, v: _cmp(u, v, d)))
    if len(pts) <= 1:
        return pts
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and _turn(lower[-2], lower[-1], p, d) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and _turn(upper[-2], upper[-1], p, d) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return hull[:1] if len(hull) == 2 and hull[0] == hull[1] else hull


def _given(points: Sequence[Point], rows, chosen) -> ConvexPolygon:
    """The given points (the first of equal ones) at the chosen rows."""
    given: dict = {}
    for row, p in zip(rows, points):
        given.setdefault(row, (p[0], p[1]))
    return ConvexPolygon(given[row] for row in chosen)


def convex_hull(points: Sequence[Point]) -> ConvexPolygon:
    """Monotone-chain hull, counter-clockwise, collinear points dropped."""
    d, _, (rows,) = _lift(points)
    return _given(points, rows, _hull(rows, d))


def _on_segment(p, a, b, d: int) -> bool:
    """p on the closed segment [a, b]: collinear, and between a and b in the
    lexicographic order, which orders the points of a line along it."""
    return not _turn(a, b, p, d) and _cmp(p, a, d) * _cmp(p, b, d) <= 0


def _canonical(points: Sequence[Point], rows, d: int) -> list:
    """The rows of points in canonical form, a ConvexPolygon's as they are;
    raises on empty or non-convex input (see normalize_convex)."""
    if not rows:
        raise ValueError("polygon needs at least one vertex")
    if type(points) is ConvexPolygon:
        return rows
    hull = _hull(rows, d)
    sides = list(zip(hull, hull[1:] + hull[:1])) if len(hull) > 1 else []
    for p in rows:
        if p not in hull and not any(_on_segment(p, a, b, d) for a, b in sides):
            raise ValueError("non-convex polygon input")
    return hull


def normalize_convex(points: Sequence[Point]) -> ConvexPolygon:
    """Canonical CCW form of a convex polygon; raises on non-convex input.

    A ConvexPolygon is returned as it is.  Other input is accepted when every
    given vertex lies on the hull boundary (collinear edge subdivisions are
    fine, strictly interior points are not).
    """
    if type(points) is ConvexPolygon and points:
        return points
    d, _, (rows,) = _lift(points)
    return _given(points, rows, _canonical(points, rows, d))


def shoelace_area(vertices: Sequence[Point]) -> ExtRat:
    """Exact area of a CCW simple polygon: half the sum of its edges' cross
    products, each an integer pair over L**2."""
    d, big, (rows,) = _lift(vertices)
    parts = [_cross(u, v, d) for u, v in zip(rows, rows[1:] + rows[:1])]
    return quad_of_ints(sum(p for p, _ in parts), sum(q for _, q in parts), d, 2 * big * big)


def _edges(rows, d: int) -> list[tuple]:
    """(half, edge) per edge of canonical rows: half 1 for an edge pointing
    lexicographically down, at an angle outside (-90, 90] degrees.  From its
    leftmost-lowest vertex, a canonical polygon's edges run through half 0
    and then half 1, turning left within each half."""
    if len(rows) == 1:
        return []
    edges = [tuple(map(sub, b, a)) for a, b in zip(rows, rows[1:] + rows[:1])]
    return [(int(_cmp(e, (0, 0, 0, 0), d) < 0), e) for e in edges]


def minkowski_sum(p: Sequence[Point], q: Sequence[Point]) -> ConvexPolygon:
    """Exact Minkowski sum of two convex polygons, in canonical form.

    Both canonical edge cycles start at the leftmost-lowest vertex and are
    sorted by angle there; one merge of the two, adding edges of equal
    angle, walks the sum's boundary from the sum of the two start vertices.
    That sum is the leftmost-lowest vertex of the result (the lexicographic
    minimum of a sum is the sum of the minima), and the merged angles
    strictly increase, so the walk is canonical as it stands.  A point
    contributes no edges, i.e. a translation.
    """
    d, big, (pr, qr) = _lift(p, q)
    pv, qv = _canonical(p, pr, d), _canonical(q, qr, d)
    ep, eq = _edges(pv, d), _edges(qv, d)
    merged: list = []
    i = j = 0
    while i < len(ep) and j < len(eq):
        (hu, u), (hv, v) = ep[i], eq[j]
        turn = hv - hu or quad_sign(*_cross(u, v, d), d)
        merged.append(u if turn > 0 else v if turn < 0 else tuple(map(add, u, v)))
        i, j = i + (turn >= 0), j + (turn <= 0)
    merged += [e for _, e in ep[i:] + eq[j:]]
    out = [tuple(map(add, pv[0], qv[0]))]
    for e in merged[:-1]:
        out.append(tuple(map(add, out[-1], e)))
    return ConvexPolygon(_point(row, d, big) for row in out)


def polygon_contains(p: Sequence[Point], q: Sequence[Point]) -> bool:
    """True when every vertex of q lies in the convex polygon p (edges included)."""
    d, _, (pr, qr) = _lift(p, q)
    pv, qv = _canonical(p, pr, d), _canonical(q, qr, d)
    if len(pv) == 1:
        return all(v == pv[0] for v in qv)
    if len(pv) == 2:
        return all(_on_segment(v, pv[0], pv[1], d) for v in qv)
    sides = list(zip(pv, pv[1:] + pv[:1]))
    return all(_turn(a, b, v, d) >= 0 for v in qv for a, b in sides)
