"""Exact convex polygon kernel: canonical form, shoelace area, Minkowski sum
by edge-angle merging, and half-plane containment.

Vertices are pairs of exact scalars (Fraction or QuadExt); all predicates are
sign computations, so everything stays exact.  Degenerate polygons (a single
point, a segment) are legal inputs.  A polygon in canonical form is a
:class:`ConvexPolygon`; every function here takes one as it is, and
normalizes and validates any other vertex sequence.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exact import ExtRat, ext_sign

Point = tuple[ExtRat, ExtRat]


def cross(o: Point, a: Point, b: Point):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _dir_cross(u: Point, v: Point):
    return u[0] * v[1] - u[1] * v[0]


class ConvexPolygon(tuple):
    """Vertices of a convex polygon in canonical form: distinct, counter-
    clockwise, no three consecutive ones collinear, starting at the leftmost-
    lowest vertex.  It equals, hashes and prints as the plain tuple; only code
    that has established that form builds one (convex_hull, minkowski_sum,
    and okounkov_polygon from its checked envelopes)."""

    __slots__ = ()


def convex_hull(points: Sequence[Point]) -> ConvexPolygon:
    """Monotone-chain hull, counter-clockwise, collinear points dropped."""
    pts = sorted(set((p[0], p[1]) for p in points))
    if len(pts) <= 1:
        return ConvexPolygon(pts)
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and ext_sign(cross(lower[-2], lower[-1], p)) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and ext_sign(cross(upper[-2], upper[-1], p)) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 2 and hull[0] == hull[1]:
        return ConvexPolygon(hull[:1])
    return ConvexPolygon(hull)


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    if ext_sign(cross(a, b, p)) != 0:
        return False
    d = (b[0] - a[0], b[1] - a[1])
    t = (p[0] - a[0]) * d[0] + (p[1] - a[1]) * d[1]
    return ext_sign(t) >= 0 and t <= d[0] * d[0] + d[1] * d[1]


def normalize_convex(points: Sequence[Point]) -> ConvexPolygon:
    """Canonical CCW form of a convex polygon; raises on non-convex input.

    A ConvexPolygon is returned as it is.  Other input is accepted when every
    given vertex lies on the hull boundary (collinear edge subdivisions are
    fine, strictly interior points are not).
    """
    if not points:
        raise ValueError("polygon needs at least one vertex")
    if type(points) is ConvexPolygon:
        return points
    hull = convex_hull(points)
    for p in points:
        p = (p[0], p[1])
        if p in hull:
            continue
        m = len(hull)
        if m == 1:
            ok = p == hull[0]
        else:
            ok = any(_on_segment(p, hull[i], hull[(i + 1) % m]) for i in range(m))
        if not ok:
            raise ValueError("non-convex polygon input")
    return hull


def signed_area_twice(vertices: Sequence[Point]):
    total = Fraction(0)
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        total = total + (x0 * y1 - x1 * y0)
    return total


def shoelace_area(vertices: Sequence[Point]) -> ExtRat:
    """Exact area of a CCW simple polygon."""
    return signed_area_twice(vertices) / 2


def _half(v: Point) -> int:
    """0 for an edge direction at an angle in (-90, 90] degrees, 1 otherwise.

    From its leftmost-lowest vertex, a canonical polygon's edges run through
    half 0 and then half 1, turning left within each half.
    """
    sx = ext_sign(v[0])
    return 0 if sx > 0 or (sx == 0 and ext_sign(v[1]) > 0) else 1


def _edges(vs: ConvexPolygon) -> list[Point]:
    if len(vs) == 1:
        return []
    return [(b[0] - a[0], b[1] - a[1]) for a, b in zip(vs, vs[1:] + vs[:1])]


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
    pv = normalize_convex(p)
    qv = normalize_convex(q)
    ep, eq = _edges(pv), _edges(qv)
    merged: list[Point] = []
    i = j = 0
    while i < len(ep) and j < len(eq):
        u, v = ep[i], eq[j]
        turn = _half(v) - _half(u) or ext_sign(_dir_cross(u, v))
        if turn > 0:
            merged.append(u)
            i += 1
        elif turn < 0:
            merged.append(v)
            j += 1
        else:
            merged.append((u[0] + v[0], u[1] + v[1]))
            i += 1
            j += 1
    merged.extend(ep[i:])
    merged.extend(eq[j:])
    out = [(pv[0][0] + qv[0][0], pv[0][1] + qv[0][1])]
    for e in merged[:-1]:
        last = out[-1]
        out.append((last[0] + e[0], last[1] + e[1]))
    return ConvexPolygon(out)


def polygon_contains(p: Sequence[Point], q: Sequence[Point]) -> bool:
    """True when every vertex of q lies in the convex polygon p (edges included)."""
    pv = normalize_convex(p)
    qv = normalize_convex(q)
    if len(pv) == 1:
        return all(v == pv[0] for v in qv)
    if len(pv) == 2:
        return all(_on_segment(v, pv[0], pv[1]) for v in qv)
    edges = list(zip(pv, _edges(pv)))  # each edge of p, formed once
    for v in qv:
        for a, e in edges:
            if ext_sign(_dir_cross(e, (v[0] - a[0], v[1] - a[1]))) < 0:
                return False
    return True
