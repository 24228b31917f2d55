"""Chamber walk along alpha - t*C, piecewise-linear envelopes, generalized
Okounkov polygons for big classes, restricted bodies, and the point/segment
bodies on the volume-zero boundary.

The walk is exact: within a chamber the negative-part support is constant,
so the orthogonality system makes the coefficients and the positive part
affine in t.  A walk scales alpha and the direction to integer numerators
once.  Each chamber starts with one rational decomposition at its start
t0; support growth over the two integer columns of t0 + eps, eps a formal
positive infinitesimal signed lexicographically (symbolic perturbation),
then reaches the chamber's support, and its two solves are the affine
formulas.  The formulas, their checks, the chamber's events and the
continuity of adjacent chambers run over integer numerators, and
Fractions are built only for the chamber's fields.  Breakpoints are roots of affine functions (hence
rational); only the terminal endpoint, where the positive part's square
vanishes, can be a quadratic irrational, represented exactly in Q(sqrt(d)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from math import lcm
from operator import mul
from typing import Optional, Sequence

from .errors import (
    FlagInNonKahlerLocus,
    HypothesisViolated,
    InvariantError,
    NotBig,
    NotOnBoundary,
    NotPseudoEffective,
    UnknownCurve,
)
from .exact import ExtRat, QuadExt, parse_rat, quad_of_ints, quad_sign, sqrt_rat
from .lattice import SurfaceModel, Vec
from .polygon import ConvexPolygon, Point, shoelace_area
from .zariski import (
    Kind,
    ZariskiDecomp,
    _classification_of,
    _curve_sum,
    _decompose_or_none,
    _grow_support,
    _non_kahler_of,
    zariski_decompose,
)


def _as_index(i) -> int:
    if isinstance(i, str):
        try:
            return int(i)
        except ValueError:
            pass
    elif isinstance(i, int) and not isinstance(i, bool):
        return i
    raise ValueError(f"curve index must be an integer, got {i!r}")


@dataclass(frozen=True)
class FlagSpec:
    """Flag data: the flag curve and the local intersection multiplicity of
    every other curve with it at the flag point (absent means 0; empty map
    means a generic point)."""

    curve: int
    mults: tuple[tuple[int, Fraction], ...] = ()

    def mult_map(self) -> dict[int, Fraction]:
        return dict(self.mults)

    @staticmethod
    def make(curve: int, mults: Optional[dict] = None) -> "FlagSpec":
        """The flag with curve indices given as ints (not bools) or as
        strings of ints, and exact multiplicities (parse_rat); any other
        index or multiplicity, a float or a bool among them, raises
        ValueError."""
        items = tuple(sorted((_as_index(i), parse_rat(m)) for i, m in (mults or {}).items()))
        return FlagSpec(curve=_as_index(curve), mults=items)


def validate_flag(model: SurfaceModel, flag: FlagSpec) -> None:
    if not model.has_curve(flag.curve):
        raise UnknownCurve(f"no curve with index {flag.curve}")
    for i, m in flag.mults:
        if not model.has_curve(i):
            raise UnknownCurve(f"no curve with index {i}")
        if i == flag.curve:
            raise ValueError("flag multiplicities exclude the flag curve itself")
        if sum(j == i for j, _ in flag.mults) > 1:
            raise ValueError(f"curve {model.curve_name(i)!r} has more than one multiplicity")
        if m < 0:
            raise ValueError("flag multiplicities must be non-negative")
        cap = model.curve_gram[i][flag.curve]
        if m > cap:
            raise ValueError(
                f"multiplicity {m} for curve {model.curve_name(i)!r} exceeds its "
                f"total intersection {cap} with the flag curve"
            )


@dataclass(frozen=True)
class SegmentChamber:
    """One maximal parameter interval with constant negative-part support.

    On [t_lo, t_hi]: Z(t) = z0 + t*z1, the coefficient of support curve
    support[k] is coeff0[k] + t*coeff1[k], Z(t).C_j = h0[j] + t*h1[j] for
    every listed curve j, and Z(t)^2 = c0 + c1*t + c2*t**2 for square =
    (c0, c1, c2); all decomposition invariants hold on the open interval and
    extend continuously to the endpoints.
    """

    t_lo: ExtRat
    t_hi: ExtRat
    support: tuple[int, ...]
    z0: Vec
    z1: Vec
    coeff0: tuple[Fraction, ...]
    coeff1: tuple[Fraction, ...]
    h0: tuple[Fraction, ...]
    h1: tuple[Fraction, ...]
    square: tuple[Fraction, Fraction, Fraction]
    ints: Optional[tuple] = field(default=None, compare=False, repr=False)

    def z_at(self, t) -> tuple:
        return tuple(a + t * b for a, b in zip(self.z0, self.z1))

    def coeff_at(self, t) -> tuple:
        return tuple(p + t * q for p, q in zip(self.coeff0, self.coeff1))

    def coeff_pair(self, index: int) -> tuple[Fraction, Fraction]:
        k = self.support.index(index)
        return self.coeff0[k], self.coeff1[k]


@dataclass(frozen=True)
class PiecewiseLinear:
    """Piecewise-linear function given by values at strictly increasing
    breakpoints; exact linear interpolation in between."""

    breakpoints: tuple[ExtRat, ...]
    values: tuple[ExtRat, ...]

    def __post_init__(self):
        if len(self.breakpoints) != len(self.values) or len(self.breakpoints) < 2:
            raise ValueError("need matching breakpoints and values, at least two")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not a < b:
                raise ValueError("breakpoints must be strictly increasing")

    def value_at(self, t) -> ExtRat:
        bps, vals = self.breakpoints, self.values
        for b, v in zip(bps, vals):
            if t == b:
                return v  # a breakpoint keeps its value; nothing to interpolate
        if t < bps[0] or t > bps[-1]:
            raise ValueError("evaluation outside the domain")
        for k in range(len(bps) - 1):
            if t <= bps[k + 1]:
                lo, hi = bps[k], bps[k + 1]
                width = hi - lo
                return vals[k] + (vals[k + 1] - vals[k]) * (t - lo) / width
        raise AssertionError("unreachable")

    def slopes(self) -> tuple[ExtRat, ...]:
        return tuple(
            (v1 - v0) / (b1 - b0)
            for (b0, b1, v0, v1) in zip(
                self.breakpoints, self.breakpoints[1:], self.values, self.values[1:]
            )
        )


@dataclass(frozen=True)
class OkounkovPolygon:
    a: ExtRat
    s: ExtRat
    f: PiecewiseLinear
    g: PiecewiseLinear
    vertices: tuple[Point, ...]
    area: ExtRat


@dataclass(frozen=True)
class BoundaryBody:
    """Okounkov body of a volume-zero class: a point or a vertical segment on
    the axis t = 0."""

    kind: str  # "Point" | "Segment"
    base_y: Fraction
    top: Optional[Fraction]


# ---------------------------------------------------------------------------
# chamber machinery
# ---------------------------------------------------------------------------


def _walk_class(model: SurfaceModel, alpha: Vec, direction: Vec) -> tuple:
    """(alpha, ld, d, along, la, a, pairs): direction = d / ld and alpha =
    a / la, scaled once per walk by model.pairing_ints, in that order, and
    their curve pairings along and pairs over ld * dd and la * dd (the
    duals' denominator)."""
    ld, d, _, along = model.pairing_ints(direction)
    la, a, _, pairs = model.pairing_ints(alpha)
    return alpha, ld, d, along, la, a, pairs


def _chamber_at(model, walk, t0, fallback_end=None):
    """The chamber starting at t0 along alpha + t*direction, and whether it
    ends at the terminal root of Z(t)^2; the one start of every walk.

    ``walk`` is _walk_class's data.  The chamber starts with one checked
    decomposition of alpha + t0*direction, one Fraction per coordinate from
    the walk's numerators, whose P^2 must be positive: at t0 = 0 that is
    _require_big(alpha), the bigness test of every walk, and past 0 a
    failure is an invariant breach.  Its support is a subset of the
    chamber's, which is the support of
    alpha + (t0 + eps)*direction for a formal positive infinitesimal eps:
    _grow_support over the two integer columns (alpha + t0*direction) . C_j
    and direction . C_j, read off the walk's two pairing rows and started
    there, reaches it, and its eps-parts are the slopes of the affine
    formulas.

    From the walk's numerators to the returned chamber everything is
    integer numerators: with t0 = p/q and the growth's parts c0 = a0/D0,
    c1 = a1/D1 (coefficients) and h = r0/D0, h1 = r1/D1 (pairings),
    z1 = d - sum c1*C and z0 = P - t0*z1, P from the numerators the
    decomposition keeps; the checks (reconstruction, pairings against the
    decomposition's P.C_j and against z1, nef) are integer equalities and
    sign tests, the events are found in u = t - t0, and Fractions are built
    only for the chamber's fields; it keeps the numerators as ints =
    (den0, z0, den1, z1, den, c0, d1, c1, h0, h1), h0 over den and h1 over
    d1 (den, d1 > 0).  It ends at the first event after t0, or at
    fallback_end when none lies ahead.
    """
    alpha, ld, d_nums, along, la, a_nums, a_pairs = walk
    p, q = t0.numerator, t0.denominator
    if t0 == 0:
        dec = _require_big(model, alpha)
    else:
        dec = _decompose_or_none(model, tuple(
            Fraction(q * ld * x + p * la * y, q * la * ld) for x, y in zip(a_nums, d_nums)))
        if dec is None or not dec.volume(model) > 0:
            raise InvariantError(f"class at t = {t0} is not big")
    dd, duals = model.duals
    start = [q * ld * x + p * la * y for x, y in zip(a_pairs, along)]
    try:
        support, (d0, d1), (a0, a1), (r0, r1) = _grow_support(
            model, (start, along), (q * la * ld * dd, ld * dd), dec.support)
    except NotPseudoEffective as exc:
        raise InvariantError(f"class just after t = {t0} is not big") from exc
    den = q * d0 * d1  # x0/D0 - t0*x1/D1 = (q*D1*x0 - p*D0*x1) / den
    coeff0 = [q * d1 * x - p * d0 * y for x, y in zip(a0, a1)]
    h0 = [q * d1 * x - p * d0 * y for x, y in zip(r0, r1)]
    cd = model._curve_ints[0]
    z1 = [x * d1 * cd - y * ld for x, y in zip(d_nums, _curve_sum(model, support, a1))]
    den1 = ld * d1 * cd
    lp, p_nums, pd, p_pairs = dec.positive_ints
    z0 = [x * q * den1 - p * lp * y for x, y in zip(p_nums, z1)]
    den0 = lp * q * den1
    back = _curve_sum(model, support, coeff0)  # sum coeff0*C, over den * cd
    s0, s1, s2 = den * cd * la, den0 * la, den0 * den * cd
    if any(x * s0 + y * s1 != a * s2 for x, y, a in zip(z0, back, a_nums)):
        raise InvariantError("chamber formulas do not reconstruct the class")
    if (any(x * pd != y * d0 for x, y in zip(r0, p_pairs))
            or any(sum(map(mul, z1, row)) * d1 != y * den1 * dd for row, y in zip(duals, r1))):
        raise InvariantError("chamber pairings disagree with the positive part")
    if any(r1[i] for i in support) or any(v < (0, 0) for v in zip(r0, r1)):
        raise InvariantError("chamber positive part not nef in model")
    gd, gram = model._gram_ints
    g0, g1 = ([sum(map(mul, row, z)) for row in gram] for z in (z0, z1))
    w11 = sum(map(mul, z1, g1))
    square = (Fraction(sum(map(mul, z0, g0)), den0 * den0 * gd),
              Fraction(2 * sum(map(mul, z0, g1)), den0 * den1 * gd),
              Fraction(w11, den1 * den1 * gd))
    # affine events: u = x/y * D1/D0 for each decreasing coefficient and
    # off-support pairing, the smallest by cross-multiplication
    in_support = set(support)
    ratios = [(x, -y) for x, y in zip(a0, a1) if y < 0]
    ratios += [(x, -y) for j, (x, y) in enumerate(zip(r0, r1)) if y < 0 and j not in in_support]
    affine_next = None
    if ratios:
        x, y = min(ratios, key=cmp_to_key(lambda r, s: r[0] * s[1] - s[0] * r[1]))
        affine_next = t0 + Fraction(x * d1, y * d0)
    # Z(t0 + u)^2 = e0 + e1*u + e2*u^2 with e0 = P^2 > 0, e1 = 2*P.z1 and
    # e2 = z1^2: its smallest positive root is -e0/e1 when e2 = 0 and e1 < 0,
    # else (-e1 - sqrt(e1^2 - 4*e2*e0)) / (2*e2) when real and e2 < 0 or e1 < 0
    m1 = sum(map(mul, p_nums, g1))  # P.z1 over lp * den1 * gd
    terminal = None
    if w11 == 0 and m1 < 0:
        terminal = t0 - dec.positive_square / Fraction(2 * m1, lp * den1 * gd)
    elif w11 and (w11 < 0 or m1 < 0):
        e1, e2 = Fraction(2 * m1, lp * den1 * gd), square[2]
        disc = e1 * e1 - 4 * e2 * dec.positive_square
        if disc >= 0:
            root = sqrt_rat(disc)
            if isinstance(root, QuadExt):
                terminal = QuadExt._of(t0 - e1 / (2 * e2), -root.q / (2 * e2), root.d)
            else:
                terminal = t0 - (e1 + root) / (2 * e2)
    if isinstance(terminal, QuadExt) and affine_next is not None:
        w, v = terminal.p - affine_next, terminal.q  # sign of w + v*sqrt(d), no QuadExt built
        last = quad_sign(w.numerator * v.denominator, v.numerator * w.denominator, terminal.d) < 0
    else:
        last = terminal is not None and (affine_next is None or terminal <= affine_next)
    t1 = terminal if last else (fallback_end if affine_next is None else affine_next)
    if t1 is None:
        raise InvariantError("chamber walk found no event ahead")
    ints = (den0, z0, den1, z1, den, coeff0, d1, a1, h0, r1)
    z0, z1 = (tuple(Fraction(x, d) for x in z) for z, d in ((z0, den0), (z1, den1)))
    coeff0, h0 = (tuple(Fraction(x, den) for x in v) for v in (coeff0, h0))
    coeff1, h1 = (tuple(Fraction(x, d1) for x in v) for v in (a1, r1))
    return SegmentChamber(t0, t1, support, z0, z1, coeff0, coeff1, h0, h1, square, ints), last


def _values_at(chamber: SegmentChamber, p: int, q: int) -> tuple:
    """(dz, z, dc, c): Z(p/q) = z / dz and the support coefficients at p/q,
    c[i] / dc for curve i, from the chamber's kept numerators."""
    den0, z0, den1, z1, den, c0, d1, c1 = chamber.ints[:8]
    z = [q * den1 * x + p * den0 * y for x, y in zip(z0, z1)]
    c = {i: q * d1 * x + p * den * y for i, x, y in zip(chamber.support, c0, c1)}
    return q * den0 * den1, z, q * den * d1, c


def _assert_continuity(prev: SegmentChamber, nxt: SegmentChamber):
    """Adjacent chambers agree at their rational breakpoint on Z(t) and on
    every coefficient (absent = 0), by cross-multiplied numerators."""
    t = prev.t_hi
    dz, z, dc, c = _values_at(prev, t.numerator, t.denominator)
    ez, w, ec, e = _values_at(nxt, t.numerator, t.denominator)
    if any(x * ez != y * dz for x, y in zip(z, w)):
        raise InvariantError("adjacent chamber formulas disagree at the breakpoint")
    if any(c.get(i, 0) * ec != e.get(i, 0) * dc for i in c.keys() | e.keys()):
        raise InvariantError("adjacent chamber coefficients disagree at the breakpoint")


def _require_big(model: SurfaceModel, alpha: Vec) -> ZariskiDecomp:
    dec = zariski_decompose(model, alpha)  # NotPseudoEffective propagates
    if dec.volume(model) <= 0:
        raise NotBig("operation requires a big class")
    return dec


def segment_chambers(model: SurfaceModel, alpha: Vec, curve) -> list[SegmentChamber]:
    """Exact chamber list covering [0, s] along alpha - t*C for big alpha.

    Each chamber costs one decomposition, of the class at its start, and one
    support growth just past it (see _chamber_at); the first decomposition
    also tests that alpha is big.  -C and alpha are scaled to integer
    numerators and paired with the curves once per walk (_walk_class).  A
    chamber's end is the smallest of the coefficient zeros, the off-support
    orthogonality crossings, and the terminal root of Z(t)^2, which ends the
    walk and may be a quadratic irrational.  Adjacent chambers must agree at
    their breakpoint (over integers), and no curve but C may leave the
    support, since N(D + E) <= N(D) + E for effective E.
    """
    index = model.resolve_curve(curve)
    walk = _walk_class(model, alpha, tuple(-x for x in model.curve_class(index)))
    chambers: list[SegmentChamber] = []
    t0 = Fraction(0)
    while True:
        chamber, last = _chamber_at(model, walk, t0)
        if chambers:
            _assert_continuity(chambers[-1], chamber)
            if not set(chambers[-1].support) - {index} <= set(chamber.support):
                raise InvariantError("a curve other than C left the negative part")
        chambers.append(chamber)
        if last:
            return chambers
        t0 = chamber.t_hi


def first_chamber_along(model: SurfaceModel, alpha: Vec, direction: Vec) -> SegmentChamber:
    """Affine decomposition formulas valid on (0, eps) along alpha + t*direction
    for big alpha: the first chamber of that walk (see _chamber_at), which
    also tests that alpha is big.  t_hi is the first event (terminal or
    not), or 1 when no event lies ahead."""
    walk = _walk_class(model, alpha, direction)
    return _chamber_at(model, walk, Fraction(0), Fraction(1))[0]


# ---------------------------------------------------------------------------
# slopes, envelopes, polygons
# ---------------------------------------------------------------------------


def _slope_a_from_chambers(chambers: Sequence[SegmentChamber], index: int):
    """First parameter from which Z(t).C stays positive; rational.  Z(t).C
    is h0/den + t*h1/d1 on a chamber, signed at its rational start over the
    kept numerators."""
    for ch in chambers:
        _, _, _, _, den, _, d1, _, h0, h1 = ch.ints
        h0, h1, t = h0[index], h1[index], ch.t_lo
        v_lo = t.denominator * d1 * h0 + t.numerator * den * h1
        if v_lo > 0:
            if t != 0:
                raise InvariantError("Z(t).C jumped to positive mid-walk")
            return t
        if v_lo < 0:
            raise InvariantError("Z(t).C negative inside the walk")
        if h1 > 0:
            return t
        if h1 < 0:
            raise InvariantError("Z(t).C decreasing from zero inside the walk")
    raise InvariantError("Z(t).C vanishes along the entire segment")


def slopes(model: SurfaceModel, alpha: Vec, curve) -> tuple[ExtRat, ExtRat]:
    """(a, s): where the flag curve leaves the non-Kahler locus of alpha - t*C,
    and where the volume of alpha - t*C hits zero."""
    index = model.resolve_curve(curve)
    return chamber_slopes(segment_chambers(model, alpha, index), index)


def chamber_slopes(chambers: Sequence[SegmentChamber], index: int) -> tuple[ExtRat, ExtRat]:
    """slopes read off the chamber list of the walk along curve ``index``."""
    return _slope_a_from_chambers(chambers, index), chambers[-1].t_hi


def envelopes(
    model: SurfaceModel, alpha: Vec, flag: FlagSpec
) -> tuple[PiecewiseLinear, PiecewiseLinear]:
    """Lower and upper piecewise-linear envelopes f <= g on [a, s].

    f is the multiplicity-weighted negative-part contribution at the flag
    point, g adds Z(t).C, read off each chamber's kept pairings.  The flag
    curve itself never carries a coefficient on (a, s); the walk data is
    asserted to agree.
    """
    validate_flag(model, flag)
    return _envelopes_of(segment_chambers(model, alpha, flag.curve), flag)[:2]


def _at(x0: int, x1: int, e0: int, e1: int, t) -> tuple[int, int, int]:
    """x0/e0 + t*x1/e1 at a breakpoint t = p + q*sqrt(d) (q = 0 when t is
    rational) as integers (A, B, L): the value is (A + B*sqrt(d)) / L."""
    if isinstance(t, QuadExt):
        pn, pd, qn, qd = t.p.numerator, t.p.denominator, t.q.numerator, t.q.denominator
    else:
        pn, pd, qn, qd = t.numerator, t.denominator, 0, 1
    return (x0 * e1 * pd + pn * x1 * e0) * qd, qn * x1 * e0 * pd, e0 * e1 * pd * qd


def _envelopes_of(chambers: Sequence[SegmentChamber], flag: FlagSpec) -> tuple:
    """(f, g, bends): envelopes read off the chamber list of the walk along
    the flag curve, and at each inner breakpoint a pair of integers whose
    signs are those of f's and of g's change of slope there.

    With the flag multiplicities n_i / md over their least common
    denominator md, f is sum n_i*c_i(t) / md and the width g - f is Z(t).C,
    both x0/(md*den) + t*x1/(md*d1) on a chamber from its kept numerators,
    so the slopes f1/e1 and g1/e1 (e1 = md*d1 > 0) are compared by
    cross-multiplication; Fractions and QuadExts are built only for the
    values.
    """
    index = flag.curve
    a = _slope_a_from_chambers(chambers, index)
    sub = [ch for ch in chambers if not ch.t_lo < a]
    if not sub or sub[0].t_lo != a:
        raise InvariantError("parameter a is not a chamber boundary")
    mults = {i: m for i, m in flag.mults if m}
    md = lcm(*(m.denominator for m in mults.values()))
    mults = {i: m.numerator * (md // m.denominator) for i, m in mults.items()}
    lines = []
    for ch in sub:
        _, _, _, _, den, c0, d1, c1, h0, h1 = ch.ints
        f0 = f1 = 0
        for i, x, y in zip(ch.support, c0, c1):
            if i == index and (x or y):
                raise InvariantError("flag curve carries a coefficient beyond a")
            n = mults.get(i, 0)
            f0, f1 = f0 + n * x, f1 + n * y
        lines.append((f0, f1, f0 + md * h0[index], f1 + md * h1[index], md * den, md * d1))
    breakpoints = (a, *(ch.t_hi for ch in sub))
    d = breakpoints[-1].d if isinstance(breakpoints[-1], QuadExt) else 1
    f_vals, g_vals, below = [], [], False
    for (f0, f1, g0, g1, e0, e1), t in zip([lines[0], *lines], breakpoints):
        fa, fb, den = _at(f0, f1, e0, e1, t)
        ga, gb, _ = _at(g0, g1, e0, e1, t)
        below = below or quad_sign(ga - fa, gb - fb, d) < 0
        f_vals.append(quad_of_ints(fa, fb, d, den))
        g_vals.append(quad_of_ints(ga, gb, d, den))
    f = PiecewiseLinear(breakpoints, tuple(f_vals))
    g = PiecewiseLinear(breakpoints, tuple(g_vals))
    if below:
        raise InvariantError("lower envelope exceeds upper envelope")
    sl = [(f1, g1, e1) for _, f1, _, g1, _, e1 in lines]
    return f, g, [(y * e - x * c, v * e - w * c) for (x, w, e), (y, v, c) in zip(sl, sl[1:])]


def _envelope_vertices(f: PiecewiseLinear, g: PiecewiseLinear, bends) -> ConvexPolygon:
    """The region between a convex f and a concave g >= f on their common
    breakpoints, with bends as _envelopes_of gives them, as a canonical
    polygon: f's chain from (a, f(a)) to (s, f(s)), then g's chain back to
    a, keeping a breakpoint only where the slope changes and g's end points
    only where g leaves f."""
    a, s = f.breakpoints[0], f.breakpoints[-1]
    inner = list(zip(f.breakpoints[1:-1], f.values[1:-1], g.values[1:-1], bends))
    bottom = [(a, f.values[0])] + [(t, v) for t, v, _, (x, _) in inner if x]
    bottom.append((s, f.values[-1]))
    top = [(t, w) for t, _, w, (_, y) in inner if y]
    if g.values[0] != f.values[0]:
        top.insert(0, (a, g.values[0]))
    if g.values[-1] != f.values[-1]:
        top.append((s, g.values[-1]))
    return ConvexPolygon(bottom + top[::-1])


def okounkov_polygon(model: SurfaceModel, alpha: Vec, flag: FlagSpec) -> OkounkovPolygon:
    """The region between f and g over [a, s], as an exact convex polygon.

    The vertices are those of the two envelope chains, checked convex and
    concave first (by the bends of _envelopes_of), counter-clockwise
    from the leftmost-lowest vertex (a, f(a)); they equal the convex hull of
    the envelope breakpoints.  Twice the shoelace area must reproduce the
    volume of the class, and the vertex count is bounded by 2*rank + 2.
    Both facts are verified on every call; the volume is Z(0)^2, the
    constant term the first chamber of the walk keeps, so alpha is
    decomposed only by the walk.
    """
    validate_flag(model, flag)
    chambers = segment_chambers(model, alpha, flag.curve)
    f, g, bends = _envelopes_of(chambers, flag)
    if any(x < 0 for x, _ in bends):
        raise InvariantError("lower envelope is not convex")
    if any(y > 0 for _, y in bends):
        raise InvariantError("upper envelope is not concave")
    vertices = _envelope_vertices(f, g, bends)
    if len(vertices) < 3:
        raise InvariantError("degenerate polygon for a big class")
    vol, area = chambers[0].square[0], shoelace_area(vertices)
    if 2 * area != vol:
        raise InvariantError(f"polygon area identity failed: 2*{area} != volume {vol}")
    if len(vertices) > 2 * model.rank + 2:
        raise InvariantError("vertex count exceeds 2*rank + 2")
    a, s = f.breakpoints[0], f.breakpoints[-1]
    return OkounkovPolygon(a=a, s=s, f=f, g=g, vertices=vertices, area=area)


def _flag_base(dec: ZariskiDecomp, flag: FlagSpec) -> Fraction:
    """Multiplicity-weighted negative part of a decomposition at the flag point."""
    mults = flag.mult_map()
    return sum(
        (mults.get(i, Fraction(0)) * a for i, a in zip(dec.support, dec.coeffs)),
        Fraction(0),
    )


def restricted_body(
    model: SurfaceModel, alpha: Vec, flag: FlagSpec
) -> tuple[Fraction, Fraction]:
    """Restriction of the body of a big class to the flag curve: the interval
    [f(0), f(0) + Z.C], defined when the flag curve avoids the non-Kahler
    locus of the class."""
    validate_flag(model, flag)
    dec = _require_big(model, alpha)
    if flag.curve in _non_kahler_of(model, dec):
        raise FlagInNonKahlerLocus(
            f"curve {model.curve_name(flag.curve)!r} lies in the non-Kahler locus"
        )
    base = _flag_base(dec, flag)
    width = dec.positive_pairings[flag.curve]
    return base, base + width


def boundary_body(model: SurfaceModel, alpha: Vec, flag: FlagSpec) -> BoundaryBody:
    """Okounkov body of a pseudo-effective class of volume zero: a point when
    the numerical dimension is 0, a vertical segment of length Z.C when it
    is 1 (requiring Z.C > 0)."""
    validate_flag(model, flag)
    dec = _decompose_or_none(model, alpha)
    cls = _classification_of(model, dec)
    if cls.kind is not Kind.BOUNDARY:
        raise NotOnBoundary(f"class is {cls.kind.value}, not on the boundary")
    base = _flag_base(dec, flag)
    if cls.numdim == 0:
        if flag.curve in dec.support:
            raise HypothesisViolated(
                "flag curve lies in the support of the negative part"
            )
        return BoundaryBody(kind="Point", base_y=base, top=None)
    width = dec.positive_pairings[flag.curve]
    if width == 0:
        raise HypothesisViolated(
            "numerical dimension 1 requires Z.C > 0 for the flag curve"
        )
    return BoundaryBody(kind="Segment", base_y=base, top=base + width)
