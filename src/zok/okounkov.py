"""Chamber walk along alpha - t*C, piecewise-linear envelopes, generalized
Okounkov polygons for big classes, restricted bodies, and the point/segment
bodies on the volume-zero boundary.

The walk is exact: within a chamber the negative-part support is constant,
so the orthogonality system makes the coefficients and the positive part
affine in t.  Each chamber is read off one decomposition at t0 + eps, just
past its start t0, with eps a formal positive infinitesimal (symbolic
perturbation): that decomposition has the chamber's support, and its
entries are the affine formulas.  Breakpoints are roots of affine functions
(hence rational); only the terminal endpoint, where the positive part's
square vanishes, can be a quadratic irrational, represented exactly in
Q(sqrt(d)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
from .exact import EpsPoly, ExtRat, smallest_quadratic_root_above
from .lattice import SurfaceModel, Vec, vec_add, vec_scale
from .polygon import Point, convex_hull, shoelace_area
from .zariski import (
    Kind,
    ZariskiDecomp,
    _non_kahler_of,
    classify,
    zariski_decompose,
)


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
        items = tuple(sorted((int(i), Fraction(m)) for i, m in (mults or {}).items()))
        return FlagSpec(curve=curve, mults=items)


def validate_flag(model: SurfaceModel, flag: FlagSpec) -> None:
    if not 0 <= flag.curve < len(model.curves):
        raise UnknownCurve(f"no curve with index {flag.curve}")
    for i, m in flag.mults:
        if i == flag.curve:
            raise ValueError("flag multiplicities exclude the flag curve itself")
        if not 0 <= i < len(model.curves):
            raise UnknownCurve(f"no curve with index {i}")
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

    On [t_lo, t_hi]: Z(t) = z0 + t*z1 and the coefficient of support curve
    support[k] is coeff0[k] + t*coeff1[k]; all decomposition invariants hold
    on the open interval and extend continuously to the endpoints.
    """

    t_lo: ExtRat
    t_hi: ExtRat
    support: tuple[int, ...]
    z0: Vec
    z1: Vec
    coeff0: tuple[Fraction, ...]
    coeff1: tuple[Fraction, ...]

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


def _affine_parts(values, t0) -> tuple[tuple, tuple]:
    """(p, q) with values[k] = p[k] + (t0 + eps)*q[k]; entries must be affine in eps."""
    parts = [x.coeffs if isinstance(x, EpsPoly) else (x, Fraction(0)) for x in values]
    if any(len(c) != 2 for c in parts):
        raise InvariantError("chamber formula is not affine in the parameter")
    return tuple(v - t0 * q for v, q in parts), tuple(q for _, q in parts)


def _chamber_events(model, support, coeff0, coeff1, z0, z1, t0):
    """(next affine event strictly after t0 or None, terminal root or None)."""
    affine: list[Fraction] = []
    for p, q in zip(coeff0, coeff1):
        if q < 0:
            r = -p / q
            if r > t0:
                affine.append(r)
    in_support = set(support)
    for i, (h0, h1) in enumerate(zip(model.pairings(z0), model.pairings(z1))):
        if h1 < 0 and i not in in_support:
            r = -h0 / h1
            if r > t0:
                affine.append(r)
    c0 = model.intersect(z0, z0)
    c1 = 2 * model.intersect(z0, z1)
    c2 = model.intersect(z1, z1)
    terminal = smallest_quadratic_root_above(c0, c1, c2, t0)
    return (min(affine) if affine else None), terminal


def _chamber_after(model, alpha, direction, t0, fallback_end=None):
    """The chamber just after t0 along alpha + t*direction, and whether it
    ends at the terminal root of Z(t)^2.

    One decomposition of alpha + (t0 + eps)*direction, eps a formal positive
    infinitesimal, has the chamber's support; the eps-parts of its entries
    are the slopes of the affine formulas.  The chamber ends at the first
    event after t0, or at fallback_end when none lies ahead.
    """
    just_after = vec_add(alpha, vec_scale(EpsPoly.new((t0, 1)), direction))
    try:
        dec = zariski_decompose(model, just_after)
    except NotPseudoEffective as exc:
        raise InvariantError(f"class just after t = {t0} is not pseudo-effective") from exc
    if not dec.volume(model) > 0:
        raise InvariantError(f"class just after t = {t0} is not big")
    coeff0, coeff1 = _affine_parts(dec.coeffs, t0)
    z0, z1 = _affine_parts(dec.positive, t0)
    affine_next, terminal = _chamber_events(model, dec.support, coeff0, coeff1, z0, z1, t0)
    last = terminal is not None and (affine_next is None or not affine_next < terminal)
    t1 = terminal if last else (fallback_end if affine_next is None else affine_next)
    if t1 is None:
        raise InvariantError("chamber walk found no event ahead")
    return SegmentChamber(t0, t1, dec.support, z0, z1, coeff0, coeff1), last


def _assert_continuity(model, prev: SegmentChamber, nxt: SegmentChamber):
    t = prev.t_hi
    if prev.z_at(t) != nxt.z_at(t):
        raise InvariantError("adjacent chamber formulas disagree at the breakpoint")
    prev_map = {i: p + t * q for i, p, q in zip(prev.support, prev.coeff0, prev.coeff1)}
    nxt_map = {i: p + t * q for i, p, q in zip(nxt.support, nxt.coeff0, nxt.coeff1)}
    for i in set(prev_map) | set(nxt_map):
        if prev_map.get(i, 0) != nxt_map.get(i, 0):
            raise InvariantError("adjacent chamber coefficients disagree at the breakpoint")


def _require_big(model: SurfaceModel, alpha: Vec) -> ZariskiDecomp:
    dec = zariski_decompose(model, alpha)  # NotPseudoEffective propagates
    if dec.volume(model) <= 0:
        raise NotBig("operation requires a big class")
    return dec


def _resolve_curve(model: SurfaceModel, curve) -> int:
    if isinstance(curve, str):
        try:
            return model.curve_index(curve)
        except KeyError:
            raise UnknownCurve(f"no curve named {curve!r}") from None
    index = int(curve)
    if not 0 <= index < len(model.curves):
        raise UnknownCurve(f"no curve with index {curve}")
    return index


def segment_chambers(
    model: SurfaceModel, alpha: Vec, curve, big: Optional[ZariskiDecomp] = None
) -> list[SegmentChamber]:
    """Exact chamber list covering [0, s] along alpha - t*C for big alpha.

    Each chamber costs one decomposition, of the class just after its start
    (see _chamber_after); its end is the smallest of the coefficient zeros,
    the off-support orthogonality crossings, and the terminal root of
    Z(t)^2, which ends the walk and may be a quadratic irrational.  Adjacent
    chambers must agree at their breakpoint, and no curve but C may leave
    the support, since N(D + E) <= N(D) + E for effective E.  ``big`` is
    the caller's decomposition of alpha from _require_big, if it has one.
    """
    index = _resolve_curve(model, curve)
    if big is None:
        _require_big(model, alpha)
    direction = vec_scale(-1, model.curve_class(index))
    chambers: list[SegmentChamber] = []
    t0 = Fraction(0)
    while True:
        chamber, last = _chamber_after(model, alpha, direction, t0)
        if chambers:
            _assert_continuity(model, chambers[-1], chamber)
            if not set(chambers[-1].support) - {index} <= set(chamber.support):
                raise InvariantError("a curve other than C left the negative part")
        chambers.append(chamber)
        if last:
            return chambers
        t0 = chamber.t_hi


def first_chamber_along(model: SurfaceModel, alpha: Vec, direction: Vec) -> SegmentChamber:
    """Affine decomposition formulas valid on (0, eps) along alpha + t*direction
    for big alpha, from one decomposition just after t = 0.  t_hi is the
    first event (terminal or not), or 1 when no event lies ahead."""
    _require_big(model, alpha)
    return _chamber_after(model, alpha, direction, Fraction(0), Fraction(1))[0]


# ---------------------------------------------------------------------------
# slopes, envelopes, polygons
# ---------------------------------------------------------------------------


def _slope_a_from_chambers(model, chambers: Sequence[SegmentChamber], index: int):
    """First parameter from which Z(t).C stays positive; rational."""
    for ch in chambers:
        h0 = model.pairing(ch.z0, index)
        h1 = model.pairing(ch.z1, index)
        v_lo = h0 + ch.t_lo * h1
        if v_lo > 0:
            if ch.t_lo != 0:
                raise InvariantError("Z(t).C jumped to positive mid-walk")
            return ch.t_lo
        if v_lo < 0:
            raise InvariantError("Z(t).C negative inside the walk")
        if h1 > 0:
            return ch.t_lo
        if h1 < 0:
            raise InvariantError("Z(t).C decreasing from zero inside the walk")
    raise InvariantError("Z(t).C vanishes along the entire segment")


def slopes(model: SurfaceModel, alpha: Vec, curve) -> tuple[ExtRat, ExtRat]:
    """(a, s): where the flag curve leaves the non-Kahler locus of alpha - t*C,
    and where the volume of alpha - t*C hits zero."""
    index = _resolve_curve(model, curve)
    return chamber_slopes(model, segment_chambers(model, alpha, index), index)


def chamber_slopes(
    model: SurfaceModel, chambers: Sequence[SegmentChamber], index: int
) -> tuple[ExtRat, ExtRat]:
    """slopes read off the chamber list of the walk along curve ``index``."""
    return _slope_a_from_chambers(model, chambers, index), chambers[-1].t_hi


def envelopes(
    model: SurfaceModel, alpha: Vec, flag: FlagSpec, big: Optional[ZariskiDecomp] = None
) -> tuple[PiecewiseLinear, PiecewiseLinear]:
    """Lower and upper piecewise-linear envelopes f <= g on [a, s].

    f is the multiplicity-weighted negative-part contribution at the flag
    point, g adds Z(t).C.  The flag curve itself never carries a coefficient
    on (a, s); the walk data is asserted to agree.  ``big`` is passed on to
    segment_chambers.
    """
    validate_flag(model, flag)
    index = flag.curve
    chambers = segment_chambers(model, alpha, index, big)
    a = _slope_a_from_chambers(model, chambers, index)
    sub = [ch for ch in chambers if not ch.t_lo < a]
    if not sub or sub[0].t_lo != a:
        raise InvariantError("parameter a is not a chamber boundary")
    mults = flag.mult_map()
    for ch in sub:
        if index in ch.support:
            k = ch.support.index(index)
            if ch.coeff0[k] != 0 or ch.coeff1[k] != 0:
                raise InvariantError("flag curve carries a coefficient beyond a")

    def f_at(ch: SegmentChamber, t):
        total = Fraction(0)
        for i, p, q in zip(ch.support, ch.coeff0, ch.coeff1):
            m = mults.get(i)
            if m:
                total += m * (p + t * q)
        return total

    def g_at(ch: SegmentChamber, t):
        return f_at(ch, t) + model.pairing(ch.z_at(t), index)

    breakpoints: list[ExtRat] = [a]
    f_vals: list[ExtRat] = [f_at(sub[0], a)]
    g_vals: list[ExtRat] = [g_at(sub[0], a)]
    for ch in sub:
        breakpoints.append(ch.t_hi)
        f_vals.append(f_at(ch, ch.t_hi))
        g_vals.append(g_at(ch, ch.t_hi))
    f = PiecewiseLinear(tuple(breakpoints), tuple(f_vals))
    g = PiecewiseLinear(tuple(breakpoints), tuple(g_vals))
    for fv, gv in zip(f.values, g.values):
        if gv < fv:
            raise InvariantError("lower envelope exceeds upper envelope")
    return f, g


def okounkov_polygon(model: SurfaceModel, alpha: Vec, flag: FlagSpec) -> OkounkovPolygon:
    """The region between f and g over [a, s], as an exact convex polygon.

    The vertices are the convex hull of the envelope breakpoints, counter-
    clockwise from the lowest-leftmost point (a, f(a)).  Twice the shoelace
    area must reproduce the volume of the class, and the vertex count is
    bounded by 2*rank + 2.  Both facts are verified on every call; the
    volume is that of the one direct decomposition of alpha, which also
    tells the walk that alpha is big.
    """
    validate_flag(model, flag)
    dec = _require_big(model, alpha)
    f, g = envelopes(model, alpha, flag, dec)
    a, s = f.breakpoints[0], f.breakpoints[-1]
    bottom = list(zip(f.breakpoints, f.values))
    top = list(zip(g.breakpoints, g.values))
    vertices = convex_hull(bottom + top[::-1])
    if len(vertices) < 3:
        raise InvariantError("degenerate polygon for a big class")
    area = shoelace_area(vertices)
    vol = dec.volume(model)
    if 2 * area != vol:
        raise InvariantError(
            f"polygon area identity failed: 2*{area} != volume {vol}"
        )
    if len(vertices) > 2 * model.rank + 2:
        raise InvariantError("vertex count exceeds 2*rank + 2")
    fs, gs = f.slopes(), g.slopes()
    if any(s1 < s0 for s0, s1 in zip(fs, fs[1:])):
        raise InvariantError("lower envelope is not convex")
    if any(s0 < s1 for s0, s1 in zip(gs, gs[1:])):
        raise InvariantError("upper envelope is not concave")
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
    width = model.pairing(dec.positive, flag.curve)
    return base, base + width


def boundary_body(model: SurfaceModel, alpha: Vec, flag: FlagSpec) -> BoundaryBody:
    """Okounkov body of a pseudo-effective class of volume zero: a point when
    the numerical dimension is 0, a vertical segment of length Z.C when it
    is 1 (requiring Z.C > 0)."""
    validate_flag(model, flag)
    cls = classify(model, alpha)
    if cls.kind is not Kind.BOUNDARY:
        raise NotOnBoundary(f"class is {cls.kind.value}, not on the boundary")
    dec = zariski_decompose(model, alpha)
    base = _flag_base(dec, flag)
    if cls.numdim == 0:
        if flag.curve in dec.support:
            raise HypothesisViolated(
                "flag curve lies in the support of the negative part"
            )
        return BoundaryBody(kind="Point", base_y=base, top=None)
    width = model.pairing(dec.positive, flag.curve)
    if width == 0:
        raise HypothesisViolated(
            "numerical dimension 1 requires Z.C > 0 for the flag curve"
        )
    return BoundaryBody(kind="Segment", base_y=base, top=base + width)
