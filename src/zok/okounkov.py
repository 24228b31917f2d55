"""Chamber walk along alpha - t*C, piecewise-linear envelopes, generalized
Okounkov polygons for big classes, restricted bodies, and the point/segment
bodies on the volume-zero boundary.

The walk is exact: within a chamber the negative-part support is constant,
so the orthogonality system makes the coefficients and the positive part
affine in t.  A walk scales alpha to integer numerators and pairs it with
the curves once; a walk along -C reads C's numerators and pairings off the
model's curve tables.  Its start is one integer check of alpha's
decomposition, which also tests bigness and builds no Fraction (zariski's
_check_ints, the check behind every decomposition).  Each chamber starts
from the end of the one before; support growth over the two integer
columns of t0 + eps, eps a formal positive infinitesimal signed
lexicographically (symbolic perturbation), reaches its support, and its
two solves are the affine formulas.  The formulas, their checks, the
events and the continuity of adjacent chambers run over integer
numerators, and a chamber keeps only those: a chamber that does not end
the walk builds one Fraction, its end, and its Fraction fields are built
when read.
Breakpoints are roots of affine functions (hence rational); only the
terminal endpoint, where the positive part's square vanishes, can be a
quadratic irrational, represented exactly in Q(sqrt(d)).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .errors import (FlagInNonKahlerLocus, HypothesisViolated, InvariantError, NotBig,
                     NotOnBoundary, NotPseudoEffective, UnknownCurve)
from .exact import ExtRat, QuadExt, parse_rat, quad_of_ints, quad_sign, sqrt_rat
from .lattice import IntClass, SurfaceModel, Vec
from .polygon import ConvexPolygon, Point
from .zariski import (Kind, ZariskiDecomp, _check_ints, _classification_of, _decompose_or_none,
                      _grow_support, _non_kahler_of, _require_big)


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
        den, table = model._curve_gram_ints
        cap = table[i][flag.curve]
        if m.numerator * den > cap * m.denominator:
            raise ValueError(
                f"multiplicity {m} for curve {model.curve_name(i)!r} exceeds its "
                f"total intersection {Fraction(cap, den)} with the flag curve"
            )


@dataclass(frozen=True, eq=False, repr=False)
class SegmentChamber:
    """One maximal parameter interval with constant negative-part support.

    On [t_lo, t_hi]: Z(t) = z0 + t*z1, the coefficient of support curve
    support[k] is coeff0[k] + t*coeff1[k], and Z(t)^2 = s0 + s1*t + s2*t**2
    for square = (s0, s1, s2); all decomposition invariants hold on the open
    interval and extend continuously to the endpoints.

    A chamber is its integer numerators: z0 = z0n / den0, z1 = z1n / den1,
    coeff0 = c0 / den, coeff1 = c1 / d1, the curve pairings Z(t).C_j =
    h0[j] / den + t * h1[j] / d1 (den, d1 > 0), and square_ints = ((n0,
    e0), (n1, e1), (n2, e2)) with s_k = n_k / e_k.  z0, z1, coeff0, coeff1
    and square are Fraction views of them, built on first read; equality,
    hash and repr are those of (t_lo, t_hi, support, z0, z1, coeff0,
    coeff1, square), so numerators that differ by a common factor give
    equal chambers.
    """

    t_lo: ExtRat
    t_hi: ExtRat
    support: tuple[int, ...]
    den0: int
    z0n: Sequence[int]
    den1: int
    z1n: Sequence[int]
    den: int
    c0: Sequence[int]
    d1: int
    c1: Sequence[int]
    h0: Sequence[int]
    h1: Sequence[int]
    square_ints: tuple

    z0 = cached_property(lambda self: _over(self.z0n, self.den0))
    z1 = cached_property(lambda self: _over(self.z1n, self.den1))
    coeff0 = cached_property(lambda self: _over(self.c0, self.den))
    coeff1 = cached_property(lambda self: _over(self.c1, self.d1))
    square = cached_property(lambda self: tuple(Fraction(n, e) for n, e in self.square_ints))

    def _fields(self) -> tuple:
        return (self.t_lo, self.t_hi, self.support, self.z0, self.z1, self.coeff0,
                self.coeff1, self.square)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        names = ("t_lo", "t_hi", "support", "z0", "z1", "coeff0", "coeff1", "square")
        return f"SegmentChamber({', '.join(f'{n}={v!r}' for n, v in zip(names, self._fields()))})"

    def z_at(self, t) -> tuple:
        return tuple(a + t * b for a, b in zip(self.z0, self.z1))

    def coeff_at(self, t) -> tuple:
        return tuple(p + t * q for p, q in zip(self.coeff0, self.coeff1))

    def coeff_pair(self, index: int) -> tuple[Fraction, Fraction]:
        k = self.support.index(index)
        return self.coeff0[k], self.coeff1[k]


def _over(nums, den: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(x, den) for x in nums)


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
        k = bisect_left(bps, t)
        if k < len(bps) and t == bps[k]:
            return vals[k]  # a breakpoint keeps its value; nothing to interpolate
        if k == 0 or k == len(bps):
            raise ValueError("evaluation outside the domain")
        lo, hi = bps[k - 1], bps[k]
        return vals[k - 1] + (vals[k] - vals[k - 1]) * (t - lo) / (hi - lo)

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


_ZERO = Fraction(0)


def _chamber_at(model, alpha: IntClass, direction: IntClass, prev=None, fallback_end=None):
    """The chamber along alpha + t*direction that starts where prev ends
    (at t0 = 0 without prev), and whether the walk ends with it.

    alpha and direction come as IntClasses: model.pairing_ints gives them,
    or _minus_curve reads -C off the curve tables.  At t0 = 0 the start is
    alpha's own check, over its numerators and pairings: one 1-column
    support growth, the integer decomposition check (zariski._check_ints)
    and the bigness gate NotBig, with no Fraction built; NotPseudoEffective
    propagates.  Past 0 it is read off prev's numerators at t0, evaluated
    once (_values_at): P = Z(t0), P.C_j, the seed support (the curves of
    non-zero coefficient) and P^2 > 0, else an invariant breach.  P^2 there
    is P's own square, one integer form product, not a number derived
    from prev's square_ints: it is the chamber's own bigness check, so it
    is kept independent of the chamber it follows.
    The chamber's support is that of alpha + (t0 + eps)*direction for a
    formal positive infinitesimal eps: _grow_support from the seed over the
    two integer columns (alpha + t0*direction) . C_j and direction . C_j,
    read off the two classes' pairings, reaches it, and its eps-parts are
    the affine slopes.

    With t0 = p/q and the growth's parts a0/D0, a1/D1 (coefficients) and
    r0/D0, r1/D1 (pairings), z1 = direction - sum a1/D1 * C and z0 = P -
    t0*z1; the checks (reconstruction, pairings against P.C_j and z1, nef,
    and continuity with prev at t0, where Z comes from z0 and z1 and the
    coefficients are a0/D0) and the events, in u = t - t0, run over
    integers.  z1 and the reconstruction read the support's curve rows in
    one pass, and the event is the first smallest, by one cross-
    multiplying pass.  The chamber keeps its numerators by name (see
    SegmentChamber) and Z(t)^2 as three integer fractions, read off
    Z(t0 + u)^2 = P^2 + 2u*P.z1 + u^2*z1^2.  It ends at the first event
    after t0, or at fallback_end when none lies ahead; the terminal root is
    taken only where integer signs put it at or before the first affine
    event.  A chamber that does not end the walk builds one Fraction, its
    t_hi.
    """
    t0 = _ZERO if prev is None else prev.t_hi
    p, q = t0.numerator, t0.denominator
    gd, gram = model._gram_ints
    dd, duals = model.duals
    if prev is None:
        seed, (lc,), (c,), _ = _grow_support(model, (alpha.pairs,), (alpha.pd,))
        pos = _check_ints(model, len(alpha.nums), alpha.den, alpha.nums, seed, lc, c)
        if pos.square <= 0:
            raise NotBig("operation requires a big class")
    else:  # P = Z(t0) and P.C_j, off prev's numerators
        dz, z, dc, c = _values_at(prev, p, q)
        g = gcd(dz, *z)  # reduced, so that numerators do not grow along the walk
        pos = IntClass(dz // g, [x // g for x in z], q * prev.den * prev.d1,
                       [q * prev.d1 * x + p * prev.den * y for x, y in zip(prev.h0, prev.h1)],
                       gram)
        seed = [i for i, x in c.items() if x]
        if pos.square <= 0:
            raise InvariantError(f"class at t = {t0} is not big")
    lp, k0 = pos.den, pos.den * pos.den * gd  # P^2 = pos.square / k0
    ap, dp = alpha.pd, direction.pd
    start = [q * dp * x + p * ap * y for x, y in zip(alpha.pairs, direction.pairs)]
    try:
        support, (d0, d1), (a0, a1), (r0, r1) = _grow_support(
            model, (start, direction.pairs), (q * ap * dp, dp), seed)
    except NotPseudoEffective as exc:
        raise InvariantError(f"class just after t = {t0} is not big") from exc
    den = q * d0 * d1  # x0/D0 - t0*x1/D1 = (q*D1*x0 - p*D0*x1) / den
    c0 = [q * d1 * x - p * d0 * y for x, y in zip(a0, a1)]
    h0 = [q * d1 * x - p * d0 * y for x, y in zip(r0, r1)]
    cd, rows = model._curve_ints
    # sum a1*C over d1 * cd and sum c0*C over den * cd, per coordinate
    picked = [rows[i] for i in support]
    sums = [(sum(map(mul, a1, col)), sum(map(mul, c0, col))) for col in zip(*picked)]
    sums = sums or [(0, 0)] * model.rank
    z1n = [x * d1 * cd - y * direction.den for x, (y, _) in zip(direction.nums, sums)]
    den1 = direction.den * d1 * cd
    z0n = [x * q * den1 - p * lp * y for x, y in zip(pos.nums, z1n)]
    den0 = lp * q * den1
    s0, s1, s2 = den * cd * alpha.den, den0 * alpha.den, den0 * den * cd
    if any(x * s0 + y * s1 != a * s2 for x, (_, y), a in zip(z0n, sums, alpha.nums)):
        raise InvariantError("chamber formulas do not reconstruct the class")
    z1 = IntClass(den1, z1n, den1 * dd, [sum(map(mul, z1n, row)) for row in duals], gram)
    if (any(x * pos.pd != y * d0 for x, y in zip(r0, pos.pairs))
            or any(x * d1 != y * z1.pd for x, y in zip(z1.pairs, r1))):
        raise InvariantError("chamber pairings disagree with the positive part")
    if any(r1[i] for i in support) or any(v < (0, 0) for v in zip(r0, r1)):
        raise InvariantError("chamber positive part not nef in model")
    m1, w11 = sum(map(mul, pos.nums, z1.met)), z1.square  # P.z1, z1^2
    # Z(t0 + u)^2 = (f0 + f1*u + f2*u^2) / sd: f0/sd = P^2 > 0, f1/sd =
    # 2*P.z1 (m1 over lp*den1*gd), f2/sd = z1^2 (w11 over den1^2*gd)
    sd = k0 * lp * den1 * den1 * gd
    f0, f1, f2 = pos.square * lp * den1 * den1 * gd, 2 * m1 * den1 * k0, w11 * lp * k0
    square = ((f0 * q * q - f1 * p * q + f2 * p * p, sd * q * q), (f1 * q - 2 * f2 * p, sd * q),
              (f2, sd))
    # affine events: u = x/y * D1/D0 for each decreasing coefficient and
    # off-support pairing, the first smallest, u* = u/v > 0, by
    # cross-multiplication; Z^2 ends the walk if it has a root in (0, u*]
    in_support = set(support)
    ratios = [(x, -y) for x, y in zip(a0, a1) if y < 0]
    ratios += [(x, -y) for j, (x, y) in enumerate(zip(r0, r1)) if y < 0 and j not in in_support]
    event, last = None, True
    if ratios:
        x, y = ratios[0]
        for u, v in ratios:
            if u * y < x * v:
                x, y = u, v
        event = x * d1, y * d0
        last = _root_by(f0, f1, f2, *event)
    terminal = _terminal_root(p, q, f0, f1, f2, sd) if last and (w11 < 0 or m1 < 0) else None
    last = terminal is not None
    if last:
        t1 = terminal
    elif event is not None:
        u, v = event
        t1 = Fraction(p * v + q * u, q * v)
    elif fallback_end is None:
        raise InvariantError("chamber walk found no event ahead")
    else:
        t1 = fallback_end
    if prev is not None:  # Z(t0) from z0 and z1, the coefficients at t0 from the growth
        z = [q * den1 * x + p * den0 * y for x, y in zip(z0n, z1n)]
        _assert_continuity((lp, pos.nums, dc, c), (q * den0 * den1, z, d0, dict(zip(support, a0))))
    return SegmentChamber(t0, t1, support, den0=den0, z0n=z0n, den1=den1, z1n=z1n, den=den,
                          c0=c0, d1=d1, c1=a1, h0=h0, h1=r1, square_ints=square), last


def _terminal_root(p: int, q: int, f0: int, f1: int, f2: int, sd: int):
    """The root t of Z(t)^2 = (f0 + f1*u + f2*u^2) / sd, u = t - p/q, that
    ends the walk: -f0/f1 if f2 = 0, else (-f1 - sqrt(disc)) / (2*f2) with
    disc = f1^2 - 4*f2*f0 >= 0 (None when disc < 0).  The walk's one square
    root is that of disc / sd^2, the discriminant in the Fractions
    e_k = f_k / sd, so its radicand is split as that rational's."""
    if not f2:
        return Fraction(p * f1 - q * f0, q * f1)
    disc = f1 * f1 - 4 * f2 * f0
    if disc < 0:
        return None
    root = sqrt_rat(Fraction(disc, sd * sd))  # sqrt(disc) / sd
    if isinstance(root, QuadExt):
        r = root.q
        return QuadExt._of(Fraction(2 * f2 * p - q * f1, 2 * f2 * q),
                           Fraction(-r.numerator * sd, 2 * f2 * r.denominator), root.d)
    rn, rd = root.numerator, root.denominator
    return Fraction(2 * f2 * rd * p - q * (f1 * rd + rn * sd), 2 * f2 * rd * q)


def _root_by(f0: int, f1: int, f2: int, u: int, v: int) -> bool:
    """Whether f0 + f1*x + f2*x^2 with f0 > 0 has a root in (0, u/v], u, v > 0,
    by integer signs: f(u/v) <= 0, or f's vertex -f1/(2*f2) lies in (0, u/v)
    and f1^2 >= 4*f2*f0 (two roots there, or a double one)."""
    return (f0 * v * v + f1 * u * v + f2 * u * u <= 0
            or 0 < -f1 * v < 2 * f2 * u and f1 * f1 >= 4 * f2 * f0)


def _values_at(ch: SegmentChamber, p: int, q: int) -> tuple:
    """(dz, z, dc, c): Z(p/q) = z / dz and the support coefficients at p/q,
    c[i] / dc for curve i, from the chamber's kept numerators."""
    z = [q * ch.den1 * x + p * ch.den0 * y for x, y in zip(ch.z0n, ch.z1n)]
    c = {i: q * ch.d1 * x + p * ch.den * y for i, x, y in zip(ch.support, ch.c0, ch.c1)}
    return q * ch.den0 * ch.den1, z, q * ch.den * ch.d1, c


def _assert_continuity(before: tuple, after: tuple):
    """Adjacent chambers agree at their rational breakpoint on Z(t) and on
    every coefficient (absent = 0), by cross-multiplied numerators; before
    and after are each chamber's values there as _values_at gives them."""
    dz, z, dc, c = before
    ez, w, ec, e = after
    if any(x * ez != y * dz for x, y in zip(z, w)):
        raise InvariantError("adjacent chamber formulas disagree at the breakpoint")
    if any(c.get(i, 0) * ec != e.get(i, 0) * dc for i in c.keys() | e.keys()):
        raise InvariantError("adjacent chamber coefficients disagree at the breakpoint")


def _minus_curve(model: SurfaceModel, index: int) -> IntClass:
    """The IntClass of -C for the curve ``index``, read off the curve tables
    (SurfaceModel._curve_ints and _curve_gram_ints) with no product formed:
    nums over the curve classes' den, pairs over the curve Gram table's."""
    (cd, rows), (gd, table) = model._curve_ints, model._curve_gram_ints
    return IntClass(cd, [-x for x in rows[index]], gd, tuple(-x for x in table[index]),
                    model._gram_ints[1])


def segment_chambers(model: SurfaceModel, alpha: Vec, curve) -> list[SegmentChamber]:
    """Exact chamber list covering [0, s] along alpha - t*C for big alpha.

    One start check per walk, of alpha, which tests that it is big, and
    one support growth per chamber, just past its start (see _chamber_at).
    alpha is scaled to integer numerators and paired with the curves once
    per walk (model.pairing_ints); -C's numerators and pairings are read
    off the curve tables (_minus_curve).  A chamber's end is the smallest of the
    coefficient zeros, the off-support orthogonality crossings, and the
    terminal root of Z(t)^2, which ends the walk and may be a quadratic
    irrational.  Adjacent chambers must agree at their breakpoint (over
    integers), and no curve but C may leave the support, since N(D + E) <=
    N(D) + E for effective E.
    """
    index = model.resolve_curve(curve)
    d = _minus_curve(model, index)
    a = model.pairing_ints(alpha)
    chamber, last = _chamber_at(model, a, d)
    chambers = [chamber]
    while not last:
        chamber, last = _chamber_at(model, a, d, chambers[-1])
        if not set(chambers[-1].support) - {index} <= set(chamber.support):
            raise InvariantError("a curve other than C left the negative part")
        chambers.append(chamber)
    return chambers


def first_chamber_along(model: SurfaceModel, alpha: Vec, direction: Vec) -> SegmentChamber:
    """Affine decomposition formulas valid on (0, eps) along alpha + t*direction
    for big alpha: the first chamber of that walk (see _chamber_at), which
    also tests that alpha is big.  t_hi is the first event (terminal or
    not), or 1 when no event lies ahead.  The direction is scaled and
    paired before alpha."""
    d = model.pairing_ints(direction)
    return _chamber_at(model, model.pairing_ints(alpha), d, None, Fraction(1))[0]


# ---------------------------------------------------------------------------
# slopes, envelopes, polygons
# ---------------------------------------------------------------------------


def slopes(model: SurfaceModel, alpha: Vec, curve) -> tuple[ExtRat, ExtRat]:
    """(a, s): where the flag curve leaves the non-Kahler locus of alpha - t*C,
    and where the volume of alpha - t*C hits zero."""
    index = model.resolve_curve(curve)
    return chamber_slopes(segment_chambers(model, alpha, index), index)


def chamber_slopes(chambers: Sequence[SegmentChamber], index: int) -> tuple[ExtRat, ExtRat]:
    """slopes read off the chamber list of the walk along curve ``index``: s
    is the walk's end, and a the first parameter from which Z(t).C stays
    positive, rational.  Z(t).C is h0/den + t*h1/d1 on a chamber, signed at
    its rational start over the kept numerators."""
    s = chambers[-1].t_hi
    for ch in chambers:
        h0, h1, t = ch.h0[index], ch.h1[index], ch.t_lo
        v_lo = t.denominator * ch.d1 * h0 + t.numerator * ch.den * h1
        if v_lo > 0:
            if t != 0:
                raise InvariantError("Z(t).C jumped to positive mid-walk")
            return t, s
        if v_lo < 0:
            raise InvariantError("Z(t).C negative inside the walk")
        if h1 > 0:
            return t, s
        if h1 < 0:
            raise InvariantError("Z(t).C decreasing from zero inside the walk")
    raise InvariantError("Z(t).C vanishes along the entire segment")


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
    """(f, g, bends, area): envelopes read off the chamber list of the walk
    along the flag curve, at each inner breakpoint a pair of integers whose
    signs are those of f's and of g's change of slope there, and the area
    between f and g, summed as trapezoids of g - f over their integers.

    With the flag multiplicities n_i / md over their least common
    denominator md, f is sum n_i*c_i(t) / md and the width g - f is Z(t).C,
    both x0/(md*den) + t*x1/(md*d1) on a chamber from its kept numerators,
    so the slopes f1/e1 and g1/e1 (e1 = md*d1 > 0) are compared by
    cross-multiplication; Fractions and QuadExts are built only for the
    values.
    """
    index = flag.curve
    a = chamber_slopes(chambers, index)[0]
    sub = [ch for ch in chambers if not ch.t_lo < a]
    if not sub or sub[0].t_lo != a:
        raise InvariantError("parameter a is not a chamber boundary")
    mults = {i: m for i, m in flag.mults if m}
    md = lcm(*(m.denominator for m in mults.values()))
    mults = {i: m.numerator * (md // m.denominator) for i, m in mults.items()}
    lines = []
    for ch in sub:
        f0 = f1 = 0
        for i, x, y in zip(ch.support, ch.c0, ch.c1):
            if i == index and (x or y):
                raise InvariantError("flag curve carries a coefficient beyond a")
            n = mults.get(i, 0)
            f0, f1 = f0 + n * x, f1 + n * y
        lines.append((f0, f1, f0 + md * ch.h0[index], f1 + md * ch.h1[index], md * ch.den,
                      md * ch.d1))
    breakpoints = (a, *(ch.t_hi for ch in sub))
    d = breakpoints[-1].d if isinstance(breakpoints[-1], QuadExt) else 1
    f_vals, g_vals, rows, below = [], [], [], False
    for (f0, f1, g0, g1, e0, e1), t in zip([lines[0], *lines], breakpoints):
        fa, fb, den = _at(f0, f1, e0, e1, t)
        ga, gb, _ = _at(g0, g1, e0, e1, t)
        below = below or quad_sign(ga - fa, gb - fb, d) < 0
        f_vals.append(quad_of_ints(fa, fb, d, den))
        g_vals.append(quad_of_ints(ga, gb, d, den))
        rows.append((den, *_at(0, e1, e0, e1, t)[:2], ga - fa, gb - fb))
    f = PiecewiseLinear(breakpoints, tuple(f_vals))
    g = PiecewiseLinear(breakpoints, tuple(g_vals))
    if below:
        raise InvariantError("lower envelope exceeds upper envelope")
    big = lcm(*(r[0] for r in rows))  # (t, g - f) at each breakpoint over big
    rows = [[x * (big // r[0]) for x in r[1:]] for r in rows]
    a2 = b2 = 0  # sum of the trapezoids (t' - t)(w + w') in Q(sqrt(d))
    for (t, tb, w, wb), (s, sb, x, xb) in zip(rows, rows[1:]):
        a2 += (s - t) * (w + x) + (sb - tb) * (wb + xb) * d
        b2 += (s - t) * (wb + xb) + (sb - tb) * (w + x)
    sl = [(f1, g1, e1) for _, f1, _, g1, _, e1 in lines]
    bends = [(y * e - x * c, v * e - w * c) for (x, w, e), (y, v, c) in zip(sl, sl[1:])]
    return f, g, bends, quad_of_ints(a2, b2, d, 2 * big * big)


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
    the envelope breakpoints.  Twice its area (_envelopes_of) must reproduce
    the volume of the class, and the vertex count is bounded by 2*rank + 2.
    Both facts are verified on every call; the volume is Z(0)^2, the
    constant term the first chamber of the walk keeps as numerators, so
    alpha is decomposed only by the walk and the identity is one
    cross-multiplication (an irrational area fails it).
    """
    validate_flag(model, flag)
    chambers = segment_chambers(model, alpha, flag.curve)
    f, g, bends, area = _envelopes_of(chambers, flag)
    if any(x < 0 for x, _ in bends):
        raise InvariantError("lower envelope is not convex")
    if any(y > 0 for _, y in bends):
        raise InvariantError("upper envelope is not concave")
    vertices = _envelope_vertices(f, g, bends)
    if len(vertices) < 3:
        raise InvariantError("degenerate polygon for a big class")
    n0, e0 = chambers[0].square_ints[0]  # vol = n0 / e0
    if isinstance(area, QuadExt) or 2 * area.numerator * e0 != n0 * area.denominator:
        raise InvariantError(
            f"polygon area identity failed: 2*{area} != volume {Fraction(n0, e0)}")
    if len(vertices) > 2 * model.rank + 2:
        raise InvariantError("vertex count exceeds 2*rank + 2")
    a, s = f.breakpoints[0], f.breakpoints[-1]
    return OkounkovPolygon(a=a, s=s, f=f, g=g, vertices=vertices, area=area)


def _slice(dec: ZariskiDecomp, flag: FlagSpec) -> tuple[Fraction, Fraction]:
    """(f, f + P.C): the multiplicity-weighted negative part of a
    decomposition at the flag point, and that plus the positive part's
    pairing with the flag curve, read off its kept numbers."""
    mults = flag.mult_map()
    f = sum((mults.get(i, 0) * a for i, a in zip(dec.support, dec.coeffs)), Fraction(0))
    p = dec.positive_ints
    return f, f + Fraction(p.pairs[flag.curve], p.pd)


def restricted_body(model: SurfaceModel, alpha: Vec, flag: FlagSpec) -> tuple[Fraction, Fraction]:
    """Restriction of the body of a big class to the flag curve: the interval
    [f(0), f(0) + Z.C], defined when the flag curve avoids the non-Kahler
    locus of the class."""
    validate_flag(model, flag)
    dec = _require_big(model, alpha, "operation requires a big class")
    if flag.curve in _non_kahler_of(model, dec):
        raise FlagInNonKahlerLocus(
            f"curve {model.curve_name(flag.curve)!r} lies in the non-Kahler locus")
    return _slice(dec, flag)


def boundary_body(model: SurfaceModel, alpha: Vec, flag: FlagSpec) -> BoundaryBody:
    """Okounkov body of a pseudo-effective class of volume zero: a point when
    the numerical dimension is 0, a vertical segment of length Z.C when it
    is 1 (requiring Z.C > 0)."""
    validate_flag(model, flag)
    dec = _decompose_or_none(model, alpha)
    cls = _classification_of(model, dec)
    if cls.kind is not Kind.BOUNDARY:
        raise NotOnBoundary(f"class is {cls.kind.value}, not on the boundary")
    base, top = _slice(dec, flag)
    if cls.numdim == 0:
        if flag.curve in dec.support:
            raise HypothesisViolated("flag curve lies in the support of the negative part")
        return BoundaryBody(kind="Point", base_y=base, top=None)
    if top == base:
        raise HypothesisViolated("numerical dimension 1 requires Z.C > 0 for the flag curve")
    return BoundaryBody(kind="Segment", base_y=base, top=top)
