"""Fraction references for the integer kernels of support growth and the
chamber walk: the growth that solves each round afresh and pairs its
residual through the curve table, the root search and event list that
okounkov._chamber_at once ran over Fraction formulas, that chamber's
formulas, and the continuity test of adjacent chambers.  The kernel scales
each class to integer numerators once, keeps them from the growth to the
returned chamber and finds its events in u = t - t0; these are the
independent routes its tests compare against."""

from __future__ import annotations

from fractions import Fraction

from zok.errors import InvariantError, NotPseudoEffective
from zok.exact import sqrt_rat
from zok.lattice import gram_product, negative_solve
from zok.okounkov import SegmentChamber
from zok.zariski import zariski_decompose


def smallest_quadratic_root_above(c0: Fraction, c1: Fraction, c2: Fraction, t0: Fraction):
    """Smallest real root of c2*t**2 + c1*t + c0 strictly above t0, or None."""
    if c2 == 0:
        if c1 == 0:
            return None
        r = -c0 / c1
        return r if r > t0 else None
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return None
    sq = sqrt_rat(disc)
    roots = [(-c1 - sq) / (2 * c2), (-c1 + sq) / (2 * c2)]
    ahead = [r for r in roots if r > t0]
    return min(ahead) if ahead else None


def chamber_events(support, coeff0, coeff1, h0, h1, quadratic, t0):
    """(next affine event strictly after t0 or None, terminal root or None).

    The coefficients are coeff0[k] + t*coeff1[k], the pairings Z(t).C_j are
    h0[j] + t*h1[j], and Z(t)^2 = c0 + c1*t + c2*t**2 for quadratic =
    (c0, c1, c2).
    """
    affine: list[Fraction] = []
    for p, q in zip(coeff0, coeff1):
        if q < 0:
            r = -p / q
            if r > t0:
                affine.append(r)
    in_support = set(support)
    for i, (p, q) in enumerate(zip(h0, h1)):
        if q < 0 and i not in in_support:
            r = -p / q
            if r > t0:
                affine.append(r)
    terminal = smallest_quadratic_root_above(*quadratic, t0)
    return (min(affine) if affine else None), terminal


def residual_pairings(model, pairs, support, coeffs) -> tuple:
    """(u - sum coeffs[k] * C_support[k]) . C_j for every curve j, from
    pairs = u . C_j and the curve Gram table."""
    table = model.curve_gram
    return tuple(v - sum((a * table[i][j] for i, a in zip(support, coeffs)), Fraction(0))
                 for j, v in enumerate(pairs))


def reference_continuity(prev: SegmentChamber, nxt: SegmentChamber) -> None:
    """The reference for okounkov._assert_continuity, over Fractions: Z(t)
    and every coefficient (absent = 0) of two adjacent chambers agree at
    t = prev.t_hi."""
    t = prev.t_hi
    if prev.z_at(t) != nxt.z_at(t):
        raise InvariantError("adjacent chamber formulas disagree at the breakpoint")
    prev_map = {i: p + t * q for i, p, q in zip(prev.support, prev.coeff0, prev.coeff1)}
    nxt_map = {i: p + t * q for i, p, q in zip(nxt.support, nxt.coeff0, nxt.coeff1)}
    for i in set(prev_map) | set(nxt_map):
        if prev_map.get(i, 0) != nxt_map.get(i, 0):
            raise InvariantError("adjacent chamber coefficients disagree at the breakpoint")


def reference_growth(model, columns, start=()):
    """The reference for zariski._grow_support, over Fractions: every round
    solves its support Gram matrix afresh (negative_solve) and pairs the
    residual through the curve table (residual_pairings)."""
    zero = (0,) * len(columns)
    support: list[int] = []
    coeffs: tuple = ((),) * len(columns)
    left = columns
    entering = list(start)
    while True:
        in_support = set(support)
        entering += [j for j, v in enumerate(zip(*left)) if v < zero and j not in in_support]
        if not entering:
            return tuple(support), coeffs, left
        support = sorted(set(support + entering))
        entering = []
        gram = model.gram_submatrix(support)
        coeffs = negative_solve(gram, [[col[i] for i in support] for col in columns])
        if coeffs is None:
            raise NotPseudoEffective("support Gram matrix is not negative definite")
        for a in zip(*coeffs):
            if a < zero:
                raise NotPseudoEffective("negative coefficient in support solve")
            if a == zero:
                raise InvariantError(
                    "zero coefficient in support solve; model violates "
                    "the strict-positivity hypotheses"
                )
        left = tuple(residual_pairings(model, col, support, a) for col, a in zip(columns, coeffs))


def reference_chamber(model, alpha, direction, t0, fallback_end=None):
    """(chamber, last) as okounkov._chamber_at returns them, over Fractions:
    the decomposition at t0, the Fraction growth over the two columns
    (alpha + t0*d) . C_j and d . C_j, the affine formulas by vector
    arithmetic, Z(t)^2 by gram_product, and the events by chamber_events."""
    cls = tuple(a + t0 * d for a, d in zip(alpha, direction))
    dec = zariski_decompose(model, cls)
    curves = [model.curve_class(j) for j in range(len(model.curves))]
    columns = tuple(tuple(gram_product(model.gram, u, c) for c in curves) for u in (cls, direction))
    support, (c0, c1), (h, h1) = reference_growth(model, columns, dec.support)
    coeff0 = tuple(p - t0 * q for p, q in zip(c0, c1))
    h0 = tuple(p - t0 * q for p, q in zip(h, h1))
    z1 = tuple(direction)
    for a, i in zip(c1, support):
        z1 = tuple(x - a * c for x, c in zip(z1, curves[i]))
    z1 = tuple(Fraction(x) for x in z1)
    z0 = tuple(p - t0 * x for p, x in zip(dec.positive, z1))
    square = (gram_product(model.gram, z0, z0), 2 * gram_product(model.gram, z0, z1),
              gram_product(model.gram, z1, z1))
    affine, terminal = chamber_events(support, coeff0, c1, h0, h1, square, t0)
    last = terminal is not None and (affine is None or not affine < terminal)
    t1 = terminal if last else (fallback_end if affine is None else affine)
    return SegmentChamber(t0, t1, support, z0, z1, coeff0, c1, h0, h1, square), last
