"""Fraction references for the integer kernels of support growth and the
chamber walk: the growth that solves each round afresh and pairs its
residual through the curve table, the root search and event list that
okounkov._chamber_at once ran over Fraction formulas, that chamber's
formulas, the walk that decomposed the class at every chamber start, and
the continuity test of adjacent chambers.  The kernel scales
each class to integer numerators once, keeps them from the growth to the
returned chamber and finds its events in u = t - t0; these are the
independent routes its tests compare against.  The reference chambers
are SegmentChambers built from their Fraction formulas (fraction_chamber,
each over its least common denominator), so they compare with zok's by
value, by == and by repr.

Also Fraction references, built on gram_product, for the operations on
top of a decomposition that zariski runs over integer numerators: the nef
test, the null locus, the volume derivative, the Morse certificate, the
orthogonal nef lift and the perturbed decomposition, with the checks,
exceptions and texts of each in the same order.

And the Fraction bordered solve (negative_solve, over the Fraction step
_border) that the integer bordering step, lattice._border, replaced, as
the reference for the support table and the definiteness test; and the
Fraction pivoted step (_pivot_out), with the signature and solve_linear
that ran on it, which the integer pivoted step of lattice replaced.

And the polygon kernel over Fraction and QuadExt arithmetic that the
integer rows of zok.polygon replaced (hull, normalization, shoelace area,
Minkowski merge, containment, with cross and _dir_cross), QuadExt.sign as
it was, and the envelopes and polygon that okounkov once read off the
chambers' Fraction fields (f_at, g_at, and slopes by
PiecewiseLinear.slopes).

And vec_add and vec_scale, the Fraction vector arithmetic that zok no
longer does, for building the tests' classes."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from zok.errors import (
    EpsilonTooLarge,
    InvariantError,
    NotBig,
    NotNef,
    NotPseudoEffective,
    UnknownCurve,
    UnsupportedDirection,
)
from zok.exact import ext_sign, parse_rat, sqrt_rat
from zok.lattice import Mat, Vec, _check_symmetric, _dot, _over_lcm, gram_product
from zok.okounkov import (
    OkounkovPolygon,
    PiecewiseLinear,
    SegmentChamber,
    segment_chambers,
    validate_flag,
)
from zok.polygon import ConvexPolygon
from zok.zariski import MorseCertificate, ZariskiDecomp, _checked, zariski_decompose


def _exact(x):
    """x itself when already a Fraction, else x as a Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def checked(model, alpha: Vec, support: Sequence[int], coeffs: Sequence) -> ZariskiDecomp:
    """zariski._checked on a rational alpha and coefficients, each scaled to
    integers over its least common denominator.  P = alpha - N keeps the
    first rank coordinates of a longer alpha, which fails to reconstruct."""
    alpha = tuple(alpha)
    return _checked(model, alpha, *_over_lcm(alpha[:model.rank]), support, *_over_lcm(coeffs))


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c, u: Vec) -> Vec:
    c = _exact(c)
    return tuple(c * a for a in u)


def _border(cross: Sequence, r_j: Sequence, s_j, y_j, r_y: Sequence) -> tuple[Vec, Fraction]:
    """One bordering step, the elimination kernel: G_{S+j}^-1 * y_{S+j} from
    r_y = G_S^-1 * y_S, for a negative-definite index set S and an index j
    outside it, with cross = G[j][S], r_j = G_S^-1 * cross and the Schur
    pivot s_j = G[j][j] - cross . r_j < 0.  With b = y_j - cross . r_y and
    t = b / s_j, returns ((r_y - t * r_j, t), t * b); when y is the column
    of an index k outside S + j, t * b is how much k's pivot drops."""
    b = y_j - _dot(cross, r_y)
    if not b:
        return (*r_y, b), b
    t = b / s_j
    return (*(x - t * y if y else x for x, y in zip(r_y, r_j)), t), t * b


def negative_solve(matrix: Mat, columns: Sequence[Sequence] = ()) -> Optional[tuple[Vec, ...]]:
    """(matrix^-1 * col for col in columns) when the symmetric matrix is
    negative definite, else None.  Exact on integer entries too.

    Borders the indices in order (see _border): index k's Schur pivot and
    r_k come from bordering its column through the earlier ones, so a
    matrix that fails at k has touched only its leading k+1 rows.  Pivot k
    is the ratio of the leading principal minors of sizes k+1 and k, so by
    Sylvester's criterion no pivot search is needed."""
    if any(len(col) != len(matrix) for col in columns):
        raise ValueError(f"right-hand side must have length {len(matrix)}")
    steps: list[tuple] = []  # (G[k][:k], r_k, s_k) for each bordered index k

    def through(col) -> tuple[Vec, Fraction]:
        x, total = (), 0
        for step, y in zip(steps, col):
            x, drop = _border(*step, y, x)
            total += drop
        return x, total

    for k, row in enumerate(matrix):
        r, drop = through(row)
        s = _exact(row[k]) - drop
        if s >= 0:
            return None
        steps.append((row[:k], r, s))
    return tuple(through(col)[0] for col in columns)


def _pivot_out(rows, pivot: Sequence, k: int) -> None:
    """One pivoted elimination step, in place: each row loses row[k] / pivot[k]
    times the pivot row, which clears its entry k."""
    for row in rows:
        if row[k]:
            f = row[k] / pivot[k]
            row[:] = [a - f * b if b else a for a, b in zip(row, pivot)]


def reference_signature(gram: Mat) -> tuple[int, int, int]:
    """Inertia (n_plus, n_minus, n_zero) of a symmetric rational matrix.

    Congruence diagonalization with greedy symmetric pivoting on the
    largest-magnitude diagonal entry, each step (_pivot_out) leaving the
    Schur complement.  When every remaining diagonal entry is zero but some
    off-diagonal entry m[i][j] is not, the symmetric update row/col i +=
    row/col j creates the pivot 2*m[i][j] (the standard rank-2 split, no
    perturbation needed).  An indefinite form needs this pivot search; a
    definiteness test does not (see is_negative_definite).  Exact, hence
    Sylvester-invariant.
    """
    _check_symmetric(gram)
    n = len(gram)
    block = [[_exact(x) for x in row] for row in gram]
    plus = minus = 0
    while block:
        size = len(block)
        k = max(range(size), key=lambda i: abs(block[i][i]))
        if block[k][k] == 0:
            pair = next(
                ((i, j) for i in range(size) for j in range(i + 1, size) if block[i][j] != 0),
                None,
            )
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            for row in block:
                row[i] += row[j]
            block[i] = [a + b for a, b in zip(block[i], block[j])]
            continue
        pivot = block.pop(k)
        plus += pivot[k] > 0
        minus += pivot[k] < 0
        _pivot_out(block, pivot, k)
        for row in block:
            del row[k]
    return plus, minus, n - plus - minus


def reference_solve_linear(matrix: Mat, rhs: Sequence) -> Vec:
    """Exact solution of matrix * x = rhs by Gauss-Jordan elimination with a
    pivot search; raises ValueError when singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("need a square system")
    a = [[_exact(x) for x in row] + [_exact(r)] for row, r in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        a[col], a[pivot] = a[pivot], a[col]
        _pivot_out(a[:col] + a[col + 1:], a[col], col)
    return tuple(a[i][n] / a[i][i] for i in range(n))


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
    return fraction_chamber(t0, t1, support, z0, z1, coeff0, c1, square, h0, h1), last


def fraction_chamber(t_lo, t_hi, support, z0, z1, coeff0, coeff1, square, h0, h1):
    """The SegmentChamber with these Fraction formulas and curve pairings
    h0 + t*h1: z0 and z1 each as numerators over their least common
    denominator, coeff0 with h0 and coeff1 with h1 over theirs, and each
    term of square as its numerator and denominator."""
    def over_lcm(*vectors):
        den = lcm(*(x.denominator for v in vectors for x in v))
        return den, *([x.numerator * (den // x.denominator) for x in v] for v in vectors)

    (den0, n0), (den1, n1) = over_lcm(z0), over_lcm(z1)
    (den, c0, k0), (d1, c1, k1) = over_lcm(coeff0, h0), over_lcm(coeff1, h1)
    square_ints = tuple((c.numerator, c.denominator) for c in square)
    return SegmentChamber(t_lo, t_hi, support, den0=den0, z0n=n0, den1=den1, z1n=n1, den=den,
                          c0=c0, d1=d1, c1=c1, h0=k0, h1=k1, square_ints=square_ints)


# -- the operations on top of a decomposition, over Fractions ------------------


def reference_walk(model, alpha, curve) -> list:
    """The chamber list along alpha - t*C as segment_chambers once built it:
    every chamber starts from a decomposition of its start class, through
    reference_chamber, and the walk ends with the chamber that reaches the
    terminal root."""
    direction = tuple(-x for x in model.curve_class(model.resolve_curve(curve)))
    chambers, last, t0 = [], False, Fraction(0)
    while not last:
        chamber, last = reference_chamber(model, alpha, direction, t0)
        chambers.append(chamber)
        t0 = chamber.t_hi
    return chambers


def _pair(model, u, v) -> Fraction:
    return gram_product(model.gram, u, v)


def _curve_pairings(model, u) -> tuple:
    """u . C_i for every curve, after the checks every pairing of a class
    makes: its length (ValueError), then its scalars (TypeError)."""
    if len(u) != model.rank:
        raise ValueError(f"vector length must be {model.rank}")
    kinds = {type(x) for x in u} - {Fraction, int}
    if kinds:
        names = sorted(k.__name__ for k in kinds)
        raise TypeError(f"unsupported scalars in a class vector: {names}")
    return tuple(_pair(model, u, c.cls) for c in model.curves)


def reference_is_nef(model, alpha) -> bool:
    if any(v < 0 for v in _curve_pairings(model, alpha)):
        return False
    return _pair(model, alpha, alpha) >= 0 and _pair(model, alpha, model.kahler) >= 0


def reference_null_curves(model, z) -> tuple:
    if not reference_is_nef(model, z):
        raise NotNef("null locus needs a nef-in-model class")
    if _pair(model, z, z) <= 0:
        raise NotBig("null locus needs positive self-intersection")
    return tuple(i for i, v in enumerate(_curve_pairings(model, z)) if v == 0)


def reference_derivative_vol(model, alpha, beta) -> Fraction:
    positive = zariski_decompose(model, alpha).positive
    if _pair(model, positive, positive) <= 0:
        raise NotBig("derivative requires a big class")
    if not reference_is_nef(model, beta) and not any(
            tuple(beta) == tuple(c.cls) for c in model.curves):
        raise UnsupportedDirection("direction is neither nef-in-model nor a listed curve class")
    return 2 * _pair(model, positive, beta)


def reference_morse_gap(model, alpha, beta) -> MorseCertificate:
    if not reference_is_nef(model, alpha):
        raise NotNef("first class is not nef in model")
    if not reference_is_nef(model, beta):
        raise NotNef("second class is not nef in model")
    lhs = _pair(model, alpha, alpha) - 2 * _pair(model, alpha, beta)
    try:
        positive = zariski_decompose(model, tuple(a - b for a, b in zip(alpha, beta))).positive
        vol = _pair(model, positive, positive)
    except NotPseudoEffective:
        vol = None
    big = vol is not None and vol > 0
    if lhs > 0 and not big:
        raise InvariantError("Morse hypothesis holds but difference is not big")
    if lhs > 0 and vol < lhs:
        raise InvariantError("Morse volume bound violated")
    return MorseCertificate(lhs=lhs, conclusion_big=big, vol=vol, holds=True)


def reference_orthogonal_nef_lift(model, family, omega=None) -> tuple:
    """b solved afresh (negative_solve on the family's Gram matrix), the lift
    omega + sum(b_i N_i) by vector arithmetic, its checks by gram_product."""
    family = tuple(family)
    if not family:
        raise ValueError("family must be nonempty")
    for i in family:
        if type(i) is not int or not 0 <= i < len(model.curves):
            raise UnknownCurve(f"no curve with index {i}")
    family = tuple(sorted(family))
    if omega is None:
        omega = model.kahler
    try:
        on_curves = _curve_pairings(model, omega)
    except (TypeError, ValueError) as exc:
        on_curves = exc  # raised after the definiteness test
    on_family = on_curves if isinstance(on_curves, Exception) else [on_curves[i] for i in family]
    gram = model.gram_submatrix(family)
    if negative_solve(gram) is None:
        raise ValueError("family Gram matrix is not negative definite")
    if isinstance(on_family, Exception):
        raise on_family
    if any(p <= 0 for p in on_family):
        raise ValueError("omega must meet every family curve positively")
    (b,) = negative_solve(gram, [[-p for p in on_family]])
    if any(x <= 0 for x in b):
        raise InvariantError("lift coefficients must be positive")
    lifted = [Fraction(x) for x in omega]
    for bi, i in zip(b, family):
        lifted = [x + bi * c for x, c in zip(lifted, model.curve_class(i))]
    lifted = tuple(lifted)
    pairs = _curve_pairings(model, lifted)
    if any(pairs[i] != 0 for i in family):
        raise InvariantError("lift not orthogonal to family")
    if (any(v < 0 for v in pairs) or _pair(model, lifted, lifted) <= 0
            or _pair(model, lifted, model.kahler) < 0):
        raise InvariantError("lifted class not big and nef in model")
    return lifted, tuple(b)


def reference_perturbed_decomposition(model, alpha, omega, eps):
    eps = parse_rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    _curve_pairings(model, omega)  # its length and scalars, before the form meets omega
    if _pair(model, omega, omega) <= 0 or any(v <= 0 for v in _curve_pairings(model, omega)):
        raise ValueError("omega must be Kahler-like: positive square and "
                         "positive against every listed curve")
    dec = zariski_decompose(model, alpha)
    shifted = tuple(a + eps * w for a, w in zip(alpha, omega))
    if not dec.support:
        return zariski_decompose(model, shifted)
    lifted, b = reference_orthogonal_nef_lift(model, dec.support, omega)
    threshold = min(a / bi for a, bi in zip(dec.coeffs, b))
    if eps >= threshold:
        raise EpsilonTooLarge(threshold)
    coeffs = tuple(a - eps * bi for a, bi in zip(dec.coeffs, b))
    try:
        closed = checked(model, shifted, dec.support, coeffs)
    except NotPseudoEffective as exc:
        raise InvariantError("positive part not nef in model") from exc
    if closed.positive != tuple(p + eps * x for p, x in zip(dec.positive, lifted)):
        raise InvariantError("perturbed positive part is not P + eps * lift")
    if closed != zariski_decompose(model, shifted):
        raise InvariantError("perturbation formula disagrees with direct decomposition")
    return closed


# -- the polygon kernel and the envelopes, over Fractions and QuadExts --------


def reference_sign(p, q, d) -> int:
    """Sign of p + q*sqrt(d) for rational p, q: QuadExt.sign as it was, over
    Fractions."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return 1 if q > 0 else -1
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    lhs, rhs = p * p, q * q * d
    if p > 0:  # q < 0
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _dir_cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def reference_convex_hull(points) -> ConvexPolygon:
    """Monotone-chain hull, counter-clockwise, collinear points dropped."""
    pts = sorted(set((p[0], p[1]) for p in points))
    if len(pts) <= 1:
        return ConvexPolygon(pts)
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and ext_sign(cross(lower[-2], lower[-1], p)) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and ext_sign(cross(upper[-2], upper[-1], p)) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 2 and hull[0] == hull[1]:
        return ConvexPolygon(hull[:1])
    return ConvexPolygon(hull)


def _on_segment(p, a, b) -> bool:
    if ext_sign(cross(a, b, p)) != 0:
        return False
    d = (b[0] - a[0], b[1] - a[1])
    t = (p[0] - a[0]) * d[0] + (p[1] - a[1]) * d[1]
    return ext_sign(t) >= 0 and t <= d[0] * d[0] + d[1] * d[1]


def reference_normalize_convex(points) -> ConvexPolygon:
    if not points:
        raise ValueError("polygon needs at least one vertex")
    if type(points) is ConvexPolygon:
        return points
    hull = reference_convex_hull(points)
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


def reference_shoelace_area(vertices):
    total = Fraction(0)
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        total = total + (x0 * y1 - x1 * y0)
    return total / 2


def _half(v) -> int:
    sx = ext_sign(v[0])
    return 0 if sx > 0 or (sx == 0 and ext_sign(v[1]) > 0) else 1


def _edges(vs) -> list:
    if len(vs) == 1:
        return []
    return [(b[0] - a[0], b[1] - a[1]) for a, b in zip(vs, vs[1:] + vs[:1])]


def reference_minkowski_sum(p, q) -> ConvexPolygon:
    pv = reference_normalize_convex(p)
    qv = reference_normalize_convex(q)
    ep, eq = _edges(pv), _edges(qv)
    merged: list = []
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


def reference_polygon_contains(p, q) -> bool:
    pv = reference_normalize_convex(p)
    qv = reference_normalize_convex(q)
    if len(pv) == 1:
        return all(v == pv[0] for v in qv)
    if len(pv) == 2:
        return all(_on_segment(v, pv[0], pv[1]) for v in qv)
    edges = list(zip(pv, _edges(pv)))
    for v in qv:
        for a, e in edges:
            if ext_sign(_dir_cross(e, (v[0] - a[0], v[1] - a[1]))) < 0:
                return False
    return True


def reference_pairing(model, ch, index) -> tuple:
    """(h0, h1) with Z(t).C_index = h0 + t*h1 on the chamber: z0 and z1
    paired with the curve by gram_product."""
    c = model.curve_class(index)
    return gram_product(model.gram, ch.z0, c), gram_product(model.gram, ch.z1, c)


def reference_slope_a(model, chambers, index):
    """okounkov.chamber_slopes's a over the chambers' Fraction fields."""
    for ch in chambers:
        h0, h1 = reference_pairing(model, ch, index)
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


def reference_envelopes_of(model, chambers, flag) -> tuple:
    """(f, g) read off the chambers' Fraction fields by f_at and g_at."""
    index = flag.curve
    a = reference_slope_a(model, chambers, index)
    sub = [ch for ch in chambers if not ch.t_lo < a]
    if not sub or sub[0].t_lo != a:
        raise InvariantError("parameter a is not a chamber boundary")
    mults = flag.mult_map()
    for ch in sub:
        if index in ch.support:
            k = ch.support.index(index)
            if ch.coeff0[k] != 0 or ch.coeff1[k] != 0:
                raise InvariantError("flag curve carries a coefficient beyond a")

    def f_at(ch, t):
        total = Fraction(0)
        for i, p, q in zip(ch.support, ch.coeff0, ch.coeff1):
            m = mults.get(i)
            if m:
                total += m * (p + t * q)
        return total

    def g_at(ch, t):
        h0, h1 = reference_pairing(model, ch, index)
        return f_at(ch, t) + h0 + t * h1

    breakpoints = [a]
    f_vals = [f_at(sub[0], a)]
    g_vals = [g_at(sub[0], a)]
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


def reference_okounkov_polygon(model, alpha, flag) -> OkounkovPolygon:
    """okounkov_polygon over the envelopes' values: slopes and kinks by
    PiecewiseLinear.slopes, the area by the Fraction shoelace."""
    validate_flag(model, flag)
    chambers = segment_chambers(model, alpha, flag.curve)
    f, g = reference_envelopes_of(model, chambers, flag)
    fs, gs = f.slopes(), g.slopes()
    if any(s1 < s0 for s0, s1 in zip(fs, fs[1:])):
        raise InvariantError("lower envelope is not convex")
    if any(s0 < s1 for s0, s1 in zip(gs, gs[1:])):
        raise InvariantError("upper envelope is not concave")
    a, s = f.breakpoints[0], f.breakpoints[-1]

    def kinks(pl, slopes):
        inner = zip(pl.breakpoints[1:-1], pl.values[1:-1], slopes, slopes[1:])
        return [(t, v) for t, v, s0, s1 in inner if s0 != s1]

    bottom = [(a, f.values[0])] + kinks(f, fs) + [(s, f.values[-1])]
    top = kinks(g, gs)
    if g.values[0] != f.values[0]:
        top.insert(0, (a, g.values[0]))
    if g.values[-1] != f.values[-1]:
        top.append((s, g.values[-1]))
    vertices = ConvexPolygon(bottom + top[::-1])
    if len(vertices) < 3:
        raise InvariantError("degenerate polygon for a big class")
    area = reference_shoelace_area(vertices)
    vol = chambers[0].square[0]
    if 2 * area != vol:
        raise InvariantError(f"polygon area identity failed: 2*{area} != volume {vol}")
    if len(vertices) > 2 * model.rank + 2:
        raise InvariantError("vertex count exceeds 2*rank + 2")
    return OkounkovPolygon(a=a, s=s, f=f, g=g, vertices=vertices, area=area)
