"""Divisorial Zariski decomposition on a surface model, and everything that
sits directly on top of it: classification by numerical dimension, volume,
volume derivatives, Morse-gap certificates, exceptional families, null loci,
orthogonal nef lifts, and the closed-form perturbation of a decomposition.

All cone language ("nef", "pseudo-effective", "big") is relative to the
model's finite curve list.  A failed decomposition cannot distinguish a
genuinely non-pseudo-effective class from a model whose curve list is
missing a relevant negative curve.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Optional, Sequence

from .errors import (
    EpsilonTooLarge,
    InvariantError,
    NotBig,
    NotNef,
    NotPseudoEffective,
    UnknownCurve,
    UnsupportedDirection,
    UsageError,
)
from .exact import parse_rat
from .lattice import IntClass, SurfaceModel, Vec, _over_lcm, record_sum, vec_is_zero

FAMILY_ENUMERATION_CAP = 20


@dataclass(frozen=True)
class ZariskiDecomp:
    """alpha = positive + sum(coeffs[i] * curve[i]) with positive nef-in-model,
    orthogonal to every support curve, and negative-definite support Gram.

    Every decomposition zok returns is built by _checked from alpha, the
    support and the integer numerators of alpha and of the coefficients, and
    keeps the positive part's numbers that the check computed, required and
    outside equality, repr and hash: P^2 and positive_ints, P's IntClass
    (P = nums / den, P.C_i = pairs[i] / pd, its square set), whose pairings
    positive_pairings builds as Fractions on first read.
    """

    alpha: Vec
    positive: Vec
    support: tuple[int, ...]
    coeffs: tuple[Fraction, ...]
    positive_square: Fraction = field(compare=False, repr=False)
    positive_ints: IntClass = field(compare=False, repr=False)

    @cached_property
    def positive_pairings(self) -> tuple:
        p = self.positive_ints
        return tuple(Fraction(v, p.pd) for v in p.pairs)

    def coeff_map(self) -> dict[int, Fraction]:
        return dict(zip(self.support, self.coeffs))

    def negative_part(self, model: SurfaceModel) -> Vec:
        """sum(coeffs[k] * C_support[k]): the coefficients scaled once and one
        integer product with the curve classes (_curve_sum)."""
        lc, nums = _over_lcm(self.coeffs)
        den = model._curve_ints[0] * lc
        return tuple(Fraction(x, den) for x in _curve_sum(model, self.support, nums))

    def volume(self) -> Fraction:
        return self.positive_square

    def numdim(self) -> int:
        if vec_is_zero(self.positive):
            return 0
        return 2 if self.volume() > 0 else 1


def _curve_sum(model: SurfaceModel, support: Sequence[int], nums: Sequence[int]) -> list[int]:
    """sum(nums[k] * C_support[k]) for integer nums, as integer numerators
    over the curve classes' common denominator (model._curve_ints)."""
    rows = model._curve_ints[1]
    picked = [rows[i] for i in support]
    if not picked:
        return [0] * model.rank
    return [sum(map(mul, nums, column)) for column in zip(*picked)]


class Kind(enum.Enum):
    NOT_PSEF = "NotPsefInModel"
    BOUNDARY = "Boundary"
    BIG = "Big"


@dataclass(frozen=True)
class Classification:
    kind: Kind
    numdim: Optional[int]  # None encodes -infinity


@dataclass(frozen=True)
class MorseCertificate:
    lhs: Fraction
    conclusion_big: bool
    vol: Optional[Fraction]
    holds: bool


def is_nef_in_model(model: SurfaceModel, alpha: Vec) -> bool:
    """Non-negative against every listed curve, with alpha^2 >= 0 and
    alpha.omega >= 0 to pin the positive-cone component.  alpha is scaled
    once and all three are integer sign tests (see _nef_ints)."""
    return _nef_ints(model, model.pairing_ints(alpha)) is not None


def _nef_ints(model: SurfaceModel, u: IntClass) -> Optional[IntClass]:
    """u when it is nef in the model, else None: its pairs, its square and
    nums against the Kahler row are non-negative.  Every denominator is
    positive, so each test is the sign of an integer."""
    if any(v < 0 for v in u.pairs):
        return None
    if u.square < 0 or sum(map(mul, u.nums, model._kahler_row)) < 0:
        return None
    return u


def _grow_support(model: SurfaceModel, columns: Sequence[Sequence[int]], dens: Sequence[int],
                  start=()) -> tuple:
    """(support, dens, coeff_nums, residual_nums): the support growth of
    Bauer's proof for the class x_j = sum(columns[m][j] / dens[m] * eps**m)
    paired with the curves, one integer column over dens[m] > 0 per power
    of a formal positive infinitesimal eps.

    Every sign is the lexicographic sign of a k-tuple (col_0[j], ..., col_k-1[j]),
    which is Python's tuple order against (0,)*k; with k = 1 it is the
    sign of an integer.  The support starts at ``start``, which must lie in
    the final support, and absorbs every curve the residual meets
    negatively, until stable.  A round reads its support's integer rows
    from the model's support table (SurfaceModel.support_forms, one solve
    per support and model) and works by columns: one list of integer dot
    products per column for the coefficients and one for the residual
    pairings, zipped once into the per-curve tuples whose signs it reads.
    The parts at eps**m are integer numerators over the returned dens[m] >
    0: coeff_nums[m] of the support coefficients, residual_nums[m] of the
    residual's pairings with every curve; callers divide only what they
    return.  Raises NotPseudoEffective when the support Gram loses negative
    definiteness or a coefficient turns negative.
    """
    zero = (0,) * len(columns)
    support: tuple = ()
    den, coeffs, residuals = 1, [()] * len(columns), columns  # the parts, by column
    entering = list(start)
    while True:
        in_support = set(support)
        entering += [j for j, v in enumerate(zip(*residuals)) if v < zero and j not in in_support]
        if not entering:
            break
        support = tuple(sorted(in_support.union(entering)))
        entering = []
        forms = model.support_forms(support)
        if forms is None:
            raise NotPseudoEffective("support Gram matrix is not negative definite")
        den, coeff_rows, residual_rows = forms
        picked = [[col[i] for i in support] for col in columns]
        coeffs = [[sum(map(mul, row, x)) for row in coeff_rows] for x in picked]
        for a in zip(*coeffs):
            if a < zero:
                raise NotPseudoEffective("negative coefficient in support solve")
            if a == zero:
                raise InvariantError(
                    "zero coefficient in support solve; model violates "
                    "the strict-positivity hypotheses"
                )
        residuals = [[den * v - sum(map(mul, row, x)) for v, row in zip(col, residual_rows)]
                     for col, x in zip(columns, picked)]
    return support, tuple(den * d for d in dens), coeffs, residuals


def zariski_decompose(model: SurfaceModel, alpha: Vec) -> ZariskiDecomp:
    """Unique orthogonal decomposition of alpha into nef and exceptional parts.

    Iterative support growth (see _grow_support) over the pairings of alpha
    with the curves: seed the support with the curves alpha meets
    negatively, solve the orthogonality system Gram(S) * a = (alpha . N_i),
    and absorb every curve the residual still meets negatively, until
    stable.  alpha enters through model.pairing_ints, scaled to integer
    numerators once, for its pairings and for the check (_checked).
    Raises NotPseudoEffective when the support Gram loses negative
    definiteness, a solved coefficient turns negative, or the stabilized
    residual fails the remaining nef-in-model conditions.
    """
    u = model.pairing_ints(alpha)
    support, (den,), (a,), _ = _grow_support(model, (u.pairs,), (u.pd,))
    return _checked(model, tuple(alpha), u.den, u.nums, support, den, a)


def _checked(model: SurfaceModel, alpha: Vec, lp: int, p: list, support: Sequence[int],
             lc: int, nums: Sequence[int]) -> ZariskiDecomp:
    """The decomposition alpha = P + N with N = sum(coeffs[k] * C_support[k]),
    verified by _check_ints and built; every ZariskiDecomp comes from here.
    alpha[:rank] is p / lp and the coefficients are nums / lc.  Fractions
    are built only for the fields the result keeps: P, P^2 and the
    coefficients.
    """
    pos = _check_ints(model, len(alpha), lp, p, support, lc, nums)
    positive = tuple(Fraction(x, pos.den) for x in pos.nums) if support else alpha
    return ZariskiDecomp(alpha, positive, support, tuple(Fraction(x, lc) for x in nums),
                         Fraction(pos.square, pos.den * pos.den * model._gram_ints[0]), pos)


def _check_ints(model: SurfaceModel, n: int, lp: int, p: Sequence[int], support: Sequence[int],
                lc: int, nums: Sequence[int]) -> IntClass:
    """The IntClass of the positive part P = alpha - N of the class alpha =
    p / lp of n coordinates, N = sum(nums[k] / lc * C_support[k]) its
    _curve_sum, checked, with its square set.

    Raises NotPseudoEffective when P meets the Kahler class negatively, then
    when P^2 < 0.  Any other failure is an InvariantError: reconstruction,
    P orthogonal to the support, positive coefficients, negative-definite
    support Gram, and P nef in the model.  P is formed once, as integer
    numerators over one denominator; P.omega (the model's Kahler row), P^2
    (its integer form) and P.C_i (its duals, for both the orthogonality and
    the nef test) are integer dot products, and no Fraction is built.
    """
    if support:  # P = alpha - N, over lp * ln
        ln = model._curve_ints[0] * lc
        p = [a * ln - x * lp for a, x in zip(p, _curve_sum(model, support, nums))]
        lp *= ln
    if sum(map(mul, p, model._kahler_row)) < 0:
        raise NotPseudoEffective("positive part meets the Kahler class negatively")
    dd, duals = model.duals
    pos = IntClass(lp, p, lp * dd, [sum(map(mul, p, row)) for row in duals], model._gram_ints[1])
    if pos.square < 0:
        raise NotPseudoEffective("positive part has negative self-intersection")
    if n != model.rank:  # P + N is alpha exactly, up to its length
        raise InvariantError("decomposition does not reconstruct the class")
    if any(pos.pairs[i] for i in support):
        raise InvariantError("positive part not orthogonal to support")
    if any(a <= 0 for a in nums):
        raise InvariantError("non-positive negative-part coefficient")
    if model.support_forms(tuple(support)) is None:
        raise InvariantError("support Gram matrix not negative definite")
    if any(v < 0 for v in pos.pairs):
        raise InvariantError("positive part not nef in model")
    return pos


def _grow_and_check(model: SurfaceModel, u: IntClass) -> tuple[tuple[int, ...], IntClass]:
    """(support, P's IntClass) of the decomposition of the class u, off its
    numerators and pairings: one 1-column support growth and the integer
    check (_check_ints), with no Fraction built."""
    support, (lc,), (c,), _ = _grow_support(model, (u.pairs,), (u.pd,))
    return support, _check_ints(model, len(u.nums), u.den, u.nums, support, lc, c)


def volume(model: SurfaceModel, alpha: Vec) -> Fraction:
    """Self-intersection of the positive part; 0 exactly on the boundary."""
    return zariski_decompose(model, alpha).volume()


def _require_big(model: SurfaceModel, alpha: Vec, text: str) -> ZariskiDecomp:
    """The decomposition of a big alpha, else NotBig(text); NotPseudoEffective propagates."""
    dec = zariski_decompose(model, alpha)
    if dec.volume() <= 0:
        raise NotBig(text)
    return dec


def _decompose_or_none(model: SurfaceModel, alpha: Vec) -> Optional[ZariskiDecomp]:
    """The decomposition of alpha, or None when it is not pseudo-effective."""
    try:
        return zariski_decompose(model, alpha)
    except NotPseudoEffective:
        return None


def _classification_of(model: SurfaceModel, dec: Optional[ZariskiDecomp]) -> Classification:
    """classify read off a result of _decompose_or_none."""
    if dec is None:
        return Classification(Kind.NOT_PSEF, None)
    n = dec.numdim()
    return Classification(Kind.BIG if n == 2 else Kind.BOUNDARY, n)


def classify(model: SurfaceModel, alpha: Vec) -> Classification:
    """Kind and numerical dimension; decomposition failure maps to
    (NotPsefInModel, None) instead of raising."""
    return _classification_of(model, _decompose_or_none(model, alpha))


def _direction_kind(model: SurfaceModel, beta: Vec) -> tuple:
    """("nef", beta's IntClass) or ("curve", the first curve of class beta).
    beta = nums / den is matched by cross-multiplication against the curve
    classes' integer rows (model._curve_ints)."""
    b = model.pairing_ints(beta)
    if _nef_ints(model, b) is not None:
        return "nef", b
    cd, rows = model._curve_ints
    target = [x * cd for x in b.nums]
    for j, row in enumerate(rows):
        if [x * b.den for x in row] == target:
            return "curve", j
    raise UnsupportedDirection(
        "direction is neither nef-in-model nor a listed curve class"
    )


def derivative_vol(model: SurfaceModel, alpha: Vec, beta: Vec) -> Fraction:
    """One-sided derivative at t=0 of t -> volume(alpha + t*beta): twice the
    product of the positive part with beta.  Only nef directions and listed
    curve classes are covered; anything else raises UnsupportedDirection.
    P.beta is an integer product with P's kept numerators (positive_ints)."""
    dec = _require_big(model, alpha, "derivative requires a big class")
    return _derivative_of(model, dec, _direction_kind(model, beta))


def _derivative_of(model: SurfaceModel, dec: ZariskiDecomp, direction: tuple) -> Fraction:
    """derivative_vol read off a checked decomposition of a big class, in a
    direction as _direction_kind classifies it."""
    kind, found = direction
    p = dec.positive_ints
    if kind == "curve":
        return Fraction(2 * p.pairs[found], p.pd)
    return Fraction(2 * sum(map(mul, p.nums, found.met)), p.den * found.den * model._gram_ints[0])


def morse_gap(model: SurfaceModel, alpha: Vec, beta: Vec) -> MorseCertificate:
    """Certificate for the surface Morse inequality on a nef pair.

    lhs = alpha^2 - 2 alpha.beta.  When lhs > 0 the difference must be big
    with volume >= lhs; both facts are verified and any failure is an
    internal invariant breach, not a negative verdict.  Each class is
    scaled once, by its nef test; lhs and the difference, their record sum
    alpha + (-1)*beta, are formed from those integers, and the difference
    is decomposed by _grow_and_check, as a walk's start is.
    """
    a = _nef_ints(model, model.pairing_ints(alpha))
    if a is None:
        raise NotNef("first class is not nef in model")
    b = _nef_ints(model, model.pairing_ints(beta))
    if b is None:
        raise NotNef("second class is not nef in model")
    lhs = Fraction(b.den * a.square - 2 * a.den * sum(map(mul, b.nums, a.met)),
                   a.den * a.den * b.den * model._gram_ints[0])
    try:
        pos = _grow_and_check(model, record_sum(a, b, -1, 1))[1]
        vol = Fraction(pos.square, pos.den * pos.den * model._gram_ints[0])
    except NotPseudoEffective:
        vol = None
    big = vol is not None and vol > 0  # a zero positive part has volume 0
    if lhs > 0:
        if not big:
            raise InvariantError("Morse hypothesis holds but difference is not big")
        if vol < lhs:
            raise InvariantError("Morse volume bound violated")
    return MorseCertificate(lhs=lhs, conclusion_big=big, vol=vol, holds=True)


def null_curves(model: SurfaceModel, z: Vec) -> tuple[int, ...]:
    """Indices of listed curves orthogonal to a nef class of positive square."""
    nef = _nef_ints(model, model.pairing_ints(z))
    if nef is None:
        raise NotNef("null locus needs a nef-in-model class")
    if nef.square <= 0:
        raise NotBig("null locus needs positive self-intersection")
    return tuple(i for i, v in enumerate(nef.pairs) if v == 0)


def non_kahler_curves(model: SurfaceModel, alpha: Vec) -> tuple[int, ...]:
    """Curve shadow of the non-Kahler locus of a big class: the support of the
    negative part together with the null curves of the positive part."""
    dec = _require_big(model, alpha, "non-Kahler locus computed for big classes only")
    return _non_kahler_of(model, dec)


def _non_kahler_of(model: SurfaceModel, dec: ZariskiDecomp) -> tuple[int, ...]:
    """non_kahler_curves read off a checked decomposition of a big class.

    Its check proved P nef and the caller proved P^2 > 0, so the null curves
    of P are the zeros of its kept pairings; orthogonality puts the support
    among them.
    """
    combined = tuple(i for i, v in enumerate(dec.positive_ints.pairs) if v == 0)
    if model.support_forms(combined) is None:
        raise InvariantError("non-Kahler curves do not form an exceptional family")
    return combined


def enumerate_exceptional_families(
    model: SurfaceModel, allow_large: bool = False
) -> list[tuple[int, ...]]:
    """All curve subsets with negative-definite Gram, lexicographic by index.

    A fresh list of the model's families (SurfaceModel.families), which one
    subset search finds on the model's first use and keeps: negative
    definiteness is hereditary, so the search prunes every superset of a
    failing subset, and DFS preorder gives the lexicographic order (see
    lattice.negative_definite_subsets).  Models above
    FAMILY_ENUMERATION_CAP curves are refused unless allow_large is set.
    """
    n = len(model.curves)
    if n > FAMILY_ENUMERATION_CAP and not allow_large:
        raise UsageError(
            f"{n} curves exceeds the enumeration cap {FAMILY_ENUMERATION_CAP}; "
            "pass allow_large to override"
        )
    return list(model.families)


def orthogonal_nef_lift(
    model: SurfaceModel, family: Sequence[int], omega: Optional[Vec] = None
) -> tuple[Vec, tuple[Fraction, ...]]:
    """Unique positive coefficients b with (omega + sum b_i N_i) orthogonal to
    the family; the lifted class is nef-in-model with positive square.

    omega defaults to the model's Kahler class and must meet every family
    curve positively.  An index that is not a listed curve's raises
    UnknownCurve before anything is solved.
    """
    family = tuple(family)
    if not family:
        raise ValueError("family must be nonempty")
    for i in family:
        if not model.has_curve(i):
            raise UnknownCurve(f"no curve with index {i}")
    family = tuple(sorted(family))
    if omega is None:
        omega = model.kahler
    if model.support_forms(family) is None:
        raise ValueError("family Gram matrix is not negative definite")
    w = model.pairing_ints(omega)
    if any(w.pairs[i] <= 0 for i in family):
        raise ValueError("omega must meet every family curve positively")
    z, b = _lift(model, family, w)
    return tuple(Fraction(x, z.den) for x in z.nums), b


def _lift(model: SurfaceModel, family: tuple, w: IntClass) -> tuple[IntClass, tuple[Fraction, ...]]:
    """(z, b): the IntClass z of omega + sum(b[k] * C_family[k]), the lift
    of omega's IntClass w over a negative-definite family, from w's
    pairings with the family.  It is formed and checked over integers:
    orthogonal to the family, nef, positive square."""
    den, coeff_rows, _ = model.support_forms(family)
    dd, duals = model.duals
    on_family = [w.pairs[i] for i in family]
    bn = [-sum(map(mul, row, on_family)) for row in coeff_rows]  # b = bn / bd
    if any(x <= 0 for x in bn):
        raise InvariantError("lift coefficients must be positive")
    bd, cd = den * w.den * dd, model._curve_ints[0]
    nums = [x * den * dd * cd + y for x, y in zip(w.nums, _curve_sum(model, family, bn))]
    z = IntClass(bd * cd, nums, bd * cd * dd, [sum(map(mul, nums, row)) for row in duals],
                 model._gram_ints[1])
    if any(z.pairs[i] for i in family):
        raise InvariantError("lift not orthogonal to family")
    if (any(v < 0 for v in z.pairs) or z.square <= 0
            or sum(map(mul, nums, model._kahler_row)) < 0):
        raise InvariantError("lifted class not big and nef in model")
    return z, tuple(Fraction(x, bd) for x in bn)


def perturbed_decomposition(
    model: SurfaceModel, alpha: Vec, omega: Vec, eps: Fraction
) -> ZariskiDecomp:
    """Closed-form decomposition of alpha + eps*omega from the decomposition
    of alpha: the positive part gains eps times the orthogonal nef lift of
    omega over the support, each coefficient drops by eps*b_i.

    eps is exact (parse_rat: an int, a Fraction or a 'p/q' string; a float
    or a bool raises ValueError).  Valid strictly below the threshold
    min(a_i / b_i); at or above it raises EpsilonTooLarge carrying the
    exact threshold.  With empty support the
    formula degenerates to decomposing alpha + eps*omega directly.  omega
    is scaled once (pairing_ints, its length checked as alpha's), alpha +
    eps*omega is formed from its numerators and alpha's and checked as
    those numerators (_checked), and the lift (_lift) and P + eps * lift
    stay integers.
    """
    eps = parse_rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    w = model.pairing_ints(omega)
    if w.square <= 0 or any(v <= 0 for v in w.pairs):
        raise ValueError("omega must be Kahler-like: positive square and "
                         "positive against every listed curve")
    dec = zariski_decompose(model, alpha)
    la, a = _over_lcm(dec.alpha)
    e, ed = eps.numerator, eps.denominator
    ls, s = la * ed * w.den, [ed * w.den * x + e * la * y for x, y in zip(a, w.nums)]
    shifted = tuple(Fraction(x, ls) for x in s)
    if not dec.support:
        return zariski_decompose(model, shifted)
    z, b = _lift(model, dec.support, w)
    threshold = min(a / bi for a, bi in zip(dec.coeffs, b))
    if eps >= threshold:
        raise EpsilonTooLarge(threshold)
    coeffs = tuple(a - eps * bi for a, bi in zip(dec.coeffs, b))
    try:
        closed = _checked(model, shifted, ls, s, dec.support, *_over_lcm(coeffs))
    except NotPseudoEffective as exc:  # a broken closed form is a bug, not a verdict
        raise InvariantError("positive part not nef in model") from exc
    p, q = dec.positive_ints, closed.positive_ints
    # Q == P + eps * z, by cross-multiplied numerators?
    if any(x * p.den * ed * z.den != (y * ed * z.den + e * p.den * t) * q.den
           for x, y, t in zip(q.nums, p.nums, z.nums)):
        raise InvariantError("perturbed positive part is not P + eps * lift")
    direct = zariski_decompose(model, shifted)
    if closed != direct:
        raise InvariantError("perturbation formula disagrees with direct decomposition")
    return closed
