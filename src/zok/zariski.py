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
from .lattice import SurfaceModel, Vec, _over_lcm, vec_is_zero

FAMILY_ENUMERATION_CAP = 20


@dataclass(frozen=True)
class ZariskiDecomp:
    """alpha = positive + sum(coeffs[i] * curve[i]) with positive nef-in-model,
    orthogonal to every support curve, and negative-definite support Gram.

    Every decomposition zok returns is built by _checked from alpha, the
    support and the integer numerators of alpha and of the coefficients, and
    keeps the positive part's numbers that the check computed, required and
    outside equality, repr and hash: P^2 and positive_ints = (lp, p, pd,
    pairs), P = p / lp and P.C_i = pairs / pd, whose Fractions
    positive_pairings builds on first read.
    """

    alpha: Vec
    positive: Vec
    support: tuple[int, ...]
    coeffs: tuple[Fraction, ...]
    positive_square: Fraction = field(compare=False, repr=False)
    positive_ints: tuple = field(compare=False, repr=False)

    @cached_property
    def positive_pairings(self) -> tuple:
        _, _, pd, pairs = self.positive_ints
        return tuple(Fraction(v, pd) for v in pairs)

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


def _met(model: SurfaceModel, nums: Sequence[int]) -> list[int]:
    """The model's integer form (_gram_ints) times integer numerators."""
    return [sum(map(mul, row, nums)) for row in model._gram_ints[1]]


def is_nef_in_model(model: SurfaceModel, alpha: Vec) -> bool:
    """Non-negative against every listed curve, with alpha^2 >= 0 and
    alpha.omega >= 0 to pin the positive-cone component.  alpha is scaled
    once and all three are integer sign tests (see _nef_ints)."""
    return _nef_ints(model, model.pairing_ints(alpha)) is not None


def _nef_ints(model: SurfaceModel, scaled: tuple) -> Optional[tuple]:
    """(l, nums, pairs, met) when the class u of scaled = model.pairing_ints(u)
    is nef in the model, else None: u = nums / l, pairs its curve pairings
    and met = _met(nums).  Every denominator is positive, so each test is
    the sign of an integer."""
    l, nums, _, pairs = scaled
    if any(v < 0 for v in pairs):
        return None
    met = _met(model, nums)
    if sum(map(mul, nums, met)) < 0 or sum(map(mul, nums, model._kahler_row)) < 0:
        return None
    return l, nums, pairs, met


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
    la, nums, pd, column = model.pairing_ints(alpha)
    support, (den,), (a,), _ = _grow_support(model, (column,), (pd,))
    return _checked(model, tuple(alpha), la, nums, support, den, a)


def _checked(model: SurfaceModel, alpha: Vec, lp: int, p: list, support: Sequence[int],
             lc: int, nums: Sequence[int]) -> ZariskiDecomp:
    """The decomposition alpha = P + N with N = sum(coeffs[k] * C_support[k]),
    verified by _check_ints and built; every ZariskiDecomp comes from here.
    alpha[:rank] is p / lp and the coefficients are nums / lc.  Fractions
    are built only for the fields the result keeps: P, P^2 and the
    coefficients.
    """
    lp, p, square, pairs = _check_ints(model, len(alpha), lp, p, support, lc, nums)
    positive = tuple(Fraction(x, lp) for x in p) if support else alpha
    return ZariskiDecomp(alpha, positive, support, tuple(Fraction(x, lc) for x in nums),
                         Fraction(square, lp * lp * model._gram_ints[0]),
                         (lp, p, lp * model.duals[0], pairs))


def _check_ints(model: SurfaceModel, n: int, lp: int, p: Sequence[int], support: Sequence[int],
                lc: int, nums: Sequence[int]) -> tuple:
    """(lp, p, square, pairs) for the positive part P = alpha - N of the
    class alpha = p / lp of n coordinates, N = sum(nums[k] / lc *
    C_support[k]) its _curve_sum, checked: P = p / lp, P^2 = square /
    (lp^2 * the form's den) and P.C_i = pairs[i] / (lp * the duals' den).

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
    square = sum(map(mul, p, _met(model, p)))
    if square < 0:
        raise NotPseudoEffective("positive part has negative self-intersection")
    if n != model.rank:  # P + N is alpha exactly, up to its length
        raise InvariantError("decomposition does not reconstruct the class")
    pairs = [sum(map(mul, p, row)) for row in model.duals[1]]
    if any(pairs[i] for i in support):
        raise InvariantError("positive part not orthogonal to support")
    if any(a <= 0 for a in nums):
        raise InvariantError("non-positive negative-part coefficient")
    if model.support_forms(tuple(support)) is None:
        raise InvariantError("support Gram matrix not negative definite")
    if any(v < 0 for v in pairs):
        raise InvariantError("positive part not nef in model")
    return lp, p, square, pairs


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
    """("nef", _nef_ints(beta)) or ("curve", the first curve of class beta).
    beta = nums / l is matched by cross-multiplication against the curve
    classes' integer rows (model._curve_ints)."""
    scaled = model.pairing_ints(beta)
    nef = _nef_ints(model, scaled)
    if nef is not None:
        return "nef", nef
    l, nums = scaled[:2]
    cd, rows = model._curve_ints
    target = [x * cd for x in nums]
    for j, row in enumerate(rows):
        if [x * l for x in row] == target:
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
    lp, p, pd, pairs = dec.positive_ints
    if kind == "curve":
        return Fraction(2 * pairs[found], pd)
    lb, _, _, met = found
    return Fraction(2 * sum(map(mul, p, met)), lp * lb * model._gram_ints[0])


def morse_gap(model: SurfaceModel, alpha: Vec, beta: Vec) -> MorseCertificate:
    """Certificate for the surface Morse inequality on a nef pair.

    lhs = alpha^2 - 2 alpha.beta.  When lhs > 0 the difference must be big
    with volume >= lhs; both facts are verified and any failure is an
    internal invariant breach, not a negative verdict.  Each class is
    scaled once, by its nef test, and lhs and the difference are formed
    from those integers.
    """
    nef_a = _nef_ints(model, model.pairing_ints(alpha))
    if nef_a is None:
        raise NotNef("first class is not nef in model")
    nef_b = _nef_ints(model, model.pairing_ints(beta))
    if nef_b is None:
        raise NotNef("second class is not nef in model")
    (la, na, _, met), (lb, nb, _, _) = nef_a, nef_b
    lhs = Fraction(lb * sum(map(mul, na, met)) - 2 * la * sum(map(mul, nb, met)),
                   la * la * lb * model._gram_ints[0])
    diff = tuple(Fraction(lb * x - la * y, la * lb) for x, y in zip(na, nb))
    dec = _decompose_or_none(model, diff)
    vol = None if dec is None else dec.volume()
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
    _, nums, pairs, met = nef
    if sum(map(mul, nums, met)) <= 0:
        raise NotBig("null locus needs positive self-intersection")
    return tuple(i for i, v in enumerate(pairs) if v == 0)


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
    combined = tuple(i for i, v in enumerate(dec.positive_ints[3]) if v == 0)
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
    lw, w, _, on_curves = model.pairing_ints(omega)
    on_family = [on_curves[i] for i in family]
    if any(p <= 0 for p in on_family):
        raise ValueError("omega must meet every family curve positively")
    z, lz, b = _lift(model, family, lw, w, on_family)
    return tuple(Fraction(x, lz) for x in z), b


def _lift(model: SurfaceModel, family: tuple, lw: int, w: Sequence[int],
          on_family: Sequence[int]) -> tuple[list[int], int, tuple[Fraction, ...]]:
    """(z, lz, b) with z / lz = omega + sum(b[k] * C_family[k]), the lift of
    omega = w / lw over a negative-definite family, from omega's integer
    pairings with the family (over lw * the duals' den).  It is formed and
    checked over integers: orthogonal to the family, nef, positive square."""
    den, coeff_rows, _ = model.support_forms(family)
    dd, duals = model.duals
    bn = [-sum(map(mul, row, on_family)) for row in coeff_rows]  # b = bn / bd
    if any(x <= 0 for x in bn):
        raise InvariantError("lift coefficients must be positive")
    bd, cd = den * lw * dd, model._curve_ints[0]
    z = [x * den * dd * cd + y for x, y in zip(w, _curve_sum(model, family, bn))]
    pairs = [sum(map(mul, z, row)) for row in duals]
    if any(pairs[i] for i in family):
        raise InvariantError("lift not orthogonal to family")
    if (any(v < 0 for v in pairs) or sum(map(mul, z, _met(model, z))) <= 0
            or sum(map(mul, z, model._kahler_row)) < 0):
        raise InvariantError("lifted class not big and nef in model")
    return z, bd * cd, tuple(Fraction(x, bd) for x in bn)


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
    lw, w, _, on_curves = model.pairing_ints(omega)
    if sum(map(mul, w, _met(model, w))) <= 0 or any(v <= 0 for v in on_curves):
        raise ValueError("omega must be Kahler-like: positive square and "
                         "positive against every listed curve")
    dec = zariski_decompose(model, alpha)
    la, a = _over_lcm(dec.alpha)
    e, ed = eps.numerator, eps.denominator
    ls, s = la * ed * lw, [ed * lw * x + e * la * y for x, y in zip(a, w)]
    shifted = tuple(Fraction(x, ls) for x in s)
    if not dec.support:
        return zariski_decompose(model, shifted)
    z, lz, b = _lift(model, dec.support, lw, w, [on_curves[i] for i in dec.support])
    threshold = min(a / bi for a, bi in zip(dec.coeffs, b))
    if eps >= threshold:
        raise EpsilonTooLarge(threshold)
    coeffs = tuple(a - eps * bi for a, bi in zip(dec.coeffs, b))
    try:
        closed = _checked(model, shifted, ls, s, dec.support, *_over_lcm(coeffs))
    except NotPseudoEffective as exc:  # a broken closed form is a bug, not a verdict
        raise InvariantError("positive part not nef in model") from exc
    (l0, p0, _, _), (lq, q, _, _) = dec.positive_ints, closed.positive_ints
    # q / lq == p0 / l0 + e * z / (ed * lz)?
    if any(x * l0 * ed * lz != (y * ed * lz + e * l0 * t) * lq for x, y, t in zip(q, p0, z)):
        raise InvariantError("perturbed positive part is not P + eps * lift")
    direct = zariski_decompose(model, shifted)
    if closed != direct:
        raise InvariantError("perturbation formula disagrees with direct decomposition")
    return closed
