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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    EpsilonTooLarge,
    InvariantError,
    NotBig,
    NotNef,
    NotPseudoEffective,
    UnsupportedDirection,
    UsageError,
)
from .lattice import (
    SurfaceModel,
    Vec,
    negative_definite_subsets,
    negative_ldl,
    vec_add,
    vec_is_zero,
    vec_scale,
    vec_sub,
    zero_vec,
)

FAMILY_ENUMERATION_CAP = 20


@dataclass(frozen=True)
class ZariskiDecomp:
    """alpha = positive + sum(coeffs[i] * curve[i]) with positive nef-in-model,
    orthogonal to every support curve, and negative-definite support Gram."""

    alpha: Vec
    positive: Vec
    support: tuple[int, ...]
    coeffs: tuple[Fraction, ...]

    def coeff_map(self) -> dict[int, Fraction]:
        return dict(zip(self.support, self.coeffs))

    def negative_part(self, model: SurfaceModel) -> Vec:
        total = zero_vec(model.rank)
        for i, a in zip(self.support, self.coeffs):
            total = vec_add(total, vec_scale(a, model.curve_class(i)))
        return total

    def volume(self, model: SurfaceModel) -> Fraction:
        return model.intersect(self.positive, self.positive)

    def numdim(self, model: SurfaceModel) -> int:
        if vec_is_zero(self.positive):
            return 0
        return 2 if self.volume(model) > 0 else 1


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
    alpha.omega >= 0 to pin the positive-cone component."""
    if any(v < 0 for v in model.pairings(alpha)):
        return False
    if model.intersect(alpha, alpha) < 0:
        return False
    return model.intersect(alpha, model.kahler) >= 0


def zariski_decompose(model: SurfaceModel, alpha: Vec) -> ZariskiDecomp:
    """Unique orthogonal decomposition of alpha into nef and exceptional parts.

    Iterative support growth: seed the support with the curves alpha meets
    negatively, solve the orthogonality system Gram(S) * a = (alpha . N_i),
    and absorb every curve the residual still meets negatively, until stable.
    One factorization (lattice.negative_ldl) both tests the support Gram and
    solves the system; the residual's pairings come from the curve table.
    Raises NotPseudoEffective when the support Gram loses negative
    definiteness, a solved coefficient turns negative, or the stabilized
    residual fails the remaining nef-in-model conditions.
    """
    if len(alpha) != model.rank:
        raise ValueError(f"class vector must have length {model.rank}")
    pairs = model.pairings(alpha)
    support: list[int] = []
    coeffs: tuple = ()
    left = pairs  # residual . C_j
    while True:
        in_support = set(support)
        entering = [j for j, v in enumerate(left) if v < 0 and j not in in_support]
        if not entering:
            break
        support = sorted(support + entering)
        factor = negative_ldl(model.gram_submatrix(support))
        if factor is None:
            raise NotPseudoEffective("support Gram matrix is not negative definite")
        coeffs = factor.solve([pairs[i] for i in support])
        for a in coeffs:
            if a < 0:
                raise NotPseudoEffective("negative coefficient in support solve")
            if a == 0:
                raise InvariantError(
                    "zero coefficient in support solve; model violates "
                    "the strict-positivity hypotheses"
                )
        left = model.residual_pairings(pairs, support, coeffs)
    residual = alpha
    for i, a in zip(support, coeffs):
        residual = vec_sub(residual, vec_scale(a, model.curve_class(i)))
    if model.intersect(residual, model.kahler) < 0:
        raise NotPseudoEffective("positive part meets the Kahler class negatively")
    if model.intersect(residual, residual) < 0:
        raise NotPseudoEffective("positive part has negative self-intersection")
    dec = ZariskiDecomp(
        alpha=tuple(alpha),
        positive=residual,
        support=tuple(support),
        coeffs=coeffs,
    )
    _check_decomposition(model, dec)
    return dec


def _check_decomposition(model: SurfaceModel, dec: ZariskiDecomp) -> None:
    """Defensive re-verification of every decomposition invariant."""
    recon = vec_add(dec.positive, dec.negative_part(model))
    if recon != tuple(dec.alpha):
        raise InvariantError("decomposition does not reconstruct the class")
    if any(model.pairing(dec.positive, i) != 0 for i in dec.support):
        raise InvariantError("positive part not orthogonal to support")
    if any(a <= 0 for a in dec.coeffs):
        raise InvariantError("non-positive negative-part coefficient")
    if negative_ldl(model.gram_submatrix(dec.support)) is None:
        raise InvariantError("support Gram matrix not negative definite")
    if not is_nef_in_model(model, dec.positive):
        raise InvariantError("positive part not nef in model")


def volume(model: SurfaceModel, alpha: Vec) -> Fraction:
    """Self-intersection of the positive part; 0 exactly on the boundary."""
    return zariski_decompose(model, alpha).volume(model)


def classify(model: SurfaceModel, alpha: Vec) -> Classification:
    """Kind and numerical dimension; decomposition failure maps to
    (NotPsefInModel, None) instead of raising."""
    try:
        dec = zariski_decompose(model, alpha)
    except NotPseudoEffective:
        return Classification(Kind.NOT_PSEF, None)
    n = dec.numdim(model)
    return Classification(Kind.BIG if n == 2 else Kind.BOUNDARY, n)


def _direction_kind(model: SurfaceModel, beta: Vec) -> str:
    if is_nef_in_model(model, beta):
        return "nef"
    if any(tuple(beta) == tuple(c.cls) for c in model.curves):
        return "curve"
    raise UnsupportedDirection(
        "direction is neither nef-in-model nor a listed curve class"
    )


def derivative_vol(model: SurfaceModel, alpha: Vec, beta: Vec) -> Fraction:
    """One-sided derivative at t=0 of t -> volume(alpha + t*beta): twice the
    product of the positive part with beta.  Only nef directions and listed
    curve classes are covered; anything else raises UnsupportedDirection."""
    dec = zariski_decompose(model, alpha)
    if dec.volume(model) <= 0:
        raise NotBig("derivative requires a big class")
    _direction_kind(model, beta)
    return 2 * model.intersect(dec.positive, beta)


def morse_gap(model: SurfaceModel, alpha: Vec, beta: Vec) -> MorseCertificate:
    """Certificate for the surface Morse inequality on a nef pair.

    lhs = alpha^2 - 2 alpha.beta.  When lhs > 0 the difference must be big
    with volume >= lhs; both facts are verified and any failure is an
    internal invariant breach, not a negative verdict.
    """
    if not is_nef_in_model(model, alpha):
        raise NotNef("first class is not nef in model")
    if not is_nef_in_model(model, beta):
        raise NotNef("second class is not nef in model")
    lhs = model.intersect(alpha, alpha) - 2 * model.intersect(alpha, beta)
    diff = vec_sub(alpha, beta)
    cls = classify(model, diff)
    big = cls.kind is Kind.BIG
    vol = volume(model, diff) if cls.kind is not Kind.NOT_PSEF else None
    if lhs > 0:
        if not big:
            raise InvariantError("Morse hypothesis holds but difference is not big")
        if vol < lhs:
            raise InvariantError("Morse volume bound violated")
    return MorseCertificate(lhs=lhs, conclusion_big=big, vol=vol, holds=True)


def null_curves(model: SurfaceModel, z: Vec) -> tuple[int, ...]:
    """Indices of listed curves orthogonal to a nef class of positive square."""
    if not is_nef_in_model(model, z):
        raise NotNef("null locus needs a nef-in-model class")
    if model.intersect(z, z) <= 0:
        raise NotBig("null locus needs positive self-intersection")
    return tuple(i for i, v in enumerate(model.pairings(z)) if v == 0)


def non_kahler_curves(model: SurfaceModel, alpha: Vec) -> tuple[int, ...]:
    """Curve shadow of the non-Kahler locus of a big class: the support of the
    negative part together with the null curves of the positive part."""
    dec = zariski_decompose(model, alpha)
    if dec.volume(model) <= 0:
        raise NotBig("non-Kahler locus computed for big classes only")
    return _non_kahler_of(model, dec)


def _non_kahler_of(model: SurfaceModel, dec: ZariskiDecomp) -> tuple[int, ...]:
    """non_kahler_curves read off a decomposition of a big class."""
    combined = sorted(set(dec.support) | set(null_curves(model, dec.positive)))
    if negative_ldl(model.gram_submatrix(combined)) is None:
        raise InvariantError("non-Kahler curves do not form an exceptional family")
    return tuple(combined)


def enumerate_exceptional_families(
    model: SurfaceModel, allow_large: bool = False
) -> list[tuple[int, ...]]:
    """All curve subsets with negative-definite Gram, lexicographic by index.

    Negative definiteness is hereditary, so the search prunes every superset
    of a failing subset; DFS preorder gives the lexicographic output order
    (see lattice.negative_definite_subsets).
    Models above FAMILY_ENUMERATION_CAP curves are refused unless
    allow_large is set.
    """
    n = len(model.curves)
    if n > FAMILY_ENUMERATION_CAP and not allow_large:
        raise UsageError(
            f"{n} curves exceeds the enumeration cap {FAMILY_ENUMERATION_CAP}; "
            "pass allow_large to override"
        )
    return list(negative_definite_subsets(model.curve_gram))


def orthogonal_nef_lift(
    model: SurfaceModel, family: Sequence[int], omega: Optional[Vec] = None
) -> tuple[Vec, tuple[Fraction, ...]]:
    """Unique positive coefficients b with (omega + sum b_i N_i) orthogonal to
    the family; the lifted class is nef-in-model with positive square.

    omega defaults to the model's Kahler class and must meet every family
    curve positively.
    """
    family = tuple(sorted(family))
    if not family:
        raise ValueError("family must be nonempty")
    if omega is None:
        omega = model.kahler
    factor = negative_ldl(model.gram_submatrix(family))
    if factor is None:
        raise ValueError("family Gram matrix is not negative definite")
    on_curves = model.pairings(omega)
    pairings = [on_curves[i] for i in family]
    if any(p <= 0 for p in pairings):
        raise ValueError("omega must meet every family curve positively")
    sol = factor.solve(pairings)
    b = tuple(-x for x in sol)
    if any(x <= 0 for x in b):
        raise InvariantError("lift coefficients must be positive")
    lifted = omega
    for i, bi in zip(family, b):
        lifted = vec_add(lifted, vec_scale(bi, model.curve_class(i)))
    if any(model.pairing(lifted, i) != 0 for i in family):
        raise InvariantError("lift not orthogonal to family")
    if not is_nef_in_model(model, lifted) or model.intersect(lifted, lifted) <= 0:
        raise InvariantError("lifted class not big and nef in model")
    return lifted, b


def perturbed_decomposition(
    model: SurfaceModel, alpha: Vec, omega: Vec, eps: Fraction
) -> ZariskiDecomp:
    """Closed-form decomposition of alpha + eps*omega from the decomposition
    of alpha: the positive part gains eps times the orthogonal nef lift of
    omega over the support, each coefficient drops by eps*b_i.

    Valid strictly below the threshold min(a_i / b_i); at or above it raises
    EpsilonTooLarge carrying the exact threshold.  With empty support the
    formula degenerates to decomposing alpha + eps*omega directly.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if len(omega) != model.rank:
        raise ValueError(f"omega must have length {model.rank}")
    if model.intersect(omega, omega) <= 0 or any(
        v <= 0 for v in model.pairings(omega)
    ):
        raise ValueError("omega must be Kahler-like: positive square and "
                         "positive against every listed curve")
    dec = zariski_decompose(model, alpha)
    shifted = vec_add(alpha, vec_scale(eps, omega))
    if not dec.support:
        return zariski_decompose(model, shifted)
    lifted, b = orthogonal_nef_lift(model, dec.support, omega)
    threshold = min(a / bi for a, bi in zip(dec.coeffs, b))
    if eps >= threshold:
        raise EpsilonTooLarge(threshold)
    closed = ZariskiDecomp(
        alpha=shifted,
        positive=vec_add(dec.positive, vec_scale(eps, lifted)),
        support=dec.support,
        coeffs=tuple(a - eps * bi for a, bi in zip(dec.coeffs, b)),
    )
    _check_decomposition(model, closed)
    direct = zariski_decompose(model, shifted)
    if closed != direct:
        raise InvariantError("perturbation formula disagrees with direct decomposition")
    return closed
