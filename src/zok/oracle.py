"""Independent brute-force routes to the library's main answers, plus seeded
random model generation.  These live in the shipped package (not test code)
so the CLI's verify command can replay every reproducibility claim on a
user-supplied model.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import GenerationError, MultipleCandidates, UsageError
from .exact import ExtRat
from .lattice import (
    SurfaceModel,
    Vec,
    make_model,
    negative_definite_subsets,
    negative_ldl,
    validate_model,
    vec_scale,
    vec_sub,
)
from .errors import NotPseudoEffective
from .okounkov import FlagSpec, PiecewiseLinear, first_chamber_along, okounkov_polygon
from .zariski import (
    ZariskiDecomp,
    _check_decomposition,
    _direction_kind,
    derivative_vol,
    zariski_decompose,
)

DEFAULT_SUBSET_CAP = 16


@dataclass(frozen=True)
class OracleReport:
    subject: str
    agrees: bool
    witness: Optional[str] = None


@dataclass(frozen=True)
class ModelGenSpec:
    seed: int
    rank: int
    num_curves: int
    coord_bound: int = 2


def brute_force_zariski(
    model: SurfaceModel, alpha: Vec, max_curves: int = DEFAULT_SUBSET_CAP
) -> Optional[ZariskiDecomp]:
    """Decomposition by exhaustive subset search; None when no subset works.

    For every negative-definite curve subset (the empty one included, found
    by the hereditary search of lattice.negative_definite_subsets) the
    orthogonality system is solved; a candidate needs strictly positive
    coefficients and a nef-in-model residual.  Uniqueness of the orthogonal
    decomposition makes more than one candidate a model bug.
    """
    n = len(model.curves)
    if n > max_curves:
        raise UsageError(
            f"{n} curves exceeds the subset-search cap {max_curves} "
            "(override via ZOK_MAX_SUBSET_CURVES)"
        )
    alpha = tuple(alpha)
    pairs = model.pairings(alpha)
    candidates: list[ZariskiDecomp] = []
    for subset in negative_definite_subsets(model.curve_gram):
        coeffs = negative_ldl(model.gram_submatrix(subset)).solve([pairs[i] for i in subset])
        if any(a <= 0 for a in coeffs):
            continue
        if any(v < 0 for v in model.residual_pairings(pairs, subset, coeffs)):
            continue
        residual = alpha
        for i, a in zip(subset, coeffs):
            residual = vec_sub(residual, vec_scale(a, model.curve_class(i)))
        if model.intersect(residual, residual) < 0:
            continue
        if model.intersect(residual, model.kahler) < 0:
            continue
        candidates.append(
            ZariskiDecomp(alpha=alpha, positive=residual, support=subset, coeffs=coeffs)
        )
    if len(candidates) > 1:
        raise MultipleCandidates(
            f"{len(candidates)} orthogonal decompositions found for {alpha}"
        )
    if not candidates:
        return None
    _check_decomposition(model, candidates[0])
    return candidates[0]


def derivative_by_chambers(model: SurfaceModel, alpha: Vec, beta: Vec) -> Fraction:
    """Volume derivative read off the first chamber of the walk along
    alpha + t*beta: the t-derivative of Z(t)^2 at t = 0."""
    _direction_kind(model, beta)  # raises UnsupportedDirection otherwise
    chamber = first_chamber_along(model, alpha, tuple(beta))
    return 2 * model.intersect(chamber.z0, chamber.z1)


def area_by_integration(f: PiecewiseLinear, g: PiecewiseLinear) -> ExtRat:
    """Exact trapezoid integral of g - f over their common domain.

    Independent of the shoelace route: the two envelopes are merged on the
    union of their breakpoints and each trapezoid is integrated exactly.
    """
    if f.breakpoints[0] != g.breakpoints[0] or f.breakpoints[-1] != g.breakpoints[-1]:
        raise ValueError("envelopes must share their domain")
    cuts = sorted(set(f.breakpoints) | set(g.breakpoints))
    total = Fraction(0)
    for lo, hi in zip(cuts, cuts[1:]):
        d_lo = g.value_at(lo) - f.value_at(lo)
        d_hi = g.value_at(hi) - f.value_at(hi)
        if d_lo < 0 or d_hi < 0:
            raise ValueError("lower envelope exceeds upper envelope")
        total = total + (d_lo + d_hi) * (hi - lo) / 2
    return total


def random_model(spec: ModelGenSpec) -> SurfaceModel:
    """Deterministic blow-up-type model from a seed.

    diag(1, -1, ..., -1) form; the exceptional classes are always present and
    extra curves are drawn as d*H - sum(m_i E_i) with small coordinates,
    filtered against the curve-record invariants, until validate_model
    passes or the retry budget runs out.
    """
    if spec.rank < 1:
        raise GenerationError("rank must be >= 1")
    if spec.rank == 1:
        return make_model("p2-random", 1, [[1]], [("L", [1])], [1])
    rng = random.Random(spec.seed)
    rank = spec.rank
    gram = [[0] * rank for _ in range(rank)]
    gram[0][0] = 1
    for i in range(1, rank):
        gram[i][i] = -1
    omega = [2 * rank - 1] + [-1] * (rank - 1)

    def dot(u, v):
        return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))

    for attempt in range(200):
        curves: list[tuple[str, list[int]]] = [
            (f"E{i}", [0] * i + [1] + [0] * (rank - 1 - i)) for i in range(1, rank)
        ]

        def pair_ok(cls: list[int]) -> bool:
            if all(v == 0 for v in cls):
                return False
            if dot(omega, cls) <= 0:
                return False
            return all(dot(existing, cls) >= 0 for _, existing in curves)

        tries = 0
        while len(curves) < spec.num_curves and tries < 200:
            tries += 1
            d = rng.randint(1, spec.coord_bound)
            cand = [d] + [-rng.randint(0, spec.coord_bound) for _ in range(rank - 1)]
            if pair_ok(cand):
                curves.append((f"C{len(curves)}", cand))
        candidate = make_model(
            f"random-{spec.seed}-r{rank}-{attempt}", rank, gram, curves, omega
        )
        if len(candidate.curves) >= spec.num_curves and not validate_model(candidate):
            return candidate
    raise GenerationError(f"no valid model after bounded retries (seed {spec.seed})")


def _class_grid(rank: int, bound: int):
    return itertools.product(*[range(-bound, bound + 1)] * rank)


def _fmt_class(coords) -> str:
    return "(" + ",".join(str(c) for c in coords) + ")"


def run_model_verification(
    model: SurfaceModel,
    grid_bound: int = 2,
    max_subset_curves: int = DEFAULT_SUBSET_CAP,
) -> list[OracleReport]:
    """The oracle suite on one model, as deterministic reports.

    Checks, over an integer class grid: decomposition against subset search
    (including not-psef verdicts), the derivative formula against the chamber
    route, and the polygon area against trapezoid integration and the volume
    identity.  The grid bound shrinks automatically on high-rank models to
    keep the sweep desk-scale.
    """
    bound = grid_bound
    while bound > 1 and (2 * bound + 1) ** model.rank > 4096:
        bound -= 1
    reports: list[OracleReport] = []

    mismatch = None
    checked = 0
    big_classes: list[Vec] = []
    for coords in _class_grid(model.rank, bound):
        alpha = tuple(Fraction(c) for c in coords)
        checked += 1
        oracle = brute_force_zariski(model, alpha, max_curves=max_subset_curves)
        try:
            fast = zariski_decompose(model, alpha)
        except NotPseudoEffective:
            fast = None
        if fast != oracle:
            mismatch = (
                f"class {_fmt_class(coords)}: iterative {fast} vs subset {oracle}"
            )
            break
        if fast is not None and fast.volume(model) > 0:
            big_classes.append(alpha)
    reports.append(
        OracleReport(
            subject=f"zariski-vs-subset-search[grid {bound}, {checked} classes]",
            agrees=mismatch is None,
            witness=mismatch,
        )
    )

    directions = [model.kahler] + [c.cls for c in model.curves]
    mismatch = None
    pairs = 0
    for alpha in big_classes[:64]:
        for beta in directions:
            pairs += 1
            lhs = derivative_vol(model, alpha, beta)
            rhs = derivative_by_chambers(model, alpha, beta)
            if lhs != rhs:
                mismatch = (
                    f"alpha {_fmt_class(alpha)}, beta {_fmt_class(beta)}: "
                    f"closed form {lhs} vs chamber walk {rhs}"
                )
                break
        if mismatch:
            break
    reports.append(
        OracleReport(
            subject=f"derivative-vs-chamber-walk[{pairs} pairs]",
            agrees=mismatch is None,
            witness=mismatch,
        )
    )

    mismatch = None
    built = 0
    for alpha in big_classes[:32]:
        for index in range(len(model.curves)):
            flag = FlagSpec.make(index)
            built += 1
            poly = okounkov_polygon(model, alpha, flag)
            f, g = poly.f, poly.g
            integral = area_by_integration(f, g)
            vol = zariski_decompose(model, alpha).volume(model)
            if integral != poly.area or 2 * poly.area != vol:
                mismatch = (
                    f"alpha {_fmt_class(alpha)}, flag {model.curve_name(index)}: "
                    f"shoelace {poly.area}, integral {integral}, volume {vol}"
                )
                break
        if mismatch:
            break
    reports.append(
        OracleReport(
            subject=f"polygon-area-vs-integration[{built} polygons]",
            agrees=mismatch is None,
            witness=mismatch,
        )
    )
    return reports
