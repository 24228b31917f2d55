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
from operator import mul
from typing import Optional

from .errors import GenerationError, MultipleCandidates, NotPseudoEffective, UsageError
from .exact import ExtRat
from .lattice import SurfaceModel, Vec, make_model, validate_model
from .okounkov import FlagSpec, PiecewiseLinear, first_chamber_along, okounkov_polygon
from .polygon import shoelace_area
from .zariski import ZariskiDecomp, _checked, _decompose_or_none, _derivative_of, _direction_kind

DEFAULT_SUBSET_CAP = 16


@dataclass(frozen=True)
class OracleReport:
    subject: str
    agrees: bool
    witness: Optional[str] = None


@dataclass(frozen=True)
class ModelGenSpec:
    """random_model's input.  num_curves is the exact curve count from
    rank - 1 up: rank 1 gives p2-random's one curve for any count, and a
    count below rank - 1 gives the rank - 1 curves E_i alone."""

    seed: int
    rank: int
    num_curves: int
    coord_bound: int = 2


def brute_force_zariski(
    model: SurfaceModel, alpha: Vec, max_curves: int = DEFAULT_SUBSET_CAP
) -> Optional[ZariskiDecomp]:
    """Decomposition by exhaustive subset search; None when no subset works.

    Every negative-definite curve subset (the empty one included) is a
    candidate support S.  alpha is scaled once (SurfaceModel.pairing_ints),
    and S's rows over den, its entry in the family atlas (the support
    table's), test alpha's pairings v over S by integer signs: every
    coefficient row . v > 0, then every curve's residual pairing >= 0 (a
    support curve's row is den * e_k, so its test is an equality).  A
    family that passes goes to the checker (zariski._checked) with the
    numerators the search holds, and is dropped on NotPseudoEffective
    (P.omega < 0 or P^2 < 0).  Uniqueness of the orthogonal decomposition
    makes more than one candidate a model bug.  max_curves caps the curve
    count, not the atlas: 16 pairwise disjoint curves make 65,536 families.

    On a model whose distinct curves meet pairwise non-negatively (the curve
    condition validate_model enforces; model._family_index), let A be the
    curves alpha meets negatively.  Only the families that contain A are
    tested, read off the families through A's rarest curve by one mask test
    each, and only the empty one when A is empty; both skips drop only
    families the sign tests reject.  A family that misses a curve j of A and
    passes its coefficient test has residual pairing alpha.C_j - sum a_k
    C_k.C_j <= alpha.C_j < 0 at j.  When A is empty, -G_S of a non-empty
    family is a Stieltjes matrix, so G_S^-1 has no positive entry and no
    coefficient G_S^-1 (alpha.C_S) is > 0 (Zariski's lemma).  Any other
    model gets the full scan of every family.
    """
    n = len(model.curves)
    if n > max_curves:
        raise UsageError(
            f"{n} curves exceeds the subset-search cap {max_curves} "
            "(override via ZOK_MAX_SUBSET_CURVES)"
        )
    alpha = tuple(alpha)
    u = model.pairing_ints(alpha)
    pairs = u.pairs
    supports, atlas = model.families, model.family_atlas
    picks = range(len(supports))
    index = model._family_index
    if index is not None:
        masks, through = index
        negative = [i for i, x in enumerate(pairs) if x < 0]
        need = sum([1 << i for i in negative])
        # the families through A's rarest curve that contain A; the empty
        # family alone (index 0) when A is empty
        picks = [k for k in min([through[i] for i in negative], key=len, default=(0,))
                 if masks[k] & need == need]
    candidates = []
    for k in picks:
        support, (den, coeff_rows, residual_rows) = supports[k], atlas[k]
        v = [pairs[i] for i in support]
        scaled = []
        for row in coeff_rows:
            a = sum(map(mul, row, v))
            if a <= 0:
                break
            scaled.append(a)
        else:
            if any(den * x < sum(map(mul, row, v)) for x, row in zip(pairs, residual_rows)):
                continue
            try:
                candidates.append(_checked(model, alpha, u.den, u.nums, support, den * u.pd, scaled))
            except NotPseudoEffective:
                continue
    if len(candidates) > 1:
        raise MultipleCandidates(
            f"{len(candidates)} orthogonal decompositions found for {alpha}"
        )
    return candidates[0] if candidates else None


def derivative_by_chambers(model: SurfaceModel, alpha: Vec, beta: Vec) -> Fraction:
    """Volume derivative read off the first chamber of the walk along
    alpha + t*beta: the t-derivative of Z(t)^2 at t = 0."""
    _direction_kind(model, beta)  # raises UnsupportedDirection otherwise
    return Fraction(*first_chamber_along(model, alpha, tuple(beta)).square_ints[1])


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
    """Deterministic blow-up-type model from a seed: the same spec gives the
    same model (name, gram, curves, Kahler class) or GenerationError.

    diag(1, -1, ..., -1) form, omega = (2 rank - 1) H - sum(E_i); the E_i are
    always present.  An attempt draws curves C = d*H - sum(m_i E_i), 1 <= d
    and 0 <= m_i <= coord_bound, keeping C when omega.C > 0 and C meets no
    kept C negatively (one integer product with its form row (d, m_1, ...));
    C.E_i = m_i >= 0 and C != 0 hold by construction.  It stops at num_curves
    curves or 200 draws; the first full one validate_model passes is returned,
    the E_i alone when num_curves < rank - 1.  Rank 1 returns p2-random, one
    curve L, for any num_curves.
    """
    if spec.rank < 1:
        raise GenerationError("rank must be >= 1")
    if spec.coord_bound < 1:
        raise GenerationError("coord_bound must be >= 1")
    if spec.rank == 1:
        return make_model("p2-random", 1, [[1]], [("L", [1])], [1])
    rng = random.Random(spec.seed)
    rank = spec.rank
    gram = [[0] * rank for _ in range(rank)]
    gram[0][0] = 1
    for i in range(1, rank):
        gram[i][i] = -1
    omega = [2 * rank - 1] + [-1] * (rank - 1)
    for attempt in range(200):
        curves: list[tuple[str, list[int]]] = [
            (f"E{i}", [0] * i + [1] + [0] * (rank - 1 - i)) for i in range(1, rank)
        ]
        rows: list[list[int]] = []  # the form row (d, m_1, ...) of each kept C
        tries = 0
        while len(curves) < spec.num_curves and tries < 200:
            tries += 1
            d = rng.randint(1, spec.coord_bound)
            cand = [d] + [-rng.randint(0, spec.coord_bound) for _ in range(rank - 1)]
            if (2 * rank - 1) * d + sum(cand[1:]) > 0 and all(
                sum(map(mul, row, cand)) >= 0 for row in rows
            ):
                curves.append((f"C{len(curves)}", cand))
                rows.append([abs(c) for c in cand])
        if len(curves) < spec.num_curves:
            continue
        candidate = make_model(
            f"random-{spec.seed}-r{rank}-{attempt}", rank, gram, curves, omega
        )
        if not validate_model(candidate):
            return candidate
    raise GenerationError(f"no valid model after bounded retries (seed {spec.seed})")


def _fmt_class(coords) -> str:
    return "(" + ",".join(str(c) for c in coords) + ")"


def _subset_route(model: SurfaceModel, bound: int, max_curves: int, big: list):
    """Each grid class's decomposition against subset search; an agreeing
    big class goes to big with its decomposition, for the routes after."""
    for coords in itertools.product(range(-bound, bound + 1), repeat=model.rank):
        alpha = tuple(Fraction(c) for c in coords)
        oracle = brute_force_zariski(model, alpha, max_curves=max_curves)
        fast = _decompose_or_none(model, alpha)
        if fast == oracle and fast is not None and fast.volume() > 0:
            big.append((alpha, fast))
        yield None if fast == oracle else (
            f"class {_fmt_class(coords)}: iterative {fast} vs subset {oracle}"
        )


def _derivative_route(model: SurfaceModel, big: list):
    """The closed form 2 P.beta of the volume derivative, as derivative_vol
    computes it (zariski._derivative_of) on the sweep's decomposition,
    against the chamber walk, on the first 64 big classes along omega and
    every curve.  Each direction is classified once (_direction_kind), which
    is derivative_by_chambers's gate, so each pair reads the derivative off
    the walk's first chamber as that function does."""
    directions = [model.kahler] + [c.cls for c in model.curves]
    kinds = [_direction_kind(model, beta) for beta in directions]
    for alpha, dec in big[:64]:
        for beta, kind in zip(directions, kinds):
            lhs = _derivative_of(model, dec, kind)
            rhs = Fraction(*first_chamber_along(model, alpha, tuple(beta)).square_ints[1])
            yield None if lhs == rhs else (
                f"alpha {_fmt_class(alpha)}, beta {_fmt_class(beta)}: "
                f"closed form {lhs} vs chamber walk {rhs}"
            )


def _polygon_route(model: SurfaceModel, big: list):
    """The shoelace area of the polygon against trapezoid integration of its
    envelopes and against vol = 2 area, on the first 32 big classes with
    every curve as the flag."""
    for alpha, dec in big[:32]:
        vol = dec.volume()
        for index in range(len(model.curves)):
            poly = okounkov_polygon(model, alpha, FlagSpec.make(index))
            integral = area_by_integration(poly.f, poly.g)
            area = shoelace_area(poly.vertices)
            yield None if integral == area == poly.area and 2 * area == vol else (
                f"alpha {_fmt_class(alpha)}, flag {model.curve_name(index)}: "
                f"shoelace {area}, integral {integral}, volume {vol}"
            )


def run_model_verification(
    model: SurfaceModel,
    grid_bound: int = 2,
    max_subset_curves: int = DEFAULT_SUBSET_CAP,
) -> list[OracleReport]:
    """The oracle suite on one model: one deterministic report per route.

    The routes run in order: decomposition against subset search (including
    not-psef verdicts) over an integer class grid, then the derivative
    formula and the polygon area on the big classes that sweep kept.  A
    route yields None per item that agrees and a witness text at a mismatch,
    where its report stops.  The grid bound drops while the grid exceeds
    4,096 classes, but not below 1: rank r >= 8 still sweeps 3**r classes
    (6,561 at rank 8, 59,049 at rank 10).  A negative bound is a usage error.
    On random_model(ModelGenSpec(seed=1, rank=8, num_curves=12)) the suite
    takes about 1.3 s, and on ModelGenSpec(seed=1, rank=10, num_curves=16)
    12-14 s (Python 3.11.7, one core of a shared 2-vCPU machine).
    """
    if grid_bound < 0:
        raise UsageError(f"grid bound must be >= 0, got {grid_bound}")
    bound = min(grid_bound, 2048)  # (2*2048 + 1)**rank > 4096 for every rank
    while bound > 1 and (2 * bound + 1) ** model.rank > 4096:
        bound -= 1
    big: list[tuple[Vec, ZariskiDecomp]] = []  # the sweep's big classes, decomposed
    routes = [
        (f"zariski-vs-subset-search[grid {bound}, {{}} classes]",
         _subset_route(model, bound, max_subset_curves, big)),
        ("derivative-vs-chamber-walk[{} pairs]", _derivative_route(model, big)),
        ("polygon-area-vs-integration[{} polygons]", _polygon_route(model, big)),
    ]
    reports = []
    for subject, route in routes:
        count, witness = 0, None
        for witness in route:
            count += 1
            if witness is not None:
                break
        reports.append(OracleReport(subject.format(count), witness is None, witness))
    return reports
