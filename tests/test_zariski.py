from __future__ import annotations

from fractions import Fraction

import pytest

from zok.errors import (
    EpsilonTooLarge,
    InvariantError,
    NotBig,
    NotNef,
    NotPseudoEffective,
    UnsupportedDirection,
    UsageError,
)
from zok.lattice import make_model, vec_add, vec_scale
from zok.zariski import (
    Kind,
    ZariskiDecomp,
    classify,
    derivative_vol,
    enumerate_exceptional_families,
    is_nef_in_model,
    morse_gap,
    non_kahler_curves,
    null_curves,
    orthogonal_nef_lift,
    perturbed_decomposition,
    volume,
    zariski_decompose,
)

from conftest import F, int_grid


# -- nef test ---------------------------------------------------------------


def test_is_nef_examples(blowup1):
    assert is_nef_in_model(blowup1, F(1, 0)) is True      # H
    assert is_nef_in_model(blowup1, F(0, 1)) is False     # E
    assert is_nef_in_model(blowup1, F(0, 0)) is True      # 0
    assert is_nef_in_model(blowup1, F(1, -1)) is True     # H-E
    assert is_nef_in_model(blowup1, F(2, -1)) is True     # omega


# -- decomposition ----------------------------------------------------------


def test_decompose_h_plus_e(blowup1):
    dec = zariski_decompose(blowup1, F(1, 1))
    assert dec.positive == F(1, 0)
    assert dec.support == (0,)
    assert dec.coeffs == (Fraction(1),)


def test_decompose_nef_class_empty_support(blowup1):
    dec = zariski_decompose(blowup1, F(2, 0))
    assert dec.positive == F(2, 0)
    assert dec.support == ()


def test_decompose_not_psef(blowup1):
    with pytest.raises(NotPseudoEffective):
        zariski_decompose(blowup1, F(-1, 0))


def test_decompose_rejects_residual_failing_omega_pairing():
    # sparse curve list: -H pairs zero with E, leaving an empty support, and
    # the residual is caught by the omega check
    m = make_model("sparse", 2, [[1, 0], [0, -1]], [("E", [0, 1])], [2, -1])
    with pytest.raises(NotPseudoEffective, match="Kahler"):
        zariski_decompose(m, F(-1, 0))


def test_decompose_rejects_residual_with_negative_square():
    m = make_model("bare", 2, [[1, 0], [0, -1]], [("H", [1, 0])], [1, 0])
    with pytest.raises(NotPseudoEffective, match="self-intersection"):
        zariski_decompose(m, F(0, 1))


def test_decompose_defensive_coefficient_branches():
    # invalid model (curves meeting negatively) built unvalidated on purpose:
    # the solve can then produce zero or negative coefficients
    m = make_model(
        "invalid", 2, [[-1, -1], [-1, -2]], [("N1", [1, 0]), ("N2", [0, 1])], [1, 0]
    )
    with pytest.raises(NotPseudoEffective, match="negative coefficient"):
        zariski_decompose(m, F(-1, 2))
    with pytest.raises(InvariantError, match="zero coefficient"):
        zariski_decompose(m, F(0, 1))


def test_decompose_reconstruction_and_orthogonality(blowup1, blowup2):
    for model in (blowup1, blowup2):
        for alpha in int_grid(model.rank, 2):
            try:
                dec = zariski_decompose(model, alpha)
            except NotPseudoEffective:
                continue
            assert vec_add(dec.positive, dec.negative_part(model)) == alpha
            for i in dec.support:
                assert model.intersect(dec.positive, model.curve_class(i)) == 0
            assert all(c > 0 for c in dec.coeffs)
            assert is_nef_in_model(model, dec.positive)


def test_decompose_idempotent_on_positive_part(blowup1, blowup2, hirzebruch2):
    for model in (blowup1, blowup2, hirzebruch2):
        for alpha in int_grid(model.rank, 2):
            try:
                dec = zariski_decompose(model, alpha)
            except NotPseudoEffective:
                continue
            again = zariski_decompose(model, dec.positive)
            assert again.support == ()
            assert again.positive == dec.positive


def test_decompose_homogeneous(blowup1, hirzebruch2):
    for model in (blowup1, hirzebruch2):
        for alpha in int_grid(model.rank, 2):
            try:
                dec = zariski_decompose(model, alpha)
            except NotPseudoEffective:
                continue
            for c in (Fraction(2), Fraction(1, 3)):
                scaled = zariski_decompose(model, vec_scale(c, alpha))
                assert scaled.positive == vec_scale(c, dec.positive)
                assert scaled.support == dec.support
                assert scaled.coeffs == tuple(c * a for a in dec.coeffs)


def test_negative_part_convex(blowup1, blowup2):
    for model in (blowup1, blowup2):
        psef = []
        for alpha in int_grid(model.rank, 2):
            try:
                psef.append(zariski_decompose(model, alpha))
            except NotPseudoEffective:
                continue
        sample = psef[:: max(1, len(psef) // 12)]
        for da in sample:
            for db in sample:
                summed = zariski_decompose(model, vec_add(da.alpha, db.alpha))
                lhs = summed.coeff_map()
                rhs_a, rhs_b = da.coeff_map(), db.coeff_map()
                for i in set(lhs) | set(rhs_a) | set(rhs_b):
                    assert lhs.get(i, 0) <= rhs_a.get(i, 0) + rhs_b.get(i, 0)


def test_negative_part_monotone_along_nef(blowup1):
    alpha = F(2, 1)  # 2H + E, N = E
    beta = F(1, -1)  # H - E, nef
    previous = None
    for k in range(9):
        t = Fraction(k, 8)
        dec = zariski_decompose(blowup1, vec_add(alpha, vec_scale(t, beta)))
        coeffs = dec.coeff_map()
        if previous is not None:
            for i in set(coeffs) | set(previous):
                assert coeffs.get(i, 0) <= previous.get(i, 0)
        previous = coeffs


# -- volume and classification ----------------------------------------------


def test_volume_examples(blowup1):
    assert volume(blowup1, F(2, 1)) == 4   # 2H+E
    assert volume(blowup1, F(1, 0)) == 1   # H
    assert volume(blowup1, F(1, -1)) == 0  # H-E


def test_classify_examples(blowup1):
    cls = classify(blowup1, F(0, 1))
    assert (cls.kind, cls.numdim) == (Kind.BOUNDARY, 0)
    cls = classify(blowup1, F(1, -1))
    assert (cls.kind, cls.numdim) == (Kind.BOUNDARY, 1)
    cls = classify(blowup1, F(3, 0))
    assert (cls.kind, cls.numdim) == (Kind.BIG, 2)
    cls = classify(blowup1, F(-1, 0))
    assert (cls.kind, cls.numdim) == (Kind.NOT_PSEF, None)


# -- derivative -------------------------------------------------------------


def test_derivative_examples(blowup1):
    assert derivative_vol(blowup1, F(2, 1), F(1, -1)) == 4
    assert derivative_vol(blowup1, F(1, 0), F(0, 1)) == 0
    assert derivative_vol(blowup1, F(2, 0), F(0, 0)) == 0


def test_derivative_difference_quotient_matches(blowup1):
    # vol(a + h*b) = vol(a) + 2h*Z(a).b + h^2*(b_perp)^2 below the first breakpoint
    alpha, beta = F(2, 1), F(1, -1)
    base = volume(blowup1, alpha)
    d = derivative_vol(blowup1, alpha, beta)
    from zok.okounkov import first_chamber_along

    ch = first_chamber_along(blowup1, alpha, beta)
    curvature = blowup1.intersect(ch.z1, ch.z1)
    for h in (Fraction(1, 8), Fraction(1, 3)):
        if not h < ch.t_hi:
            continue
        quotient = (volume(blowup1, vec_add(alpha, vec_scale(h, beta))) - base) / h
        assert quotient == d + h * curvature


def test_derivative_requires_big(blowup1):
    with pytest.raises(NotBig):
        derivative_vol(blowup1, F(1, -1), F(1, 0))


def test_derivative_unsupported_direction(blowup1):
    # 2H - 3E is neither nef-in-model nor a listed curve class
    with pytest.raises(UnsupportedDirection):
        derivative_vol(blowup1, F(2, 0), F(2, -3))


# -- Morse ------------------------------------------------------------------


def test_morse_examples(blowup1):
    cert = morse_gap(blowup1, F(3, 0), F(1, -1))
    assert cert.lhs == 3 and cert.conclusion_big and cert.vol == 4 and cert.holds

    cert = morse_gap(blowup1, F(2, 0), F(1, -1))
    assert cert.lhs == 0 and cert.holds

    alpha = F(2, -1)  # nef and big
    cert = morse_gap(blowup1, alpha, F(0, 0))
    assert cert.lhs == volume(blowup1, alpha) == cert.vol


def test_morse_rejects_non_nef(blowup1):
    with pytest.raises(NotNef):
        morse_gap(blowup1, F(0, 1), F(0, 0))
    with pytest.raises(NotNef):
        morse_gap(blowup1, F(1, 0), F(0, 1))


# -- null / non-Kahler loci --------------------------------------------------


def test_null_curves_examples(blowup1, p2):
    assert null_curves(blowup1, F(2, 0)) == (0,)
    assert null_curves(blowup1, F(2, -1)) == ()
    assert null_curves(p2, F(1)) == ()


def test_null_curves_preconditions(blowup1):
    with pytest.raises(NotNef):
        null_curves(blowup1, F(0, 1))
    with pytest.raises(NotBig):
        null_curves(blowup1, F(1, -1))


def test_non_kahler_examples(blowup1):
    assert non_kahler_curves(blowup1, F(2, 0)) == (0,)
    assert non_kahler_curves(blowup1, F(2, 1)) == (0,)
    assert non_kahler_curves(blowup1, F(2, -1)) == ()
    with pytest.raises(NotBig):
        non_kahler_curves(blowup1, F(1, -1))


# -- exceptional families ----------------------------------------------------


def test_families_examples(p2, blowup1):
    assert enumerate_exceptional_families(p2) == [()]
    assert enumerate_exceptional_families(blowup1) == [(), (0,)]


def test_families_two_point_blowup_toy():
    m = make_model(
        "two-point-toy", 3,
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [("E1", [0, 1, 0]), ("E2", [0, 0, 1])],
        [3, -1, -1],
    )
    fams = enumerate_exceptional_families(m)
    assert fams == [(), (0,), (0, 1), (1,)]


def test_families_guard(monkeypatch):
    curves = [(f"E{i}", [0] * i + [1] + [0] * (21 - i)) for i in range(1, 22)]
    gram = [[0] * 22 for _ in range(22)]
    gram[0][0] = 1
    for i in range(1, 22):
        gram[i][i] = -1
    m = make_model("big", 22, gram, curves, [43] + [-1] * 21)
    with pytest.raises(UsageError):
        enumerate_exceptional_families(m)

    # override semantics checked with a lowered cap to keep enumeration tiny
    import zok.zariski as zmod

    monkeypatch.setattr(zmod, "FAMILY_ENUMERATION_CAP", 2)
    toy = make_model(
        "toy", 3, [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        [("E1", [0, 1, 0]), ("E2", [0, 0, 1]), ("L12", [1, -1, -1])],
        [3, -1, -1],
    )
    with pytest.raises(UsageError):
        enumerate_exceptional_families(toy)
    assert enumerate_exceptional_families(toy, allow_large=True) == [
        (), (0,), (0, 1), (1,), (2,),
    ]


def test_family_sizes_bounded_by_rank(blowup2):
    for fam in enumerate_exceptional_families(blowup2):
        assert len(fam) <= blowup2.rank


# -- orthogonal nef lift ------------------------------------------------------


def test_lift_examples(blowup1):
    gamma, b = orthogonal_nef_lift(blowup1, (0,), F(2, -1))
    assert b == (Fraction(1),)
    assert gamma == F(2, 0)


def test_lift_two_point(blowup2):
    gamma, b = orthogonal_nef_lift(blowup2, (0, 1), F(3, -1, -1))
    assert b == (Fraction(1), Fraction(1))
    assert gamma == F(3, 0, 0)


def test_lift_one_by_one_system(blowup1):
    # omega.E = 1 against E^2 = -1 forces b = 1
    gamma, b = orthogonal_nef_lift(blowup1, (0,))
    assert b == (Fraction(1),)
    assert blowup1.intersect(gamma, blowup1.curve_class(0)) == 0


def test_lift_rejects_bad_family(blowup1):
    with pytest.raises(ValueError):
        orthogonal_nef_lift(blowup1, ())
    with pytest.raises(ValueError):
        orthogonal_nef_lift(blowup1, (1,))  # (H-E)^2 = 0, not negative definite


# -- perturbation --------------------------------------------------------------


def test_perturbed_decomposition_example(blowup1):
    omega = F(2, -1)
    dec = perturbed_decomposition(blowup1, F(0, 1), omega, Fraction(1, 2))
    assert dec.positive == F(1, 0)
    assert dec.support == (0,)
    assert dec.coeffs == (Fraction(1, 2),)


def test_perturbed_decomposition_threshold(blowup1):
    omega = F(2, -1)
    with pytest.raises(EpsilonTooLarge) as err:
        perturbed_decomposition(blowup1, F(0, 1), omega, Fraction(1))
    assert err.value.threshold == 1


def test_perturbed_decomposition_refuses_an_inexact_eps(blowup1):
    # Fraction(0.1) would run with eps = 3602879701896397/36028797018963968
    omega = F(2, -1)
    for eps in (0.1, 0.5, True):
        with pytest.raises(ValueError, match="^not a rational: "):
            perturbed_decomposition(blowup1, F(0, 1), omega, eps)
    assert perturbed_decomposition(blowup1, F(0, 1), omega, "1/2").coeffs == (Fraction(1, 2),)


def test_perturbed_decomposition_empty_support(blowup1):
    omega = F(2, -1)
    eps = Fraction(1, 3)
    dec = perturbed_decomposition(blowup1, F(1, -1), omega, eps)
    assert dec == zariski_decompose(blowup1, vec_add(F(1, -1), vec_scale(eps, omega)))


def test_perturbed_matches_direct_on_grid(blowup1, blowup2):
    for model in (blowup1, blowup2):
        omega = model.kahler
        for alpha in int_grid(model.rank, 2):
            try:
                dec = zariski_decompose(model, alpha)
            except NotPseudoEffective:
                continue
            if dec.volume(model) != 0 or not dec.support:
                continue
            _, b = orthogonal_nef_lift(model, dec.support, omega)
            threshold = min(a / bi for a, bi in zip(dec.coeffs, b))
            for frac in (Fraction(1, 4), Fraction(1, 2)):
                eps = frac * threshold
                got = perturbed_decomposition(model, alpha, omega, eps)
                assert got == zariski_decompose(
                    model, vec_add(alpha, vec_scale(eps, omega))
                )
            with pytest.raises(EpsilonTooLarge):
                perturbed_decomposition(model, alpha, omega, threshold)


def test_morse_gap_decomposes_the_difference_once(decompositions, blowup1):
    cert = morse_gap(blowup1, F(3, -1), F(1, 0))
    assert (cert.lhs, cert.conclusion_big, cert.vol) == (2, True, 3)
    assert decompositions == [F(2, -1)]


# -- the numbers a checked decomposition keeps -----------------------------------


def _assert_kept_numbers_match(model, dec):
    """P.C_i, P^2 and P.omega kept on dec equal the gram_product reference."""
    from zok.lattice import gram_product

    p = dec.positive
    assert dec.positive_pairings == tuple(
        gram_product(model.gram, p, model.curve_class(i)) for i in range(len(model.curves))
    )
    assert dec.positive_square == gram_product(model.gram, p, p)
    assert dec.positive_kahler == gram_product(model.gram, p, model.kahler)
    lp, nums, pd, pairs = dec.positive_ints
    assert tuple(Fraction(x, lp) for x in nums) == p
    assert tuple(Fraction(v, pd) for v in pairs) == dec.positive_pairings
    # a decomposition built by hand keeps nothing, and reads the same
    bare = ZariskiDecomp(dec.alpha, p, dec.support, dec.coeffs)
    assert bare.positive_square is None and bare.positive_ints is None
    assert bare == dec and repr(bare) == repr(dec) and hash(bare) == hash(dec)
    assert bare.volume(model) == dec.volume(model)


def test_kept_numbers_on_every_route(blowup1, blowup2, hirzebruch2):
    from zok.oracle import ModelGenSpec, brute_force_zariski, random_model

    models = [blowup1, blowup2, hirzebruch2, random_model(ModelGenSpec(seed=7, rank=4, num_curves=6))]
    routes = 0
    for model in models:
        omega = model.kahler
        for alpha in int_grid(model.rank, 1):
            try:
                dec = zariski_decompose(model, alpha)
            except NotPseudoEffective:
                assert brute_force_zariski(model, alpha) is None
                continue
            _assert_kept_numbers_match(model, dec)
            _assert_kept_numbers_match(model, brute_force_zariski(model, alpha))
            if dec.support:
                _, b = orthogonal_nef_lift(model, dec.support, omega)
                eps_ok = min(a / bi for a, bi in zip(dec.coeffs, b)) / 2
                _assert_kept_numbers_match(
                    model, perturbed_decomposition(model, alpha, omega, eps_ok)
                )
            routes += 1
    assert routes > 40


def _count_calls_on(monkeypatch, vector):
    """The names of the SurfaceModel pairing methods called on vector, as
    they happen."""
    from zok.lattice import SurfaceModel

    calls = []
    for name in ("intersect", "pairings", "pairing"):
        method = getattr(SurfaceModel, name)

        def counting(self, u, *rest, _name=name, _method=method):
            if tuple(u) == vector:
                calls.append(_name)
            return _method(self, u, *rest)

        monkeypatch.setattr(SurfaceModel, name, counting)
    return calls


def test_positive_part_numbers_are_computed_once(monkeypatch, blowup2):
    """The check forms P's numerators once and reads P.C_i, P^2 and P.omega
    off them as integer dot products, with no pairing call on P, on
    zariski_decompose and on brute_force_zariski."""
    from zok.oracle import brute_force_zariski

    alpha = F(3, 1, -1)
    dec = zariski_decompose(blowup2, alpha)
    positive = dec.positive
    assert dec.support == (0,)
    calls = _count_calls_on(monkeypatch, positive)
    for route in (zariski_decompose, brute_force_zariski):
        calls.clear()
        assert route(blowup2, alpha).positive == positive
        assert calls == []


def test_decomposition_makes_no_pairing_call(monkeypatch, blowup2, hirzebruch2):
    """zariski_decompose scales alpha once and pairs it, and its check pairs
    P, as integer dot products with the model's duals: no SurfaceModel
    pairing method is called."""
    from zok.lattice import SurfaceModel

    calls = []
    for name in ("intersect", "pairings", "pairing"):
        method = getattr(SurfaceModel, name)

        def counting(self, *args, _name=name, _method=method):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(SurfaceModel, name, counting)
    supports = [zariski_decompose(model, alpha).support
                for model, alpha in ((blowup2, F(3, 1, -1)), (blowup2, F(3, -1, -1)),
                                     (hirzebruch2, F(3, 2)), (hirzebruch2, F(1, 1)))]
    assert calls == [] and () in supports and len(set(supports)) > 1


def test_orthogonal_nef_lift_pairs_the_lift_once(monkeypatch, blowup2):
    """One pairing of the lift serves the orthogonality and the nef test;
    its square and its product with omega are computed once each."""
    lifted, b = orthogonal_nef_lift(blowup2, (0, 1))
    calls = _count_calls_on(monkeypatch, lifted)
    assert orthogonal_nef_lift(blowup2, (0, 1)) == (lifted, b)
    assert sorted(calls) == ["intersect", "intersect", "pairings"]


# -- the decomposition checker, fed by hand --------------------------------------


@pytest.mark.parametrize(
    "name, alpha, support, coeffs, error, text",
    [
        ("p2", (-1,), (), (), NotPseudoEffective,
         "positive part meets the Kahler class negatively"),
        ("blowup1", (0, 1), (), (), NotPseudoEffective,
         "positive part has negative self-intersection"),
        ("blowup1", (2, 1, 5), (0,), (1,), InvariantError,
         "decomposition does not reconstruct the class"),
        ("blowup1", (2, 1), (0,), (Fraction(1, 2),), InvariantError,
         "positive part not orthogonal to support"),
        ("blowup1", (1, 0), (0,), (0,), InvariantError,
         "non-positive negative-part coefficient"),
        ("blowup1", (2, -1), (0,), (-1,), InvariantError,
         "non-positive negative-part coefficient"),
        ("p2", (1,), (0,), (1,), InvariantError,
         "support Gram matrix not negative definite"),
        ("blowup1", (2, 1), (), (), InvariantError,
         "positive part not nef in model"),
    ],
)
def test_checker_rejects_hand_made_decompositions(name, alpha, support, coeffs, error, text):
    """Each branch of the checker, reached from (alpha, S, a) on a fixture:
    the two verdicts first, then the invariant breaches no public route
    reaches."""
    from zok.fixtures import load_fixture
    from zok.zariski import _check_decomposition

    with pytest.raises(error) as info:
        _check_decomposition(load_fixture(name), F(*alpha), support, F(*coeffs))
    assert type(info.value) is error and str(info.value) == text


def test_checker_builds_a_valid_decomposition(blowup1):
    from zok.zariski import _check_decomposition

    dec = _check_decomposition(blowup1, F(2, 1), (0,), F(1))
    assert (dec.alpha, dec.positive, dec.support, dec.coeffs) == (F(2, 1), F(2, 0), (0,), F(1))
    assert dec == zariski_decompose(blowup1, F(2, 1))
    _assert_kept_numbers_match(blowup1, dec)
