from __future__ import annotations

import dataclasses
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
from zok.lattice import IntClass, make_model
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
from reference import (
    checked,
    reference_derivative_vol,
    reference_is_nef,
    reference_morse_gap,
    reference_null_curves,
    reference_orthogonal_nef_lift,
    reference_perturbed_decomposition,
    vec_add,
    vec_scale,
)


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


def test_perturbed_decomposition_refuses_a_class_of_the_wrong_length(blowup2):
    """A short or long omega raises the text a short or long alpha raises,
    that of the one entry of a class into the kernel (pairing_ints)."""
    for bad in (F(1, 0), F(3, -1, -1, 0)):
        for alpha, omega in ((bad, blowup2.kahler), (blowup2.kahler, bad)):
            with pytest.raises(ValueError) as err:
                perturbed_decomposition(blowup2, alpha, omega, Fraction(1, 8))
            assert str(err.value) == "vector length must be 3"


def test_perturbed_decomposition_scales_its_closed_form_once(monkeypatch, blowup1):
    """alpha is scaled once (_over_lcm) and the closed form's coefficients
    once; alpha + eps*omega goes to the check as the numerators it was formed
    from, not scaled again."""
    import zok.zariski

    calls = []
    over_lcm = zok.zariski._over_lcm

    def counting(u):
        calls.append(tuple(u))
        return over_lcm(u)

    monkeypatch.setattr(zok.zariski, "_over_lcm", counting)
    dec = perturbed_decomposition(blowup1, F(2, 1), blowup1.kahler, Fraction(1, 10))
    assert dec.support == (0,) and dec.coeffs == (Fraction(9, 10),)
    assert calls == [F(2, 1), (Fraction(9, 10),)]


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
            if dec.volume() != 0 or not dec.support:
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
    """P.C_i and P^2 kept on dec equal the gram_product reference."""
    from zok.lattice import gram_product

    p = dec.positive
    assert dec.positive_pairings == tuple(
        gram_product(model.gram, p, model.curve_class(i)) for i in range(len(model.curves))
    )
    assert dec.positive_square == gram_product(model.gram, p, p)
    kept = dec.positive_ints
    assert tuple(Fraction(x, kept.den) for x in kept.nums) == p
    assert tuple(Fraction(v, kept.pd) for v in kept.pairs) == dec.positive_pairings
    # the proof fields take no part in ==, hash or repr, and are required
    other = dataclasses.replace(dec, positive_square=dec.positive_square + 1, positive_ints=())
    assert other == dec and repr(other) == repr(dec) and hash(other) == hash(dec)
    with pytest.raises(TypeError, match="positive_square.*positive_ints"):
        ZariskiDecomp(dec.alpha, p, dec.support, dec.coeffs)


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


def _count_calls_on(monkeypatch, vector=None):
    """The names of the SurfaceModel pairing methods called on vector (on
    any class when vector is None), as they happen."""
    from zok.lattice import SurfaceModel

    calls = []
    for name in ("intersect", "pairings", "pairing"):
        method = getattr(SurfaceModel, name)

        def counting(self, u, *rest, _name=name, _method=method):
            if vector is None or tuple(u) == vector:
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
    calls = _count_calls_on(monkeypatch)
    supports = [zariski_decompose(model, alpha).support
                for model, alpha in ((blowup2, F(3, 1, -1)), (blowup2, F(3, -1, -1)),
                                     (hirzebruch2, F(3, 2)), (hirzebruch2, F(1, 1)))]
    assert calls == [] and () in supports and len(set(supports)) > 1


def test_orthogonal_nef_lift_pairs_the_lift_once(monkeypatch, blowup2):
    """The lift is formed and checked over integer numerators: one integer
    pairing of the lift serves the orthogonality and the nef test, and no
    SurfaceModel pairing method meets it."""
    lifted, b = orthogonal_nef_lift(blowup2, (0, 1))
    calls = _count_calls_on(monkeypatch, lifted)
    assert orthogonal_nef_lift(blowup2, (0, 1)) == (lifted, b)
    assert calls == []


def test_decompose_ops_make_no_pairing_call(monkeypatch, blowup1, blowup2):
    """The nef test, the direction test, the derivative, the Morse
    certificate, the null locus, the lift and the perturbation scale each
    class once and read the model's integer tables: no SurfaceModel pairing
    method is called, on answers and on refusals alike; nor by the subset
    search, which pairs its class once as integers."""
    from zok.oracle import brute_force_zariski
    from zok.zariski import _direction_kind

    calls = _count_calls_on(monkeypatch)
    assert is_nef_in_model(blowup2, F(3, -1, -1)) and not is_nef_in_model(blowup2, F(0, 1, 0))
    assert _direction_kind(blowup1, F(0, 1)) == ("curve", 0)
    assert _direction_kind(blowup1, F(1, -1))[0] == "nef"
    assert derivative_vol(blowup1, F(3, -1), F(0, 1)) == 2
    assert derivative_vol(blowup1, F(2, 1), F(1, 0)) == 4
    assert morse_gap(blowup1, F(3, 0), F(1, -1)).lhs == 3
    assert null_curves(blowup2, F(2, -1, -1)) == (2,)
    assert orthogonal_nef_lift(blowup2, (0, 1), F(5, -1, -1))[1] == F(1, 1)
    assert perturbed_decomposition(blowup2, F(3, 1, -1), blowup2.kahler, Fraction(1, 8)).support
    with pytest.raises(EpsilonTooLarge):
        perturbed_decomposition(blowup2, F(3, 1, -1), blowup2.kahler, 4)
    with pytest.raises(ValueError):
        perturbed_decomposition(blowup2, F(3, 1, -1), F(0, 1, 0), 1)
    with pytest.raises(NotNef):
        morse_gap(blowup1, F(0, 1), F(1, 0))
    assert brute_force_zariski(blowup2, F(3, 1, -1)).support == (0,)
    assert calls == []


def test_positive_pairings_are_built_on_first_read(blowup2):
    """positive_pairings is read off positive_ints on first read and kept:
    it equals the gram_product reference, is built once, and takes no part
    in equality, repr or hash, nor do the two proof fields, which a
    decomposition cannot be built without."""
    from zok.lattice import gram_product

    dec = zariski_decompose(blowup2, F(3, 1, -1))
    other = dataclasses.replace(dec, positive_square=dec.positive_square + 1,
                                positive_ints=IntClass(1, [0] * 3, 1, [0] * 3, ()))
    with pytest.raises(TypeError, match="positive_square.*positive_ints"):
        ZariskiDecomp(dec.alpha, dec.positive, dec.support, dec.coeffs)
    before = (repr(dec), hash(dec))
    assert "positive_pairings" not in vars(dec)
    pairs = dec.positive_pairings
    assert pairs == tuple(gram_product(blowup2.gram, dec.positive, c.cls) for c in blowup2.curves)
    kept = dec.positive_ints
    assert pairs == tuple(Fraction(v, kept.pd) for v in kept.pairs)
    assert all(type(v) is Fraction for v in pairs)
    assert vars(dec)["positive_pairings"] is pairs and dec.positive_pairings is pairs
    assert (repr(dec), hash(dec)) == before == (repr(other), hash(other)) and dec == other
    assert "positive_pairings" not in repr(dec)
    assert other.positive_pairings != pairs


# -- the integer edges against their Fraction references --------------------------


@pytest.fixture(scope="module")
def edge_models():
    """The four fixtures, the golden model and eight seeded random models of
    rank 3-6, each with its test classes: zero, omega, 2 omega, the curves,
    omega -/+ a curve, seeded fractional classes and the positive part of
    every decomposable one (nef, some of square 0)."""
    import random

    from zok.fixtures import load_fixture
    from zok.oracle import ModelGenSpec, random_model

    models = [load_fixture(n) for n in ("p2", "blowup1", "blowup2", "hirzebruch2")]
    models.append(make_model("golden", 2, [[2, 1], [1, -2]],
                             [("A", [1, 0]), ("N", [0, 1])], [1, 0]))
    models += [random_model(ModelGenSpec(seed=s, rank=3 + s % 4, num_curves=5 + s % 3))
               for s in range(8)]
    cases = []
    for k, model in enumerate(models):
        rng = random.Random(k)
        omega = model.kahler
        curves = [c.cls for c in model.curves]
        classes = [F(*[0] * model.rank), omega, vec_scale(2, omega)] + curves
        for c in curves[:4]:
            classes += [tuple(a - x for a, x in zip(omega, c)), vec_add(vec_scale(2, omega), c)]
        classes += [tuple(Fraction(rng.randint(-3, 4), rng.choice((1, 2, 3))) for _ in omega)
                    for _ in range(6)]
        for alpha in list(classes):
            try:
                classes.append(zariski_decompose(model, alpha).positive)
            except NotPseudoEffective:
                pass
        cases.append((model, list(dict.fromkeys(classes))))
    return cases


def _outcome(f, *args):
    """An answer with its repr (which shows each scalar's type), or the
    exception's type, text and threshold."""
    try:
        answer = f(*args)
    except Exception as exc:  # noqa: BLE001 - the reference must raise the same
        return "raised", type(exc), str(exc), getattr(exc, "threshold", None)
    return "answered", answer, repr(answer)


def test_nef_test_and_null_locus_match_their_references(edge_models):
    seen = {"nef": 0, "not nef": 0, "null": 0, "not big": 0}
    for model, classes in edge_models:
        for alpha in classes:
            got = _outcome(is_nef_in_model, model, alpha)
            assert got == _outcome(reference_is_nef, model, alpha)
            seen["nef" if got[1] else "not nef"] += 1
            got = _outcome(null_curves, model, alpha)
            assert got == _outcome(reference_null_curves, model, alpha)
            seen["null"] += got[0] == "answered"
            seen["not big"] += got[1] is NotBig
    assert min(seen.values()) > 5, seen


def test_derivative_and_morse_match_their_references(edge_models):
    seen = {"nef": 0, "curve": 0, "unsupported": 0, "morse": 0, "not nef": 0, "lhs > 0": 0}
    for model, classes in edge_models:
        directions = [model.kahler] + [c.cls for c in model.curves[:3]] + classes[-4:]
        for alpha in classes[::2]:
            for beta in directions:
                got = _outcome(derivative_vol, model, alpha, beta)
                assert got == _outcome(reference_derivative_vol, model, alpha, beta)
                if got[0] == "answered":
                    seen["nef" if reference_is_nef(model, beta) else "curve"] += 1
                seen["unsupported"] += got[1] is UnsupportedDirection
                got = _outcome(morse_gap, model, alpha, beta)
                assert got == _outcome(reference_morse_gap, model, alpha, beta)
                seen["morse"] += got[0] == "answered"
                seen["lhs > 0"] += got[0] == "answered" and got[1].lhs > 0
                seen["not nef"] += got[1] is NotNef
    assert min(seen.values()) > 5, seen


def test_a_curve_direction_is_matched_exactly_across_denominators():
    """A direction is a listed curve only when it equals the curve's class as
    rationals: the classes E1/4, E2/2 and 3 L12/4 sit over one common
    denominator, and E1 = (0, 1, 0) has E1/4's numerators but is no listed
    class."""
    from zok.zariski import _direction_kind

    model = make_model("quarters", 3, [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
                       [("A", [0, "1/4", 0]), ("B", [0, 0, "1/2"]),
                        ("C", ["3/4", "-3/4", "-3/4"])], [3, -1, -1])
    for j, c in enumerate(model.curves):
        assert _direction_kind(model, c.cls) == ("curve", j)
    doubled = [tuple(2 * x for x in c.cls) for c in model.curves]
    for beta in [F(0, 1, 0), F(0, 0, 1), F(3, -3, -3)] + doubled:
        with pytest.raises(UnsupportedDirection):
            _direction_kind(model, beta)
    for alpha in (F(3, -1, -1), F(4, -1, -2), F(5, -2, -1)):
        for beta in [c.cls for c in model.curves] + [F(0, 1, 0), F(1, 0, 0)]:
            got = _outcome(derivative_vol, model, alpha, beta)
            assert got == _outcome(reference_derivative_vol, model, alpha, beta)


def test_lift_and_perturbation_match_their_references(edge_models):
    seen = {"lift": 0, "lift refused": 0, "lift breach": 0, "closed form": 0,
            "direct": 0, "eps too large": 0, "not Kahler-like": 0}
    for model, classes in edge_models:
        families = [f for f in enumerate_exceptional_families(model, allow_large=True) if f][:5]
        for family in families:
            for omega in [None] + classes[1:8]:
                got = _outcome(orthogonal_nef_lift, model, family, omega)
                want = _outcome(reference_orthogonal_nef_lift, model, family, omega)
                assert got == want
                seen["lift"] += got[0] == "answered"
                seen["lift refused"] += got[1] is ValueError
                seen["lift breach"] += got[1] is InvariantError
        omegas = [model.kahler, vec_add(vec_scale(2, model.kahler), model.curve_class(0)),
                  vec_scale(Fraction(2, 3), model.kahler), model.curve_class(0)]
        for alpha in classes:
            for omega in omegas:
                for eps in (Fraction(1, 64), Fraction(1, 4), 1, "4"):
                    got = _outcome(perturbed_decomposition, model, alpha, omega, eps)
                    want = _outcome(reference_perturbed_decomposition,
                                    model, alpha, omega, eps)
                    assert got == want
                    if got[0] == "answered":
                        seen["closed form" if got[1].support else "direct"] += 1
                        _assert_kept_numbers_match(model, got[1])
                    seen["eps too large"] += got[1] is EpsilonTooLarge
                    seen["not Kahler-like"] += got[1] is ValueError
    assert min(seen.values()) > 5, seen


def test_bad_classes_raise_as_the_references(edge_models):
    """Wrong length raises ValueError first, an unsupported scalar
    (QuadExt, float, bool) TypeError, with the references' texts, in every
    argument of every operation."""
    from zok.exact import QuadExt
    checked = 0
    for model, classes in edge_models[1:8]:
        good = model.kahler
        rest = tuple(good[1:])
        bads = [tuple(good[:-1]), tuple(good) + (Fraction(1),),
                (QuadExt._of(Fraction(1), Fraction(1), 2),) + rest, (0.5,) + rest,
                (True,) + rest, (QuadExt._of(Fraction(1), Fraction(1), 2), 0.5) + rest[1:]]
        family = next(f for f in enumerate_exceptional_families(model) if f)
        for bad in bads:
            pairs = [
                (is_nef_in_model, reference_is_nef, (model, bad)),
                (null_curves, reference_null_curves, (model, bad)),
                (derivative_vol, reference_derivative_vol, (model, good, bad)),
                (morse_gap, reference_morse_gap, (model, bad, good)),
                (morse_gap, reference_morse_gap, (model, good, bad)),
                (orthogonal_nef_lift, reference_orthogonal_nef_lift,
                 (model, family, bad)),
                (orthogonal_nef_lift, reference_orthogonal_nef_lift,
                 (model, tuple(range(len(model.curves))), bad)),
                (perturbed_decomposition, reference_perturbed_decomposition,
                 (model, good, bad, 1)),
            ]
            for f, ref, args in pairs:
                got = _outcome(f, *args)
                assert got[0] == "raised" and got == _outcome(ref, *args), (f.__name__, bad)
                assert got[1] is (ValueError if len(bad) != model.rank else TypeError) or \
                    f is orthogonal_nef_lift
                checked += 1
    assert checked > 300


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

    with pytest.raises(error) as info:
        checked(load_fixture(name), F(*alpha), support, F(*coeffs))
    assert type(info.value) is error and str(info.value) == text


def test_checker_builds_a_valid_decomposition(blowup1):
    dec = checked(blowup1, F(2, 1), (0,), F(1))
    assert (dec.alpha, dec.positive, dec.support, dec.coeffs) == (F(2, 1), F(2, 0), (0,), F(1))
    assert dec == zariski_decompose(blowup1, F(2, 1))
    _assert_kept_numbers_match(blowup1, dec)


def test_kahler_like_test_refuses_the_boundary(blowup2):
    """omega of square 0 positive on every curve, and omega of positive
    square with a null curve, are both refused as the reference refuses
    them: each inequality of the Kahler-like test is strict."""
    from zok.oracle import ModelGenSpec, random_model

    model = random_model(ModelGenSpec(seed=3, rank=6, num_curves=5))
    square_zero = F(4, -3, -2, -1, -1, -1)
    null_curve = F(2, -1, -1)
    assert reference_null_curves(blowup2, null_curve) == (2,)
    for model, omega in ((model, square_zero), (blowup2, null_curve)):
        alpha = vec_scale(3, model.kahler)
        got = _outcome(perturbed_decomposition, model, alpha, omega, Fraction(1, 8))
        assert got[:2] == ("raised", ValueError) and "Kahler-like" in got[2]
        assert got == _outcome(reference_perturbed_decomposition, model, alpha, omega,
                               Fraction(1, 8))


def test_lift_refuses_a_coefficient_that_is_not_positive():
    """On a model whose two curves meet negatively (against the model
    invariants) the lift coefficients can be 0 or negative; both are
    refused as the reference refuses them."""
    model = make_model("meets-negatively", 3, [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
                       [("C1", [0, 1, 0]), ("C2", [0, 1, 1])], [3, -1, -1])
    for omega in (F(3, -1, -1), F(3, -1, -2)):  # b = (0, 1) and b = (-1, 2)
        got = _outcome(orthogonal_nef_lift, model, (0, 1), omega)
        assert got == ("raised", InvariantError, "lift coefficients must be positive", None)
        assert got == _outcome(reference_orthogonal_nef_lift, model, (0, 1), omega)


def test_lift_refuses_a_support_table_that_does_not_solve():
    """A support table whose rows do not solve the family's system gives a
    lift that is not orthogonal to the family, which the lift refuses."""
    from zok.fixtures import load_fixture

    model = load_fixture("blowup2")
    den, coeff_rows, residual_rows = model.support_forms((0, 1))
    model._support_table[(0, 1)] = (2 * den, coeff_rows, residual_rows)  # halves b
    with pytest.raises(InvariantError) as info:
        orthogonal_nef_lift(model, (0, 1))
    assert str(info.value) == "lift not orthogonal to family"


@pytest.mark.parametrize("family, bad", [((-1,), -1), ((True,), True), ((99,), 99),
                                         ((1.0,), 1.0), ((0, "E2"), "E2")])
def test_lift_refuses_an_index_that_is_not_a_curve(family, bad):
    """A negative index, a bool, an index past the curve list, a float and
    a name next to an index are each refused as UnknownCurve, as the
    reference refuses them, before the support table solves anything."""
    from zok.errors import UnknownCurve
    from zok.fixtures import load_fixture

    model = load_fixture("blowup2")
    got = _outcome(orthogonal_nef_lift, model, family)
    assert got == ("raised", UnknownCurve, f"no curve with index {bad}", None)
    assert got == _outcome(reference_orthogonal_nef_lift, model, family)
    assert model._support_table == {}
