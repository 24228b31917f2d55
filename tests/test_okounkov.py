from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from zok.errors import (
    FlagInNonKahlerLocus,
    HypothesisViolated,
    InvariantError,
    NotBig,
    NotOnBoundary,
    NotPseudoEffective,
    UnknownCurve,
)
from zok.exact import QuadExt
from zok.lattice import IntClass
from zok.okounkov import (
    BoundaryBody,
    FlagSpec,
    SegmentChamber,
    boundary_body,
    envelopes,
    first_chamber_along,
    okounkov_polygon,
    restricted_body,
    segment_chambers,
    slopes,
    validate_flag,
)
from zok.oracle import area_by_integration
from zok.zariski import volume

from conftest import F, int_grid
from reference import vec_scale


# -- flag validation -----------------------------------------------------------


def test_flag_validation(blowup1):
    validate_flag(blowup1, FlagSpec.make(1, {0: Fraction(1)}))
    with pytest.raises(ValueError):
        validate_flag(blowup1, FlagSpec.make(1, {1: Fraction(1)}))  # flag curve itself
    with pytest.raises(ValueError):
        validate_flag(blowup1, FlagSpec.make(1, {0: Fraction(2)}))  # above E.(H-E)=1
    with pytest.raises(ValueError):
        validate_flag(blowup1, FlagSpec.make(1, {0: Fraction(-1)}))
    with pytest.raises(UnknownCurve):
        validate_flag(blowup1, FlagSpec.make(7))


def test_flag_make_refuses_a_multiplicity_index_that_is_not_an_integer():
    # int() would truncate 0.9 to curve 0
    for index in (0.9, Fraction(1), True, "0.5"):
        with pytest.raises(ValueError, match="^curve index must be an integer, got "):
            FlagSpec.make(2, {index: 1})


def test_flag_make_refuses_a_flag_curve_that_is_not_an_integer():
    for curve in (1.5, 1.0, False):
        with pytest.raises(ValueError, match="^curve index must be an integer, got "):
            FlagSpec.make(curve)
    assert FlagSpec.make("1", {"0": 1}) == FlagSpec.make(1, {0: 1})


def test_flag_make_refuses_an_inexact_multiplicity():
    # Fraction(0.1) would keep the float's binary value 3602879701896397/2**55
    for mult in (0.1, 1.0, True):
        with pytest.raises(ValueError, match="^not a rational: "):
            FlagSpec.make(1, {0: mult})
    assert FlagSpec.make(1, {0: "1/2"}).mults == ((0, Fraction(1, 2)),)


def test_validate_flag_refuses_a_flag_curve_that_is_not_an_integer(blowup2):
    for curve in (1.5, 1.0, True):
        with pytest.raises(UnknownCurve, match=f"^no curve with index {curve}$"):
            validate_flag(blowup2, FlagSpec(curve))


def test_validate_flag_refuses_a_multiplicity_index_that_is_not_an_integer(blowup2):
    for index in (0.9, 1.0, True):
        with pytest.raises(UnknownCurve, match=f"^no curve with index {index}$"):
            validate_flag(blowup2, FlagSpec(2, ((index, Fraction(1)),)))


def test_resolve_curve_refuses_an_index_that_is_not_an_integer(blowup2):
    assert blowup2.resolve_curve(1) == 1 and blowup2.resolve_curve("E1") == 0
    for curve in (0.9, 1.0, True, Fraction(1), None):
        with pytest.raises(UnknownCurve, match=f"^no curve with index {curve}$"):
            blowup2.resolve_curve(curve)
    with pytest.raises(UnknownCurve):
        segment_chambers(blowup2, blowup2.kahler, 1.5)


def test_flag_rejects_two_multiplicities_for_one_curve(blowup2):
    # 0 and "0" are one curve index once FlagSpec.make converts them
    flag = FlagSpec.make(2, {0: 1, "0": 0})
    assert [i for i, _ in flag.mults] == [0, 0]
    with pytest.raises(ValueError, match="^curve 'E1' has more than one multiplicity$"):
        validate_flag(blowup2, flag)


# -- chamber walks ---------------------------------------------------------------


def test_chambers_p2(p2):
    chs = segment_chambers(p2, F(1), 0)
    assert len(chs) == 1
    ch = chs[0]
    assert (ch.t_lo, ch.t_hi) == (0, 1)
    assert ch.support == ()
    assert ch.z_at(Fraction(1, 2)) == (Fraction(1, 2),)


def test_chambers_2h_along_strict_transform(blowup1):
    chs = segment_chambers(blowup1, F(2, 0), 1)
    assert len(chs) == 1
    ch = chs[0]
    assert (ch.t_lo, ch.t_hi) == (0, 2)
    assert ch.support == (0,)
    # Z_t = (2-t)H and a_E(t) = t
    assert ch.z_at(Fraction(1, 2)) == (Fraction(3, 2), Fraction(0))
    assert ch.coeff_pair(0) == (Fraction(0), Fraction(1))


def test_chambers_h_plus_e_along_e(blowup1):
    chs = segment_chambers(blowup1, F(1, 1), 0)
    assert [(ch.t_lo, ch.t_hi) for ch in chs] == [(0, 1), (1, 2)]
    assert chs[0].support == (0,)
    assert chs[0].z_at(Fraction(1, 2)) == F(1, 0)
    assert chs[0].coeff_pair(0) == (Fraction(1), Fraction(-1))
    assert chs[1].support == ()
    assert chs[1].z_at(Fraction(3, 2)) == (Fraction(1), Fraction(-1, 2))


def _kept_pairings(ch):
    """(h0, h1) with Z(t).C_j = h0[j] + t*h1[j], read off the chamber's kept
    records: base's pairings over base.pd and slope's over slope.pd."""
    b, e = ch.base, ch.slope
    return tuple(Fraction(x, b.pd) for x in b.pairs), tuple(Fraction(x, e.pd) for x in e.pairs)


def test_chamber_support_grows_past_its_start(blowup1):
    """2H - E along -(H-E): the class at t = 1 is H, with empty support, but
    just past it E enters, since H.E = 0 and -(H-E).E = -1; the lexicographic
    growth over the two rational columns finds it."""
    from zok.lattice import _over_lcm
    from zok.zariski import _grow_support, zariski_decompose

    chs = segment_chambers(blowup1, blowup1.kahler, "H-E")
    assert [(ch.t_lo, ch.t_hi) for ch in chs] == [(0, 1), (1, 2)]
    assert chs[0].support == ()
    assert zariski_decompose(blowup1, F(1, 0)).support == ()
    dens, columns = zip(*[_over_lcm(blowup1.pairings(u)) for u in (F(1, 0), F(-1, 1))])
    assert _grow_support(blowup1, columns, dens)[0] == (0,)
    # Z(t) = (2-t)H and a_E(t) = t - 1 on [1, 2]
    ch = chs[1]
    assert ch.support == (0,)
    assert (ch.z0, ch.z1) == (F(2, 0), F(-1, 0))
    assert (ch.coeff0, ch.coeff1) == (F(-1), F(1))
    assert _kept_pairings(ch) == (F(0, 2, 2), F(0, -1, -1))
    assert ch.square == F(4, -4, 1)


def test_chambers_cover_segment_and_agree_at_breakpoints(blowup2):
    for alpha in [F(2, -1, 0), F(3, -1, -1), F(2, 0, 0)]:
        for curve in range(3):
            chs = segment_chambers(blowup2, alpha, curve)
            assert chs[0].t_lo == 0
            for a, b in zip(chs, chs[1:]):
                assert a.t_hi == b.t_lo
                assert a.z_at(a.t_hi) == b.z_at(b.t_lo)


def test_chambers_require_big(blowup1):
    with pytest.raises(NotBig):
        segment_chambers(blowup1, F(1, -1), 0)
    with pytest.raises(NotPseudoEffective):
        segment_chambers(blowup1, F(-1, 0), 0)
    with pytest.raises(UnknownCurve):
        segment_chambers(blowup1, F(2, 0), "nope")
    # a class of the wrong length gets the decomposition's error, not a
    # walk of its first coordinates
    for alpha in (F(2), F(2, 0, 0)):
        for walk, arg in ((segment_chambers, 0), (first_chamber_along, F(1, -1))):
            with pytest.raises(ValueError, match="^vector length must be 2$"):
                walk(blowup1, alpha, arg)
    # so does a direction of the wrong length, not a walk of its first
    # coordinates
    for direction in (F(1), F(1, -1, 7)):
        with pytest.raises(ValueError, match="^vector length must be 2$"):
            first_chamber_along(blowup1, F(2, 1), direction)


def test_first_chamber_along_nef_direction(blowup1):
    ch = first_chamber_along(blowup1, F(2, 1), F(1, -1))
    # Z(2H+E) = 2H and the walk adds t*(H-E) without support change
    assert ch.support == (0,)
    assert ch.z0 == F(2, 0)
    assert blowup1.intersect(ch.z0, ch.z1) == 2


def test_first_chamber_along_raises_the_bigness_verdict(all_fixture_models):
    """Off the big cone the walk's first decomposition is the bigness check
    of alpha, so every walk raises the exception that check raises: first_chamber_along in every direction, and the chambers, slopes,
    envelopes and polygon along every curve."""
    from zok.zariski import _require_big

    verdicts = set()
    for model in all_fixture_models:
        directions = [model.kahler, vec_scale(-1, model.kahler), (Fraction(0),) * model.rank]
        directions += [c.cls for c in model.curves]
        for alpha in int_grid(model.rank, 2):
            try:
                _require_big(model, alpha, "operation requires a big class")
            except (NotBig, NotPseudoEffective) as exc:
                expected = exc
            else:
                for beta in directions:
                    assert first_chamber_along(model, alpha, beta).t_lo == 0
                continue
            verdicts.add(type(expected))
            walks = [(first_chamber_along, beta) for beta in directions]
            for curve in range(len(model.curves)):
                walks += [(segment_chambers, curve), (slopes, curve)]
                walks += [(envelopes, FlagSpec.make(curve)), (okounkov_polygon, FlagSpec.make(curve))]
            for walk, arg in walks:
                with pytest.raises(type(expected)) as err:
                    walk(model, alpha, arg)
                assert type(err.value) is type(expected)
                assert str(err.value) == str(expected)
    assert verdicts == {NotBig, NotPseudoEffective}


# -- slopes ----------------------------------------------------------------------


def test_slopes_examples(blowup1):
    assert slopes(blowup1, F(1, 0), 0) == (0, 1)        # (H, E)
    assert slopes(blowup1, F(1, 1), 0) == (1, 2)        # (H+E, E)
    assert slopes(blowup1, F(2, 0), 1) == (0, 2)        # (2H, H-E)


def test_slope_a_zero_for_nef_flag_curves(blowup1, blowup2, hirzebruch2):
    from zok.zariski import is_nef_in_model

    cases = [
        (blowup1, F(2, 1)), (blowup1, F(3, -1)),
        (blowup2, F(3, -1, -1)), (hirzebruch2, F(3, 1)),
    ]
    for model, alpha in cases:
        for i, c in enumerate(model.curves):
            if not is_nef_in_model(model, c.cls):
                continue
            a, _ = slopes(model, alpha, i)
            assert a == 0
            # lower envelope never decreases along a nef flag curve
            for j, other in enumerate(model.curves):
                mults = {} if j == i else {
                    j: min(Fraction(1), model.intersect(other.cls, c.cls))
                }
                f, _g = envelopes(model, alpha, FlagSpec.make(i, mults))
                assert all(not s < 0 for s in f.slopes())


# -- envelopes --------------------------------------------------------------------


def test_envelopes_generic_flag(blowup1):
    f, g = envelopes(blowup1, F(2, 0), FlagSpec.make(1))
    assert f.breakpoints == (0, 2)
    assert f.values == (0, 0)
    assert g.values == (2, 0)


def test_envelopes_flag_point_on_e(blowup1):
    flag = FlagSpec.make(1, {0: Fraction(1)})  # x = E meet (H-E)
    f, g = envelopes(blowup1, F(2, 0), flag)
    assert f.values == (0, 2)  # f(t) = t
    assert g.values == (2, 2)  # g constant


def test_envelopes_boundary_flag_start(blowup1):
    f, g = envelopes(blowup1, F(1, 1), FlagSpec.make(0))
    assert f.breakpoints == (1, 2)
    assert f.values == (0, 0)
    assert g.values == (0, 1)  # g(t) = t-1


def test_envelopes_slope_shape(blowup1, blowup2):
    for model in (blowup1, blowup2):
        for alpha in int_grid(model.rank, 2):
            try:
                if volume(model, alpha) <= 0:
                    continue
            except NotPseudoEffective:
                continue
            for curve in range(len(model.curves)):
                f, g = envelopes(model, alpha, FlagSpec.make(curve))
                fs, gs = f.slopes(), g.slopes()
                assert all(not s1 < s0 for s0, s1 in zip(fs, fs[1:]))
                assert all(not s1 > s0 for s0, s1 in zip(gs, gs[1:]))
                assert all(not gv < fv for fv, gv in zip(f.values, g.values))


# -- polygons ----------------------------------------------------------------------


def test_polygon_p2_triangle(p2):
    poly = okounkov_polygon(p2, F(1), FlagSpec.make(0))
    assert poly.vertices == ((0, 0), (1, 0), (0, 1))
    assert poly.area == Fraction(1, 2)


def test_polygon_h_flag_e(blowup1):
    poly = okounkov_polygon(blowup1, F(1, 0), FlagSpec.make(0))
    assert poly.vertices == ((0, 0), (1, 0), (1, 1))
    assert poly.area == Fraction(1, 2)


def test_polygon_h_plus_e_flag_e(blowup1):
    poly = okounkov_polygon(blowup1, F(1, 1), FlagSpec.make(0))
    assert poly.vertices == ((1, 0), (2, 0), (2, 1))
    assert poly.area == Fraction(1, 2)
    assert (poly.a, poly.s) == (1, 2)


def test_polygon_2h_generic_and_special_point(blowup1):
    poly = okounkov_polygon(blowup1, F(2, 0), FlagSpec.make(1))
    assert poly.vertices == ((0, 0), (2, 0), (0, 2))
    assert poly.area == 2
    poly = okounkov_polygon(blowup1, F(2, 0), FlagSpec.make(1, {0: Fraction(1)}))
    assert poly.vertices == ((0, 0), (2, 2), (0, 2))
    assert poly.area == 2


def test_polygon_area_is_half_volume_everywhere(blowup1, hirzebruch2):
    for model in (blowup1, hirzebruch2):
        for alpha in int_grid(model.rank, 2):
            try:
                vol = volume(model, alpha)
            except NotPseudoEffective:
                continue
            if vol <= 0:
                continue
            for curve in range(len(model.curves)):
                poly = okounkov_polygon(model, alpha, FlagSpec.make(curve))
                assert 2 * poly.area == vol
                assert len(poly.vertices) <= 2 * model.rank + 2
                assert poly.area == area_by_integration(poly.f, poly.g)


def test_polygon_scaling(blowup1):
    alpha = F(2, 1)
    base = okounkov_polygon(blowup1, alpha, FlagSpec.make(1))
    for c in (Fraction(2), Fraction(1, 2)):
        scaled = okounkov_polygon(blowup1, vec_scale(c, alpha), FlagSpec.make(1))
        assert scaled.vertices == tuple(
            (c * x, c * y) for x, y in base.vertices
        )
        assert scaled.area == c * c * base.area


def test_polygon_golden_ratio_endpoint(golden_model):
    poly = okounkov_polygon(golden_model, F(1, 0), FlagSpec.make(1))
    s = QuadExt.new(Fraction(-1, 2), Fraction(1, 2), 5)
    assert poly.s == s
    assert poly.a == 0
    assert poly.vertices == ((0, 0), (s, 0), (s, QuadExt.new(0, 1, 5)), (0, 1))
    # irrational endpoint, rational area: s + s^2 == 1 exactly
    assert poly.area == 1
    assert volume(golden_model, F(1, 0)) == 2
    assert area_by_integration(poly.f, poly.g) == 1


def test_hirzebruch_walk_with_coefficient_event(hirzebruch2):
    # alpha = 3f + 2C0 is big (vol 9/2) with negative part C0/2
    alpha = F(3, 2)
    assert volume(hirzebruch2, alpha) == Fraction(9, 2)
    chs = segment_chambers(hirzebruch2, alpha, 1)  # walk along C0
    assert [(ch.t_lo, ch.t_hi) for ch in chs] == [(0, Fraction(1, 2)), (Fraction(1, 2), 2)]
    assert chs[0].support == (1,)
    assert chs[0].coeff_pair(1) == (Fraction(1, 2), Fraction(-1))
    assert chs[0].z_at(0) == F(3, Fraction(3, 2))
    assert chs[1].support == ()
    assert slopes(hirzebruch2, alpha, 1) == (Fraction(1, 2), 2)
    poly = okounkov_polygon(hirzebruch2, alpha, FlagSpec.make(1))
    assert poly.vertices == ((Fraction(1, 2), 0), (2, 0), (2, 3))
    assert poly.area == Fraction(9, 4)


def test_hirzebruch_sloped_f_constant_g(hirzebruch2):
    # flag (f, x = f meet C0): the negative part grows linearly, g stays flat
    alpha = F(3, 2)
    flag = FlagSpec.make(0, {1: Fraction(1)})
    f, g = envelopes(hirzebruch2, alpha, flag)
    assert f.breakpoints == (0, 3)
    assert f.values == (Fraction(1, 2), 2)
    assert g.values == (2, 2)
    poly = okounkov_polygon(hirzebruch2, alpha, flag)
    assert poly.vertices == ((0, Fraction(1, 2)), (3, 2), (0, 2))
    assert 2 * poly.area == Fraction(9, 2)


def test_polygon_identity_on_random_models():
    from zok.oracle import ModelGenSpec, random_model

    for seed in (5, 23):
        model = random_model(ModelGenSpec(seed=seed, rank=3, num_curves=5))
        for alpha in int_grid(model.rank, 2):
            try:
                vol = volume(model, alpha)
            except NotPseudoEffective:
                continue
            if vol <= 0:
                continue
            for curve in range(len(model.curves)):
                poly = okounkov_polygon(model, alpha, FlagSpec.make(curve))
                assert 2 * poly.area == vol
                assert poly.area == area_by_integration(poly.f, poly.g)


# -- restricted bodies ---------------------------------------------------------------


def test_restricted_examples(blowup1):
    lo, hi = restricted_body(blowup1, F(2, -1), FlagSpec.make(1))
    assert (lo, hi) == (0, 1)
    lo, hi = restricted_body(blowup1, F(2, 1), FlagSpec.make(1, {0: Fraction(1)}))
    assert (lo, hi) == (1, 3)
    with pytest.raises(FlagInNonKahlerLocus):
        restricted_body(blowup1, F(2, 0), FlagSpec.make(0))


def test_restricted_nef_case_is_full_interval(blowup1):
    # nef and big with empty negative part: [0, alpha.C]
    alpha = F(3, -1)
    lo, hi = restricted_body(blowup1, alpha, FlagSpec.make(2))
    assert (lo, hi) == (0, blowup1.intersect(alpha, blowup1.curve_class(2)))


def test_restricted_body_is_envelope_slice_at_zero(blowup1, blowup2, hirzebruch2):
    from zok.errors import FlagInNonKahlerLocus

    for model in (blowup1, blowup2, hirzebruch2):
        for alpha in int_grid(model.rank, 2):
            try:
                if volume(model, alpha) <= 0:
                    continue
            except NotPseudoEffective:
                continue
            for curve in range(len(model.curves)):
                flag = FlagSpec.make(curve)
                try:
                    lo, hi = restricted_body(model, alpha, flag)
                except FlagInNonKahlerLocus:
                    continue
                f, g = envelopes(model, alpha, flag)
                assert f.breakpoints[0] == 0  # flag outside the non-Kahler locus
                assert (f.value_at(0), g.value_at(0)) == (lo, hi)


# -- boundary bodies ------------------------------------------------------------------


def test_boundary_point_bodies(blowup1):
    body = boundary_body(blowup1, F(0, 1), FlagSpec.make(2))
    assert (body.kind, body.base_y, body.top) == ("Point", 0, None)
    body = boundary_body(blowup1, F(0, 1), FlagSpec.make(1, {0: Fraction(1)}))
    assert (body.kind, body.base_y, body.top) == ("Point", 1, None)


def test_boundary_segment_body(blowup1):
    body = boundary_body(blowup1, F(1, -1), FlagSpec.make(2))
    assert (body.kind, body.base_y, body.top) == ("Segment", 0, 1)


def test_boundary_body_errors(blowup1):
    with pytest.raises(NotOnBoundary):
        boundary_body(blowup1, F(2, 0), FlagSpec.make(1))  # big
    with pytest.raises(NotOnBoundary):
        boundary_body(blowup1, F(-1, 0), FlagSpec.make(1))  # not psef
    with pytest.raises(HypothesisViolated):
        boundary_body(blowup1, F(0, 1), FlagSpec.make(0))  # flag in support, n=0
    with pytest.raises(HypothesisViolated):
        boundary_body(blowup1, F(1, -1), FlagSpec.make(1))  # n=1 with Z.C=0


def test_chamber_flag_coefficient_vanishes_beyond_a(blowup1, blowup2):
    for model in (blowup1, blowup2):
        for alpha in int_grid(model.rank, 2):
            try:
                if volume(model, alpha) <= 0:
                    continue
            except NotPseudoEffective:
                continue
            for curve in range(len(model.curves)):
                a, _ = slopes(model, alpha, curve)
                for ch in segment_chambers(model, alpha, curve):
                    if not ch.t_lo < a and curve in ch.support:
                        p, q = ch.coeff_pair(curve)
                        assert (p, q) == (0, 0)


# -- one decomposition per walk ----------------------------------------------------


def _big_classes_near_kahler(model, count):
    """Big classes 2*omega + v for small integer v, in a fixed order."""
    out = []
    for v in int_grid(model.rank, 1):
        alpha = tuple(2 * w + x for w, x in zip(model.kahler, v))
        try:
            if volume(model, alpha) > 0:
                out.append(alpha)
        except NotPseudoEffective:
            continue
        if len(out) == count:
            break
    return out


def test_walk_decomposes_once_per_walk(decompositions, start_checks, blowup2, hirzebruch2,
                                      golden_model):
    """One start check per walk, of alpha, which tests that it is big;
    every later chamber starts from the end of the one before.  The start
    is an integer check, not a rational decomposition."""
    cases = [(blowup2, F(3, -1, -1)), (hirzebruch2, F(3, 2)), (golden_model, F(1, 0))]
    lengths = set()
    for model, alpha in cases:
        for curve in range(len(model.curves)):
            start_checks.clear()
            chambers = segment_chambers(model, alpha, curve)
            assert start_checks == [alpha]
            lengths.add(len(chambers))
    assert max(lengths) > 1
    assert decompositions == []


def test_chamber_formulas_match_direct_decompositions():
    """Each chamber's formulas agree with rational decompositions at its start
    and inside it; its crossings and terminal quadratic equal those
    recomputed with intersect, and so do its events."""
    from reference import chamber_events
    from zok.oracle import ModelGenSpec, random_model
    from zok.zariski import zariski_decompose

    for seed in (3, 11):
        model = random_model(ModelGenSpec(seed=seed, rank=4, num_curves=7))
        curves = [model.curve_class(j) for j in range(len(model.curves))]
        for alpha in _big_classes_near_kahler(model, 3):
            for curve in range(len(model.curves)):
                c_cls = model.curve_class(curve)
                for ch in segment_chambers(model, alpha, curve):
                    # the start, and a rational parameter strictly inside
                    t = ch.t_lo + 1
                    while not t < ch.t_hi:
                        t = (ch.t_lo + t) / 2
                    for u in (ch.t_lo, t):
                        dec = zariski_decompose(
                            model, tuple(a - u * c for a, c in zip(alpha, c_cls))
                        )
                        assert dec.positive == ch.z_at(u)
                        assert dec.coeff_map() == {
                            i: a for i, a in zip(ch.support, ch.coeff_at(u)) if a
                        }
                    # inside the chamber, the support is the chamber's
                    assert dec.support == ch.support
                    t0, z0, z1 = ch.t_lo, ch.z0, ch.z1
                    h = tuple(tuple(model.intersect(z, c) for c in curves) for z in (z0, z1))
                    c = (
                        model.intersect(z0, z0),
                        2 * model.intersect(z0, z1),
                        model.intersect(z1, z1),
                    )
                    assert _kept_pairings(ch) == h
                    assert ch.square == c
                    events = chamber_events(ch.support, ch.coeff0, ch.coeff1, *h, c, t0)
                    assert ch.t_hi == min(e for e in events if e is not None)


def test_integer_chambers_match_the_fraction_reference(all_fixture_models, golden_model):
    """Every chamber the integer walk returns, its fields and its end, equals
    the Fraction reference (reference_chamber) started at the same t0: over
    seeded random models of rank 3-6, the fixtures and the golden model,
    with every curve as the flag, and for first_chamber_along along omega
    and along each curve.  The sweep meets an irrational end, a terminal
    Z(t)^2 with e2 = z1^2 > 0 (a flag curve with C^2 > 0) and with e2 = 0,
    and a first chamber with no event ahead (fallback_end)."""
    from reference import reference_chamber
    from zok.lattice import gram_product
    from zok.oracle import ModelGenSpec, random_model

    models = [random_model(ModelGenSpec(seed=seed, rank=3 + seed % 4, num_curves=6 + seed % 3))
              for seed in range(1, 9)]
    models += [*all_fixture_models, golden_model]
    seen = set()
    for model in models:
        for alpha in _big_classes_near_kahler(model, 2):
            for curve in range(len(model.curves)):
                direction = vec_scale(-1, model.curve_class(curve))
                walk = segment_chambers(model, alpha, curve)
                for k, ch in enumerate(walk):
                    ref, last = reference_chamber(model, alpha, direction, ch.t_lo)
                    assert repr(ch) == repr(ref) and last == (k == len(walk) - 1)
                    assert _kept_pairings(ch) == tuple(
                        tuple(gram_product(model.gram, z, c.cls) for c in model.curves)
                        for z in (ref.z0, ref.z1))
                end = walk[-1]
                seen.add("irrational" if isinstance(end.t_hi, QuadExt) else "rational")
                seen.add(("e2 < 0", "e2 = 0", "e2 > 0")[(end.square[2] >= 0) + (end.square[2] > 0)])
            for direction in (model.kahler, *[c.cls for c in model.curves]):
                ch = first_chamber_along(model, alpha, direction)
                ref, _ = reference_chamber(model, alpha, direction, Fraction(0), Fraction(1))
                assert repr(ch) == repr(ref)
                reached = reference_chamber(model, alpha, direction, Fraction(0))[0].t_hi
                if reached is None:
                    seen.add("fallback_end")
    assert seen == {"irrational", "rational", "e2 < 0", "e2 = 0", "e2 > 0", "fallback_end"}


def test_walk_matches_the_reference_walk_that_decomposes_every_start(
        all_fixture_models, golden_model):
    """segment_chambers, which starts every chamber past 0 from the end of
    the one before, is repr-equal to the reference walk that decomposes the
    class at every chamber start: over the fixtures, the golden model and
    30 seeded random models of rank 3-6, from omega and from a big class
    near it, with every curve as the flag."""
    from reference import reference_walk
    from zok.oracle import ModelGenSpec, random_model

    models = [*all_fixture_models, golden_model]
    models += [random_model(ModelGenSpec(seed=seed, rank=3 + seed % 4, num_curves=5 + seed % 3))
               for seed in range(100, 130)]
    longest = irrational = 0
    for model in models:
        for alpha in [model.kahler, *_big_classes_near_kahler(model, 1)]:
            for curve in range(len(model.curves)):
                walk = segment_chambers(model, alpha, curve)
                assert repr(walk) == repr(reference_walk(model, alpha, curve))
                longest = max(longest, len(walk))
                irrational += isinstance(walk[-1].t_hi, QuadExt)
    assert longest >= 4 and irrational > 0


def test_terminal_root_decision_by_integer_signs():
    """_root_by(f0, f1, f2, u, v) says whether f0 + f1*x + f2*x^2 (f0 > 0)
    has a root in (0, u/v]: a root beyond u*, two roots before it with
    f2 > 0 (f(u*) > 0), a double root, and ties with the affine event u*;
    then every small case against the Fraction root search."""
    from reference import smallest_quadratic_root_above
    from zok.okounkov import _root_by

    assert not _root_by(6, -5, 1, 1, 1)  # roots 2 and 3, beyond u* = 1
    assert not _root_by(1, 0, -1, 1, 2)  # root 1, beyond u* = 1/2
    assert _root_by(2, -3, 1, 5, 2)  # roots 1 and 2 before u* = 5/2
    assert _root_by(1, -2, 1, 2, 1) and not _root_by(1, -2, 1, 1, 2)  # double root 1
    assert _root_by(1, -2, 1, 1, 1)  # the double root at u*
    assert _root_by(2, -3, 1, 1, 1) and _root_by(1, -1, 0, 1, 1)  # a root at u* = 1
    assert _root_by(4, -4, -3, 2, 3) and not _root_by(4, -4, -3, 3, 5)  # root 2/3
    for f0 in range(1, 5):
        for f1 in range(-5, 6):
            for f2 in range(-4, 5):
                root = smallest_quadratic_root_above(
                    Fraction(f0), Fraction(f1), Fraction(f2), Fraction(0))
                for u in range(1, 6):
                    for v in range(1, 4):
                        expected = root is not None and root <= Fraction(u, v)
                        assert _root_by(f0, f1, f2, u, v) == expected


def test_a_walk_takes_at_most_one_square_root(monkeypatch, all_fixture_models, golden_model):
    """The terminal root is taken only where the walk ends, so
    squarefree_split runs at most once per segment_chambers and per
    first_chamber_along."""
    import zok.exact
    from zok.oracle import ModelGenSpec, random_model

    calls = []
    split = zok.exact.squarefree_split
    monkeypatch.setattr(zok.exact, "squarefree_split", lambda n: calls.append(n) or split(n))
    models = [*all_fixture_models, golden_model]
    models += [random_model(ModelGenSpec(seed=seed, rank=4 + seed % 3, num_curves=7))
               for seed in range(6)]
    roots = 0
    for model in models:
        for alpha in _big_classes_near_kahler(model, 2):
            for curve in range(len(model.curves)):
                calls.clear()
                segment_chambers(model, alpha, curve)
                assert len(calls) <= 1
                roots += len(calls)
            for direction in (model.kahler, *[c.cls for c in model.curves]):
                calls.clear()
                first_chamber_along(model, alpha, direction)
                assert len(calls) <= 1
    assert roots > 0


def test_a_walk_builds_one_fraction_per_chamber_end(monkeypatch, all_fixture_models, golden_model):
    """A chamber is its integer numerators, and its Fraction fields are built
    only when read: segment_chambers builds one Fraction in zok.okounkov for
    each chamber that does not end the walk (its t_hi) and at most three for
    the terminal root (the discriminant over its denominator, and the two
    parts of an irrational root), and okounkov_polygon builds no other: it
    checks the area against the volume on the first chamber's numerators."""
    import zok.okounkov
    from zok.oracle import ModelGenSpec, random_model

    built = []
    fraction = zok.okounkov.Fraction
    monkeypatch.setattr(zok.okounkov, "Fraction",
                        lambda *args: built.append(args) or fraction(*args))
    models = [*all_fixture_models, golden_model]
    models += [random_model(ModelGenSpec(seed=seed, rank=3 + seed % 4, num_curves=6 + seed % 3))
               for seed in range(8)]
    longest = irrational = 0
    for model in models:
        for alpha in [model.kahler, *_big_classes_near_kahler(model, 2)]:
            for curve in range(len(model.curves)):
                flag = FlagSpec.make(curve)
                built.clear()
                walk = segment_chambers(model, alpha, curve)
                own = len(built)
                assert own <= len(walk) - 1 + 3
                built.clear()
                okounkov_polygon(model, alpha, flag)
                assert len(built) == own
                longest = max(longest, len(walk))
                irrational += isinstance(walk[-1].t_hi, QuadExt)
    assert longest >= 3 and irrational > 0


def test_a_changed_numerator_of_the_previous_chamber_fails_the_next_start(
        monkeypatch, all_fixture_models):
    """Every chamber past the first starts from the kept numerators of the
    one before.  One of them changed in the first chamber (Z, its slope, a
    coefficient, its slope, a pairing or its slope) raises InvariantError
    at the second chamber's start or at the continuity check after it."""
    import zok.okounkov

    real = zok.okounkov._chamber_at
    bump = []

    def bumping(model, alpha, direction, prev=None, fallback_end=None):
        chamber, last = real(model, alpha, direction, prev, fallback_end)
        return (_bumped(chamber, *bump) if bump and prev is None else chamber), last

    monkeypatch.setattr(zok.okounkov, "_chamber_at", bumping)
    seen, parts = set(), set()
    for model in all_fixture_models:
        for alpha in _big_classes_near_kahler(model, 2):
            for curve in range(len(model.curves)):
                walk = segment_chambers(model, alpha, curve)
                if len(walk) < 2:
                    continue
                first = walk[0]
                for part in _PARTS:
                    for k in range(len(_numerators(first, part))):
                        bump[:] = [part, k]
                        with pytest.raises(InvariantError) as err:
                            segment_chambers(model, alpha, curve)
                        bump.clear()
                        seen.add(str(err.value))
                        parts.add(part)
    assert parts == set(_PARTS)
    assert "chamber pairings disagree with the positive part" in seen


# -- continuity of adjacent chambers, over integers --------------------------------

_Z_TEXT = "adjacent chamber formulas disagree at the breakpoint"
_COEFF_TEXT = "adjacent chamber coefficients disagree at the breakpoint"


# a chamber's numerator lists: Z's (base.nums, slope.nums), the
# coefficients' (c0, c1), and the pairings' and their slopes' (base.pairs,
# slope.pairs)
_PARTS = ("base.nums", "slope.nums", "c0", "c1", "base.pairs", "slope.pairs")


def _numerators(ch, part):
    """ch's numerator list named part, one of _PARTS."""
    record, _, name = part.rpartition(".")
    return getattr(getattr(ch, record) if record else ch, name)


def _rebuilt(r, **fields):
    """The IntClass r with the given fields (den, nums, pd, pairs) replaced."""
    return IntClass(**{"den": r.den, "nums": r.nums, "pd": r.pd, "pairs": r.pairs, **fields},
                    form=r._form)


def _bumped(ch, part, k):
    """The chamber built from ch's kept numerators with numerator k of one
    part (see _PARTS) raised by 1."""
    nums = list(_numerators(ch, part))
    nums[k] += 1
    record, _, name = part.rpartition(".")
    if record:
        return dataclasses.replace(ch, **{record: _rebuilt(getattr(ch, record), **{name: nums})})
    return dataclasses.replace(ch, **{part: nums})


def _invariant_text(check, *args):
    try:
        check(*args)
    except InvariantError as exc:
        return str(exc)
    return None


def _continuity_at_the_breakpoint(prev, nxt):
    """okounkov._assert_continuity on both chambers' values at t = prev.t_hi:
    Z(t) as the record sum base + t*slope, and the coefficients there over
    that sum's pd."""
    from zok.lattice import record_sum
    from zok.okounkov import _assert_continuity

    t = prev.t_hi
    p, q = t.numerator, t.denominator

    def coefficients(ch):
        b, e = ch.base.pd, ch.slope.pd
        return q * b * e, {i: q * e * x + p * b * y for i, x, y in zip(ch.support, ch.c0, ch.c1)}

    _assert_continuity(record_sum(prev.base, prev.slope, p, q),
                       record_sum(nxt.base, nxt.slope, p, q), *coefficients(prev),
                       *coefficients(nxt))


def _walk_data(model, alpha, curve):
    """The IntClasses of alpha and of -C that a walk along C passes to
    each chamber."""
    from zok.okounkov import _minus_curve

    return model.pairing_ints(alpha), _minus_curve(model, curve)


_RECONSTRUCT_TEXT = "chamber formulas do not reconstruct the class"


def test_continuity_refuses_one_changed_numerator(blowup2):
    """Two adjacent chambers agree at their breakpoint.  Through the start,
    where the next chamber is built from the previous one's values at the
    breakpoint: a changed coefficient numerator of the previous chamber
    raises the coefficient text, and a changed numerator of its Z fails the
    reconstruction, since the next Z is built to agree with it there.  The
    check itself on the two chambers' values: one numerator of Z(t) or of a
    coefficient changed, in either chamber, raises that part's text.  Both
    chambers of 2H - E1 along L12 carry a coefficient."""
    from zok.okounkov import _chamber_at

    alpha = F(2, -1, 0)
    prev, nxt = segment_chambers(blowup2, alpha, "L12")
    walk = _walk_data(blowup2, alpha, blowup2.resolve_curve("L12"))
    assert _chamber_at(blowup2, *walk, prev) == (nxt, True)
    assert _continuity_at_the_breakpoint(prev, nxt) is None
    for part, text, start in (("base.nums", _Z_TEXT, _RECONSTRUCT_TEXT),
                              ("slope.nums", _Z_TEXT, _RECONSTRUCT_TEXT),
                              ("c0", _COEFF_TEXT, _COEFF_TEXT), ("c1", _COEFF_TEXT, _COEFF_TEXT)):
        assert _invariant_text(_chamber_at, blowup2, *walk, _bumped(prev, part, 0)) == start
        for which in (0, 1):
            pair = [prev, nxt]
            pair[which] = _bumped(pair[which], part, 0)
            assert _invariant_text(_continuity_at_the_breakpoint, *pair) == text


def test_integer_continuity_matches_the_fraction_reference(all_fixture_models, golden_model):
    """On every adjacent pair of a seeded sweep of walks, and on the pair
    with one numerator of either chamber changed, the integer continuity
    check gives the outcome of the Fraction reference: both pass, or both
    raise the same text.  Through the start, the unchanged previous chamber
    gives the next one, and a changed one raises: the coefficient text
    where the reference raises it, unless the changed coefficients move the
    seed support and the growth from it fails first, and for a changed Z
    the reconstruction's text, or that P^2 is not positive."""
    from reference import reference_continuity
    from zok.okounkov import _chamber_at
    from zok.oracle import ModelGenSpec, random_model

    models = [random_model(ModelGenSpec(seed=seed, rank=3 + seed % 4, num_curves=6 + seed % 3))
              for seed in range(1, 7)]
    models += [*all_fixture_models, golden_model]
    seen, starts = set(), set()
    for model in models:
        for alpha in _big_classes_near_kahler(model, 2):
            for curve in range(len(model.curves)):
                walk = segment_chambers(model, alpha, curve)
                data = _walk_data(model, alpha, curve)
                for prev, nxt in zip(walk, walk[1:]):
                    assert _chamber_at(model, *data, prev)[0] == nxt
                    pairs = [(prev, nxt)]
                    for part in ("base.nums", "slope.nums", "c0", "c1"):
                        for k in range(len(_numerators(prev, part)))[:2]:
                            pairs.append((_bumped(prev, part, k), nxt))
                            start = _invariant_text(_chamber_at, model, *data, pairs[-1][0])
                            if part.endswith(".nums"):
                                assert start == _RECONSTRUCT_TEXT or start.startswith(
                                    f"class at t = {prev.t_hi} is not big")
                            elif start != _COEFF_TEXT:
                                assert start.startswith(f"class just after t = {prev.t_hi}")
                            starts.add(start)
                        for k in range(len(_numerators(nxt, part)))[:2]:
                            pairs.append((prev, _bumped(nxt, part, k)))
                    for pair in pairs:
                        outcome = _invariant_text(_continuity_at_the_breakpoint, *pair)
                        assert outcome == _invariant_text(reference_continuity, *pair)
                        seen.add(outcome)
    assert seen == {None, _Z_TEXT, _COEFF_TEXT}
    assert {_RECONSTRUCT_TEXT, _COEFF_TEXT} <= starts


def _all_numerators(ch):
    """Every integer a chamber keeps but its ends and support."""
    return ([[r.den, r.nums, r.pd, r.pairs] for r in (ch.base, ch.slope)], ch.c0, ch.c1,
            ch.square_ints)


def test_chambers_are_equal_by_their_values_not_their_numerators(blowup2):
    """A chamber is its numerators, read as the values they stand for: the
    same chamber with every numerator and denominator scaled by a common
    factor compares equal, with the same repr and hash, and so does the
    Fraction reference built from its fields over least common
    denominators; one changed numerator does not compare equal."""
    from reference import fraction_chamber

    for ch in segment_chambers(blowup2, F(3, -1, -1), "L12"):
        base, slope = ch.base, ch.slope
        scaled = SegmentChamber(
            ch.t_lo, ch.t_hi, ch.support,
            base=_rebuilt(base, den=3 * base.den, nums=[3 * x for x in base.nums],
                          pd=7 * base.pd, pairs=[7 * x for x in base.pairs]),
            slope=_rebuilt(slope, den=5 * slope.den, nums=[5 * x for x in slope.nums],
                           pd=2 * slope.pd, pairs=[2 * x for x in slope.pairs]),
            c0=[7 * x for x in ch.c0], c1=[2 * x for x in ch.c1],
            square_ints=tuple((4 * n, 4 * e) for n, e in ch.square_ints))
        rebuilt = fraction_chamber(blowup2, ch.t_lo, ch.t_hi, ch.support, ch.z0, ch.z1,
                                   ch.coeff0, ch.coeff1, ch.square, *_kept_pairings(ch))
        assert _all_numerators(scaled) != _all_numerators(ch)
        for other in (scaled, rebuilt):
            assert other == ch and repr(other) == repr(ch) and hash(other) == hash(ch)
        assert _bumped(ch, "base.nums", 0) != ch
        assert ch != (ch.t_lo, ch.t_hi)


def test_polygon_decomposes_alpha_once(decompositions, start_checks, blowup2):
    alpha = F(3, -1, -1)
    assert len(segment_chambers(blowup2, alpha, "L12")) == 2
    start_checks.clear()
    poly = okounkov_polygon(blowup2, alpha, FlagSpec.make(blowup2.curve_index("L12")))
    # one start check per walk; the area identity uses the volume the first
    # chamber keeps
    assert start_checks == [alpha] and decompositions == []
    assert 2 * poly.area == volume(blowup2, alpha)


def test_bodies_read_the_kept_pairings(monkeypatch, blowup1, blowup2):
    """Slopes, envelopes and restricted bodies read Z.C off the chambers and
    the checked decomposition instead of pairing Z with the curves again."""
    from collections import Counter

    from zok.lattice import SurfaceModel

    calls = Counter()
    for name in ("pairing", "pairings", "intersect"):
        method = getattr(SurfaceModel, name)

        def counting(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(SurfaceModel, name, counting)
    alpha = F(3, -1, -1)
    okounkov_polygon(blowup2, alpha, FlagSpec.make(blowup2.curve_index("L12")))
    assert calls["pairing"] == 0
    calls.clear()
    slopes(blowup2, alpha, "L12")
    assert calls["pairing"] == 0
    calls.clear()
    flag = FlagSpec.make(blowup1.curve_index("H-E"), {0: Fraction(1)})
    assert restricted_body(blowup1, F(2, 1), flag) == (1, 3)
    # the decomposition pairs alpha, and its check pairs P, over integers
    assert calls == {}


def test_chamber_start_pairs_the_class_once(monkeypatch, blowup2):
    """A walk along -C pairs alpha once (pairing_ints), over integers, and
    reads -C's pairings off the curve Gram table; each chamber reads
    (alpha + t0*d) . C off those two rows, and the start check reads alpha's
    pairings the walk holds, so no other pairing is made."""
    from zok.lattice import SurfaceModel

    calls = []
    for name in ("pairings", "pairing_ints"):
        method = getattr(SurfaceModel, name)

        def counting(self, u, _name=name, _method=method):
            calls.append((_name, u))
            return _method(self, u)

        monkeypatch.setattr(SurfaceModel, name, counting)
    alpha = F(3, -1, -1)
    for curve in ("L12", "E1"):
        calls.clear()
        assert len(segment_chambers(blowup2, alpha, curve)) == 2
        assert calls == [("pairing_ints", alpha)]


def test_walk_start_raises_as_require_big(all_fixture_models, golden_model):
    """Every walk starts with alpha's integer check and bigness gate, not a
    rational decomposition: on non-pseudo-effective, boundary, big,
    wrong-length and float classes, over the fixtures and seeded models,
    segment_chambers, okounkov_polygon, first_chamber_along and
    derivative_by_chambers raise the exception type and text that
    zariski._require_big raises on the same class, and nothing where it
    raises nothing."""
    from zok.oracle import ModelGenSpec, derivative_by_chambers, random_model
    from zok.zariski import _require_big

    def outcome(fn, *args):
        try:
            fn(*args)
        except Exception as exc:
            return type(exc), str(exc)
        return None

    models = [*all_fixture_models, golden_model]
    models += [random_model(ModelGenSpec(seed=seed, rank=3 + seed % 3, num_curves=5 + seed % 3))
               for seed in range(4)]
    seen = set()
    for model in models:
        omega = model.kahler
        classes = int_grid(model.rank, 1)[:30] + [
            omega, vec_scale(-1, omega), (*omega, Fraction(0)), omega[:-1],
            tuple(float(x) for x in omega), (0.5, *omega[1:])]
        for alpha in classes:
            expected = outcome(_require_big, model, alpha, "operation requires a big class")
            seen.add(None if expected is None else expected[0])
            assert outcome(first_chamber_along, model, alpha, omega) == expected
            assert outcome(derivative_by_chambers, model, alpha, omega) == expected
            for curve in range(len(model.curves)):
                assert outcome(segment_chambers, model, alpha, curve) == expected
                flag = FlagSpec.make(curve)
                assert outcome(okounkov_polygon, model, alpha, flag) == expected
    assert seen == {None, NotPseudoEffective, NotBig, ValueError, TypeError}


def test_restricted_body_decomposes_alpha_once(decompositions, blowup1):
    calls = decompositions
    flag = FlagSpec.make(blowup1.curve_index("H-E"), {0: Fraction(1)})
    assert restricted_body(blowup1, F(2, 1), flag) == (1, 3)
    assert len(calls) == 1


def test_boundary_body_decomposes_alpha_once(decompositions, blowup1):
    flag = FlagSpec.make(blowup1.curve_index("H-E"), {0: Fraction(1)})
    body = boundary_body(blowup1, F(0, 1), flag)
    assert body == BoundaryBody(kind="Point", base_y=Fraction(1), top=None)
    assert len(decompositions) == 1
    for alpha, kind in ((F(2, 1), "Big"), (F(-1, 0), "NotPsefInModel")):
        decompositions.clear()
        with pytest.raises(NotOnBoundary) as err:
            boundary_body(blowup1, alpha, flag)
        assert str(err.value) == f"class is {kind}, not on the boundary"
        assert len(decompositions) == 1


# -- polygons from the envelope chains ---------------------------------------------


def _flags_of(model):
    """Every curve as the flag curve, at a generic point and, where another
    curve meets it, at a point on that curve."""
    flags = []
    for c in range(len(model.curves)):
        flags.append(FlagSpec.make(c))
        meeting = [i for i in range(len(model.curves)) if i != c and model.curve_gram[i][c] >= 1]
        if meeting:
            flags.append(FlagSpec.make(c, {meeting[-1]: Fraction(1)}))
    return flags


def test_polygon_vertices_are_the_hull_of_the_envelopes(all_fixture_models, golden_model):
    from zok.oracle import ModelGenSpec, random_model
    from zok.polygon import ConvexPolygon, convex_hull

    models = list(all_fixture_models) + [golden_model]
    for seed in range(8):
        rank = 3 + seed % 4
        models.append(random_model(ModelGenSpec(seed=seed, rank=rank, num_curves=rank + 2)))
    polygons = irrational = 0
    for model in models:
        for alpha in [model.kahler] + _big_classes_near_kahler(model, 2):
            for flag in _flags_of(model):
                poly = okounkov_polygon(model, alpha, flag)
                f, g = poly.f, poly.g
                points = list(zip(f.breakpoints, f.values)) + list(zip(g.breakpoints, g.values))
                assert type(poly.vertices) is ConvexPolygon
                assert poly.vertices == convex_hull(points)
                polygons += 1
                irrational += isinstance(poly.s, QuadExt)
    assert polygons > 300 and irrational > 0


# -- the envelopes and the polygon on integer numerators ------------------------


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (InvariantError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_integer_envelopes_and_polygons_match_the_fraction_reference(
        all_fixture_models, golden_model):
    """On the fixtures and seeded random models, with every curve as the flag
    and no, an integer and a fractional multiplicity, the envelopes and
    okounkov_polygon's f, g, vertices and area (reprs) equal those read off
    the chambers' Fraction fields (f_at, g_at, PiecewiseLinear.slopes and
    the Fraction shoelace)."""
    from reference import reference_envelopes_of, reference_okounkov_polygon
    from zok.okounkov import _envelopes_of
    from zok.oracle import ModelGenSpec, random_model

    models = [*all_fixture_models, golden_model]
    models += [random_model(ModelGenSpec(seed=seed, rank=3 + seed % 3, num_curves=5 + seed % 3))
               for seed in range(11, 19)]
    seen = set()
    for model in models:
        n = len(model.curves)
        for alpha in _big_classes_near_kahler(model, 4):
            for c in range(n):
                meeting = [i for i in range(n) if i != c and model.curve_gram[i][c] >= 1]
                flags = [FlagSpec.make(c)]
                if meeting:
                    cap = model.curve_gram[meeting[0]][c]
                    flags += [FlagSpec.make(c, {meeting[0]: 1}),
                              FlagSpec.make(c, {meeting[0]: cap / 2, meeting[-1]: cap / 3})]
                for flag in flags:
                    got = _outcome(okounkov_polygon, model, alpha, flag)
                    assert got == _outcome(reference_okounkov_polygon, model, alpha, flag)
                    if got.startswith("OkounkovPolygon"):
                        chambers = segment_chambers(model, alpha, c)
                        f, g = _envelopes_of(chambers, flag)[:2]
                        assert repr((f, g)) == repr(reference_envelopes_of(model, chambers, flag))
                        end = f.breakpoints[-1]
                        seen.add("irrational s" if isinstance(end, QuadExt) else "rational s")
                        fractional = any(m.denominator > 1 for _, m in flag.mults)
                        seen.add("fractional" if fractional else "integer" if flag.mults else "no")
    assert {"irrational s", "rational s", "no", "integer", "fractional"} <= seen


# -- the polygon read-off's invariant checks, on doctored chamber lists ----------

_FLAG = 1  # H-E on blowup1; its walk from 2H - E has the chambers [0, 1] and [1, 2]


def _doctored(ch, h=None, c=None, t=None, support=None, volume=None):
    """ch rebuilt with changed numerators: h = (h0, h1), the pairings of
    base and slope with the flag curve, c = (c0, c1) of the support's
    coefficients, t = (t_lo, t_hi), and volume the numerator of Z(t_lo)^2
    over 1."""
    parts = {}
    if h is not None:
        for record, x in zip(("base", "slope"), h):
            pairs = list(getattr(ch, record).pairs)
            pairs[_FLAG] = x
            parts[record] = _rebuilt(getattr(ch, record), pairs=pairs)
    if c is not None:
        parts["c0"], parts["c1"] = c
    t_lo, t_hi = (Fraction(x) for x in t) if t else (ch.t_lo, ch.t_hi)
    square = ch.square_ints if volume is None else ((volume, 1), *ch.square_ints[1:])
    return dataclasses.replace(ch, t_lo=t_lo, t_hi=t_hi, square_ints=square,
                               support=ch.support if support is None else support, **parts)


def _vertex_count_walk(_, b):
    """Four chambers on [0, 4], E's coefficient f convex with slopes 0..3 and
    g = f + Z.C concave with slopes 3..0: ten vertices, area 14."""
    return [_doctored(b, t=(0, 1), c=([0], [0]), h=(1, 3), volume=28),
            _doctored(b, t=(1, 2), c=([-1], [1]), h=(3, 1)),
            _doctored(b, t=(2, 3), c=([-3], [2]), h=(7, -1)),
            _doctored(b, t=(3, 4), c=([-6], [3]), h=(13, -3))]


_READ_OFF_CHECKS = [
    ("chamber_slopes", "Z(t).C jumped to positive mid-walk",
     lambda a, b: [_doctored(a, h=(0, 0)), b]),
    ("chamber_slopes", "Z(t).C negative inside the walk",
     lambda a, b: [_doctored(a, h=(-1, 0)), b]),
    ("chamber_slopes", "Z(t).C decreasing from zero inside the walk",
     lambda a, b: [_doctored(a, h=(0, -1)), b]),
    ("chamber_slopes", "Z(t).C vanishes along the entire segment",
     lambda a, b: [_doctored(a, h=(0, 0)), _doctored(b, h=(0, 0))]),
    ("_envelopes_of", "parameter a is not a chamber boundary",
     lambda a, b: [_doctored(b, h=(0, 0)), a]),
    ("_envelopes_of", "flag curve carries a coefficient beyond a",
     lambda a, b: [a, _doctored(b, support=(_FLAG,))]),
    ("_envelopes_of", "lower envelope exceeds upper envelope",
     lambda a, b: [a, _doctored(b, h=(2, -2))]),
    ("okounkov_polygon", "lower envelope is not convex",
     lambda a, b: [a, _doctored(b, c=([1], [-1]))]),
    ("okounkov_polygon", "upper envelope is not concave",
     lambda a, b: [a, _doctored(b, h=(0, 1))]),
    ("okounkov_polygon", "degenerate polygon for a big class",
     lambda a, b: [_doctored(a, h=(0, 1)), _doctored(b, h=(-2, 1), c=([0], [0]))]),
    ("okounkov_polygon", "polygon area identity failed: 2*3/2 != volume 4",
     lambda a, b: [_doctored(a, volume=4), b]),
    ("okounkov_polygon", "vertex count exceeds 2*rank + 2", _vertex_count_walk),
]


@pytest.mark.parametrize("stage, text, doctor", _READ_OFF_CHECKS,
                         ids=[text for _, text, _ in _READ_OFF_CHECKS])
def test_each_read_off_check_fires_on_a_doctored_chamber_list(
        monkeypatch, blowup1, stage, text, doctor):
    """Each invariant check of chamber_slopes, _envelopes_of and
    okounkov_polygon raises its own text on a chamber list doctored to
    break it, from the walk of 2H - E along H-E with the flag point on E."""
    import zok.okounkov
    from zok.okounkov import _envelopes_of, chamber_slopes

    alpha = F(2, -1)
    chambers = segment_chambers(blowup1, alpha, _FLAG)
    assert [(ch.t_lo, ch.t_hi, ch.support) for ch in chambers] == [(0, 1, ()), (1, 2, (0,))]
    assert all(ch.base.pd == ch.slope.pd == 1 for ch in chambers)  # numerators over 1
    flag = FlagSpec.make(_FLAG, {0: 1})
    doctored = doctor(*chambers)
    monkeypatch.setattr(zok.okounkov, "segment_chambers", lambda *_: list(chambers))
    assert okounkov_polygon(blowup1, alpha, flag).area == Fraction(3, 2)
    monkeypatch.setattr(zok.okounkov, "segment_chambers", lambda *_: doctored)
    run = {"chamber_slopes": lambda: chamber_slopes(doctored, _FLAG),
           "_envelopes_of": lambda: _envelopes_of(doctored, flag),
           "okounkov_polygon": lambda: okounkov_polygon(blowup1, alpha, flag)}[stage]
    with pytest.raises(InvariantError) as err:
        run()
    assert str(err.value) == text
