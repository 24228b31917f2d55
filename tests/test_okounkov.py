from __future__ import annotations

from fractions import Fraction

import pytest

from zok.errors import (
    FlagInNonKahlerLocus,
    HypothesisViolated,
    NotBig,
    NotOnBoundary,
    NotPseudoEffective,
    UnknownCurve,
)
from zok.exact import QuadExt
from zok.lattice import vec_scale
from zok.okounkov import (
    FlagSpec,
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


def test_first_chamber_along_nef_direction(blowup1):
    ch = first_chamber_along(blowup1, F(2, 1), F(1, -1))
    # Z(2H+E) = 2H and the walk adds t*(H-E) without support change
    assert ch.support == (0,)
    assert ch.z0 == F(2, 0)
    assert blowup1.intersect(ch.z0, ch.z1) == 2


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


# -- one decomposition per chamber ------------------------------------------------


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


def _count_decompositions(monkeypatch):
    import zok.okounkov as okounkov_module
    import zok.zariski as zariski_module
    from zok.zariski import zariski_decompose

    calls = []

    def counting(model, alpha):
        calls.append(alpha)
        return zariski_decompose(model, alpha)

    monkeypatch.setattr(okounkov_module, "zariski_decompose", counting)
    monkeypatch.setattr(zariski_module, "zariski_decompose", counting)
    return calls


def test_walk_decomposes_once_per_chamber(monkeypatch, blowup2, hirzebruch2, golden_model):
    calls = _count_decompositions(monkeypatch)
    cases = [(blowup2, F(3, -1, -1)), (hirzebruch2, F(3, 2)), (golden_model, F(1, 0))]
    for model, alpha in cases:
        for curve in range(len(model.curves)):
            calls.clear()
            chambers = segment_chambers(model, alpha, curve)
            # one per chamber, plus the bigness check in _require_big
            assert len(calls) == len(chambers) + 1


def test_chamber_formulas_match_direct_decompositions():
    from zok.oracle import ModelGenSpec, random_model
    from zok.zariski import zariski_decompose

    for seed in (3, 11):
        model = random_model(ModelGenSpec(seed=seed, rank=4, num_curves=7))
        for alpha in _big_classes_near_kahler(model, 3):
            for curve in range(len(model.curves)):
                c_cls = model.curve_class(curve)
                for ch in segment_chambers(model, alpha, curve):
                    # a rational parameter strictly inside the chamber
                    t = ch.t_lo + 1
                    while not t < ch.t_hi:
                        t = (ch.t_lo + t) / 2
                    dec = zariski_decompose(
                        model, tuple(a - t * c for a, c in zip(alpha, c_cls))
                    )
                    assert dec.support == ch.support
                    assert dec.positive == ch.z_at(t)
                    assert dec.coeffs == ch.coeff_at(t)


def test_polygon_decomposes_alpha_once(monkeypatch, blowup2):
    alpha = F(3, -1, -1)
    assert len(segment_chambers(blowup2, alpha, "L12")) == 2
    calls = _count_decompositions(monkeypatch)
    poly = okounkov_polygon(blowup2, alpha, FlagSpec.make(blowup2.curve_index("L12")))
    # the bigness check, whose volume the area identity uses, and one per chamber
    assert len(calls) == 3
    assert 2 * poly.area == volume(blowup2, alpha)


def test_restricted_body_decomposes_alpha_once(monkeypatch, blowup1):
    calls = _count_decompositions(monkeypatch)
    flag = FlagSpec.make(blowup1.curve_index("H-E"), {0: Fraction(1)})
    assert restricted_body(blowup1, F(2, 1), flag) == (1, 3)
    assert len(calls) == 1
