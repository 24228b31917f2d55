from __future__ import annotations

from fractions import Fraction

import pytest

from zok.errors import NotPseudoEffective, UsageError
from zok.lattice import validate_model
from zok.okounkov import PiecewiseLinear
from zok.oracle import (
    ModelGenSpec,
    area_by_integration,
    brute_force_zariski,
    derivative_by_chambers,
    random_model,
    run_model_verification,
)
from zok.zariski import derivative_vol, zariski_decompose

from conftest import F, int_grid


def test_brute_force_examples(blowup1):
    dec = brute_force_zariski(blowup1, F(1, 1))
    assert dec.support == (0,) and dec.coeffs == (Fraction(1),)
    assert dec == zariski_decompose(blowup1, F(1, 1))

    nef = brute_force_zariski(blowup1, F(2, 0))
    assert nef.support == ()

    assert brute_force_zariski(blowup1, F(-1, 0)) is None


def test_brute_force_cap():
    import zok.lattice as lat

    curves = [(f"E{i}", [0] * i + [1] + [0] * (17 - i)) for i in range(1, 18)]
    gram = [[0] * 18 for _ in range(18)]
    gram[0][0] = 1
    for i in range(1, 18):
        gram[i][i] = -1
    m = lat.make_model("many", 18, gram, curves, [35] + [-1] * 17)
    with pytest.raises(UsageError):
        brute_force_zariski(m, F(*([1] + [0] * 17)))


def test_brute_force_agrees_with_iterative_everywhere(all_fixture_models):
    for model in all_fixture_models:
        for alpha in int_grid(model.rank, 2):
            oracle = brute_force_zariski(model, alpha)
            try:
                fast = zariski_decompose(model, alpha)
            except NotPseudoEffective:
                fast = None
            assert fast == oracle


def test_derivative_by_chambers_examples(blowup1):
    assert derivative_by_chambers(blowup1, F(2, 1), F(1, -1)) == 4
    assert derivative_by_chambers(blowup1, F(1, 0), F(0, 1)) == 0
    assert derivative_by_chambers(blowup1, F(2, 0), F(0, 0)) == 0


def test_derivative_routes_agree(blowup1, blowup2):
    for model in (blowup1, blowup2):
        directions = [model.kahler] + [c.cls for c in model.curves]
        for alpha in int_grid(model.rank, 2):
            try:
                dec = zariski_decompose(model, alpha)
            except NotPseudoEffective:
                continue
            if dec.volume(model) <= 0:
                continue
            for beta in directions:
                assert derivative_vol(model, alpha, beta) == derivative_by_chambers(
                    model, alpha, beta
                )


def test_area_by_integration_cases():
    f = PiecewiseLinear((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
    g = PiecewiseLinear((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    assert area_by_integration(f, g) == Fraction(1, 2)

    f = PiecewiseLinear((Fraction(0), Fraction(2)), (Fraction(0), Fraction(2)))
    g = PiecewiseLinear((Fraction(0), Fraction(2)), (Fraction(2), Fraction(2)))
    assert area_by_integration(f, g) == 2

    assert area_by_integration(f, f) == 0


def test_area_by_integration_refines_breakpoints():
    f = PiecewiseLinear((Fraction(0), Fraction(1), Fraction(2)), (Fraction(0),) * 3)
    g = PiecewiseLinear((Fraction(0), Fraction(2)), (Fraction(2), Fraction(2)))
    assert area_by_integration(f, g) == 4


def test_area_by_integration_rejects_crossing():
    f = PiecewiseLinear((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)))
    g = PiecewiseLinear((Fraction(0), Fraction(1)), (Fraction(0), Fraction(2)))
    with pytest.raises(ValueError):
        area_by_integration(f, g)


def test_random_model_rank1_is_projective_plane():
    m = random_model(ModelGenSpec(seed=1, rank=1, num_curves=1))
    assert m.rank == 1 and len(m.curves) == 1
    assert validate_model(m) == []


def test_random_model_deterministic():
    spec = ModelGenSpec(seed=42, rank=3, num_curves=4)
    a, b = random_model(spec), random_model(spec)
    assert a == b
    assert validate_model(a) == []


def test_random_model_contains_exceptional_curve():
    m = random_model(ModelGenSpec(seed=9, rank=2, num_curves=3))
    e = next(c for c in m.curves if c.name == "E1")
    assert m.intersect(e.cls, e.cls) == -1


def test_random_model_generation_failure_reports_seed():
    from zok.errors import GenerationError

    with pytest.raises(GenerationError, match="seed 77"):
        random_model(ModelGenSpec(seed=77, rank=2, num_curves=300, coord_bound=1))


def test_random_models_agree_with_oracle_on_grid():
    for seed in (3, 14, 159):
        m = random_model(ModelGenSpec(seed=seed, rank=3, num_curves=5))
        if len(m.curves) > 6:
            continue
        for alpha in int_grid(m.rank, 2):
            oracle = brute_force_zariski(m, alpha)
            try:
                fast = zariski_decompose(m, alpha)
            except NotPseudoEffective:
                fast = None
            assert fast == oracle


def test_run_model_verification_reports(blowup1):
    reports = run_model_verification(blowup1, grid_bound=2)
    assert [r.subject.split("[")[0] for r in reports] == [
        "zariski-vs-subset-search",
        "derivative-vs-chamber-walk",
        "polygon-area-vs-integration",
    ]
    assert all(r.agrees and r.witness is None for r in reports)


def test_verification_reuses_the_sweep_volumes(decompositions, blowup1):
    reports = run_model_verification(blowup1)
    assert [r.subject for r in reports] == [
        "zariski-vs-subset-search[grid 2, 25 classes]",
        "derivative-vs-chamber-walk[28 pairs]",
        "polygon-area-vs-integration[21 polygons]",
    ]
    assert all(r.agrees for r in reports)
    # 25 in the sweep, 3 per derivative pair (the closed form, then the
    # bigness check and the one chamber of the walk), and 47 for the 21
    # polygons (the bigness check plus one per chamber); no polygon
    # re-decomposes alpha for its volume, which made 177 in all
    assert len(decompositions) == 156
