from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zok.errors import MultipleCandidates, NotPseudoEffective, UsageError
from zok.exact import QuadExt
from zok.lattice import (
    make_model,
    signature,
    solve_linear,
    validate_model,
)
from zok.okounkov import PiecewiseLinear
from zok.oracle import (
    ModelGenSpec,
    area_by_integration,
    brute_force_zariski,
    derivative_by_chambers,
    random_model,
    run_model_verification,
)
from zok.zariski import (
    ZariskiDecomp,
    _check_decomposition,
    derivative_vol,
    enumerate_exceptional_families,
    zariski_decompose,
)

from conftest import F, int_grid
from reference import residual_pairings, vec_add, vec_scale
from test_kernel import rational_models, rationals


def test_brute_force_examples(blowup1):
    dec = brute_force_zariski(blowup1, F(1, 1))
    assert dec.support == (0,) and dec.coeffs == (Fraction(1),)
    assert dec == zariski_decompose(blowup1, F(1, 1))

    nef = brute_force_zariski(blowup1, F(2, 0))
    assert nef.support == ()

    assert brute_force_zariski(blowup1, F(-1, 0)) is None

    with pytest.raises(TypeError, match=r"^unsupported scalars in a class vector: \['QuadExt'\]$"):
        brute_force_zariski(blowup1, (QuadExt.new(2, 1, 2), Fraction(1)))


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


def reference_subset_search(model, alpha):
    """brute_force_zariski as a plain loop over every curve subset, with
    none of its kernel: a subset whose Gram matrix has signature (0, |S|, 0)
    is solved by solve_linear, its residual is paired with every curve, and
    each subset left goes to the decomposition checker."""
    alpha = tuple(alpha)
    pairs = model.pairings(alpha)
    candidates = []
    n = len(model.curves)
    for subset in itertools.chain.from_iterable(
        itertools.combinations(range(n), size) for size in range(n + 1)
    ):
        gram = model.gram_submatrix(subset)
        if signature(gram) != (0, len(subset), 0):
            continue
        coeffs = solve_linear(gram, [pairs[i] for i in subset])
        if any(a <= 0 for a in coeffs):
            continue
        if any(v < 0 for v in residual_pairings(model, pairs, subset, coeffs)):
            continue
        try:
            candidates.append(_check_decomposition(model, alpha, subset, coeffs))
        except NotPseudoEffective:
            continue
    if len(candidates) > 1:
        raise MultipleCandidates(
            f"{len(candidates)} orthogonal decompositions found for {alpha}"
        )
    return candidates[0] if candidates else None


def _outcome(search, model, alpha):
    """A subset search's answer with its kept numbers, None, or the text of
    MultipleCandidates."""
    try:
        dec = search(model, alpha)
    except MultipleCandidates as exc:
        return "MultipleCandidates", str(exc)
    if dec is None:
        return None
    return dec, dec.positive_pairings, dec.positive_square


positive_rationals = st.builds(Fraction, st.integers(1, 7), st.integers(1, 12))


@st.composite
def scaled_random_models(draw):
    """Seeded random models with each curve class and the form scaled by
    positive rationals: valid models with non-integral forms and curves."""
    rank = draw(st.integers(2, 4))
    spec = ModelGenSpec(seed=draw(st.integers(0, 40)), rank=rank,
                        num_curves=draw(st.integers(rank, rank + 3)))
    m = random_model(spec)
    form = draw(positive_rationals)
    curves = [(c.name, vec_scale(draw(positive_rationals), c.cls)) for c in m.curves]
    return make_model(m.name, rank, [vec_scale(form, row) for row in m.gram], curves, m.kahler)


@st.composite
def subset_search_cases(draw):
    """(model, class): big classes (omega plus effective curves), boundary
    ones (one curve), non-psef ones (-omega plus curves) and random ones."""
    model = draw(st.one_of(scaled_random_models(), rational_models()))
    rank, classes = model.rank, [c.cls for c in model.curves]
    kind = draw(st.sampled_from(["big", "boundary", "not-psef", "random"]))
    if kind == "random" or not classes:
        return model, tuple(draw(st.lists(rationals, min_size=rank, max_size=rank)))
    if kind == "boundary":
        return model, vec_scale(draw(positive_rationals), draw(st.sampled_from(classes)))
    alpha = model.kahler if kind == "big" else vec_scale(-1, model.kahler)
    for cls in classes:
        alpha = tuple(a + draw(st.sampled_from([0, 0, Fraction(1, 2), 1, 3])) * c
                      for a, c in zip(alpha, cls))
    return model, alpha


@settings(max_examples=300, deadline=None)
@given(subset_search_cases())
def test_brute_force_matches_the_reference_subset_search(case):
    model, alpha = case
    assert _outcome(brute_force_zariski, model, alpha) == _outcome(
        reference_subset_search, model, alpha
    )


def test_brute_force_matches_the_reference_on_the_fixtures(all_fixture_models):
    twice = make_model("twice", 2, [[1, 0], [0, -1]],
                       [("E", [0, 1]), ("2E", [0, 2]), ("H-E", [1, -1])], [2, -1])
    outcomes = set()
    for model in all_fixture_models + [twice]:
        for alpha in int_grid(model.rank, 2):
            answer = _outcome(brute_force_zariski, model, alpha)
            assert answer == _outcome(reference_subset_search, model, alpha)
            outcomes.add(answer if answer is None else type(answer[0]))
    assert outcomes == {None, str, ZariskiDecomp}


def test_a_second_subset_search_factors_no_family(support_steps):
    """The first search builds the family atlas from the support table,
    which stores each family once, in the order of model.families, each one
    bordering step from its parent; the check of the winning decomposition
    reads the table and solves nothing more, and a second search solves
    nothing at all."""
    steps, log = support_steps
    model = random_model(ModelGenSpec(seed=5, rank=5, num_curves=8))
    table = log(model)
    alpha = vec_add(model.kahler, vec_scale(3, model.curve_class(0)))
    first = brute_force_zariski(model, alpha)
    assert first.support and len(model.families) > 1
    assert table.stores == list(model.families)
    assert steps == [(family[:-1], family[-1]) for family in model.families[1:]]
    steps.clear()
    assert brute_force_zariski(model, alpha) == first
    assert steps == [] and table.stores == list(model.families)


def test_enumeration_and_the_subset_search_share_one_family_search(monkeypatch):
    import zok.lattice

    calls = []
    search = zok.lattice.negative_definite_subsets

    def counting(gram):
        calls.append(gram)
        return search(gram)

    monkeypatch.setattr(zok.lattice, "negative_definite_subsets", counting)
    model = random_model(ModelGenSpec(seed=2, rank=5, num_curves=8))
    families = enumerate_exceptional_families(model)
    brute_force_zariski(model, model.kahler)
    assert calls == [model.curve_gram]
    assert [entry[0] for entry in model.family_atlas] == families == list(model.families)


def test_the_enumerated_list_is_the_callers_own():
    model = random_model(ModelGenSpec(seed=2, rank=5, num_curves=8))
    families = enumerate_exceptional_families(model)
    kept = model.families
    want = list(kept)
    families.append((99,))
    families[0] = (42,)
    del families[1]
    assert model.families is kept and list(kept) == want
    assert enumerate_exceptional_families(model) == want


def test_enumeration_and_the_cap_leave_the_atlas_unbuilt():
    model = random_model(ModelGenSpec(seed=2, rank=5, num_curves=8))
    assert enumerate_exceptional_families(model)
    assert "families" in vars(model)
    with pytest.raises(UsageError) as err:
        brute_force_zariski(model, model.kahler, max_curves=7)
    assert str(err.value) == (
        "8 curves exceeds the subset-search cap 7 (override via ZOK_MAX_SUBSET_CURVES)"
    )
    assert "family_atlas" not in vars(model)
    brute_force_zariski(model, model.kahler)
    assert "family_atlas" in vars(model)


def test_derivative_by_chambers_examples(blowup1):
    assert derivative_by_chambers(blowup1, F(2, 1), F(1, -1)) == 4
    assert derivative_by_chambers(blowup1, F(1, 0), F(0, 1)) == 0
    assert derivative_by_chambers(blowup1, F(2, 0), F(0, 0)) == 0


def test_derivative_by_chambers_decomposes_once(decompositions, blowup1):
    # the walk's one decomposition, of alpha + eps*omega, also tests bigness
    assert derivative_by_chambers(blowup1, F(2, 1), blowup1.kahler) == 8
    assert len(decompositions) == 1


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


def test_value_at_reads_breakpoints_and_interpolates_between():
    """area_by_integration evaluates only at breakpoints: there value_at
    returns the stored value itself, with no interpolation."""
    end = QuadExt.new(Fraction(-1, 2), Fraction(1, 2), 5)  # about 0.618
    pl = PiecewiseLinear((Fraction(0), Fraction(1, 4), end), (Fraction(1), Fraction(3), end))
    for b, v in zip(pl.breakpoints, pl.values):
        assert pl.value_at(b) is v
    assert pl.value_at(Fraction(1, 8)) == 2
    with pytest.raises(ValueError, match="^evaluation outside the domain$"):
        pl.value_at(Fraction(1))


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


def test_verification_grid_bound_is_capped_before_it_shrinks(p2):
    """Past 2048 every rank's grid exceeds 4096 classes, so a huge bound
    shrinks from there, to the same reports, without a step per unit."""
    reports = run_model_verification(p2, grid_bound=10**12)
    assert reports == run_model_verification(p2, grid_bound=2047)
    assert reports[0].subject == "zariski-vs-subset-search[grid 2047, 4095 classes]"


def test_verification_reuses_the_sweep_volumes(decompositions, blowup1):
    reports = run_model_verification(blowup1)
    assert [r.subject for r in reports] == [
        "zariski-vs-subset-search[grid 2, 25 classes]",
        "derivative-vs-chamber-walk[28 pairs]",
        "polygon-area-vs-integration[21 polygons]",
    ]
    assert all(r.agrees for r in reports)
    # 25 in the sweep, 1 per derivative pair (the one chamber of the walk,
    # which also tests bigness; the closed form reads P off the sweep's
    # decomposition), and 26 for the 21 polygons (one per chamber, the first
    # of which also tests bigness and keeps the volume the area identity uses)
    assert len(decompositions) == 79
