from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zok.errors import (GenerationError, MultipleCandidates, NotPseudoEffective, UsageError,
                        ZokError)
from zok.exact import QuadExt
from zok.lattice import (
    make_model,
    signature,
    solve_linear,
    validate_model,
)
from zok.okounkov import PiecewiseLinear, first_chamber_along
from zok.oracle import (
    ModelGenSpec,
    OracleReport,
    area_by_integration,
    brute_force_zariski,
    derivative_by_chambers,
    random_model,
    run_model_verification,
)
from zok.zariski import (
    ZariskiDecomp,
    _derivative_of,
    derivative_vol,
    enumerate_exceptional_families,
    zariski_decompose,
)

from conftest import F, int_grid
from reference import checked, residual_pairings, vec_add, vec_scale
from test_kernel import del_pezzo, rational_models, rationals


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
            candidates.append(checked(model, alpha, subset, coeffs))
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


def test_brute_force_matches_the_reference_on_del_pezzo_4():
    """The pruned scan over dP4's 76 families against all 2**10 curve
    subsets: seeded big classes (-K plus effective curves), boundary ones (a
    positive multiple of one curve or of two disjoint ones) and non-psef
    ones (K plus effective curves)."""
    model = del_pezzo(4)
    assert len(model.families) == 76 and model._family_index is not None
    rng = random.Random(2004)
    classes = [c.cls for c in model.curves]
    cases = []
    for sign in (1, -1):
        for _ in range(12):
            alpha = vec_scale(sign, model.kahler)
            for cls in rng.sample(classes, rng.randint(1, 4)):
                alpha = vec_add(alpha, vec_scale(rng.choice([Fraction(1, 2), 1, 2, 3]), cls))
            cases.append(alpha)
    for _ in range(8):
        i, j = rng.sample(range(4), 2)  # E_i and E_j are disjoint
        cases.append(vec_add(vec_scale(rng.randint(1, 3), classes[i]),
                             vec_scale(rng.randint(0, 2), classes[j])))
    kinds = set()
    for alpha in cases:
        answer = _outcome(brute_force_zariski, model, alpha)
        assert answer == _outcome(reference_subset_search, model, alpha)
        kinds.add("not-psef" if answer is None else
                  "big" if answer[2] > 0 else "boundary")
    assert kinds == {"big", "boundary", "not-psef"}


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
    # one search, on the integer curve table itself; no Fraction table is built
    assert len(calls) == 1 and calls[0] is model._curve_gram_ints[1]
    assert all(type(x) is int for row in calls[0] for x in row)
    assert "curve_gram" not in vars(model)
    assert families == list(model.families)
    assert all(entry is model.support_forms(family)
               for family, entry in zip(families, model.family_atlas, strict=True))


def test_a_search_scales_its_class_once(monkeypatch):
    """alpha is scaled to integers once per search, by pairing_ints, and a
    family that passes the sign tests goes to the checker with the
    numerators the search holds: nothing is scaled again."""
    import zok.lattice
    import zok.zariski

    model = random_model(ModelGenSpec(seed=5, rank=5, num_curves=8))
    alpha = vec_add(vec_scale(Fraction(1, 2), model.kahler),
                    vec_scale(Fraction(7, 3), model.curve_class(0)))
    found = brute_force_zariski(model, alpha)  # builds the tables
    assert found.support
    calls = []
    real = zok.lattice._over_lcm

    def counting(u):
        calls.append(u)
        return real(u)

    monkeypatch.setattr(zok.lattice, "_over_lcm", counting)
    monkeypatch.setattr(zok.zariski, "_over_lcm", counting)
    assert brute_force_zariski(model, alpha) == found
    assert calls == [alpha]


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


def test_derivative_by_chambers_decomposes_once(decompositions, start_checks, blowup1):
    # the walk's one start check, of alpha, also tests bigness
    assert derivative_by_chambers(blowup1, F(2, 1), blowup1.kahler) == 8
    assert start_checks == [F(2, 1)] and decompositions == []


def test_derivative_routes_agree(blowup1, blowup2):
    for model in (blowup1, blowup2):
        directions = [model.kahler] + [c.cls for c in model.curves]
        for alpha in int_grid(model.rank, 2):
            try:
                dec = zariski_decompose(model, alpha)
            except NotPseudoEffective:
                continue
            if dec.volume() <= 0:
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
    returns the stored value itself, with no interpolation.  Between them
    it interpolates, at an irrational t too; outside it raises."""
    end = QuadExt.new(Fraction(-1, 2), Fraction(1, 2), 5)  # about 0.618
    pl = PiecewiseLinear((Fraction(0), Fraction(1, 4), end), (Fraction(1), Fraction(3), end))
    for b, v in zip(pl.breakpoints, pl.values):
        assert pl.value_at(b) is v
    assert pl.value_at(Fraction(1, 8)) == 2
    # sqrt(5)/10, about 0.224, on the first piece 1 + 8t
    assert pl.value_at(QuadExt.new(0, Fraction(1, 10), 5)) == QuadExt.new(1, Fraction(4, 5), 5)
    for t in (Fraction(1), Fraction(-1)):
        with pytest.raises(ValueError, match="^evaluation outside the domain$"):
            pl.value_at(t)


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


@pytest.mark.parametrize("bound", [0, -1])
def test_random_model_refuses_a_coord_bound_below_one(bound):
    with pytest.raises(GenerationError, match="^coord_bound must be >= 1$"):
        random_model(ModelGenSpec(seed=1, rank=3, num_curves=4, coord_bound=bound))


def test_random_model_curve_count_below_the_exceptional_curves():
    """num_curves is the exact count from rank - 1 up: rank 1 gives
    p2-random with its one curve L for any num_curves, and a count below
    rank - 1 gives the rank - 1 curves E_i alone, as the docstrings say."""
    for n in (0, 1, 3, 6):
        m = random_model(ModelGenSpec(seed=5, rank=1, num_curves=n))
        assert m.name == "p2-random" and [c.name for c in m.curves] == ["L"]
    for rank, n in ((2, 0), (4, 0), (4, 2), (7, 5)):
        m = random_model(ModelGenSpec(seed=5, rank=rank, num_curves=n))
        assert [c.name for c in m.curves] == [f"E{i}" for i in range(1, rank)]
        assert validate_model(m) == []


def _generated_text(spec: ModelGenSpec) -> str:
    """The spec's model as text (name, gram, curves, Kahler class), or the
    message of the GenerationError it raises."""
    try:
        m = random_model(spec)
    except GenerationError as exc:
        return f"{spec}: GenerationError: {exc}"
    gram = [[str(x) for x in row] for row in m.gram]
    curves = [(c.name, [str(x) for x in c.cls]) for c in m.curves]
    return f"{spec}: {m.name} {gram} {curves} {[str(x) for x in m.kahler]}"


def test_random_model_draws_the_recorded_models():
    """Ranks 1-10 at coord_bound 1-3, from no drawn curve (num_curves =
    rank - 1) to retried attempts (random-2-r10-19), and one spec that runs
    out of attempts: the digest of their text was recorded from the generator
    that tested every draw against every curve and omega with a generic
    pairing, so a change to the filter keeps every draw, model and error."""
    specs = [ModelGenSpec(seed=seed, rank=rank, num_curves=rank + extra, coord_bound=bound)
             for rank in range(1, 11) for bound in (1, 2, 3)
             for seed, extra in ((0, -1), (1, 2), (2, 5))]
    failing = ModelGenSpec(seed=0, rank=7, num_curves=22, coord_bound=3)
    texts = [_generated_text(spec) for spec in specs + [failing]]
    assert texts[-1] == f"{failing}: GenerationError: no valid model after bounded retries (seed 0)"
    assert sum("GenerationError" in t for t in texts) == 1
    assert any(": random-2-r10-19 " in t for t in texts)
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "115b2aaf0db1d9637e9bdaea1b37fd2453faca4d3aac1b38e46862d6223815cd"


def _brute_force_text(model, alpha) -> str:
    """The subset search's outcome on alpha as text: the decomposition's
    repr, positive_square and positive_pairings, None, or the exception's
    type and message."""
    try:
        dec = brute_force_zariski(model, alpha)
    except ZokError as exc:
        return f"{type(exc).__name__}: {exc}"
    if dec is None:
        return "None"
    return f"{dec!r} {dec.positive_square} {dec.positive_pairings}"


def test_brute_force_gives_the_recorded_outcomes(all_fixture_models):
    """25 seeded classes (numerators -4..6 over 1..3) on each fixture and
    on 200 seeded random models of rank 3-6 with 4-9 curves: the digest of
    their outcomes was recorded from the search that tested each family
    over a copy of its rows and checked each candidate from Fractions, so
    the integer scan gives the same decompositions, verdicts and errors."""
    models = [*all_fixture_models]
    models += [random_model(ModelGenSpec(seed=seed, rank=3 + seed % 4,
                                         num_curves=4 + seed % 4 + seed % 3))
               for seed in range(200)]
    texts = []
    for k, model in enumerate(models):
        rng = random.Random(k)
        for _ in range(25):
            alpha = tuple(Fraction(rng.randint(-1, 6) if i == 0 else rng.randint(-4, 2),
                                   rng.randint(1, 3)) for i in range(model.rank))
            texts.append(f"{model.name} {alpha}: {_brute_force_text(model, alpha)}")
    assert sum(": None" in t for t in texts) == 2958
    assert sum("support=()" in t for t in texts) == 403
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "a8e148fdcb2ad9eee916a04b5cee7dbf5c38bd1c640c93bb9bf4d59ae20c2c11"


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


_ZARISKI, _DERIVATIVE, _POLYGON = (
    OracleReport("zariski-vs-subset-search[grid 2, 25 classes]", True),
    OracleReport("derivative-vs-chamber-walk[28 pairs]", True),
    OracleReport("polygon-area-vs-integration[21 polygons]", True),
)


def _off_at(route, n):
    """route with its n-th answer (counting from 1) off by one."""
    calls = itertools.count(1)

    def off(*args, **kwargs):
        value = route(*args, **kwargs)
        return value + 1 if next(calls) == n else value

    return off


def _slope_off_at(n):
    """first_chamber_along, with the slope of Z(t)^2 at t = 0 that its n-th
    chamber keeps (counting from 1) off by one."""
    calls = itertools.count(1)

    def off(model, alpha, direction):
        chamber = first_chamber_along(model, alpha, direction)
        if next(calls) != n:
            return chamber
        (n0, e0), (n1, e1), c2 = chamber.square_ints
        return dataclasses.replace(chamber, square_ints=((n0, e0), (n1 + e1, e1), c2))

    return off


def _no_subset_at(cls):
    """brute_force_zariski, finding no decomposition of the class cls."""

    def search(model, alpha, max_curves):
        return None if alpha == cls else brute_force_zariski(model, alpha, max_curves)

    return search


@pytest.mark.parametrize(
    "target, route, expected",
    [
        # the sweep stops at its 24th class, so the later routes see only
        # the big classes before it
        ("brute_force_zariski", _no_subset_at(F(2, 1)), [
            OracleReport(
                "zariski-vs-subset-search[grid 2, 24 classes]", False,
                "class (2,1): iterative ZariskiDecomp(alpha=(Fraction(2, 1), Fraction(1, 1)), "
                "positive=(Fraction(2, 1), Fraction(0, 1)), support=(0,), "
                "coeffs=(Fraction(1, 1),)) vs subset None"),
            OracleReport("derivative-vs-chamber-walk[20 pairs]", True),
            OracleReport("polygon-area-vs-integration[15 polygons]", True),
        ]),
        ("first_chamber_along", _slope_off_at(3), [
            _ZARISKI,
            OracleReport(
                "derivative-vs-chamber-walk[3 pairs]", False,
                "alpha (1,0), beta (1,-1): closed form 2 vs chamber walk 3"),
            _POLYGON,
        ]),
        ("_derivative_of", _off_at(_derivative_of, 3), [
            _ZARISKI,
            OracleReport(
                "derivative-vs-chamber-walk[3 pairs]", False,
                "alpha (1,0), beta (1,-1): closed form 3 vs chamber walk 2"),
            _POLYGON,
        ]),
        ("area_by_integration", _off_at(area_by_integration, 5), [
            _ZARISKI,
            _DERIVATIVE,
            OracleReport(
                "polygon-area-vs-integration[5 polygons]", False,
                "alpha (1,1), flag H-E: shoelace 1/2, integral 3/2, volume 1"),
        ]),
    ],
)
def test_a_route_that_disagrees_reports_its_first_witness(monkeypatch, blowup1, target, route, expected):
    """The route that disagrees stops at its first witness and counts the
    items it reached up to that one; the other routes still run."""
    import zok.oracle

    monkeypatch.setattr(zok.oracle, target, route)
    assert run_model_verification(blowup1) == expected


def test_verification_classifies_each_direction_once(monkeypatch, blowup1):
    """The derivative route classifies omega and each curve once, before its
    pairs, and reads each pair's chamber walk as derivative_by_chambers does
    without its gate: 4 _direction_kind calls for the same reports, where
    the gate once per pair made 32, and classifying again in the closed form
    of every pair made 56."""
    import zok.oracle
    import zok.zariski

    calls = []
    direction_kind = zok.zariski._direction_kind

    def counting(model, beta):
        calls.append(beta)
        return direction_kind(model, beta)

    for module in (zok.oracle, zok.zariski):
        monkeypatch.setattr(module, "_direction_kind", counting)
    assert run_model_verification(blowup1) == [_ZARISKI, _DERIVATIVE, _POLYGON]
    assert len(calls) == 4


def test_loading_walking_and_verifying_leave_the_fraction_curve_table_unbuilt():
    """zok reads the integer curve table only: loading and validating a
    model, a flag with a multiplicity, a polygon and the oracle suite leave
    its Fraction view (curve_gram) unbuilt."""
    from zok.fixtures import load_fixture
    from zok.okounkov import FlagSpec, okounkov_polygon

    model = load_fixture("blowup2")
    assert validate_model(model) == [] and "curve_gram" not in vars(model)
    flag = FlagSpec.make(model.curve_index("L12"), {model.curve_index("E1"): 1})
    assert okounkov_polygon(model, F(3, -1, -1), flag).area > 0
    assert "curve_gram" not in vars(model)
    assert all(r.agrees for r in run_model_verification(model, grid_bound=1))
    assert "curve_gram" not in vars(model)


def test_verification_grid_bound_is_capped_before_it_shrinks(p2):
    """Past 2048 every rank's grid exceeds 4096 classes, so a huge bound
    shrinks from there, to the same reports, without a step per unit."""
    reports = run_model_verification(p2, grid_bound=10**12)
    assert reports == run_model_verification(p2, grid_bound=2047)
    assert reports[0].subject == "zariski-vs-subset-search[grid 2047, 4095 classes]"


def test_verification_reuses_the_sweep_volumes(decompositions, start_checks, blowup1):
    reports = run_model_verification(blowup1)
    assert [r.subject for r in reports] == [
        "zariski-vs-subset-search[grid 2, 25 classes]",
        "derivative-vs-chamber-walk[28 pairs]",
        "polygon-area-vs-integration[21 polygons]",
    ]
    assert all(r.agrees for r in reports)
    # 25 decompositions in the sweep, none after it: the closed form reads P
    # off the sweep's decomposition.  One start check per walk, each of
    # which also tests bigness: one per derivative pair (the one chamber of
    # the walk) and one per polygon (which keeps the volume the area
    # identity uses), 28 + 21
    assert len(decompositions) == 25
    assert len(start_checks) == 49
