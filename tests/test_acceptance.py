"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every assertion is an exact rational (or quadratic-field) equality unless the
criterion itself is an inequality; there are no tolerances anywhere.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction

import pytest

from zok.cli import main as cli_main
from zok.errors import EpsilonTooLarge, NotPseudoEffective
from zok.okounkov import FlagSpec, boundary_body, okounkov_polygon
from zok.oracle import area_by_integration, brute_force_zariski, derivative_by_chambers
from zok.polygon import minkowski_sum, polygon_contains
from zok.zariski import (
    Kind,
    classify,
    derivative_vol,
    is_nef_in_model,
    morse_gap,
    orthogonal_nef_lift,
    perturbed_decomposition,
    zariski_decompose,
)

from conftest import F, int_grid
from reference import vec_add, vec_scale

GRID_BOUND = 3


@contextmanager
def report(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{title}]: FAIL")
        raise
    print(f"criterion {number:2d} [{title}]: PASS")


@pytest.fixture(scope="module")
def sweeps(all_fixture_models):
    """Per fixture: decompositions over the integer grid, split by kind."""
    data = {}
    for model in all_fixture_models:
        big, boundary, not_psef = [], [], []
        for alpha in int_grid(model.rank, GRID_BOUND):
            try:
                dec = zariski_decompose(model, alpha)
            except NotPseudoEffective:
                not_psef.append(alpha)
                continue
            (big if dec.volume(model) > 0 else boundary).append((alpha, dec))
        data[model.name] = {
            "model": model,
            "big": big,
            "boundary": boundary,
            "not_psef": not_psef,
        }
    return data


@pytest.fixture(scope="module")
def polygon_cache():
    return {}


def get_polygon(cache, model, alpha, flag):
    key = (model.name, tuple(alpha), flag)
    if key not in cache:
        cache[key] = okounkov_polygon(model, alpha, flag)
    return cache[key]


def flag_variants(model, curve: int) -> list[FlagSpec]:
    """Generic point plus one point on each pairwise intersection with C."""
    variants = [FlagSpec.make(curve)]
    c_cls = model.curve_class(curve)
    for i, other in enumerate(model.curves):
        if i != curve and model.intersect(other.cls, c_cls) >= 1:
            variants.append(FlagSpec.make(curve, {i: Fraction(1)}))
    return variants


def test_criterion_01_volume_identity(sweeps, polygon_cache):
    with report(1, "volume identity 2*area == Z^2"):
        polygons = 0
        for entry in sweeps.values():
            model = entry["model"]
            for alpha, dec in entry["big"]:
                vol = dec.volume(model)
                for curve in range(len(model.curves)):
                    for flag in flag_variants(model, curve):
                        poly = get_polygon(polygon_cache, model, alpha, flag)
                        assert 2 * poly.area == vol
                        polygons += 1
        assert polygons > 600  # the sweep really covered the grids


def test_criterion_02_decomposition_oracle_equivalence(sweeps):
    with report(2, "iterative decomposition == subset-search oracle"):
        for entry in sweeps.values():
            model = entry["model"]
            for alpha, dec in entry["big"] + entry["boundary"]:
                assert brute_force_zariski(model, alpha) == dec
            for alpha in entry["not_psef"]:
                assert brute_force_zariski(model, alpha) is None


def test_criterion_03_derivative_formula(sweeps):
    with report(3, "derivative formula == chamber-walk derivative"):
        for entry in sweeps.values():
            model = entry["model"]
            directions = [model.kahler] + [c.cls for c in model.curves]
            seen = set()
            directions = [
                d for d in directions if tuple(d) not in seen and not seen.add(tuple(d))
            ]
            for beta in directions:
                assert is_nef_in_model(model, beta) or any(
                    tuple(beta) == tuple(c.cls) for c in model.curves
                )
            for alpha, _ in entry["big"]:
                for beta in directions:
                    assert derivative_vol(model, alpha, beta) == derivative_by_chambers(
                        model, alpha, beta
                    )


def test_criterion_04_morse_inequality(sweeps, blowup1):
    with report(4, "Morse inequality on nef pairs"):
        applied = 0
        for entry in sweeps.values():
            model = entry["model"]
            nef = [
                alpha
                for alpha, _ in entry["big"] + entry["boundary"]
                if is_nef_in_model(model, alpha)
            ]
            for alpha in nef:
                a2 = model.intersect(alpha, alpha)
                for beta in nef:
                    lhs = a2 - 2 * model.intersect(alpha, beta)
                    if lhs <= 0:
                        continue
                    cert = morse_gap(model, alpha, beta)
                    assert cert.conclusion_big and cert.holds
                    assert cert.vol >= lhs
                    diff = vec_add(alpha, vec_scale(-1, beta))
                    assert classify(model, diff).kind is Kind.BIG
                    applied += 1
        assert applied > 50
        cert = morse_gap(blowup1, F(3, 0), F(1, -1))
        assert cert.lhs == 3 and cert.vol == 4


def test_criterion_05_polygon_structure(sweeps, polygon_cache):
    with report(5, "polygon structure: vertex bound, convexity, nef flags"):
        for entry in sweeps.values():
            model = entry["model"]
            bound = 2 * model.rank + 2
            for alpha, _ in entry["big"]:
                for curve in range(len(model.curves)):
                    nef_flag_curve = is_nef_in_model(model, model.curve_class(curve))
                    for flag in flag_variants(model, curve):
                        poly = get_polygon(polygon_cache, model, alpha, flag)
                        assert len(poly.vertices) <= bound
                        fs, gs = poly.f.slopes(), poly.g.slopes()
                        assert all(not s1 < s0 for s0, s1 in zip(fs, fs[1:]))
                        assert all(not s1 > s0 for s0, s1 in zip(gs, gs[1:]))
                        assert all(
                            not gv < fv for fv, gv in zip(poly.f.values, poly.g.values)
                        )
                        if nef_flag_curve:
                            assert poly.a == 0


def test_criterion_06_boundary_bodies(sweeps, blowup1):
    with report(6, "boundary bodies: dimension equals numerical dimension"):
        body = boundary_body(blowup1, F(0, 1), FlagSpec.make(2))  # flag (H, generic)
        assert (body.kind, body.base_y) == ("Point", 0)
        body = boundary_body(blowup1, F(0, 1), FlagSpec.make(1, {0: Fraction(1)}))
        assert (body.kind, body.base_y) == ("Point", 1)
        body = boundary_body(blowup1, F(1, -1), FlagSpec.make(2))
        assert (body.kind, body.base_y, body.top) == ("Segment", 0, 1)

        swept = 0
        for entry in sweeps.values():
            model = entry["model"]
            for alpha, dec in entry["boundary"]:
                n = dec.numdim(model)
                for curve in range(len(model.curves)):
                    if n == 0 and curve in dec.support:
                        continue
                    if n == 1 and model.intersect(
                        dec.positive, model.curve_class(curve)
                    ) == 0:
                        continue
                    for flag in flag_variants(model, curve):
                        body = boundary_body(model, alpha, flag)
                        dim = 0 if body.kind == "Point" else 1
                        assert dim == n
                        swept += 1
        assert swept > 100


def test_criterion_07_worked_fixtures(p2, blowup1, polygon_cache):
    with report(7, "worked fixture polygons match hand-derived data"):
        poly = get_polygon(polygon_cache, p2, F(1), FlagSpec.make(0))
        assert poly.vertices == ((0, 0), (1, 0), (0, 1))
        assert poly.area == Fraction(1, 2)

        poly = get_polygon(polygon_cache, blowup1, F(2, 0), FlagSpec.make(1))
        assert poly.area == 2

        poly = get_polygon(polygon_cache, blowup1, F(1, 1), FlagSpec.make(0))
        assert poly.vertices == ((1, 0), (2, 0), (2, 1))
        assert poly.area == Fraction(1, 2)
        assert (poly.a, poly.s) == (1, 2)

        # re-derive every asserted area through the independent integral
        for key_model, alpha, flag in [
            (p2, F(1), FlagSpec.make(0)),
            (blowup1, F(2, 0), FlagSpec.make(1)),
            (blowup1, F(1, 1), FlagSpec.make(0)),
        ]:
            poly = get_polygon(polygon_cache, key_model, alpha, flag)
            assert area_by_integration(poly.f, poly.g) == poly.area


def test_criterion_08_perturbation_formula(sweeps):
    with report(8, "perturbation formula and exact epsilon threshold"):
        checked_trivial = checked_supported = 0
        for entry in sweeps.values():
            model = entry["model"]
            omega = model.kahler
            for alpha, dec in entry["boundary"]:
                if not dec.support:
                    eps = Fraction(1, 2)
                    direct = zariski_decompose(model, vec_add(alpha, vec_scale(eps, omega)))
                    assert perturbed_decomposition(model, alpha, omega, eps) == direct
                    checked_trivial += 1
                    continue
                _, b = orthogonal_nef_lift(model, dec.support, omega)
                threshold = min(a / bi for a, bi in zip(dec.coeffs, b))
                for frac in (Fraction(1, 4), Fraction(1, 2)):
                    eps = frac * threshold
                    direct = zariski_decompose(model, vec_add(alpha, vec_scale(eps, omega)))
                    assert perturbed_decomposition(model, alpha, omega, eps) == direct
                with pytest.raises(EpsilonTooLarge) as err:
                    perturbed_decomposition(model, alpha, omega, threshold)
                assert err.value.threshold == threshold
                checked_supported += 1
        assert checked_trivial > 0 and checked_supported > 0


def test_criterion_09_minkowski_containment(sweeps, polygon_cache):
    with report(9, "Minkowski containment of bodies"):
        pairs = 0
        for entry in sweeps.values():
            model = entry["model"]
            big = [alpha for alpha, _ in entry["big"]]
            for curve in range(len(model.curves)):
                for flag in flag_variants(model, curve):
                    for i, alpha in enumerate(big):
                        pa = get_polygon(polygon_cache, model, alpha, flag)
                        for beta in big[i:]:
                            pb = get_polygon(polygon_cache, model, beta, flag)
                            psum = get_polygon(
                                polygon_cache, model, vec_add(alpha, beta), flag
                            )
                            assert polygon_contains(
                                psum.vertices,
                                minkowski_sum(pa.vertices, pb.vertices),
                            )
                            pairs += 1
        assert pairs > 1000


def test_criterion_10_determinism(capsys):
    with report(10, "byte-identical outputs across repeated runs"):
        commands = [
            ["zariski", "-m", "blowup1", "-c", "1,1"],
            ["zariski", "-m", "blowup2", "-c", "3,-2,-1"],
            ["classify", "-m", "hirzebruch2", "-c", "1,1"],
            ["volume", "-m", "p2", "-c", "2"],
            ["derivative", "-m", "blowup1", "-c", "2,1", "-d", "H-E"],
            ["morse", "-m", "blowup1", "-c", "3,0", "-b", "1,-1"],
            ["okounkov", "-m", "blowup1", "-c", "2,0", "--flag", "H-E"],
            ["okounkov", "-m", "blowup2", "-c", "3,-1,-1", "--flag", "L12",
             "--mult", "E1=1"],
            ["restricted", "-m", "blowup1", "-c", "2,1", "--flag", "H-E"],
            ["boundary", "-m", "blowup1", "-c", "0,1", "--flag", "H-E", "--mult", "E=1"],
            ["chambers", "-m", "hirzebruch2", "-c", "3,1", "--curve", "C0"],
            ["families", "-m", "blowup2"],
            ["verify", "-m", "blowup1"],
        ]
        outputs = []
        for _ in range(2):
            run = []
            for argv in commands:
                code = cli_main(list(argv))
                out = capsys.readouterr().out
                assert code == 0
                run.append(out.encode("utf-8"))
            outputs.append(run)
        assert outputs[0] == outputs[1]
        for blob in outputs[0][:-1]:  # all but the JSONL verify output
            json.loads(blob)
