from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from zok.fixtures import load_fixture
from zok.lattice import make_model


@pytest.fixture(scope="session")
def p2():
    return load_fixture("p2")


@pytest.fixture(scope="session")
def blowup1():
    return load_fixture("blowup1")


@pytest.fixture(scope="session")
def blowup2():
    return load_fixture("blowup2")


@pytest.fixture(scope="session")
def hirzebruch2():
    return load_fixture("hirzebruch2")


@pytest.fixture(scope="session")
def all_fixture_models(p2, blowup1, blowup2, hirzebruch2):
    return [p2, blowup1, blowup2, hirzebruch2]


@pytest.fixture(scope="session")
def golden_model():
    # generic form whose terminal walk endpoint is (sqrt(5)-1)/2
    return make_model(
        "golden", 2, [[2, 1], [1, -2]], [("A", [1, 0]), ("N", [0, 1])], [1, 0]
    )


@pytest.fixture
def decompositions(monkeypatch):
    """The classes passed to zariski_decompose while the test runs, from every
    module that calls it by name."""
    import zok.okounkov
    import zok.oracle
    import zok.zariski

    decompose = zok.zariski.zariski_decompose
    calls = []

    def counting(model, alpha):
        calls.append(alpha)
        return decompose(model, alpha)

    for module in (zok.okounkov, zok.oracle, zok.zariski):
        monkeypatch.setattr(module, "zariski_decompose", counting)
    return calls


def int_grid(rank: int, bound: int):
    """All integer class vectors with coordinates in [-bound, bound]."""
    return [
        tuple(Fraction(c) for c in coords)
        for coords in itertools.product(*[range(-bound, bound + 1)] * rank)
    ]


def F(*coords):
    return tuple(Fraction(c) for c in coords)
