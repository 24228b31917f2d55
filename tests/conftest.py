from __future__ import annotations

import inspect
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
    module that calls it by name: zariski, whose _require_big and
    _decompose_or_none okounkov and oracle call."""
    import zok.zariski

    decompose = zok.zariski.zariski_decompose
    calls = []

    def counting(model, alpha):
        calls.append(alpha)
        return decompose(model, alpha)

    monkeypatch.setattr(zok.zariski, "zariski_decompose", counting)
    return calls


@pytest.fixture
def start_checks(monkeypatch):
    """The classes whose decomposition a chamber walk checks at its start
    while the test runs: the integer check (zariski._check_ints) as the
    okounkov module calls it, once per walk, each class as the Fractions
    of the numerators it was given."""
    import zok.okounkov

    check = zok.okounkov._check_ints
    signature = inspect.signature(check)
    calls = []

    def counting(*args, **kwargs):
        given = signature.bind(*args, **kwargs).arguments
        calls.append(tuple(Fraction(x, given["lp"]) for x in given["p"]))
        return check(*args, **kwargs)

    monkeypatch.setattr(zok.okounkov, "_check_ints", counting)
    return calls


class _StoreLog(dict):
    """A support table that logs the key of every store."""

    def __init__(self):
        super().__init__()
        self.stores = []

    def __setitem__(self, key, value):
        self.stores.append(key)
        super().__setitem__(key, value)


@pytest.fixture
def support_steps(monkeypatch):
    """(steps, log): log(model) gives the model a fresh support table that
    logs its stores (.stores); steps lists the (prefix, index) of every
    integer bordering step of a support-table entry (lattice._extend) while
    the test runs."""
    import zok.lattice

    extend = zok.lattice._extend
    steps = []

    def counting(g, table, prefix, entry, m):
        steps.append((tuple(prefix), m))
        return extend(g, table, prefix, entry, m)

    def log(model):
        table = model.__dict__["_support_table"] = _StoreLog()
        return table

    monkeypatch.setattr(zok.lattice, "_extend", counting)
    return steps, log


def int_grid(rank: int, bound: int):
    """All integer class vectors with coordinates in [-bound, bound]."""
    return [
        tuple(Fraction(c) for c in coords)
        for coords in itertools.product(*[range(-bound, bound + 1)] * rank)
    ]


def F(*coords):
    return tuple(Fraction(c) for c in coords)
