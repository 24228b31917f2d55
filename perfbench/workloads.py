"""The four workloads: how each builds its inputs from the seed, what one op
is, and how each answer is checked.

A workload object is built by its set-up (models, op stream, work files).
Its stream is made of rounds of ``ROUND`` ops that visit every model (or
command) once; runs stop only at the end of a round, so every run weighs
the models alike.  ``op(i)`` is the timed call into zok for the i-th op of
the stream (the stream repeats when a run outlasts it; zok keeps no cache,
so a repeat costs what the first pass cost).  ``check(i, answer)`` runs untimed after the op
and returns None or the reason the answer is wrong.  Verdicts an op accepts
as answers (not pseudo-effective, epsilon too large, exit code 1 or 2) come
back as values; anything else an op raises is a failed op and a wrong
answer.  A check raises ``Refused`` when the program declined to answer in
the one way a workload accepts (mixed radicands, on polygons).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import checks
from checks import Refused, check_decomposition, pair

NOT_PSEF = "NotPseudoEffective"
# zok.exact.QuadExt cannot add numbers from two quadratic fields (ROADMAP
# item 4); its ValueError carries this text.
MIXED_RADICANDS = "mixed radicands"


def _rng(name: str, seed) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _model_key(m):
    return (m.name, m.gram, tuple((c.name, c.cls) for c in m.curves), m.kahler)


def random_models(z, rng, specs):
    """One seeded ``random_model`` per (rank, curves) spec; a spec seed the
    generator rejects is replaced by the next draw.

    Workloads draw their models from a fixed rng, not from the run's seed:
    op cost varies threefold between models of one spec, and seed-drawn
    models made ops_per_s spread by 12-17% between seeds.  The seed draws
    the classes (and the order of the cli commands).
    """
    models = []
    for rank, curves in specs:
        while True:
            spec = z.oracle.ModelGenSpec(seed=rng.randrange(1 << 30), rank=rank, num_curves=curves)
            try:
                models.append(z.oracle.random_model(spec))
                break
            except z.errors.GenerationError:
                continue
    return models


class IntLattice:
    """A model's form, curves and Kahler class as Python ints, for drawing
    inputs quickly (the generated models and fixtures are integral)."""

    def __init__(self, m):
        self.rank = m.rank
        self.gram = [[int(x) for x in row] for row in m.gram]
        self.curves = [tuple(int(x) for x in c.cls) for c in m.curves]
        self.kahler = tuple(int(x) for x in m.kahler)
        self.negative = [c for c in self.curves if pair(self.gram, c, c) < 0]


def nef_near_kahler(rng, lat):
    """omega plus a unit perturbation that stays non-negative on every curve
    and of positive square, hence nef and big in the model."""
    for _ in range(64):
        a = tuple(w + rng.randint(-1, 1) for w in lat.kahler)
        if pair(lat.gram, a, a) > 0 and all(pair(lat.gram, a, c) >= 0 for c in lat.curves):
            return a
    return lat.kahler


def _fracs(v):
    return tuple(Fraction(x) for x in v)


def big_class(rng, lat):
    """Nef and big plus a sparse effective combination of curves: big by
    construction, with a non-empty negative part when a negative curve is
    added."""
    a = list(nef_near_kahler(rng, lat))
    for c in lat.curves:
        if rng.random() < 0.25:
            a = [x + y for x, y in zip(a, c)]
    return _fracs(a)


def mixed_class(rng, lat):
    """A class and what is known about it by construction: "psef", "not_psef"
    (it meets omega negatively) or None.  Big, boundary (negative curves,
    Z^2 = 0 classes H - E_i) and non-pseudo-effective classes are mixed."""
    u = rng.random()
    if u < 0.4:
        return big_class(rng, lat), "psef"
    if u < 0.5:
        picks = rng.sample(lat.negative, min(len(lat.negative), rng.randint(1, 2)))
        return _fracs(sum(col) for col in zip(*picks)), "psef"
    if u < 0.6:
        k, i = rng.randint(1, 3), rng.randrange(1, lat.rank)
        return _fracs(k if j == 0 else (-k if j == i else 0) for j in range(lat.rank)), None
    if u < 0.7:
        a = tuple(-w + rng.randint(-1, 1) for w in lat.kahler)
    else:
        a = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
    return _fracs(a), ("not_psef" if pair(lat.gram, a, lat.kahler) < 0 else None)


def _reference(z, m, alpha):
    """zok's own decomposition, or NOT_PSEF, for use inside a check."""
    try:
        return z.zariski.zariski_decompose(m, alpha)
    except z.errors.NotPseudoEffective:
        return NOT_PSEF


def _check_verdict(m, alpha, label, answer, subset=None):
    """Check a decomposition-or-NOT_PSEF answer against the construction
    label and, when given, the brute-force subset search answer."""
    if subset is not None and subset != answer:
        return "subset search disagrees"
    if answer == NOT_PSEF:
        return "pseudo-effective class declared not pseudo-effective" if label == "psef" else None
    if label == "not_psef":
        return "decomposition of a class that meets omega negatively"
    return check_decomposition(m, alpha, answer)


def _subset_search(z, m, alpha):
    dec = z.oracle.brute_force_zariski(m, alpha)
    return NOT_PSEF if dec is None else dec


class Polygons:
    """Okounkov polygons of big classes near the Kahler class: P(a), P(b) and
    P(a+b) for one flag, checked by 2*area = vol, by trapezoid integration,
    and by Minkowski containment P(a) + P(b) inside P(a+b)."""

    # Six models per (rank, curves) spec: op cost varies by a factor of three
    # between models of one spec, so a run must average over many of them.
    SPECS = ((4, 6), (4, 7), (5, 7), (5, 8), (6, 8), (6, 9)) * 6
    FIXTURES = ("blowup2", "hirzebruch2")
    ROUND = len(SPECS) + len(FIXTURES)  # one op on each model
    # How strongly op and set-up times follow the speed probe (harness.Speed),
    # as probe_slope.py measured them: 0.726 for ops, 0.620 for set-ups.
    PROBE_POWER = 0.73
    SETUP_POWER = 0.62
    STREAM = 12 * ROUND

    def __init__(self, z, seed, work):
        self.z = z
        fixed, rng = _rng("polygons", "models"), _rng("polygons", seed)
        self.models = random_models(z, fixed, self.SPECS)
        self.models += [z.fixtures.load_fixture(name) for name in self.FIXTURES]
        lats = [IntLattice(m) for m in self.models]
        flags = []
        for lat in lats:
            variants = []
            for c, cc in enumerate(lat.curves):
                variants.append(z.okounkov.FlagSpec.make(c))
                meeting = [i for i, o in enumerate(lat.curves) if i != c and pair(lat.gram, o, cc) >= 1]
                if meeting:
                    variants.append(z.okounkov.FlagSpec.make(c, {fixed.choice(meeting): Fraction(1)}))
            # One flag per model, the same in every round, so how many rounds
            # a run reaches does not change the op mix.
            flags.append(fixed.choice(variants))
        self.stream = []
        for i in range(self.STREAM):
            k = i % len(self.models)
            self.stream.append((k, big_class(rng, lats[k]), big_class(rng, lats[k]), flags[k]))

    def digest(self):
        return _digest([_model_key(m) for m in self.models], self.stream)

    def op(self, i):
        z = self.z
        k, alpha, beta, flag = self.stream[i % len(self.stream)]
        m = self.models[k]
        gamma = tuple(a + b for a, b in zip(alpha, beta))
        polys = [z.okounkov.okounkov_polygon(m, x, flag) for x in (alpha, beta, gamma)]
        vols = [z.zariski.volume(m, x) for x in (alpha, beta, gamma)]
        integral = z.oracle.area_by_integration(polys[2].f, polys[2].g)
        try:
            msum = z.polygon.minkowski_sum(polys[0].vertices, polys[1].vertices)
            contained = z.polygon.polygon_contains(polys[2].vertices, msum)
        except ValueError as exc:
            if MIXED_RADICANDS not in str(exc):
                raise
            contained = exc
        return polys, vols, integral, contained

    def check(self, i, answer):
        """The polygons and volumes are checked also when the containment
        test failed on mixed radicands; that op is then refused, of kind
        mixed_radicand."""
        polys, vols, integral, contained = answer
        for poly, vol in zip(polys, vols):
            if checks.shoelace_twice(poly.vertices) != vol:
                return "2*area != vol"
        if checks.shoelace_twice(polys[2].vertices) != 2 * integral:
            return "area_by_integration != shoelace area"
        if isinstance(contained, ValueError):
            raise Refused("mixed_radicand")
        if contained is not True:
            return "P(a) + P(b) not contained in P(a+b)"
        return None


class Decompose:
    """Single decompositions and what sits on them, on rank 6/8/10 models
    with 10/12/16 curves, over a class stream mixing big, boundary and
    non-pseudo-effective classes."""

    SPECS = ((6, 10), (8, 12), (10, 16)) * 4
    KINDS = ("zariski", "classify", "volume", "morse", "perturbed",
             "derivative_nef", "derivative_curve")
    ROUND = len(SPECS) * len(KINDS)  # one op of each kind on each model
    # harness.Speed; probe_slope.py measured 0.760 for ops, 0.519 for set-ups.
    PROBE_POWER = 0.76
    SETUP_POWER = 0.52
    STREAM = 24 * ROUND
    # Stream positions whose answer is also checked by brute-force subset
    # search: 0 and 1008, both a "zariski" op on a 10-curve model (position
    # % 12 == 0, position // 12 % 7 == 0).  Subset search costs about 1.5 s
    # per class there and is infeasible with 12 or 16 curves.
    BRUTE_FORCE_EVERY = 12 * ROUND

    def __init__(self, z, seed, work):
        self.z = z
        rng = _rng("decompose", seed)
        self.models = random_models(z, _rng("decompose", "models"), self.SPECS)
        lats = [IntLattice(m) for m in self.models]
        self.stream = []
        for i in range(self.STREAM):
            k = i % len(lats)
            lat = lats[k]
            kind = self.KINDS[(i // len(lats)) % len(self.KINDS)]
            if kind in ("zariski", "classify", "volume"):
                args = mixed_class(rng, lat)
            elif kind == "morse":
                scale = rng.randint(1, 3)
                a = nef_near_kahler(rng, lat)
                args = (_fracs(scale * x for x in a), _fracs(nef_near_kahler(rng, lat)))
            elif kind == "perturbed":
                args = (big_class(rng, lat), Fraction(1, rng.choice((16, 32, 64))))
            elif kind == "derivative_nef":
                args = (big_class(rng, lat), _fracs(nef_near_kahler(rng, lat)))
            else:
                args = (big_class(rng, lat), _fracs(rng.choice(lat.curves)))
            self.stream.append((k, kind, args))

    def digest(self):
        return _digest([_model_key(m) for m in self.models], self.stream)

    def op(self, i):
        zar = self.z.zariski
        k, kind, args = self.stream[i % len(self.stream)]
        m = self.models[k]
        if kind in ("zariski", "volume"):
            try:
                return (zar.zariski_decompose if kind == "zariski" else zar.volume)(m, args[0])
            except self.z.errors.NotPseudoEffective:
                return NOT_PSEF
        if kind == "classify":
            return zar.classify(m, args[0])
        if kind == "morse":
            return zar.morse_gap(m, *args)
        if kind == "perturbed":
            try:
                return zar.perturbed_decomposition(m, args[0], m.kahler, args[1])
            except self.z.errors.EpsilonTooLarge as exc:
                return ("EpsilonTooLarge", exc.threshold)
        alpha, beta = args
        return zar.derivative_vol(m, alpha, beta), self.z.oracle.derivative_by_chambers(m, alpha, beta)

    def check(self, i, answer):
        z = self.z
        k, kind, args = self.stream[i % len(self.stream)]
        m = self.models[k]
        if kind == "zariski":
            alpha, label = args
            subset = None
            if (i % len(self.stream)) % self.BRUTE_FORCE_EVERY == 0:
                subset = _subset_search(z, m, alpha)
            return _check_verdict(m, alpha, label, answer, subset)
        if kind in ("classify", "volume"):
            alpha, label = args
            ref = _reference(z, m, alpha)
            reason = _check_verdict(m, alpha, label, ref)
            if reason:
                return "reference " + reason
            if kind == "volume":
                want = NOT_PSEF if ref == NOT_PSEF else pair(m.gram, ref.positive, ref.positive)
                return None if answer == want else "volume differs from P^2"
            if ref == NOT_PSEF:
                want = ("NotPsefInModel", None)
            else:
                vol = pair(m.gram, ref.positive, ref.positive)
                nd = 2 if vol > 0 else (0 if all(x == 0 for x in ref.positive) else 1)
                want = ("Big" if nd == 2 else "Boundary", nd)
            return None if (answer.kind.value, answer.numdim) == want else "wrong classification"
        if kind == "morse":
            alpha, beta = args
            lhs = pair(m.gram, alpha, alpha) - 2 * pair(m.gram, alpha, beta)
            diff = tuple(a - b for a, b in zip(alpha, beta))
            ref = _reference(z, m, diff)
            reason = _check_verdict(m, diff, None, ref)
            if reason:
                return "reference " + reason
            vol = None if ref == NOT_PSEF else pair(m.gram, ref.positive, ref.positive)
            if answer.lhs != lhs or not answer.holds or answer.vol != vol:
                return "wrong Morse certificate"
            if answer.conclusion_big != (vol is not None and vol > 0):
                return "wrong Morse conclusion"
            if lhs > 0 and not (answer.conclusion_big and vol >= lhs):
                return "Morse inequality violated"
            return None
        if kind == "perturbed":
            alpha, eps = args
            if isinstance(answer, tuple):
                return None if 0 < answer[1] <= eps else "wrong epsilon threshold"
            shifted = tuple(a + eps * w for a, w in zip(alpha, m.kahler))
            return check_decomposition(m, shifted, answer)
        alpha, beta = args
        closed, walked = answer
        ref = _reference(z, m, alpha)
        reason = _check_verdict(m, alpha, "psef", ref)
        if reason:
            return "reference " + reason
        if closed != walked or closed != 2 * pair(m.gram, ref.positive, beta):
            return "derivative_vol, derivative_by_chambers and 2 P.beta disagree"
        return None


def del_pezzo(z, r: int):
    """P^2 blown up at r <= 5 general points with every (-1)-curve: the
    exceptional curves E_i, the lines through two points and, for r = 5, the
    conic through all five; -K = 3H - sum E_i is the Kahler class."""
    rank = r + 1
    gram = [[(1 if i == 0 else -1) if i == j else 0 for j in range(rank)] for i in range(rank)]
    curves = []
    for i in range(1, rank):
        curves.append((f"E{i}", [1 if j == i else 0 for j in range(rank)]))
    for pts in itertools.chain(itertools.combinations(range(1, rank), 2),
                               itertools.combinations(range(1, rank), 5)):
        degree = 1 if len(pts) == 2 else 2
        curves.append((("L" if degree == 1 else "Q") + "".join(map(str, pts)),
                       [degree] + [-1 if j in pts else 0 for j in range(1, rank)]))
    return z.lattice.make_model(f"dP{r}", rank, gram, curves, [3] + [-1] * r)


class Enumerate:
    """Exhaustive negative-definiteness work: exceptional families of del
    Pezzo models, and brute-force subset decompositions checked against the
    iterative decomposition."""

    # Zariski chamber counts of P^2 blown up at r general points
    # (Bauer-Funke-Neumann 2010); the enumeration includes the empty family.
    FAMILIES = {2: 5, 3: 18, 4: 76, 5: 393}
    SPECS = ((4, 6), (5, 7), (5, 8)) * 4
    # A round of 40 ops enumerates dP2..dP5 once each (every tenth op) and
    # runs 36 subset searches, three on each model.  dP5 (about 0.9 s) is
    # then 2.5% of ops and the 8-curve searches 30%, so op_p90_ms falls
    # inside that one cluster instead of on the edge between two.
    ROUND = 40
    # harness.Speed; probe_slope.py measured 0.795 for ops, 0.689 for set-ups.
    PROBE_POWER = 0.80
    SETUP_POWER = 0.69
    STREAM = 10 * ROUND

    def __init__(self, z, seed, work):
        self.z = z
        rng = _rng("enumerate", seed)
        self.del_pezzo = {r: del_pezzo(z, r) for r in self.FAMILIES}
        self.models = random_models(z, _rng("enumerate", "models"), self.SPECS)
        lats = [IntLattice(m) for m in self.models]
        self.stream = []
        brute = 0
        for i in range(self.STREAM):
            pos = i % self.ROUND
            if pos % 10 == 9:
                self.stream.append(("families", 2 + pos // 10))
            else:
                k = brute % len(self.models)
                brute += 1
                self.stream.append(("brute", k) + mixed_class(rng, lats[k]))

    def digest(self):
        return _digest([_model_key(m) for m in self.models],
                       [_model_key(m) for m in self.del_pezzo.values()], self.stream)

    def op(self, i):
        entry = self.stream[i % len(self.stream)]
        if entry[0] == "families":
            return self.z.zariski.enumerate_exceptional_families(self.del_pezzo[entry[1]])
        return self.z.oracle.brute_force_zariski(self.models[entry[1]], entry[2])

    def check(self, i, answer):
        z = self.z
        entry = self.stream[i % len(self.stream)]
        if entry[0] == "families":
            r = entry[1]
            m = self.del_pezzo[r]
            if len(answer) != self.FAMILIES[r]:
                return f"dP{r}: {len(answer)} families, published {self.FAMILIES[r]}"
            if sorted(set(map(tuple, answer))) != [tuple(f) for f in answer]:
                return "families not unique and lexicographic"
            if any(not checks.negative_definite(checks.curve_gram(m, f)) for f in answer):
                return "a listed family is not negative definite"
            anti = tuple(Fraction(x) for x in m.kahler)
            if z.zariski.volume(m, anti) != 9 - r:
                return f"vol(-K) != {9 - r} on dP{r}"
            return None
        _, k, alpha, label = entry
        m = self.models[k]
        subset = NOT_PSEF if answer is None else answer
        return _check_verdict(m, alpha, label, _reference(z, m, alpha), subset)


REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_reference.json")


class Cli:
    """Whole CLI processes over a fixed command list that covers every
    subcommand, the json/csv/svg formats, --mult, and exits 1 and 2; stdout
    bytes and exit codes are compared with a recorded reference."""

    ROUNDS = 10
    # verify on blowup1 is the one command whose time is not mostly start-up
    # (about 2.2x a typical call).  It runs 1 + HEAVY_EXTRA times per round,
    # 12.5% of ops, so op_p90_ms lies inside its cluster: with each command
    # once, the 90th percentile fell in the continuum of 150-180 ms commands,
    # where stray slow process starts moved it by 19% between seeds.
    HEAVY = ["verify", "-m", "blowup1"]
    HEAVY_EXTRA = 4
    # harness.Speed; probe_slope.py measured 0.977 for ops, 0.610 for set-ups.
    PROBE_POWER = 0.98
    SETUP_POWER = 0.61

    def __init__(self, z, seed, work):
        self.z = z
        self.work = work
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
        self.entries = ref["ops"]
        heavy = next(k for k, e in enumerate(self.entries) if e["argv"] == self.HEAVY)
        one_round = list(range(len(self.entries))) + [heavy] * self.HEAVY_EXTRA
        self.ROUND = len(one_round)
        with open(os.path.join(work, ref["model_file"]), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(ref["model"], indent=2, sort_keys=True) + "\n")
        rng = _rng("cli", seed)
        self.stream = []
        for _ in range(self.ROUNDS):
            order = list(one_round)
            rng.shuffle(order)
            self.stream += order
        # Op 0 is also the set-up's warm-up op (harness.warm_up): make it the
        # same light command at every seed, or setup_s follows the shuffle.
        first = self.stream.index(0)
        self.stream[0], self.stream[first] = 0, self.stream[0]
        src = os.path.dirname(os.path.dirname(os.path.abspath(z.cli.__file__)))
        self.env = dict(os.environ, PYTHONPATH=src)
        self.env.pop("ZOK_MAX_SUBSET_CURVES", None)

    def digest(self):
        return _digest(self.entries, self.stream)

    def run_process(self, argv):
        proc = subprocess.run(
            [sys.executable] + argv, cwd=self.work, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def process(self, k):
        """Entry k as one ``python -m zok.cli`` process: (exit code, stdout)."""
        return self.run_process(["-m", "zok.cli"] + self.entries[k]["argv"])[:2]

    def op(self, i):
        return self.process(self.stream[i % len(self.stream)])

    def check(self, i, answer):
        return self.check_entry(self.stream[i % len(self.stream)], answer)

    def check_entry(self, k, answer):
        entry = self.entries[k]
        code, out = answer
        if code != entry["exit"]:
            return f"exit {code}, reference {entry['exit']}"
        if out != entry["stdout"].encode("utf-8"):
            return "stdout differs from the reference"
        return None

    def inprocess(self, k):
        """Entry k through zok.cli.main in this process, stdout captured."""
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.z.cli.main(list(self.entries[k]["argv"]))
        finally:
            os.chdir(cwd)
        return code, out.getvalue().encode("utf-8")

    def startup_ms(self, repeats: int = 5):
        """Median wall time of an empty interpreter, and median import time of
        zok.cli from ``-X importtime`` (top-level zok entries, cumulative)."""
        empty, imports = [], []
        for _ in range(repeats):
            t0 = perf_counter()
            self.run_process(["-c", "pass"])
            empty.append(perf_counter() - t0)
            _, _, err = self.run_process(["-X", "importtime", "-c", "import zok.cli"])
            total = 0
            for line in err.decode().splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[2].startswith(" zok"):
                    total += int(parts[1])
            imports.append(total / 1000)
        return empty, imports


WORKLOADS = {"polygons": Polygons, "decompose": Decompose, "enumerate": Enumerate, "cli": Cli}
