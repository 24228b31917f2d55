"""Exact linear algebra over a finite intersection lattice, on integers: rational
matrices are scaled to integer rows (_int_rows) and eliminated by one Bareiss
identity, in its bordering (_border) and pivoted (_pivot_out) forms.

A :class:`SurfaceModel` is a finite stand-in for the (1,1)-lattice of a
compact surface: a symmetric rational form of signature (1, rank-1), a list
of named prime curve classes, and a reference Kahler class.  Only listed
curves exist as far as every cone test in this library is concerned; answers
are exact for the model and faithful to the surface exactly when the curve
list contains all negative curves relevant to the classes being tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .errors import UnknownCurve
from .exact import parse_rat

Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]


def vec(values: Iterable) -> Vec:
    return tuple(parse_rat(v) for v in values)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(row) for row in rows)


def vec_is_zero(u: Vec) -> bool:
    return all(a == 0 for a in u)


def _dot(u: Sequence, v: Sequence):
    """sum(u[k] * v[k]) over the pairs with both entries non-zero, exact."""
    total = Fraction(0)
    for a, b in zip(u, v):
        if a and b:
            total += a * b
    return total


def gram_product(gram: Mat, u: Sequence, v: Sequence) -> Fraction:
    """u^T * gram * v, exact."""
    n = len(gram)
    if len(u) != n or len(v) != n:
        raise ValueError(f"vector length must be {n}")
    total = Fraction(0)
    for ui, row in zip(u, gram):
        if ui:
            total += ui * _dot(row, v)
    return total


def _check_symmetric(gram: Mat) -> None:
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if gram[i][j] != gram[j][i]:
                raise ValueError(f"matrix not symmetric at entry ({i},{j})")


def _pivot_out(rows, pivot: Sequence[int], k: int, prev: int) -> None:
    """One pivoted integer step (Bareiss), in place: each row becomes (pivot[k]
    * row - row[k] * pivot) // prev, which clears its entry k, with prev the
    previous step's pivot (1 at the first); every division is exact."""
    p = pivot[k]
    for row in rows:
        f = row[k]
        row[:] = [(p * a - f * b) // prev for a, b in zip(row, pivot)]


def signature(gram: Mat) -> tuple[int, int, int]:
    """Inertia (n_plus, n_minus, n_zero) of a symmetric rational matrix.

    Congruence diagonalization of gram scaled to integers, with greedy
    symmetric pivoting on the largest-magnitude diagonal entry.  Each step
    (_pivot_out) leaves its pivot times the Schur complement, so the true
    pivot of a step is its pivot over prev, the previous step's pivot.  When
    every remaining diagonal entry is zero but some off-diagonal entry
    m[i][j] is not, the symmetric update row/col i += row/col j creates the
    pivot 2*m[i][j] (the rank-2 split, no perturbation needed).  An
    indefinite form needs this pivot search; a definiteness test does not
    (see is_negative_definite).  Exact, hence Sylvester-invariant.
    """
    block = [list(row) for row in _int_rows(gram)[1]]
    _check_symmetric(block)
    plus, minus, prev = 0, 0, 1
    while block:
        size = len(block)
        k = max(range(size), key=lambda i: abs(block[i][i]))
        if block[k][k] == 0:
            pair = next(((i, j) for i in range(size) for j in range(i + 1, size)
                         if block[i][j]), None)
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            for row in block:
                row[i] += row[j]
            block[i] = [a + b for a, b in zip(block[i], block[j])]
            continue
        pivot = block.pop(k)
        plus += pivot[k] * prev > 0
        minus += pivot[k] * prev < 0
        _pivot_out(block, pivot, k, prev)
        prev = pivot[k]
        for row in block:
            del row[k]
    return plus, minus, len(gram) - plus - minus


def _border(d: int, cross: Sequence[int], r_m: Sequence[int], s: int, y_m: int,
            r_y: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """One integer bordering step, the elimination kernel: Bareiss's form of
    Sylvester's identity, with every division exact.

    For a negative-definite index set S of an integer symmetric table G, with
    D = det(-G_S) > 0, and an index m outside S, take cross = G[m][S],
    r_m = D * G_S^-1 * cross and the pivot s = D * G[m][m] - cross . r_m < 0
    (S + m is negative definite iff s < 0, and then det(-G_{S+m}) = -s).
    Given r_y = D * G_S^-1 * y_S for a column y with entry y_m at m, and
    tau = D * y_m - cross . r_y, returns (-s * G_{S+m}^-1 * y_{S+m}, tau),
    that is ((-(s * r_y - tau * r_m) / D, -tau), tau).  When y is the
    column of an index j outside S + m with pivot s_j over S, its pivot over
    S + m is (tau**2 - s * s_j) / D."""
    tau = d * y_m - sum(map(mul, cross, r_y))
    return (*[(tau * b - s * a) // d for a, b in zip(r_y, r_m)], -tau), tau


def _extend(g: int, table, prefix: Sequence[int], entry: tuple, m: int) -> Optional[tuple]:
    """The support-table entry (D, g * D * G_S^-1, rows D * G_S^-1 * G[S][j]
    for every j) of S = prefix + (m,) from that of prefix, one _border per
    column, over the integer table G = g * the true one; None when S is not
    negative definite."""
    d, coeff_rows, residual_rows = entry
    row = table[m]
    cross = [row[i] for i in prefix]
    r_m = residual_rows[m]
    s = d * row[m] - sum(map(mul, cross, r_m))
    if s >= 0:
        return None
    coeffs = [_border(d, cross, r_m, s, 0, r)[0] for r in coeff_rows]
    coeffs.append(_border(d, cross, r_m, s, g, [0] * len(prefix))[0])
    return -s, tuple(coeffs), tuple([_border(d, cross, r_m, s, y, r)[0]
                                     for y, r in zip(row, residual_rows)])


def _solved(g: int, table, support: Sequence[int], known: dict) -> Optional[tuple]:
    """The entry of support (see _extend) from that of its longest prefix in
    known, the empty set's when none is, one step per further index; None
    at the first set on the way that is not negative definite."""
    k = len(support)
    while k and support[:k] not in known:
        k -= 1
    entry = known[support[:k]] if k else (1, (), ((),) * len(table))
    for k in range(k, len(support)):
        if entry is None:
            break
        entry = _extend(g, table, support[:k], entry, support[k])
    return entry


def is_negative_definite(gram: Mat) -> bool:
    """Exact negative-definiteness test; the empty matrix is vacuously so.

    Borders the indices in order (_solved): the pivot of index k is D_{k+1}
    / D_k for the leading principal minors D of -gram, so by Sylvester's
    criterion no pivot search is needed."""
    g, table = _int_rows(gram)
    _check_symmetric(table)
    return _solved(g, table, tuple(range(len(table))), {}) is not None


def negative_definite_subsets(gram: Mat) -> Iterator[tuple[int, ...]]:
    """Every index set whose principal submatrix of the symmetric ``gram`` is
    negative definite, the empty set included, in lexicographic order.

    Depth-first search over gram scaled to integers that carries, for each
    candidate i of the current set S, R_i = D * G_S^-1 * G[S][i] and its
    integer pivot s_i over S: i extends S to a negative-definite set iff
    s_i < 0, and extending S by m borders every later candidate once (see
    _border).  Negative definiteness is hereditary, so a candidate that
    fails is dropped from every deeper level.
    """
    _, table = _int_rows(gram)

    def visit(subset, d, cands):
        yield subset
        for k, (m, r_m, s_m) in enumerate(cands):
            row = table[m]
            cross = [row[i] for i in subset]
            keep = []
            for j, r_j, s_j in cands[k + 1:]:
                r, tau = _border(d, cross, r_m, s_m, row[j], r_j)
                s = (tau * tau - s_m * s_j) // d
                if s < 0:
                    keep.append((j, r, s))
            yield from visit(subset + (m,), -s_m, keep)

    yield from visit((), 1, [(i, (), row[i]) for i, row in enumerate(table) if row[i] < 0])


def solve_linear(matrix: Mat, rhs: Sequence) -> Vec:
    """Exact solution of matrix * x = rhs: integer Gauss-Jordan elimination
    (_pivot_out) with a pivot search; raises ValueError when singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("need a square system")
    a = [list(row) for row in _int_rows([(*row, r) for row, r in zip(matrix, rhs)])[1]]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        a[col], a[pivot] = a[pivot], a[col]
        _pivot_out(a[:col] + a[col + 1:], a[col], col, prev)
        prev = a[col][col]
    return tuple(Fraction(row[n], prev) for row in a)


@dataclass(frozen=True)
class CurveRecord:
    """A named prime curve class in the model basis."""

    name: str
    cls: Vec


def _over_lcm(u: Sequence) -> tuple[int, list[int]]:
    """(den, nums) with u[k] == nums[k] / den, den the lcm of the denominators
    of u, which must be a rational vector."""
    kinds = {type(x) for x in u} - {Fraction, int}
    if kinds:
        names = sorted(k.__name__ for k in kinds)
        raise TypeError(f"unsupported scalars in a class vector: {names}")
    den = lcm(*[x.denominator for x in u])
    return den, [x.numerator * (den // x.denominator) for x in u]


def _int_rows(rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(den, ints) with rows[i][k] == ints[i][k] / den: rational rows over one
    common denominator.  Ints, Fractions and floats are read exactly; any
    other entry (a str, None, a bool, a QuadExt) raises TypeError naming
    the types, before anything else."""
    kinds = {type(x) for row in rows for x in row} - {int, Fraction, float}
    if kinds:
        raise TypeError(f"unsupported scalars in a matrix: {sorted(k.__name__ for k in kinds)}")
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    den = lcm(*[q for row in ratios for _, q in row])
    return den, tuple(tuple(p * (den // q) for p, q in row) for row in ratios)


def _products(den: int, rows, scale: int, vecs) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The values row . v / (den * scale) for every integer row, one integer
    row per integer vector v of vecs, over their least common denominator:
    den * scale > 0 and every product divided by their one gcd."""
    table = [[sum(map(mul, row, v)) for row in rows] for v in vecs]
    g = gcd(den * scale, *[x for row in table for x in row])
    return den * scale // g, tuple(tuple(x // g for x in row) for row in table)


class IntClass:
    """A class u as integers: u = nums / den and u.C_i = pairs[i] / pd, with
    den, pd > 0, over the model's integer form (``form``, the rows of
    _gram_ints).  met = form * nums and square = nums . met, so that u^2 =
    square / (den^2 * the form's den), are computed on first read and kept.
    Its fields are read by name; it is not a sequence."""

    __slots__ = ("den", "nums", "pd", "pairs", "_form", "_met", "_square")

    def __init__(self, den: int, nums: Sequence[int], pd: int, pairs: Sequence[int],
                 form: Sequence[Sequence[int]]):
        self.den, self.nums, self.pd, self.pairs = den, nums, pd, pairs
        self._form, self._met, self._square = form, None, None

    @property
    def met(self) -> list[int]:
        if self._met is None:
            self._met = [sum(map(mul, row, self.nums)) for row in self._form]
        return self._met

    @property
    def square(self) -> int:
        if self._square is None:
            self._square = sum(map(mul, self.nums, self.met))
        return self._square


@dataclass(frozen=True)
class SurfaceModel:
    """Finite rational intersection lattice with named curves and a Kahler class.

    The integer tables (the duals, the Kahler row, the curve Gram table) are
    built once per model, on first use, from a model whose shapes are valid,
    as integer products of the form and the curve classes (_products), each
    reduced once to its least common denominator; ``curve_gram`` is the
    Gram table's Fraction view, built only when read.  Every pairing runs
    over integers: a class is scaled to integer numerators over the lcm of
    its denominators, each pairing is one integer sum of products against
    an integer table, and the sum is divided once.  Classes are
    rational; any other scalar is refused with a TypeError.
    ``gram_product`` is the independent reference.  Next to the curve table
    the model keeps a support table (``support_forms``), filled lazily: each
    curve set that support growth, a decomposition check, a non-Kahler locus,
    a nef lift or the family atlas meets is solved once per model, by integer
    bordering steps from its longest prefix already kept (Bareiss: every
    division exact, no Fraction), and kept as integer rows; it is the only
    place a family's forms are solved.  The families (``families``) are found once
    per model, on first use, by one subset search; the family atlas
    (``family_atlas``) is the table's own entries for them, in their order,
    and ``_family_index`` their bitmasks and the families through each
    curve when distinct curves meet pairwise non-negatively.
    The model holds tables and elimination only: what a candidate support
    is, the subset search decides (oracle.brute_force_zariski).
    """

    name: str
    rank: int
    gram: Mat
    curves: tuple[CurveRecord, ...]
    kahler: Vec

    @cached_property
    def _gram_ints(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        return _int_rows(self.gram)

    def intersect(self, u: Sequence, v: Sequence):
        """u^T * gram * v, exact, for rational u and v.  Each is scaled to
        integers once and v meets the form once; u . u reuses both."""
        n = len(self.gram)
        if len(u) != n or len(v) != n:
            raise ValueError(f"vector length must be {n}")
        lu, nu = _over_lcm(u)
        lv, nv = (lu, nu) if u is v else _over_lcm(v)
        den, gram = self._gram_ints
        met = [sum(map(mul, row, nv)) for row in gram]
        return Fraction(sum(map(mul, nu, met)), lu * lv * den)

    @cached_property
    def _kahler_row(self) -> tuple[int, ...]:
        """gram * omega as one integer row over a positive denominator, so
        that the sign of u . omega is that of one integer dot product."""
        lk, nums = _over_lcm(self.kahler)
        return _products(*self._gram_ints, lk, [nums])[1][0]

    @cached_property
    def duals(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """gram * c_i for every curve, as integer rows over their least common
        denominator, so that u . C_i is one integer dot product."""
        if any(len(c.cls) != self.rank for c in self.curves):
            raise ValueError(f"vector length must be {self.rank}")
        return _products(*self._gram_ints, *self._curve_ints)

    @cached_property
    def _curve_ints(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The curve classes as integer rows over one common denominator."""
        return _int_rows([c.cls for c in self.curves])

    @cached_property
    def _curve_gram_ints(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The curve Gram table, C_i . C_j, as integer rows over their least
        common denominator: each curve's numerators against the duals."""
        return _products(*self.duals, *self._curve_ints)

    @cached_property
    def curve_gram(self) -> Mat:
        """The curve Gram table as Fractions, entry (i, j) C_i . C_j: a view
        of _curve_gram_ints built on first read, which no zok computation
        makes; equal entries are one Fraction."""
        den, rows = self._curve_gram_ints
        values = {x: Fraction(x, den) for x in {x for row in rows for x in row}}
        return tuple(tuple(values[x] for x in row) for row in rows)

    @cached_property
    def _support_table(self) -> dict:
        return {}

    def support_forms(self, support: tuple[int, ...]) -> Optional[tuple]:
        """(den, coeff_rows, residual_rows) for a tuple S of curve indices, or
        None when its Gram matrix G_S is not negative definite.

        Integer rows over one den > 0: coeff_rows[k] is den * G_S^-1 * e_k,
        so G_S * a = v has a[k] = coeff_rows[k] . v / den, and for every
        curve j, residual_rows[j] is den * G_S^-1 * G[S][j], so the residual
        pairing (u - sum a[k] C_S[k]) . C_j is u.C_j - residual_rows[j] . v / den.
        For j = S[k] that row is den * e_k and the residual pairing is 0.
        den is det(-G_S) over the integer curve table (_curve_gram_ints), and
        rows are in the order of S.  Each S is solved once per model, on first
        use, from the longest prefix of S already in the table, one integer
        bordering step (_extend) per further index, and kept; the prefixes
        passed on the way are not.  The family atlas asks the families in
        lexicographic order, so each family is one step from its parent.
        """
        known = self._support_table
        if support not in known:
            known[support] = _solved(*self._curve_gram_ints, support, known)
        return known[support]

    def pairing(self, u: Sequence, index: int):
        """u . C_index."""
        return self.pairings(u)[index]

    def pairings(self, u: Sequence) -> tuple:
        """u . C_i for every listed curve, in curve order."""
        scaled = self.pairing_ints(u)
        return tuple(Fraction(v, scaled.pd) for v in scaled.pairs)

    def pairing_ints(self, u: Sequence) -> IntClass:
        """The IntClass of u: its numerators nums over den, the lcm of its
        denominators, scaled once, and its pairings, one integer dot product
        with the duals per curve, over pd = den * the duals' den.  The one
        door of a class into the integer kernel: its length is checked first
        (ValueError), then its scalars (TypeError, _over_lcm)."""
        if len(u) != self.rank:
            raise ValueError(f"vector length must be {self.rank}")
        dd, duals = self.duals
        den, nums = _over_lcm(u)
        return IntClass(den, nums, den * dd, tuple([sum(map(mul, nums, row)) for row in duals]),
                        self._gram_ints[1])

    @cached_property
    def families(self) -> tuple[tuple[int, ...], ...]:
        """Every negative-definite curve family, the empty one included, in
        lexicographic order (negative_definite_subsets on the integer table)."""
        return tuple(negative_definite_subsets(self._curve_gram_ints[1]))

    @cached_property
    def _family_index(self) -> Optional[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
        """(masks, through) when distinct curves meet pairwise non-negatively
        (the curve condition of validate_model), read off the integer curve
        table; None when two distinct curves meet negatively.  masks[k] is
        family k's bitmask sum(1 << i for i in S), in the order of
        ``families``, and through[i] the indices of the families that
        contain curve i, in that order."""
        rows = self._curve_gram_ints[1]
        if any(x < 0 for i, row in enumerate(rows) for j, x in enumerate(row) if i != j):
            return None
        through = [[] for _ in rows]
        for k, support in enumerate(self.families):
            for i in support:
                through[i].append(k)
        return (tuple([sum(1 << i for i in support) for support in self.families]),
                tuple(map(tuple, through)))

    @cached_property
    def family_atlas(self) -> tuple[tuple, ...]:
        """The support table's entry (den, coeff_rows, residual_rows) of every
        family, in the order of ``families`` (see support_forms)."""
        return tuple(self.support_forms(support) for support in self.families)

    def curve_class(self, index: int) -> Vec:
        return self.curves[index].cls

    def curve_name(self, index: int) -> str:
        return self.curves[index].name

    def curve_index(self, name: str) -> int:
        for i, c in enumerate(self.curves):
            if c.name == name:
                return i
        raise KeyError(name)

    def has_curve(self, index) -> bool:
        """Whether index is the index of a listed curve: an int, not a bool."""
        return (isinstance(index, int) and not isinstance(index, bool)
                and 0 <= index < len(self.curves))

    def resolve_curve(self, curve) -> int:
        """Index of a curve given by name or by index; UnknownCurve otherwise."""
        if isinstance(curve, str):
            try:
                return self.curve_index(curve)
            except KeyError:
                raise UnknownCurve(f"no curve named {curve!r}") from None
        if not self.has_curve(curve):
            raise UnknownCurve(f"no curve with index {curve}")
        return curve

    def gram_submatrix(self, indices: Sequence[int]) -> Mat:
        table = self.curve_gram
        return tuple(tuple(table[i][j] for j in indices) for i in indices)


def intersect(model: SurfaceModel, u: Sequence, v: Sequence) -> Fraction:
    """Intersection number of two classes in the model; bilinear, symmetric."""
    return model.intersect(u, v)


def make_model(name: str, rank: int, gram, curves, kahler) -> SurfaceModel:
    """Build a SurfaceModel, coercing entries to exact rationals (no validation)."""
    return SurfaceModel(
        name=name,
        rank=rank,
        gram=mat(gram),
        curves=tuple(CurveRecord(cname, vec(cls)) for cname, cls in curves),
        kahler=vec(kahler),
    )


def validate_model(model: SurfaceModel) -> list[str]:
    """Every violated model invariant, as human-readable strings; [] if valid."""
    problems: list[str] = []
    rank = model.rank
    if rank < 1:
        return [f"rank must be >= 1, got {rank}"]
    if len(model.gram) != rank or any(len(row) != rank for row in model.gram):
        return [f"gram must be {rank}x{rank}"]
    symmetric = True
    for i in range(rank):
        for j in range(i + 1, rank):
            if model.gram[i][j] != model.gram[j][i]:
                problems.append(f"gram not symmetric at entry ({i},{j})")
                symmetric = False
    if symmetric:
        sig = signature(model._gram_ints[1])
        if sig != (1, rank - 1, 0):
            problems.append(f"gram signature is {sig}, need (1, {rank - 1}, 0)")
    if len(model.kahler) != rank:
        problems.append(f"kahler class must have length {rank}")
        return problems
    bad_shape = False
    for c in model.curves:
        if len(c.cls) != rank:
            problems.append(f"curve {c.name!r} class must have length {rank}")
            bad_shape = True
    if bad_shape or not symmetric:
        return problems
    omega = model.pairing_ints(model.kahler)
    if sum(map(mul, omega.nums, model._kahler_row)) <= 0:
        problems.append("kahler class fails omega.omega > 0")
    names = [c.name for c in model.curves]
    for name in sorted(set(n for n in names if names.count(n) > 1)):
        problems.append(f"duplicate curve name {name!r}")
    for c, w in zip(model.curves, omega.pairs):
        if vec_is_zero(c.cls):
            problems.append(f"curve {c.name!r} has zero class")
        elif w <= 0:
            problems.append(f"kahler class fails omega.{c.name} > 0")
    den, table = model._curve_gram_ints
    for i in range(len(model.curves)):
        for j in range(i + 1, len(model.curves)):
            if table[i][j] < 0:
                problems.append(f"distinct curves {model.curves[i].name!r} and "
                                f"{model.curves[j].name!r} meet negatively "
                                f"({Fraction(table[i][j], den)})")
    return problems
