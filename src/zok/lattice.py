"""Exact rational linear algebra over a finite intersection lattice.

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
from typing import Iterable, Iterator, Optional, Sequence

from .exact import EpsPoly, parse_rat

Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]


def vec(values: Iterable) -> Vec:
    return tuple(parse_rat(v) for v in values)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(row) for row in rows)


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def _exact(x):
    """x itself when already an exact scalar, else x as a Fraction."""
    return x if isinstance(x, (Fraction, EpsPoly)) else Fraction(x)


def vec_scale(c, u: Vec) -> Vec:
    c = _exact(c)
    return tuple(c * a for a in u)


def vec_is_zero(u: Vec) -> bool:
    return all(a == 0 for a in u)


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


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
    for row in gram:
        if len(row) != n:
            raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if gram[i][j] != gram[j][i]:
                raise ValueError(f"matrix not symmetric at entry ({i},{j})")


def _schur(block, k: int, rows: Sequence[int]):
    """Eliminate pivot k of a symmetric block: the multipliers block[r][k] / p
    and the Schur complement over ``rows``, with p = block[k][k]."""
    p = block[k][k]
    pivot_row = block[k]
    mults = [block[r][k] / p for r in rows]
    rest = [[block[r][c] - f * pivot_row[c] for c in rows] for f, r in zip(mults, rows)]
    return mults, rest


def signature(gram: Mat) -> tuple[int, int, int]:
    """Inertia (n_plus, n_minus, n_zero) of a symmetric rational matrix.

    Congruence diagonalization with greedy symmetric pivoting on the
    largest-magnitude diagonal entry, each step a Schur complement (see
    _schur).  When every remaining diagonal entry is zero but some
    off-diagonal entry m[i][j] is not, the symmetric update row/col i +=
    row/col j creates the pivot 2*m[i][j] (the standard rank-2 split, no
    perturbation needed).  Exact, hence Sylvester-invariant.
    """
    _check_symmetric(gram)
    n = len(gram)
    block = [list(row) for row in gram]
    plus = minus = 0
    while block:
        size = len(block)
        k = max(range(size), key=lambda i: abs(block[i][i]))
        if block[k][k] == 0:
            pair = next(
                ((i, j) for i in range(size) for j in range(i + 1, size) if block[i][j] != 0),
                None,
            )
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            for row in block:
                row[i] += row[j]
            block[i] = [a + b for a, b in zip(block[i], block[j])]
            continue
        if block[k][k] > 0:
            plus += 1
        else:
            minus += 1
        _, block = _schur(block, k, [r for r in range(size) if r != k])
    return plus, minus, n - plus - minus


@dataclass(frozen=True)
class NegativeLDL:
    """matrix = L D L^T with L unit lower triangular and every pivot in D
    negative: the factorization of a negative-definite matrix.

    ``columns[k]`` holds the entries of L below the diagonal in column k.
    """

    columns: tuple[tuple[Fraction, ...], ...]
    pivots: tuple[Fraction, ...]

    def solve(self, rhs: Sequence) -> Vec:
        """Exact solution x of matrix * x = rhs (entries may be any exact scalar)."""
        n = len(self.pivots)
        if len(rhs) != n:
            raise ValueError(f"right-hand side must have length {n}")
        y = [_exact(r) for r in rhs]
        for k, col in enumerate(self.columns):
            yk = y[k]
            for i, f in enumerate(col, k + 1):
                y[i] -= f * yk
        x = [y[k] / p for k, p in enumerate(self.pivots)]
        for k in range(n - 1, -1, -1):
            for i, f in enumerate(self.columns[k], k + 1):
                x[k] -= f * x[i]
        return tuple(x)


def negative_ldl(matrix: Mat) -> Optional[NegativeLDL]:
    """In-order symmetric elimination of a symmetric matrix, stopped at the
    first pivot >= 0: the factorization when every pivot is negative, else
    None.  Pivot k is the ratio of the leading principal minors of sizes
    k+1 and k, so by Sylvester's criterion the pivots are all negative
    exactly when the matrix is negative definite; no pivot search is needed.
    """
    block = [list(row) for row in matrix]
    columns: list[tuple] = []
    pivots: list[Fraction] = []
    while block:
        p = block[0][0]
        if p >= 0:
            return None
        mults, block = _schur(block, 0, range(1, len(block)))
        columns.append(tuple(mults))
        pivots.append(p)
    return NegativeLDL(tuple(columns), tuple(pivots))


def is_negative_definite(gram: Mat) -> bool:
    """Exact negative-definiteness test; the empty matrix is vacuously so."""
    _check_symmetric(gram)
    return negative_ldl(gram) is not None


def negative_definite_subsets(gram: Mat) -> Iterator[tuple[int, ...]]:
    """Every index set whose principal submatrix of the symmetric ``gram`` is
    negative definite, the empty set included, in lexicographic order.

    Depth-first search that carries the Schur complement of the current set
    over its remaining candidates: a candidate extends the set to a
    negative-definite one iff its diagonal entry there is negative, and
    extending is one rank-1 update.  Negative definiteness is hereditary, so
    a candidate that fails is dropped from every deeper level.
    """

    def visit(subset, cands, block):
        yield subset
        for k, j in enumerate(cands):
            later = range(k + 1, len(cands))
            p = block[k][k]
            keep = [r for r in later if block[r][r] - block[r][k] * block[k][r] / p < 0]
            _, rest = _schur(block, k, keep)
            yield from visit(subset + (j,), [cands[r] for r in keep], rest)

    roots = [i for i in range(len(gram)) if gram[i][i] < 0]
    yield from visit((), roots, [[gram[i][j] for j in roots] for i in roots])


def solve_linear(matrix: Mat, rhs: Sequence) -> Vec:
    """Exact solution of matrix * x = rhs; raises ValueError when singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("need a square system")
    a = [list(row) + [_exact(r)] for row, r in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        for r in range(n):
            if r == col or a[r][col] == 0:
                continue
            f = a[r][col] / pv
            for k in range(col, n + 1):
                a[r][k] -= f * a[col][k]
    return tuple(a[i][n] / a[i][i] for i in range(n))


@dataclass(frozen=True)
class CurveRecord:
    """A named prime curve class in the model basis."""

    name: str
    cls: Vec


def _shared(rows) -> Mat:
    """rows as a table in which equal entries are one object.  The curve
    tables repeat a few small values; sharing them made the tables of the
    twelve rank 6-10 models of the decompose benchmark four times smaller
    (200 KB to 50 KB)."""
    seen: dict = {}
    return tuple(tuple(seen.setdefault(x, x) for x in row) for row in rows)


@dataclass(frozen=True)
class SurfaceModel:
    """Finite rational intersection lattice with named curves and a Kahler class.

    The curve table (``duals`` and ``curve_gram``) is built once per model,
    on first use, from a model whose shapes are valid.
    """

    name: str
    rank: int
    gram: Mat
    curves: tuple[CurveRecord, ...]
    kahler: Vec

    def intersect(self, u: Sequence, v: Sequence) -> Fraction:
        return gram_product(self.gram, u, v)

    @cached_property
    def duals(self) -> tuple[Vec, ...]:
        """gram * c_i for every curve, so that u . C_i is one dot product."""
        if any(len(c.cls) != self.rank for c in self.curves):
            raise ValueError(f"vector length must be {self.rank}")
        return _shared([[_dot(row, c.cls) for row in self.gram] for c in self.curves])

    @cached_property
    def curve_gram(self) -> Mat:
        """The curve Gram table: entry (i, j) is C_i . C_j."""
        return _shared([[_dot(d, c.cls) for c in self.curves] for d in self.duals])

    def pairing(self, u: Sequence, index: int) -> Fraction:
        """u . C_index."""
        return _dot(u, self.duals[index])

    def pairings(self, u: Sequence) -> tuple:
        """u . C_i for every listed curve, in curve order."""
        if len(u) != self.rank:
            raise ValueError(f"vector length must be {self.rank}")
        return tuple(_dot(u, d) for d in self.duals)

    def residual_pairings(self, pairs: Sequence, support: Sequence[int], coeffs: Sequence) -> tuple:
        """(u - sum coeffs[k] * C_support[k]) . C_j for every curve j, from
        pairs = u . C_j and the curve table."""
        rows = [self.curve_gram[i] for i in support]
        return tuple(
            v - sum((a * row[j] for a, row in zip(coeffs, rows)), Fraction(0))
            for j, v in enumerate(pairs)
        )

    def curve_class(self, index: int) -> Vec:
        return self.curves[index].cls

    def curve_name(self, index: int) -> str:
        return self.curves[index].name

    def curve_index(self, name: str) -> int:
        for i, c in enumerate(self.curves):
            if c.name == name:
                return i
        raise KeyError(name)

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
        sig = signature(model.gram)
        if sig != (1, rank - 1, 0):
            problems.append(
                f"gram signature is {sig}, need (1, {rank - 1}, 0)"
            )
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
    if model.intersect(model.kahler, model.kahler) <= 0:
        problems.append("kahler class fails omega.omega > 0")
    names = [c.name for c in model.curves]
    for name in sorted(set(n for n in names if names.count(n) > 1)):
        problems.append(f"duplicate curve name {name!r}")
    for c, w in zip(model.curves, model.pairings(model.kahler)):
        if vec_is_zero(c.cls):
            problems.append(f"curve {c.name!r} has zero class")
        elif w <= 0:
            problems.append(f"kahler class fails omega.{c.name} > 0")
    table = model.curve_gram
    for i in range(len(model.curves)):
        for j in range(i + 1, len(model.curves)):
            prod = table[i][j]
            if prod < 0:
                problems.append(
                    f"distinct curves {model.curves[i].name!r} and "
                    f"{model.curves[j].name!r} meet negatively ({prod})"
                )
    return problems
