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
from fractions import Fraction
from typing import Iterable, Sequence

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


def gram_product(gram: Mat, u: Sequence, v: Sequence) -> Fraction:
    """u^T * gram * v, exact."""
    n = len(gram)
    if len(u) != n or len(v) != n:
        raise ValueError(f"vector length must be {n}")
    total = Fraction(0)
    for i, row in enumerate(gram):
        ui = u[i]
        if ui == 0:
            continue
        total += ui * sum(row[j] * v[j] for j in range(n) if v[j] != 0)
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


def signature(gram: Mat) -> tuple[int, int, int]:
    """Inertia (n_plus, n_minus, n_zero) of a symmetric rational matrix.

    Congruence diagonalization with greedy symmetric pivoting on the
    largest-magnitude diagonal entry.  When every remaining diagonal entry
    is zero but some off-diagonal entry m[i][j] is not, the symmetric update
    row/col i += row/col j creates the pivot 2*m[i][j] (the standard rank-2
    split, no perturbation needed).  Exact, hence Sylvester-invariant.
    """
    _check_symmetric(gram)
    n = len(gram)
    m = [list(row) for row in gram]
    remaining = list(range(n))
    plus = minus = 0
    while remaining:
        pivot = None
        best = Fraction(0)
        for i in remaining:
            if abs(m[i][i]) > best:
                best = abs(m[i][i])
                pivot = i
        if pivot is None:
            pair = next(
                ((i, j) for i in remaining for j in remaining if i < j and m[i][j] != 0),
                None,
            )
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            for k in range(n):
                m[i][k] += m[j][k]
            for k in range(n):
                m[k][i] += m[k][j]
            continue
        d = m[pivot][pivot]
        if d > 0:
            plus += 1
        else:
            minus += 1
        remaining.remove(pivot)
        others = [j for j in remaining if m[j][pivot] != 0]
        for j in others:
            f = m[j][pivot] / d
            for k in range(n):
                m[j][k] -= f * m[pivot][k]
            for k in range(n):
                m[k][j] -= f * m[k][pivot]
    return plus, minus, n - plus - minus


def is_negative_definite(gram: Mat) -> bool:
    """Exact negative-definiteness test; the empty matrix is vacuously so."""
    n = len(gram)
    return signature(gram) == (0, n, 0)


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


@dataclass(frozen=True)
class SurfaceModel:
    """Finite rational intersection lattice with named curves and a Kahler class."""

    name: str
    rank: int
    gram: Mat
    curves: tuple[CurveRecord, ...]
    kahler: Vec

    def intersect(self, u: Sequence, v: Sequence) -> Fraction:
        return gram_product(self.gram, u, v)

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
        classes = [self.curves[i].cls for i in indices]
        return tuple(
            tuple(self.intersect(a, b) for b in classes) for a in classes
        )


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
    for c in model.curves:
        if vec_is_zero(c.cls):
            problems.append(f"curve {c.name!r} has zero class")
        elif model.intersect(model.kahler, c.cls) <= 0:
            problems.append(f"kahler class fails omega.{c.name} > 0")
    for i in range(len(model.curves)):
        for j in range(i + 1, len(model.curves)):
            prod = model.intersect(model.curves[i].cls, model.curves[j].cls)
            if prod < 0:
                problems.append(
                    f"distinct curves {model.curves[i].name!r} and "
                    f"{model.curves[j].name!r} meet negatively ({prod})"
                )
    return problems
