"""Exact checks of zok's answers that use none of zok's kernels.

Each check returns None when the answer is right and a short reason when it
is wrong.  The arithmetic here is deliberately naive (plain sums, plain
Gaussian elimination) so that a defect in zok's lattice layer cannot hide in
its own check.
"""

from __future__ import annotations

from fractions import Fraction


class Refused(Exception):
    """Raised by a check, after it has verified everything the op did
    compute, when the program declined to answer in the one way the
    workload accepts as its verdict (polygons: a Minkowski sum across two
    quadratic fields, which zok cannot represent yet).  The op is refused,
    of kind ``kind``: not answered, but neither failed nor wrong.  Refused
    ops lower ``answered_rate``."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


def pair(gram, u, v):
    """u^T * gram * v over whatever exact scalars u and v hold."""
    total = 0
    for ui, row in zip(u, gram):
        if ui:
            total += ui * sum(g * vj for g, vj in zip(row, v) if g and vj)
    return total


def det(matrix) -> Fraction:
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                for k in range(col, n):
                    a[r][k] -= f * a[col][k]
    out = Fraction(sign)
    for i in range(n):
        out *= a[i][i]
    return out


def negative_definite(matrix) -> bool:
    """Sylvester's criterion: the k-th leading minor has sign (-1)^k."""
    n = len(matrix)
    for k in range(1, n + 1):
        minor = det([row[:k] for row in matrix[:k]])
        if (minor > 0) != (k % 2 == 0) or minor == 0:
            return False
    return True


def curve_gram(model, indices):
    classes = [model.curves[i].cls for i in indices]
    return [[pair(model.gram, a, b) for b in classes] for a in classes]


def nef_in_model(model, z) -> bool:
    if any(pair(model.gram, z, c.cls) < 0 for c in model.curves):
        return False
    return pair(model.gram, z, z) >= 0 and pair(model.gram, z, model.kahler) >= 0


def check_decomposition(model, alpha, dec):
    """The defining properties of the Zariski decomposition of alpha.

    alpha = P + sum a_i C_i with every a_i > 0, P nef in the model and
    orthogonal to each support curve, and the support Gram negative definite.
    These properties determine the decomposition uniquely, so passing them
    proves the answer right.
    """
    support, coeffs, p = tuple(dec.support), tuple(dec.coeffs), tuple(dec.positive)
    if tuple(dec.alpha) != tuple(alpha):
        return "decomposition of another class"
    if list(support) != sorted(set(support)) or len(support) != len(coeffs):
        return "malformed support"
    recon = list(p)
    for i, a in zip(support, coeffs):
        if a <= 0:
            return "non-positive coefficient"
        recon = [x + a * c for x, c in zip(recon, model.curves[i].cls)]
    if tuple(recon) != tuple(alpha):
        return "P + N does not reconstruct the class"
    if any(pair(model.gram, p, model.curves[i].cls) != 0 for i in support):
        return "positive part not orthogonal to the support"
    if not nef_in_model(model, p):
        return "positive part not nef in the model"
    if not negative_definite(curve_gram(model, support)):
        return "support not negative definite"
    return None


def shoelace_twice(vertices):
    """Twice the signed area of a polygon given counter-clockwise."""
    n = len(vertices)
    total = 0
    for k in range(n):
        x0, y0 = vertices[k]
        x1, y1 = vertices[(k + 1) % n]
        total = total + (x0 * y1 - x1 * y0)
    return total
