"""Exact scalars: arbitrary-precision rationals and real quadratic irrationals.

Every number in the library is either a ``fractions.Fraction`` or a
:class:`QuadExt` value ``p + q*sqrt(d)`` with rational p, q and squarefree
d > 1.  ``QuadExt`` values only arise as roots of rational quadratics (the
terminal endpoint of a chamber walk); all arithmetic and comparisons on them
are exact.  :class:`EpsPoly` values (polynomials in a formal infinitesimal)
live only inside a chamber-walk step and are never returned.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from itertools import zip_longest
from math import isqrt
from typing import Union

Rat = Fraction

# Trial-division bound for extracting square factors.  Discriminants here come
# from desk-scale quadratics, so a remainder with a prime-square factor above
# the bound does not occur in practice; arithmetic stays correct regardless as
# long as a single walk keeps one consistent d.
_SQUAREFREE_TRIAL_BOUND = 100_000


def parse_rat(value) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a 'p/q' string."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r}")


def format_rat(x: Fraction):
    """Render a rational as an int when integral, else as a 'p/q' string."""
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n > 0 as k*k*m with m squarefree; returns (k, m)."""
    if n <= 0:
        raise ValueError("need a positive integer")
    k, m = 1, n
    r = isqrt(m)
    if r * r == m:
        return r, 1
    p = 2
    while p <= _SQUAREFREE_TRIAL_BOUND and p * p <= m:
        while m % (p * p) == 0:
            m //= p * p
            k *= p
        p += 1 if p == 2 else 2
    r = isqrt(m)
    if r * r == m:
        return k * r, 1
    return k, m


@total_ordering
class QuadExt:
    """Exact element p + q*sqrt(d) of a real quadratic field.

    Canonical form: q != 0 and d squarefree > 1 (rational values are plain
    Fractions, never QuadExt).  Construct via :meth:`new`, which normalizes
    and demotes to Fraction when the radical part vanishes.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, p: Fraction, q: Fraction, d: int):
        self.p = p
        self.q = q
        self.d = d

    @staticmethod
    def new(p, q, d: int):
        p, q = Fraction(p), Fraction(q)
        if q == 0:
            return p
        if d <= 0:
            raise ValueError("radicand must be positive")
        k, m = squarefree_split(d)
        if m == 1:
            return p + q * k
        return QuadExt(p, q * k, m)

    @staticmethod
    def _of(p: Fraction, q: Fraction, d: int):
        """p + q*sqrt(d) for a radicand d already in canonical form."""
        return p if q == 0 else QuadExt(p, q, d)

    # -- field operations -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError(f"mixed radicands sqrt({self.d}) and sqrt({other.d})")
            return other.p, other.q
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        return None

    def __add__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return QuadExt._of(self.p + co[0], self.q + co[1], self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.p, -self.q, self.d)

    def __sub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return QuadExt._of(self.p - co[0], self.q - co[1], self.d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        op, oq = co
        return QuadExt._of(self.p * op + self.q * oq * self.d, self.p * oq + self.q * op, self.d)

    __rmul__ = __mul__

    def _inverse(self):
        norm = self.p * self.p - self.q * self.q * self.d
        # norm == 0 would force sqrt(d) rational; impossible in canonical form
        return QuadExt._of(self.p / norm, -self.q / norm, self.d)

    def __truediv__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        op, oq = co
        if oq == 0:
            return QuadExt._of(self.p / op, self.q / op, self.d)
        return self * QuadExt(op, oq, self.d)._inverse()

    def __rtruediv__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return QuadExt(co[0], co[1], self.d) * self._inverse()

    # -- exact sign and order ---------------------------------------------

    def sign(self) -> int:
        """Exact sign of p + q*sqrt(d), decided over the integers.

        With p, q of opposite signs the sign is that of p**2 - q**2*d taken
        on p's side; equality cannot occur since sqrt(d) is irrational.
        """
        p, q = self.p, self.q
        if p == 0:
            return 1 if q > 0 else -1
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        lhs, rhs = p * p, q * q * self.d
        if p > 0:  # q < 0
            return 1 if lhs > rhs else -1
        return 1 if rhs > lhs else -1

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self.d == other.d and self.p == other.p and self.q == other.q
        if isinstance(other, (int, Fraction)):
            return False  # canonical QuadExt is irrational
        return NotImplemented

    def __lt__(self, other):
        diff = self - other
        if diff is NotImplemented:
            return NotImplemented
        return ext_sign(diff) < 0

    def __gt__(self, other):
        diff = self - other
        if diff is NotImplemented:
            return NotImplemented
        return ext_sign(diff) > 0

    def __hash__(self):
        return hash((self.p, self.q, self.d))

    def __repr__(self):
        return f"QuadExt({self.p}, {self.q}, {self.d})"

    def __str__(self):
        return f"{self.p}{'+' if self.q >= 0 else ''}{self.q}*sqrt({self.d})"

    def __float__(self):
        return float(self.p) + float(self.q) * float(self.d) ** 0.5


@total_ordering
class EpsPoly:
    """Exact polynomial c0 + c1*eps + ... in a formal positive infinitesimal
    eps, with Fraction coefficients, signed by its first non-zero coefficient.

    Canonical form has an eps term with non-zero top coefficient; eps-free
    values are plain Fractions.  Construct via :meth:`new`, which demotes.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple):
        self.coeffs = coeffs

    @staticmethod
    def new(coeffs):
        c = [x if isinstance(x, Fraction) else Fraction(x) for x in coeffs]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        return c[0] if len(c) == 1 else EpsPoly(tuple(c))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return EpsPoly((self.coeffs[0] + other,) + self.coeffs[1:])
        if not isinstance(other, EpsPoly):
            return NotImplemented
        return EpsPoly.new([x + y for x, y in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    __radd__ = __add__

    def __neg__(self):
        return EpsPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return EpsPoly(tuple(c * other for c in self.coeffs)) if other else Fraction(0)
        if not isinstance(other, EpsPoly):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs):
                out[i + j] += x * y
        return EpsPoly.new(out)

    __rmul__ = __mul__

    def __truediv__(self, other):  # by rationals only
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return EpsPoly(tuple(c / other for c in self.coeffs))

    def __eq__(self, other):
        return isinstance(other, EpsPoly) and self.coeffs == other.coeffs

    def __lt__(self, other):
        return ext_sign(self - other) < 0

    def __gt__(self, other):
        return ext_sign(self - other) > 0

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"EpsPoly{tuple(str(c) for c in self.coeffs)}"


ExtRat = Union[Fraction, QuadExt]


def ext_sign(x) -> int:
    if isinstance(x, QuadExt):
        return x.sign()
    if isinstance(x, EpsPoly):
        x = next(c for c in x.coeffs if c)
    return (x > 0) - (x < 0)


def sqrt_rat(x: Fraction) -> ExtRat:
    """Exact square root of a non-negative rational, as Fraction or QuadExt."""
    if x < 0:
        raise ValueError("square root of a negative rational")
    if x == 0:
        return Fraction(0)
    n = x.numerator * x.denominator
    k, m = squarefree_split(n)
    root = Fraction(k, x.denominator)
    if m == 1:
        return root
    return QuadExt._of(Fraction(0), root, m)


def smallest_quadratic_root_above(c0: Fraction, c1: Fraction, c2: Fraction, t0: Fraction):
    """Smallest real root of c2*t**2 + c1*t + c0 strictly above t0, or None."""
    if c2 == 0:
        if c1 == 0:
            return None
        r = -c0 / c1
        return r if r > t0 else None
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return None
    sq = sqrt_rat(disc)
    roots = [(-c1 - sq) / (2 * c2), (-c1 + sq) / (2 * c2)]
    ahead = [r for r in roots if r > t0]
    return min(ahead) if ahead else None
