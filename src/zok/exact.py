"""Exact scalars: arbitrary-precision rationals and real quadratic irrationals.

Every number in the library is either a ``fractions.Fraction`` or a
:class:`QuadExt` value ``p + q*sqrt(d)`` with rational p, q and squarefree
d > 1.  ``QuadExt`` values only arise as roots of rational quadratics (the
terminal endpoint of a chamber walk); all arithmetic and comparisons on them
are exact.  The chamber walk's formal infinitesimal needs no scalar type of
its own: it is carried as a tuple of rationals, one per power, and signed
lexicographically (see zariski._grow_support).
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import floor, isqrt
from typing import Union

Rat = Fraction

# Trial-division bound for extracting square factors.  Primes up to the bound
# are divided out completely, so what is left is 1, a prime, or a number with
# no prime factor up to the bound; below the bound cubed (10**15) it is then a
# square or squarefree, and the split is exact.  Above that, a square of a
# prime past the bound times another such prime is missed; arithmetic stays
# correct regardless as long as a single walk keeps one consistent d.
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
    r = isqrt(n)
    if r * r == n:
        return r, 1
    k, m = 1, 1
    p = 2
    while p <= _SQUAREFREE_TRIAL_BOUND and p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        k *= p ** (e // 2)
        m *= p ** (e % 2)
        p += 1 if p == 2 else 2
    r = isqrt(n)
    if r * r == n:
        return k * r, m
    return k, m * n


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
            return other, 0
        return None

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):  # a rational meets p alone
            return QuadExt._of(self.p + other, self.q, self.d)
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return QuadExt._of(self.p + co[0], self.q + co[1], self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.p, -self.q, self.d)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt._of(self.p - other, self.q, self.d)
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return QuadExt._of(self.p - co[0], self.q - co[1], self.d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt._of(self.p * other, self.q * other, self.d)
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
        """Exact sign of p + q*sqrt(d): quad_sign of p and q scaled by both
        denominators."""
        p, q = self.p, self.q
        return quad_sign(p.numerator * q.denominator, q.numerator * p.denominator, self.d)

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

    def __hash__(self):
        return hash((self.p, self.q, self.d))

    def __repr__(self):
        return f"QuadExt({self.p}, {self.q}, {self.d})"

    def __str__(self):
        return f"{self.p}{'+' if self.q >= 0 else ''}{self.q}*sqrt({self.d})"

    def __float__(self):
        return float(self.p) + float(self.q) * float(self.d) ** 0.5

    def __floor__(self) -> int:
        # |q|*sqrt(d) is irrational and lies in (r, r + 1), so the value lies
        # in (n, n + 2) for the n below
        square = self.q * self.q * self.d
        r = isqrt(square.numerator // square.denominator)
        n = floor(self.p + r if self.q > 0 else self.p - r - 1)
        return n if self < n + 1 else n + 1

    def __ceil__(self) -> int:
        return -floor(-self)


ExtRat = Union[Fraction, QuadExt]


def ext_sign(x) -> int:
    if isinstance(x, QuadExt):
        return x.sign()
    return (x > 0) - (x < 0)


def quad_sign(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for integers a and b and a radicand d
    whose root is irrational (any d when b == 0): the sign of b when a is 0
    or of b's sign, else that of a**2 - b**2*d taken on a's side; equality
    cannot occur since sqrt(d) is irrational."""
    if not b:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if not a or (a > 0) == (b > 0):
        return sb
    return -sb if a * a > b * b * d else sb


def quad_of_ints(a: int, b: int, d: int, den: int) -> ExtRat:
    """(a + b*sqrt(d)) / den as a Fraction, or as a QuadExt when b != 0, for
    a radicand d already in canonical form."""
    p = Fraction(a, den)
    return QuadExt(p, Fraction(b, den), d) if b else p


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

