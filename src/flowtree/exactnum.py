"""Exact numbers of the form a + b*sqrt(q) over the rationals.

Radial kernel identities on the q-ary tree carry half-integer powers of q.
Tracking the sqrt(q) part formally keeps those identities exact, so the
round-trip and equivalence tests can assert equality instead of closeness.
"""

from __future__ import annotations

import functools
import math
import numbers
from fractions import Fraction


@functools.lru_cache(maxsize=64)
def _is_square(q: int) -> bool:
    r = math.isqrt(q)
    return r * r == q


class QSurd:
    """a + b*sqrt(q) with a, b rational and q a fixed positive integer.

    If q is a perfect square the sqrt part is folded into the rational part,
    so equality tests stay unambiguous.
    """

    __slots__ = ("a", "b", "q")

    def __init__(self, q: int, a=0, b=0):
        if q < 1:
            raise ValueError("q must be a positive integer")
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        if b and _is_square(q):
            a += b * math.isqrt(q)
            b = Fraction(0)
        self.q = q
        self.a = a
        self.b = b

    def _check(self, other: "QSurd") -> None:
        if self.q != other.q:
            raise ValueError("mixed surd bases")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        return QSurd(self.q, self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        other = self._coerce(other)
        self._check(other)
        return QSurd(self.q, self.a - other.a, self.b - other.b)

    def __neg__(self):
        return QSurd(self.q, -self.a, -self.b)

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        return QSurd(
            self.q,
            self.a * other.a + self.b * other.b * self.q,
            self.a * other.b + self.b * other.a,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __truediv__(self, other):
        other = self._coerce(other)
        self._check(other)
        den = other.a * other.a - other.b * other.b * other.q
        if den == 0:
            if other.a == 0 and other.b == 0:
                raise ZeroDivisionError("division by zero surd")
            # a^2 = q b^2 with q non-square forces a = b = 0, so other = b*sqrt(q)
            return QSurd(self.q, self.b / other.b, self.a / (other.b * self.q))
        num = self * QSurd(self.q, other.a, -other.b)
        return QSurd(self.q, num.a / den, num.b / den)

    def _coerce(self, other):
        if isinstance(other, QSurd):
            return other
        return QSurd(self.q, Fraction(other), 0)

    def __eq__(self, other):
        if isinstance(other, float) and not math.isfinite(other):
            return False
        if not isinstance(other, (QSurd, numbers.Rational, float)):
            return NotImplemented
        other = self._coerce(other)
        if not (self.b or other.b):  # two rationals: the base does not matter
            return self.a == other.a
        return self.q == other.q and self.a == other.a and self.b == other.b

    def __hash__(self):
        """A rational value (b == 0) hashes as that rational, as equality
        with ints, Fractions and floats requires."""
        return hash(self.a) if not self.b else hash((self.q, self.a, self.b))
