"""Noncommutative polynomials in the two symbols Z1, Z2.

Z1 stands for the shift (value at the predecessor) and Z2 for its adjoint;
a word is a tuple of symbols applied right-to-left, so (1, 2) means Z1*Z2.
"""

from __future__ import annotations


Z1 = 1
Z2 = 2

Word = tuple


class NcPolynomial:
    """Finite linear combination of words over {Z1, Z2}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for w, c in dict(terms).items():
                if c:
                    self.terms[tuple(w)] = c

    def scale(self, c):
        return NcPolynomial({w: c * v for w, v in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return NcPolynomial(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return NcPolynomial(out)

    def adjoint(self):
        """Reverse each word, swap Z1 <-> Z2, conjugate coefficients."""
        swap = {Z1: Z2, Z2: Z1}
        out = {}
        for w, c in self.terms.items():
            cw = tuple(swap[a] for a in reversed(w))
            cc = c.conjugate() if isinstance(c, complex) else c
            out[cw] = out.get(cw, 0) + cc
        return NcPolynomial(out)

    @property
    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def norm(self):
        """sum over words of |coefficient| (exact for exact input)."""
        return sum(abs(c) for c in self.terms.values())
