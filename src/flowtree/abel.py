"""Radial kernel calculus on the q-ary tree via the discrete Abel transform.

For the canonical flow on the q-ary tree, kernels of functions of the flow
Laplacian are radial up to the product-measure prefactor:

    K(x, y) = q**(-(level(x) + level(y))/2) * E(d(x, y)),

and E is recovered from the symmetric-gradient kernel on the integer line.
Internally everything is stored in the scaled form A(d) = q**(d/2) * E(d),
which is bounded (no overflow at large distance) and satisfies the backward
recursion A(d) = gradk(d+1) + A(d+2)/q.  Since level(x) + level(y) + d(x,y)
is always even, kernel values are integer powers of q times A, so the exact
backend never leaves the rationals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exactnum import QSurd
from .flowkernel import VARIANTS
from .zline import (NumericalError, z_grad_multiplier_kernel,
                    z_gradkernel_lambda_poly)

# truncation target of e_f_coefficients: geometric tail and kernel mass
E_F_TOL = 1e-12


def sphere_weight_scaled(q: int, d: int) -> float:
    """q**(-d/2) * sum over the distance-d sphere of q**((level offset)/2).

    Equals 2 + (d-1)(q-1)/q for d >= 1 and 1 for d = 0; this is the scaled
    sphere weight entering every radial column sum (the degree-one factor).
    """
    if d == 0:
        return 1.0
    return 2.0 + (d - 1) * (q - 1) / q


def _integer_pairs(q: int, xs) -> tuple[list, int]:
    """The entries as integer pairs (a, b) over one denominator D, each entry
    being (a + b sqrt(q))/D: a QSurd gives its two parts, any other entry
    (int, Fraction, or a float taken as its Fraction value) its value and 0."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    parts = []
    for x in xs:
        if isinstance(x, QSurd):
            if x.q != q:
                raise ValueError("mixed surd bases")
            parts.append((x.a, x.b))
        else:
            parts.append((x if type(x) is Fraction else Fraction(x), 0))
    den = math.lcm(*{y.denominator for pair in parts for y in pair})
    return [(a.numerator * (den // a.denominator), b.numerator * (den // b.denominator))
            for a, b in parts], den


def _sqrt_q_scale(q: int, k: int, a: int, b: int) -> tuple[int, int]:
    """q^(k/2) (a + b sqrt(q)) as an integer pair, for k >= 0; a perfect
    square q multiplies by its root (b is then 0)."""
    half, odd = divmod(k, 2)
    s = q ** half
    if not odd:
        return a * s, b * s
    r = math.isqrt(q)
    if r * r == q:
        return a * r * s, b * r * s
    return b * q * s, a * s


def _surds(q: int, pairs, den: int) -> list:
    return [QSurd(q, Fraction(a, den), Fraction(b, den)) for a, b in pairs]


def abel_forward(q: int, phi) -> list:
    """J_q(phi)(j) = q^{j/2} [phi(j) + ((q-1)/q) sum_{k>=1} q^k phi(j+2k)].

    phi is a finitely supported sequence on the naturals (list) of ints,
    Fractions, QSurds or floats; every entry is taken exactly (a float as
    its Fraction value) and the result is a list of QSurds.  The entries
    become integer pairs over one denominator D, and the tail sums run on
    them in one pass from the end, t(j) = phi(j+2) + q t(j+2), zero for
    j >= n - 2, so that J_q(phi)(j) = q^{j/2} (phi(j) + (q-1) t(j)); each
    output is built once, as a QSurd over D.  tests/conftest.py keeps the
    quadratic definition as the reference.
    """
    pairs, den = _integer_pairs(q, phi)
    n = len(pairs)
    tail = [(0, 0)] * (n + 2)
    for j in range(n - 3, -1, -1):
        (pa, pb), (ta, tb) = pairs[j + 2], tail[j + 2]
        tail[j] = (pa + q * ta, pb + q * tb)
    out = [_sqrt_q_scale(q, j, a + (q - 1) * ta, b + (q - 1) * tb)
           for j, ((a, b), (ta, tb)) in enumerate(zip(pairs, tail))]
    return _surds(q, out, den)


def abel_inverse(q: int, psi) -> list:
    """Inverse transform: sum_{j>=0} q^{-(n+2j)/2} (psi(n+2j) - psi(n+2j+2)).

    The summand is the symmetric gradient of psi at n+2j+1, with psi extended
    by zeros beyond its support.  Entries are taken exactly, as in
    abel_forward, and become integer pairs over one denominator D.  The sums
    run on them in one pass from the end, out(m) = q^{-m/2} (psi(m) -
    psi(m+2)) + out(m+2), zero for m >= n, over the common denominator
    D q^H, H = floor(n/2), where q^{-m/2} becomes q^{(2H-m)/2}: an integer
    scale and, for odd m, one factor sqrt(q), which swaps the pair.  Each
    output is built once, as a QSurd.  tests/conftest.py keeps the quadratic
    definition as the reference.
    """
    pairs, den = _integer_pairs(q, psi)
    n = len(pairs)
    h = n // 2
    pairs += [(0, 0)] * 2
    out = [(0, 0)] * (n + 2)
    for m in range(n - 1, -1, -1):
        (a, b), (a2, b2), (oa, ob) = pairs[m], pairs[m + 2], out[m + 2]
        da, db = _sqrt_q_scale(q, 2 * h - m, a - a2, b - b2)
        out[m] = (da + oa, db + ob)
    return _surds(q, out[:n], den * q ** h)


@dataclass
class RadialKernel:
    """Scaled radial coefficients A(d) = q^{d/2} E_F(d) for d <= kmax.

    tail_scaled bounds |A_true(d) - A(d)| uniformly in d (truncation of the
    geometric sum plus any unresolved gradient-kernel tail).
    """

    q: int
    A: np.ndarray
    kmax: int
    tail_scaled: float = 0.0
    meta: dict = field(default_factory=dict)

    def e(self, k: int) -> complex:
        if k < 0 or k > self.kmax:
            raise IndexError(f"k={k} beyond kmax={self.kmax}")
        return complex(self.A[k]) * self.q ** (-k / 2.0)

    def e_tail(self, k: int) -> float:
        return self.tail_scaled * self.q ** (-k / 2.0)

    def csv_rows(self):
        return [(k, self.e(k).real, self.e(k).imag, self.e_tail(k))
                for k in range(self.kmax + 1)]


def radial_from_gradkernel(q: int, gradk: np.ndarray, kmax: int) -> RadialKernel:
    """Assemble A from one-sided gradient-kernel values gradk[n], n = 0..nmax.

    A(d) = sum_{j>=0} q^{-j} gradk(d+2j+1); the recursion runs backward from
    the end of the array, on Python numbers (floats while gradk is real), and
    multiplies by 1/q as numpy's complex division by q does, so a finite
    gradk gives A bit for bit as a complex128 array recursion would.  The
    tail bound and meta are left to the caller.
    """
    if q < 2:
        raise ValueError("radial assembly needs q >= 2 (use zline for q = 1)")
    nmax = len(gradk) - 1
    if kmax + 1 > nmax:
        raise ValueError("gradient kernel array too short for kmax")
    g = np.asarray(gradk).tolist()
    inv = 1.0 / q
    A = [0.0] * (nmax + 2)
    for d in range(nmax - 1, -1, -1):
        A[d] = g[d + 1] + A[d + 2] * inv
    return RadialKernel(q, np.array(A[:kmax + 1], dtype=complex), kmax)


def e_f_coefficients(q: int, fn, kmax: int) -> RadialKernel:
    """Radial coefficients of F(flow Laplacian) on the q-ary tree.

    The gradient kernel on the line is computed far enough out that both the
    geometric truncation and the remaining kernel mass are below E_F_TOL.
    The tail bound adds the largest |gradk(n)| of the last three n, summed
    geometrically in 1/q as a bound past nmax, to the truncation bound.
    """
    if q < 2:
        raise ValueError("need q >= 2")
    # worst-case bound sup |gradk| <= 2 sup |F| feeds the geometric tail
    lam = np.linspace(0.0, 2.0, 257)
    supf = float(np.max(np.abs(np.asarray(fn(lam), dtype=complex))))
    supg = 2.0 * supf if supf > 0 else 1.0
    jmax = 1
    while supg * q ** (-jmax) / (1.0 - 1.0 / q) > E_F_TOL:
        jmax += 1
        if jmax > 4000:
            raise ValueError("tolerance unreachable within j-limit")
    nmax = kmax + 2 * jmax + 2
    zk = z_grad_multiplier_kernel(fn, nmax)
    gradk = zk.one_sided()
    tail_grad = float(np.max(np.abs(gradk[-3:])))
    rad = radial_from_gradkernel(q, gradk, kmax)
    rad.tail_scaled = max(tail_grad, 0.0) / (1.0 - 1.0 / q)
    rad.tail_scaled += supg * q ** (-jmax) / (1.0 - 1.0 / q)
    rad.meta = {"nmax": nmax, "grid": zk.grid, "tol": E_F_TOL}
    return rad


def e_f_exact(q: int, coeffs, kmax: int) -> list[Fraction]:
    """Exact scaled coefficients A(d) for a polynomial in the Laplacian."""
    gk = z_gradkernel_lambda_poly(coeffs)
    hi = max((n for n in gk if n > 0), default=0)
    A = [Fraction(0)] * (max(kmax + 3, hi + 2))
    for d in range(len(A) - 3, -1, -1):
        A[d] = gk.get(d + 1, Fraction(0)) + A[d + 2] / q
    return A[:kmax + 1]


def homog_kernel_value(q: int, radial: RadialKernel, lx: int, ly: int, d: int):
    """K(x, y) = q^{-(lx+ly)/2} E(d) with its propagated tail bound.

    The formula is radial; the caller owns the geometry (whether a vertex
    pair with these levels and distance exists).
    """
    if d > radial.kmax:
        raise IndexError(f"distance {d} beyond kmax={radial.kmax}")
    if (lx + ly + d) % 2:
        raise ValueError("no vertex pair has odd level(x)+level(y)+d")
    pref = float(q) ** (-(lx + ly + d) // 2)
    return complex(radial.A[d]) * pref, radial.tail_scaled * pref


@functools.lru_cache(maxsize=1024)
def _q_power(q: int, e: int) -> Fraction:
    return Fraction(q) ** e


def homog_kernel_value_exact(q: int, A_exact, lx: int, ly: int, d: int) -> Fraction:
    if (lx + ly + d) % 2:
        raise ValueError("no vertex pair has odd level(x)+level(y)+d")
    a = A_exact[d]
    if not a:
        return a
    return a * _q_power(q, -(lx + ly + d) // 2)


class DominatedTailError(NumericalError):
    """The last block of a truncated weighted sum does not decay."""


def homog_weighted_opsum(q: int, radial: RadialKernel, weight, variant: str,
                         tail_check: bool = True):
    """sup_y sum_x w(d(x,y)) |K(x,y)| m(x) on the q-ary tree, in closed form.

    variant selects the operator: F(L) itself, grad F(L) (gradient in the
    first variable), F(L) grad* (gradient in the second), or grad F(L) grad*.
    The sum collapses over spheres; by homogeneity it does not depend on y.
    Returns (value, tail_estimate); raises NumericalError if a weight
    overflows, and DominatedTailError if the truncated tail fails the
    dominated check.  The sums run on Python numbers and multiply by 1/q,
    as numpy's complex division by q does.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    A = np.asarray(radial.A, dtype=complex).tolist()
    inv = 1.0 / q
    kmax = radial.kmax
    terms = []
    for d in range(kmax - 1 if variant == "grad_both" else kmax):
        s = sphere_weight_scaled(q, d)
        if variant == "plain":
            val = abs(A[d]) * s
        elif variant in ("grad_x", "gradstar_z"):
            b_near = abs(A[d] - A[d + 1] * inv)
            b_far = abs(A[d] - A[d - 1]) if d >= 1 else 0.0
            val = b_near + (s - 1.0) * b_far
        else:
            if d == 0:
                val = abs(A[0] - 2 * A[1] * inv + A[0] * inv)
            else:
                b_comp = abs(A[d] - A[d - 1] - A[d + 1] * inv + A[d] * inv)
                b_inc = abs(A[d] - 2 * A[d - 1] + (A[d - 2] if d >= 2 else 0.0))
                val = 2.0 * b_comp + max(s - 2.0, 0.0) * b_inc
        try:
            terms.append(weight(d) * val)
        except OverflowError as exc:
            raise NumericalError(f"weight at distance {d} overflows: {exc}") from exc
    terms = np.array(terms, dtype=float)
    total = float(np.sum(terms))
    tail = float(np.sum(terms[-4:]))
    if tail_check and total > 0 and tail > 1e-6 * total + 1e-300:
        head = float(np.sum(terms[-8:-4]))
        if head <= tail:
            raise DominatedTailError(
                f"dominated-tail check failed (kmax={kmax} too small: "
                f"last block {tail:.3e} vs previous {head:.3e})")
    return total, tail


def sharpness_radial(q: int, t: float, kmax: int) -> dict:
    """Scaled oscillating-multiplier coefficients for the modulated cutoff.

    The multiplier is exp(i t lam) * chi0(lam), with the documented smooth
    bump chi0 (plateau on [-1/4, 1/4], support in (-1/2, 1/2)).  Returns per-k
    values of q^{k/2} * (E(k) - sqrt(q) E(k+1)), the quantity whose
    (k+1)-weighted partial sums exhibit the lower-bound growth.
    """
    from .bumps import chi0

    def fn(lam):
        return np.exp(1j * t * np.asarray(lam)) * chi0(np.asarray(lam))

    nmax = int(2 * t) + 2 * kmax + 120
    zk = z_grad_multiplier_kernel(fn, nmax)
    A = radial_from_gradkernel(q, zk.one_sided(), kmax + 1).A
    return {k: complex(A[k] - A[k + 1]) for k in range(kmax + 1)}
