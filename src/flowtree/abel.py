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


def _surd(q, x):
    return x if isinstance(x, QSurd) else QSurd(q, x)


def abel_forward(q: int, phi) -> list:
    """J_q(phi)(j) = q^{j/2} [phi(j) + ((q-1)/q) sum_{k>=1} q^k phi(j+2k)].

    phi is a finitely supported sequence on the naturals (list) of
    rationals, QSurds or floats; every entry is taken exactly (a float as
    its Fraction value) and the result is a list of QSurds.  The tail sums
    run in one pass from the end, tail(j) = q (phi(j+2) + tail(j+2)), zero
    for j >= n - 2; tests/conftest.py keeps the quadratic definition as the
    reference.
    """
    phi = [_surd(q, x) for x in phi]
    n = len(phi)
    tail = [QSurd(q)] * (n + 2)
    for j in range(n - 3, -1, -1):
        tail[j] = (phi[j + 2] + tail[j + 2]) * q
    c = Fraction(q - 1, q)
    return [QSurd.sqrt_q_power(q, j) * (phi[j] + tail[j] * c) for j in range(n)]


def abel_inverse(q: int, psi) -> list:
    """Inverse transform: sum_{j>=0} q^{-(n+2j)/2} (psi(n+2j) - psi(n+2j+2)).

    The summand is the symmetric gradient of psi at n+2j+1, with psi extended
    by zeros beyond its support.  Entries are taken exactly, as in
    abel_forward.  The sums run in one pass from the end, out(m) =
    q^{-m/2} (psi(m) - psi(m+2)) + out(m+2), zero for m >= n;
    tests/conftest.py keeps the quadratic definition as the reference.
    """
    psi = [_surd(q, x) for x in psi]
    n = len(psi)
    psi += [QSurd(q)] * 2
    out = [QSurd(q)] * (n + 2)
    for m in range(n - 1, -1, -1):
        out[m] = QSurd.sqrt_q_power(q, -m) * (psi[m] - psi[m + 2]) + out[m + 2]
    return out[:n]


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
    the end of the array.  The tail bound and meta are left to the caller.
    """
    if q < 2:
        raise ValueError("radial assembly needs q >= 2 (use zline for q = 1)")
    nmax = len(gradk) - 1
    if kmax + 1 > nmax:
        raise ValueError("gradient kernel array too short for kmax")
    A = np.zeros(nmax + 2, dtype=complex)
    for d in range(nmax - 1, -1, -1):
        A[d] = gradk[d + 1] + A[d + 2] / q
    return RadialKernel(q, A[:kmax + 1].copy(), kmax)


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
    return A_exact[d] * _q_power(q, -(lx + ly + d) // 2)


class DominatedTailError(NumericalError):
    """The last block of a truncated weighted sum does not decay."""


def homog_weighted_opsum(q: int, radial: RadialKernel, weight, variant: str = "plain",
                         tail_check: bool = True):
    """sup_y sum_x w(d(x,y)) |K(x,y)| m(x) on the q-ary tree, in closed form.

    variant selects the operator: F(L) itself, grad F(L) (gradient in the
    first variable), F(L) grad* (gradient in the second), or grad F(L) grad*.
    The sum collapses over spheres; by homogeneity it does not depend on y.
    Returns (value, tail_estimate); raises NumericalError if a weight
    overflows, and DominatedTailError if the truncated tail fails the
    dominated check.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    A = radial.A
    kmax = radial.kmax
    terms = np.zeros(kmax - 1 if variant == "grad_both" else kmax, dtype=float)
    for d in range(len(terms)):
        s = sphere_weight_scaled(q, d)
        if variant == "plain":
            val = abs(A[d]) * s
        elif variant in ("grad_x", "gradstar_z"):
            b_near = abs(A[d] - A[d + 1] / q)
            b_far = abs(A[d] - A[d - 1]) if d >= 1 else 0.0
            val = b_near + (s - 1.0) * b_far
        else:
            if d == 0:
                val = abs(A[0] - 2 * A[1] / q + A[0] / q)
            else:
                b_comp = abs(A[d] - A[d - 1] - A[d + 1] / q + A[d] / q)
                b_inc = abs(A[d] - 2 * A[d - 1] + (A[d - 2] if d >= 2 else 0.0))
                val = 2.0 * b_comp + max(s - 2.0, 0.0) * b_inc
        try:
            terms[d] = weight(d) * val
        except OverflowError as exc:
            raise NumericalError(f"weight at distance {d} overflows: {exc}") from exc
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
    grid = 1 << int(np.ceil(np.log2(max(8192, 16 * (nmax + int(t) + 40)))))
    zk = z_grad_multiplier_kernel(fn, nmax, grid=grid)
    A = radial_from_gradkernel(q, zk.one_sided(), kmax + 1).A
    scaled = {k: complex(A[k] - A[k + 1]) for k in range(kmax + 1)}
    return {
        "etilde_scaled": scaled,
        "etilde": {k: v * q ** (-k / 2.0) for k, v in scaled.items()},
    }
