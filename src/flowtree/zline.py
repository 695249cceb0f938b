"""Fourier kernels on the integer line (the degree-one homogeneous flow tree).

The multiplier symbol of the standard Laplacian on Z is 1 - cos(theta), and
kernels come from uniform trapezoid sums over the circle, which are exact for
trigonometric polynomials and spectrally accurate for smooth symbols.  An
aliasing guard recomputes on a doubled grid.  The symmetric-gradient kernel
is computed from the odd symbol sin(theta) F(1 - cos(theta)) and crosschecked
against the finite difference k(n-1) - k(n+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.special import ive, loggamma


class NumericalError(ValueError):
    """A numerical check failed: the computed values cannot be trusted."""


class AliasingError(NumericalError):
    """Doubling the quadrature grid moved a kernel value too much."""


class ConsistencyError(NumericalError):
    """Two evaluation routes that must agree did not."""


@dataclass
class ZKernel:
    """Two-sided kernel values k(n) for |n| <= nmax."""

    values: np.ndarray  # complex, index n + nmax
    nmax: int
    grid: int

    def value(self, n: int) -> complex:
        if abs(n) > self.nmax:
            return 0.0 + 0.0j
        return complex(self.values[n + self.nmax])

    def one_sided(self) -> np.ndarray:
        """k(n) for n = 0..nmax."""
        return self.values[self.nmax:]

    def csv_rows(self):
        return [(n, self.value(n).real, self.value(n).imag)
                for n in range(-self.nmax, self.nmax + 1)]


def _fourier_sum(symbol_values: np.ndarray, nmax: int) -> np.ndarray:
    """k(n) = (1/G) sum_j vals_j exp(i n theta_j) for n = -nmax..nmax."""
    k = np.fft.ifft(symbol_values)
    idx = np.arange(-nmax, nmax + 1) % len(symbol_values)
    return k[idx]


ALIAS_TOL = 1e-10        # most a kernel value may move when the grid doubles
CONSISTENCY_TOL = 1e-12  # most the gradient's two routes may differ


def _default_grid(nmax: int) -> int:
    g = 4 * (nmax + 64) + 64
    return 1 << int(np.ceil(np.log2(g)))


def _doubled_grid(fn, G: int, route):
    """route(theta, symbol) on G, then on 2G points (one grid at a time),
    with the symbol F(1 - cos theta) checked finite; returns route's kernel
    and the symbol on 2G points, or raises AliasingError (ALIAS_TOL)."""
    out = None
    for g in (G, 2 * G):
        theta = 2 * np.pi * np.arange(g) / g
        symbol = np.asarray(fn(1.0 - np.cos(theta)), dtype=complex)
        if not np.all(np.isfinite(symbol)):
            raise ValueError("non-finite symbol value")
        k = route(theta, symbol)
        if out is not None and np.max(np.abs(k - out)) > ALIAS_TOL:
            raise AliasingError(
                f"grid {G} insufficient: doubling moved values by "
                f"{np.max(np.abs(k - out)):.3e}")
        out = k
    return out, symbol


def z_multiplier_kernel(fn, nmax: int, grid: int | None = None) -> ZKernel:
    """k(n) = (1/2pi) int F(1 - cos t) e^{int} dt by trapezoid sums.

    Raises AliasingError if doubling the grid changes any value by more than
    ALIAS_TOL.
    """
    G = grid or _default_grid(nmax)
    if G < 4 * nmax + 8:
        raise ValueError("grid too small for requested nmax")
    out, _ = _doubled_grid(fn, G, lambda theta, symbol: _fourier_sum(symbol, nmax))
    return ZKernel(out, nmax, 2 * G)


def z_grad_multiplier_kernel(fn, nmax: int, grid: int | None = None) -> ZKernel:
    """Symmetric-gradient kernel k(n-1) - k(n+1), via the odd symbol route.

    Primary evaluation integrates sin(t) F(1 - cos t), with the aliasing
    guard; the finite-difference route on the plain kernel, on the doubled
    grid, must agree within CONSISTENCY_TOL.
    """
    G = grid or _default_grid(nmax)
    if G < 4 * (nmax + 2) + 8:
        raise ValueError("grid too small for requested nmax")
    out, symbol = _doubled_grid(
        fn, G, lambda theta, symbol: -2j * _fourier_sum(np.sin(theta) * symbol, nmax))
    plain = _fourier_sum(symbol, nmax + 1)
    diff = plain[:-2] - plain[2:]
    dev = np.max(np.abs(diff - out))
    if dev > CONSISTENCY_TOL:
        raise ConsistencyError(
            f"odd-symbol and finite-difference routes differ by {dev:.3e}")
    return ZKernel(out, nmax, 2 * G)


def z_kernel_lambda_poly(coeffs) -> dict[int, Fraction]:
    """Exact kernel of a polynomial in the Z-Laplacian, by convolution powers
    of its one-step kernel (1 at 0, -1/2 at +-1)."""
    base = {-1: Fraction(-1, 2), 0: Fraction(1), 1: Fraction(-1, 2)}
    out: dict[int, Fraction] = {}
    power = {0: Fraction(1)}
    for k, c in enumerate(coeffs):
        if k:
            new: dict[int, Fraction] = {}
            for i, a in power.items():
                for j, b in base.items():
                    new[i + j] = new.get(i + j, Fraction(0)) + a * b
            power = new
        if c:
            c = Fraction(c)
            for n, a in power.items():
                out[n] = out.get(n, Fraction(0)) + c * a
    return {n: a for n, a in out.items() if a}


def z_gradkernel_lambda_poly(coeffs) -> dict[int, Fraction]:
    """Exact symmetric-gradient kernel k(n-1) - k(n+1) of a Laplacian polynomial."""
    k = z_kernel_lambda_poly(coeffs)
    if not k:
        return {}
    lo, hi = min(k) - 1, max(k) + 1
    out = {}
    for n in range(lo, hi + 1):
        v = k.get(n - 1, Fraction(0)) - k.get(n + 1, Fraction(0))
        if v:
            out[n] = v
    return out


def heat_z_kernel(t: float, nmax: int) -> np.ndarray:
    """k(n) = e^{-t} I_n(t) for n = 0..nmax (exact up to Bessel accuracy)."""
    n = np.arange(nmax + 1)
    if t == 0:
        out = np.zeros(nmax + 1)
        out[0] = 1.0
        return out
    return ive(n, t)


def heat_z_gradkernel(t: float, nmax: int) -> np.ndarray:
    """Symmetric-gradient heat kernel (2n/t) e^{-t} I_n(t), n = 0..nmax."""
    n = np.arange(nmax + 1)
    if t == 0:
        out = np.zeros(nmax + 1)
        if nmax >= 1:
            out[1] = 1.0
        return out
    return (2.0 * n / t) * ive(n, t)


def heat_support_radius(t: float, tol: float = 1e-16) -> int:
    """n beyond which the heat kernel on Z is below tol (Gaussian scale)."""
    if t <= 0:
        return 4
    return int(np.sqrt(max(2 * t * np.log(1.0 / tol), 1.0)) + 8 * t ** 0.25 + 12)


def imaginary_power_gamma(alpha: float, n: int) -> complex:
    """Closed-form kernel of the imaginary power symbol at n != 0, from the
    Gamma-quotient representation, evaluated through log-Gamma."""
    n = abs(n)
    if n == 0:
        raise ValueError("closed form used only for n != 0")
    lg = (1j * alpha * np.log(2.0) - 0.5 * np.log(np.pi)
          + loggamma(0.5 + 1j * alpha) - loggamma(-1j * alpha)
          + loggamma(n - 1j * alpha) - loggamma(n + 1 + 1j * alpha))
    return complex(np.exp(lg))


def imaginary_power_quad(alpha: float, n: int) -> complex:
    """Adaptive quadrature of (1/pi) int_0^pi (1-cos t)^{i a} cos(nt) dt."""
    def f_re(th):
        lam = max(1.0 - math.cos(th), 1e-300)
        return math.cos(alpha * math.log(lam)) * math.cos(n * th) / math.pi

    def f_im(th):
        lam = max(1.0 - math.cos(th), 1e-300)
        return math.sin(alpha * math.log(lam)) * math.cos(n * th) / math.pi

    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        re, _ = quad(f_re, 0.0, np.pi, limit=400, epsabs=1e-12, epsrel=1e-12)
        im, _ = quad(f_im, 0.0, np.pi, limit=400, epsabs=1e-12, epsrel=1e-12)
    return re + 1j * im


def imaginary_power_kernel(alpha: float, nmax: int, quad_nmax: int = 50):
    """Imaginary-power kernel: Gamma values for n >= 1, quadrature crosscheck.

    Returns (kernel, quad_values, max_discrepancy) where kernel.value(0) is
    the quadrature value (the closed form is used only away from 0) and the
    discrepancy is over 1 <= n <= quad_nmax.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    vals = np.zeros(2 * nmax + 1, dtype=complex)
    vals[nmax] = imaginary_power_quad(alpha, 0)
    for n in range(1, nmax + 1):
        v = imaginary_power_gamma(alpha, n)
        vals[nmax + n] = v
        vals[nmax - n] = v
    quad_vals = {}
    worst = 0.0
    for n in range(1, min(quad_nmax, nmax) + 1):
        qv = imaginary_power_quad(alpha, n)
        quad_vals[n] = qv
        worst = max(worst, abs(qv - vals[nmax + n]))
    return ZKernel(vals, nmax, 0), quad_vals, worst


def parseval_residual(fn, kernel: ZKernel) -> float:
    """|sum |k(n)|^2 - (1/2pi) int |F(1-cos t)|^2 dt| for smooth symbols,
    the integral by a trapezoid sum on 2^14 points."""
    grid = 1 << 14
    theta = 2 * np.pi * np.arange(grid) / grid
    sym = np.abs(np.asarray(fn(1.0 - np.cos(theta)), dtype=complex)) ** 2
    rhs = float(np.mean(sym))
    lhs = float(np.sum(np.abs(kernel.values) ** 2))
    return abs(lhs - rhs)
