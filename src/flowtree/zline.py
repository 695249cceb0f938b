"""Fourier kernels on the integer line (the degree-one homogeneous flow tree).

The multiplier symbol of the standard Laplacian on Z is 1 - cos(theta), and
kernels come from uniform trapezoid sums over the circle, which are exact for
trigonometric polynomials and spectrally accurate for smooth symbols.  The
sums run on a doubled grid, and the aliasing guard reads how far they moved
from the half grid off the doubled grid's aliased image, so a grid takes one
symbol evaluation and one transform.  The symbol F(1 - cos(theta)) is even in
theta, so it is evaluated on the G + 1 nodes of the half circle [0, pi]
only, and the 2G-point sums come from a real transform of those values:
the cosine sums (a DCT-I) for the plain kernel and the sine sums (a DST-I)
of sin(theta) F for the gradient's; a complex symbol's real and imaginary
parts are transformed apart, and a real symbol's kernels are real.  Each
grid size's 1 - cos(theta) and sin(theta) on the half circle are computed
once (_grid keeps the last size, read-only).
The guard picks the grid: it starts at the default grid for nmax and
doubles it until the sums hold still, up to MAX_GRID, where it gives up.
The symmetric-gradient kernel is computed from the odd symbol sin(theta)
F(1 - cos(theta)) and crosschecked against the finite difference
k(n-1) - k(n+1) of the plain kernel, the cosine sums of the same symbol
values.

Three closed-form routes stand beside the trapezoid sums, each in numpy:

* heat kernels e^{-t} I_n(t) by Miller's backward recurrence (_heat; its
  public entry is the gradient kernel heat_z_gradkernel), started at
  N = sqrt(n^2 + 2t ln 1e17) + 10 and normalised by the identity
  e^t = I_0(t) + 2 sum_{n>=1} I_n(t); past the Chernoff bound
  e^{-t} I_n(t) <= exp(-t h(n/t)), h(x) = x asinh x - sqrt(1 + x^2) + 1,
  the values underflow and are 0;
* imaginary powers by a Gamma quotient, log Gamma from a shifted Stirling
  series;
* their quadrature crosscheck by one graded composite Gauss-Legendre rule
  on [0, pi], dyadic toward theta = 0, whose left-out end [0, pi 2^-56]
  contributes at most 2^-56.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class NumericalError(ValueError):
    """A numerical check failed: the computed values cannot be trusted."""


class AliasingError(NumericalError):
    """Doubling the quadrature grid moved a kernel value too much."""


class ConsistencyError(NumericalError):
    """Two evaluation routes that must agree did not."""


class GridCapError(ValueError):
    """An nmax whose default grid is past MAX_GRID: bad input, refused
    before any array is built."""


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
        ns = range(-self.nmax, self.nmax + 1)
        return [(n, v.real, v.imag) for n, v in zip(ns, map(self.value, ns))]


ALIAS_TOL = 1e-10        # most a kernel value may move when the grid doubles
MAX_GRID = 1 << 16       # the finest grid the aliasing guard tries
CONSISTENCY_TOL = 1e-12  # most the gradient's two routes may differ
IMAG_QUAD_NMAX = 50      # imaginary powers: the quadrature checks n <= this


def _default_grid(nmax: int) -> int:
    g = 4 * (nmax + 64) + 64
    return 1 << int(np.ceil(np.log2(g)))


@functools.lru_cache(maxsize=1)
def _grid(points: int) -> tuple[np.ndarray, np.ndarray]:
    """lambda = 1 - cos theta and sin theta at the points/2 + 1 nodes
    theta_j = 2 pi j / points, j = 0..points/2, of the half circle [0, pi],
    read-only; the last grid size asked for is kept.  Both are computed
    in place, sin theta over theta itself: with the temporaries of the
    largest grid freed around the cached pair, the heap fragmented and a
    perfbench ancestor_profile pass peaked about 1 MB higher."""
    theta = 2 * np.pi * np.arange(points // 2 + 1) / points
    lam = np.cos(theta)
    np.subtract(1.0, lam, out=lam)
    sin = np.sin(theta, out=theta)
    lam.flags.writeable = sin.flags.writeable = False
    return lam, sin


def _sums(half: np.ndarray, points: int, odd: bool) -> np.ndarray:
    """The trapezoid sums k(n), n mod points, of a symbol on the full circle
    of points = 2G nodes, from its values half[j] at theta_j = pi j / G,
    j = 0..G: an even symbol's are irfft(half, 2G), a DCT-I, and, half
    being an odd symbol's values (sin theta F), -2j times its sums are
    2 irfft(-1j half, 2G), a DST-I.  A real half gives real sums; a
    complex one's real and imaginary parts are transformed apart."""
    if np.iscomplexobj(half):
        out = np.empty(points, complex)
        out.real = _sums(half.real, points, odd)
        out.imag = _sums(half.imag, points, odd)
        return out
    if not odd:
        return np.fft.irfft(half, points)
    k = np.fft.irfft(-1j * half, points)
    k *= 2.0
    return k


def _doubled_grid(fn, nmax: int, odd: bool):
    """The kernel k(n), |n| <= nmax, of the symbol F(1 - cos theta) (odd:
    -2j times that of sin theta F(1 - cos theta)) by trapezoid sums on 2G
    points, as complex128; the symbol's G + 1 values on the half circle
    (checked finite); and 2G.  fn gets _grid's read-only 1 - cos theta.
    A float64 or complex128 symbol keeps its dtype; any other is widened
    to complex128.  A real symbol's kernel is real: its imaginary parts
    are 0.0.

    G starts at _default_grid(nmax) and doubles until the G-point sums
    differ from the 2G-point ones by at most ALIAS_TOL; a G of MAX_GRID or
    more where they still differ raises AliasingError, naming G.  An nmax
    whose default grid is past MAX_GRID is refused, GridCapError, before
    any array is built.

    The symbol is even in theta, so its 2G values repeat the G + 1 on the
    half circle, and _sums gives all 2G sums from those.  The G points are
    the even ones of the 2G, and the even samples' sums alias two values
    of the 2G sums: k_G(n) = k_2G(n) + k_2G(n + G).  So doubling moves
    k(n) by k_2G(n + G), read from the same sums: one symbol evaluation
    and one transform (two for a complex symbol) per grid tried.
    """
    G = _default_grid(nmax)
    if G > MAX_GRID:
        raise GridCapError(f"nmax {nmax} needs a grid of {G} points, past "
                           f"MAX_GRID = {MAX_GRID}")
    while True:
        points = 2 * G
        lam, sin = _grid(points)
        symbol = np.asarray(fn(lam))
        if symbol.dtype not in (np.float64, np.complex128):
            symbol = symbol.astype(complex)
        if not np.all(np.isfinite(symbol)):
            raise ValueError("non-finite symbol value")
        k = _sums(sin * symbol if odd else symbol, points, odd)
        idx = np.arange(-nmax, nmax + 1)
        moved = np.max(np.abs(k[(idx + G) % points]))
        if moved <= ALIAS_TOL:
            return k[idx % points].astype(complex), symbol, points
        if G >= MAX_GRID:
            raise AliasingError(
                f"grid {G} insufficient: doubling moved values by {moved:.3e}")
        G *= 2


def z_multiplier_kernel(fn, nmax: int) -> ZKernel:
    """k(n) = (1/2pi) int F(1 - cos t) e^{int} dt by trapezoid sums on the
    grid the aliasing guard picks (_doubled_grid).  fn(lam) gets a
    read-only array and returns a new one: a symbol that writes into lam
    raises ValueError."""
    out, _, points = _doubled_grid(fn, nmax, False)
    return ZKernel(out, nmax, points)


def z_grad_multiplier_kernel(fn, nmax: int) -> ZKernel:
    """Symmetric-gradient kernel k(n-1) - k(n+1), via the odd symbol route.

    Primary evaluation integrates sin(t) F(1 - cos t) on the grid the
    aliasing guard picks, by the sine sums of _sums.  The finite-difference
    route on the plain kernel, the cosine sums of the same symbol values,
    must agree within CONSISTENCY_TOL.  As in z_multiplier_kernel, fn(lam)
    gets a read-only array.
    """
    out, symbol, points = _doubled_grid(fn, nmax, True)
    plain = _sums(symbol, points, False)[np.arange(-nmax - 1, nmax + 2) % points]
    diff = plain[:-2] - plain[2:]
    dev = np.max(np.abs(diff - out))
    if dev > CONSISTENCY_TOL:
        raise ConsistencyError(
            f"odd-symbol and finite-difference routes differ by {dev:.3e}")
    return ZKernel(out, nmax, points)


def z_kernel_lambda_poly(coeffs) -> dict[int, Fraction]:
    """Exact kernel of a polynomial in the Z-Laplacian, by Horner's rule on
    its one-step kernel base (1 at 0, -1/2 at +-1): out <- base * out +
    c_k delta_0, from the top coefficient down."""
    base = {-1: Fraction(-1, 2), 0: Fraction(1), 1: Fraction(-1, 2)}
    out: dict[int, Fraction] = {}
    for c in reversed(coeffs):
        prev, out = out, {}
        for i, a in prev.items():
            for j, b in base.items():
                out[i + j] = out.get(i + j, Fraction(0)) + a * b
        if c:
            out[0] = out.get(0, Fraction(0)) + Fraction(c)
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


# Miller's start index: the unwanted solution is below this, relative
LN_MILLER_TOL = math.log(1e17)
MILLER_MARGIN = 10
# e^{-t} I_n(t) below e^{-746} rounds to 0 in double precision
LN_UNDERFLOW = 746.0
# most bits a block of the recurrence may grow by before it is rescaled
BLOCK_GROWTH_BITS = 500
# the recurrence runs to about 12 sqrt(t) terms; larger t is refused
MAX_HEAT_T = 1e16
# below this, 2n/t overflows and only k(0) = 1 is above 1e-300
TINY_T = 1e-300


def _chernoff_exponent(t: float, n: int) -> float:
    """t h(n/t), h(x) = x asinh x - sqrt(1 + x^2) + 1, written without
    cancellation: e^{-t} I_n(t) <= exp(-t h(n/t))."""
    x = n / t
    return t * (x * math.asinh(x) - x * x / (1.0 + math.sqrt(1.0 + x * x)))


def _last_nonzero(t: float, nmax: int) -> int:
    """The largest n <= nmax whose Chernoff bound is above underflow."""
    if _chernoff_exponent(t, nmax) <= LN_UNDERFLOW:
        return nmax
    lo, hi = 0, nmax
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _chernoff_exponent(t, mid) <= LN_UNDERFLOW:
            lo = mid
        else:
            hi = mid
    return lo


def _miller(t: float, n_last: int) -> np.ndarray:
    """e^{-t} I_n(t) for n = 0..n_last, TINY_T <= t <= MAX_HEAT_T.

    The backward recurrence y(n-1) = (2n/t) y(n) + y(n+1) starts from
    y(N+1) = 0, y(N) = 1 at N = sqrt(n_last^2 + 2t ln 1e17) + MILLER_MARGIN,
    where the unwanted solution K_n(t) has fallen below 1e-17 relative at
    every n <= n_last, and is normalised by e^t = I_0(t) + 2 sum_{n>=1}
    I_n(t).  Every term is positive and each coefficient 2n/t is rounded on
    its own, so rounding errors do not build up a bias.

    The recurrence is linear, so 0..N runs as B blocks of L indices side by
    side: each block carries the two solutions seeded (1, 0) and (0, 1) at
    its top, and one pass down the block tops joins them.  A block grows by
    at most BLOCK_GROWTH_BITS and each top pair is rescaled by a power of
    two (exact), so nothing overflows and no rescaling touches more than
    one pair.  Only the blocks that reach n <= n_last are stored.
    """
    n_top = math.ceil(math.sqrt(n_last * n_last + 2.0 * t * LN_MILLER_TOL)) + MILLER_MARGIN
    L = math.isqrt(n_top) + 1
    # one step multiplies by at most 1 + 2n/t
    L = max(1, min(L, int(BLOCK_GROWTH_BITS / math.log2(1.0 + 2.0 * (n_top + L) / t))))
    B = -(-(n_top + 1) // L)
    kept = n_last // L + 1
    two_lo = 2.0 * L * np.arange(B)
    # rows[j] holds index b L + j of every kept block b, for both seeds
    rows = np.empty((L, 2, kept))
    below = np.array([np.zeros(B), np.ones(B)])    # row L
    here = np.array([np.ones(B), np.zeros(B)])     # row L - 1
    total = here.copy()
    rows[L - 1] = here[:, :kept]
    for j in range(L - 1, 0, -1):
        below, here = here, ((two_lo + 2 * j) / t) * here + below
        total += here
        rows[j - 1] = here[:, :kept]
    # down the block tops: y(top of b) = p 2^e, y(top of b + 1) = q 2^e
    top = np.empty((B, 2))
    exp2 = np.empty(B, dtype=np.int64)
    (u0, v0), (u1, v1) = here.tolist(), below.tolist()
    p, q, e = 1.0, 0.0, 0
    for b in range(B - 1, -1, -1):
        top[b] = p, q
        exp2[b] = e
        y0, y1 = p * u0[b] + q * v0[b], p * u1[b] + q * v1[b]
        p, q = (2 * b * L) / t * y0 + y1, y0
        s = math.frexp(max(p, q))[1]
        p, q, e = math.ldexp(p, -s), math.ldexp(q, -s), e + s
    shift = exp2 - exp2.max()
    y = rows[:, 0] * top[:kept, 0] + rows[:, 1] * top[:kept, 1]
    sums = np.ldexp(total[0] * top[:, 0] + total[1] * top[:, 1], shift)
    norm = 2.0 * math.fsum(sums.tolist()) - math.ldexp(float(y[0, 0]), int(shift[0]))
    return np.ldexp(y / norm, shift[:kept]).T.ravel()[:n_last + 1]


def _heat(t: float, nmax: int) -> np.ndarray:
    """k(n) = e^{-t} I_n(t) for n = 0..nmax, by Miller's backward recurrence
    (_miller), and 0 past the Chernoff bound's underflow point.  Against
    mpmath.besseli at 30 digits, where above 1e-300: within 2e-14 relative
    up to t = 1e5, and at most 4.5e-15 at the points checked from t = 1e6
    to 1e8 (3.7e-15 at t = 1e7, n = 0; 4.5e-15 at t = 1e8, n = 44,646);
    rounding over the ~12 sqrt(t) steps makes that about 1e-13 at t = 1e14.
    Raises ValueError unless 0 <= t <= MAX_HEAT_T and nmax >= 0.  The
    public Bessel entry is heat_z_gradkernel, which scales these values."""
    if not (math.isfinite(t) and 0.0 <= t <= MAX_HEAT_T):
        raise ValueError(f"t must be finite and in [0, {MAX_HEAT_T:g}], not {t}")
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, not {nmax}")
    out = np.zeros(nmax + 1)
    if t < TINY_T:
        out[0] = 1.0
        out[1:2] = t / 2
        return out
    n_last = _last_nonzero(t, nmax)
    out[:n_last + 1] = _miller(t, n_last)
    return out


def heat_z_gradkernel(t: float, nmax: int) -> np.ndarray:
    """Symmetric-gradient heat kernel (2n/t) e^{-t} I_n(t), n = 0..nmax."""
    k = _heat(t, nmax)
    if t < TINY_T:      # 2n/t overflows; only the n = 1 value is above 1e-300
        k[:] = 0.0
        k[1:2] = 1.0
        return k
    return (2.0 * np.arange(nmax + 1) / t) * k


def heat_support_radius(t: float, tol: float) -> int:
    """n beyond which the heat kernel on Z is below tol (Gaussian scale)."""
    if t <= 0:
        return 4
    return int(np.sqrt(max(2 * t * np.log(1.0 / tol), 1.0)) + 8 * t ** 0.25 + 12)


# B_2k / (2k (2k - 1)), k = 1..8: the Stirling series of log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400)
# the series runs at Re w >= this, where its remainder is below 2e-21
STIRLING_FROM = 15.0


def _loggamma(z) -> np.ndarray:
    """A logarithm of Gamma(z) for Re z >= 0, z != 0: the Stirling series at
    w = z + m, Re w >= STIRLING_FROM, less log z + ... + log(z + m - 1).
    The branch is not tracked; callers use only exp of the result."""
    z = np.asarray(z, dtype=complex)
    m = np.maximum(np.ceil(STIRLING_FROM - z.real), 0.0)
    shift = np.zeros_like(z)
    for k in range(int(m.max(initial=0.0))):
        shift += np.log(z + k, where=k < m, out=np.zeros_like(z))
    w = z + m
    series = np.zeros_like(w)
    for c in reversed(_STIRLING):
        series = series / (w * w) + c
    return (w - 0.5) * np.log(w) - w + 0.5 * math.log(2 * math.pi) + series / w - shift


def imaginary_power_gamma(alpha: float, n):
    """Closed-form kernel of the imaginary power symbol at n != 0 (an int,
    or an integer array), from the Gamma-quotient representation
    2^{ia} Gamma(1/2 + ia) Gamma(n - ia) / (sqrt(pi) Gamma(-ia)
    Gamma(n + 1 + ia)) through _loggamma.  With G = Gamma(n + ia), the n part
    is conj(G) / ((n + ia) G), so no two log-Gammas of size n log n cancel."""
    n = np.abs(np.asarray(n))
    if np.any(n == 0):
        raise ValueError("closed form used only for n != 0")
    lg = (1j * alpha * math.log(2.0) - 0.5 * math.log(math.pi)
          + _loggamma(0.5 + 1j * alpha) - _loggamma(-1j * alpha)
          - 2j * _loggamma(n + 1j * alpha).imag - np.log(n + 1j * alpha))
    out = np.exp(lg)
    return complex(out) if out.ndim == 0 else out


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# dyadic panels [pi 2^-(j+1), pi 2^-j] for j below this; the rest of
# [0, pi] is left out, and contributes at most 2^-QUAD_DYADIC
QUAD_DYADIC = 56
# most phase, in radians, of cos(n theta) or lambda^{ia} over a sub-panel
QUAD_PHASE = 4.0


def _graded_rule(alpha: float, nmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule on [0, pi]:
    QUAD_DYADIC dyadic panels toward theta = 0, where lambda^{ia} =
    (1 - cos theta)^{ia} turns by 2 a ln 2 a panel, each cut into equal
    sub-panels that hold at most QUAD_PHASE of phase up to n = nmax."""
    hi = math.pi * 0.5 ** np.arange(QUAD_DYADIC)
    width = hi / 2
    cuts = np.ceil((nmax * width + 2 * abs(alpha) * math.log(2.0)) / QUAD_PHASE)
    cuts = np.maximum(cuts, 1).astype(int)
    h = np.repeat(width / cuts, cuts)
    left = np.repeat(width, cuts) + h * np.concatenate([np.arange(c) for c in cuts])
    theta = (left + h / 2)[:, None] + (h / 2)[:, None] * GL_NODES
    return theta.ravel(), (h[:, None] / 2 * GL_WEIGHTS).ravel()


def imaginary_power_quad(alpha: float, n):
    """(1/pi) int_0^pi (1 - cos theta)^{ia} cos(n theta) d theta for an int
    n or an integer array, by _graded_rule: one matrix product for all n.
    The symbol is exp(ia log(2 sin^2(theta/2))), free of the cancellation
    in 1 - cos theta near theta = 0."""
    ns = np.abs(np.atleast_1d(np.asarray(n)))
    theta, w = _graded_rule(alpha, int(ns.max()))
    log_lam = math.log(2.0) + 2.0 * np.log(np.sin(theta / 2))
    f = w * np.exp(1j * alpha * log_lam) / math.pi
    out = np.cos(np.outer(ns, theta)) @ f
    return out if np.ndim(n) else complex(out[0])


def imaginary_power_kernel(alpha: float, nmax: int):
    """Imaginary-power kernel: Gamma values for n >= 1, quadrature crosscheck.

    Returns (kernel, quad_values, max_discrepancy) where kernel.value(0) is
    the quadrature value (the closed form is used only away from 0) and the
    discrepancy is over 1 <= n <= min(IMAG_QUAD_NMAX, nmax); a NaN on either
    route makes it NaN.  Raises ValueError unless alpha is finite and
    nonzero.
    """
    if not math.isfinite(alpha) or alpha == 0:
        raise ValueError(f"alpha must be finite and nonzero, not {alpha}")
    m = max(0, min(IMAG_QUAD_NMAX, nmax))
    quad = imaginary_power_quad(alpha, np.arange(m + 1))
    gamma = imaginary_power_gamma(alpha, np.arange(1, nmax + 1))
    vals = np.concatenate([gamma[::-1], quad[:1], gamma])
    worst = float(np.max(np.abs(quad[1:] - gamma[:m]), initial=0.0))
    return ZKernel(vals, nmax, 0), dict(enumerate(quad[1:].tolist(), 1)), worst


def parseval_residual(fn, kernel: ZKernel) -> float:
    """|sum |k(n)|^2 - (1/2pi) int |F(1-cos t)|^2 dt| for smooth symbols,
    the integral by a trapezoid sum on 2^14 points."""
    grid = 1 << 14
    theta = 2 * np.pi * np.arange(grid) / grid
    sym = np.abs(np.asarray(fn(1.0 - np.cos(theta)), dtype=complex)) ** 2
    rhs = float(np.mean(sym))
    lhs = float(np.sum(np.abs(kernel.values) ** 2))
    return abs(lhs - rhs)
