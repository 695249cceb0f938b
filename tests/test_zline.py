"""Fourier kernels on the integer line: multipliers, gradients, imaginary powers."""

import math
from fractions import Fraction

import numpy as np
import pytest

from flowtree import zline
from flowtree.bumps import chi0


def test_identity_symbol_gives_delta():
    zk = zline.z_multiplier_kernel(lambda lam: np.ones_like(lam), 8)
    assert abs(zk.value(0) - 1) < 1e-14
    for n in range(1, 9):
        assert abs(zk.value(n)) < 1e-14


def test_laplacian_symbol_kernel():
    zk = zline.z_multiplier_kernel(lambda lam: lam, 8)
    assert abs(zk.value(0) - 1.0) < 1e-14
    assert abs(zk.value(1) + 0.5) < 1e-14
    assert abs(zk.value(-1) + 0.5) < 1e-14
    for n in range(2, 9):
        assert abs(zk.value(n)) < 1e-14


def test_lambda_squared_self_convolution():
    # frozen oracle: convolve (-1/2, 1, -1/2) with itself
    base = {-1: -0.5, 0: 1.0, 1: -0.5}
    conv = {}
    for i, a in base.items():
        for j, b in base.items():
            conv[i + j] = conv.get(i + j, 0.0) + a * b
    zk = zline.z_multiplier_kernel(lambda lam: lam ** 2, 8)
    assert conv == {-2: 0.25, -1: -1.0, 0: 1.5, 1: -1.0, 2: 0.25}
    for n in range(-4, 5):
        assert abs(zk.value(n) - conv.get(n, 0.0)) < 1e-13


def test_exact_poly_kernel_matches_quadrature():
    coeffs = [Fraction(1, 3), Fraction(-1), Fraction(0), Fraction(2)]
    exact = zline.z_kernel_lambda_poly(coeffs)
    zk = zline.z_multiplier_kernel(
        lambda lam: 1 / 3 - lam + 2 * lam ** 3, 10)
    for n in range(-6, 7):
        assert abs(zk.value(n) - float(exact.get(n, 0))) < 1e-12


def test_grad_of_delta():
    zk = zline.z_grad_multiplier_kernel(lambda lam: np.ones_like(lam), 6)
    assert abs(zk.value(1) - 1.0) < 1e-14
    assert abs(zk.value(-1) + 1.0) < 1e-14
    assert abs(zk.value(0)) < 1e-14


def test_grad_of_laplacian_kernel():
    zk = zline.z_grad_multiplier_kernel(lambda lam: lam, 6)
    # k(1) - k(3) = -1/2
    assert abs(zk.value(2) + 0.5) < 1e-14
    exact = zline.z_gradkernel_lambda_poly([Fraction(0), Fraction(1)])
    for n in range(-5, 6):
        assert abs(zk.value(n) - float(exact.get(n, 0))) < 1e-13


def test_grad_odd_symmetry():
    zk = zline.z_grad_multiplier_kernel(lambda lam: np.exp(-1.7 * lam), 20)
    for n in range(0, 21):
        assert abs(zk.value(-n) + zk.value(n)) < 1e-14


def test_aliasing_guard_trips():
    osc = lambda lam: np.exp(60j * lam)
    with pytest.raises(zline.AliasingError):
        zline.z_multiplier_kernel(osc, 4, grid=64)


def test_grad_aliasing_guard_trips():
    osc = lambda lam: np.exp(60j * lam)
    with pytest.raises(zline.AliasingError):
        zline.z_grad_multiplier_kernel(osc, 4, grid=64)


def test_heat_closed_forms_match_quadrature():
    t = 1.0
    zk = zline.z_multiplier_kernel(lambda lam: np.exp(-t * lam), 20)
    hk = zline.heat_z_kernel(t, 20)
    for n in range(0, 21):
        assert abs(zk.value(n) - hk[n]) < 1e-14
    gk = zline.heat_z_gradkernel(t, 20)
    zg = zline.z_grad_multiplier_kernel(lambda lam: np.exp(-t * lam), 20)
    for n in range(0, 21):
        assert abs(zg.value(n) - gk[n]) < 1e-14


def test_parseval_smooth_bump():
    fn = lambda lam: chi0(lam - 0.8)
    zk = zline.z_multiplier_kernel(fn, 220)
    assert zline.parseval_residual(fn, zk) < 1e-10


def test_imaginary_power_quad_vs_gamma():
    kern, quads, worst = zline.imaginary_power_kernel(1.0, 60, quad_nmax=12)
    assert worst < 1e-8
    # conjugation: kernel for -alpha conjugates
    k2 = zline.imaginary_power_gamma(-1.0, 7)
    assert abs(k2 - np.conj(zline.imaginary_power_gamma(1.0, 7))) < 1e-15


def _imaginary_power_quad_numpy(alpha, n, tol=1e-12):
    """Reference: the same quadrature with numpy scalar integrands."""
    import warnings

    from scipy.integrate import quad

    def f(th, part):
        lam = max(1.0 - np.cos(th), 1e-300)
        return part(alpha * np.log(lam)) * np.cos(n * th) / np.pi

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        re, _ = quad(f, 0.0, np.pi, args=(np.cos,), limit=400, epsabs=tol, epsrel=tol)
        im, _ = quad(f, 0.0, np.pi, args=(np.sin,), limit=400, epsabs=tol, epsrel=tol)
    return re + 1j * im


def test_imaginary_power_quad_matches_numpy_integrands():
    for n in range(51):
        got = zline.imaginary_power_quad(1.0, n)
        assert abs(got - _imaginary_power_quad_numpy(1.0, n)) < 1e-15, n


def test_imaginary_power_band():
    vals = [abs(zline.imaginary_power_gamma(1.0, n)) * n for n in range(10, 201)]
    assert max(vals) / min(vals) <= 1.2


def test_weighted_l2_grad_stable_under_refinement():
    """Weighted l2 norms of the gradient kernel settle as the grid doubles."""
    fn = lambda lam: chi0(lam - 0.9)
    for alpha in (0, 1, 2):
        vals = []
        for grid in (1 << 12, 1 << 13):
            zk = zline.z_grad_multiplier_kernel(fn, 300, grid=grid)
            ns = np.arange(-300, 301)
            s = np.sum((1.0 + np.abs(ns)) ** (2 * alpha) * np.abs(zk.values) ** 2)
            vals.append(s)
        assert math.isfinite(vals[-1])
        assert abs(vals[0] - vals[1]) <= 1e-8 * max(vals[1], 1.0)


def test_scale_invariant_grad_l2_band():
    """t^{3/2}-normalized weighted l2 sums stay in a narrow band in t."""
    fn = lambda lam: chi0((lam - 1.0) / 0.75)  # supported in [1/4, 7/4]
    for alpha in (0, 1):
        vals = []
        for t in (1.0, 4.0, 16.0, 64.0):
            nmax = int(40 * math.sqrt(t)) + 60
            zk = zline.z_grad_multiplier_kernel(
                lambda lam: fn(t * lam), nmax,
                grid=1 << int(np.ceil(np.log2(64 * nmax))))
            ns = np.arange(-nmax, nmax + 1)
            s = np.sum((1.0 + np.abs(ns) / math.sqrt(t)) ** (2 * alpha)
                       * np.abs(zk.values) ** 2)
            vals.append(t ** 1.5 * s)
        assert max(vals) / min(vals) < 4.0
