"""Fourier kernels on the integer line: multipliers, gradients, imaginary powers."""

import functools
import json
import math
import pathlib
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtree import zline
from flowtree.bumps import chi0, schrodinger_multiplier

from conftest import doubled_grid_two_pass, z_kernel_power_sum


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


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.just(Fraction(0)), st.just(0), rationals, st.integers(-3, 3)),
                max_size=9),
       st.integers(0, 3))
def test_exact_poly_kernel_equals_the_power_sum(coeffs, trailing):
    """Horner's rule gives the power sum's kernel key for key, in Fractions,
    for rational and int coefficients with zeros among them and at the top."""
    coeffs = coeffs + [0] * trailing
    got = zline.z_kernel_lambda_poly(coeffs)
    assert got == z_kernel_power_sum(coeffs)
    assert all(type(a) is Fraction and a for a in got.values())


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


def pin_grid(monkeypatch, G):
    """Have the aliasing guard try the grid G alone: it raises
    AliasingError where G does not pass."""
    monkeypatch.setattr(zline, "_default_grid", lambda nmax: G)
    monkeypatch.setattr(zline, "MAX_GRID", G)


def test_aliasing_guard_trips(monkeypatch):
    """The wave packet at t = 2 needs more than the default grid at nmax 16
    (512 points): doubling it moves the values by about 6e-10."""
    pin_grid(monkeypatch, 512)
    with pytest.raises(zline.AliasingError, match="^grid 512 insufficient: "
                       "doubling moved values by 6.148e-10$"):
        zline.z_multiplier_kernel(schrodinger_multiplier(2.0), 16)


def test_grad_aliasing_guard_trips(monkeypatch):
    osc = lambda lam: np.exp(60j * lam)
    pin_grid(monkeypatch, 64)
    with pytest.raises(zline.AliasingError):
        zline.z_grad_multiplier_kernel(osc, 4)


@pytest.mark.parametrize("odd", [False, True])
def test_guard_doubles_the_grid_until_it_passes(odd):
    """The wave packet at t = 2 and nmax 16 fails the default grid (G =
    512) and passes at G = 1024, so its kernel comes from 2048 points, and
    its values lie within 1e-15 max|k| of the two-pass sums on a grid four
    times finer."""
    fn = schrodinger_multiplier(2.0)
    kernel = zline.z_grad_multiplier_kernel if odd else zline.z_multiplier_kernel
    zk = kernel(fn, 16)
    want, _ = doubled_grid_two_pass(fn, 4096, 16, odd)
    assert zk.grid == 2048
    assert np.max(np.abs(zk.values - want)) <= 1e-15 * np.max(np.abs(want))


GUARD_SYMBOLS = {
    "heat t=1": lambda lam: np.exp(-np.asarray(lam)),
    "heat t=40": lambda lam: np.exp(-40.0 * np.asarray(lam)),
    "wave packet t=2": schrodinger_multiplier(2.0),
    "wave packet t=8": schrodinger_multiplier(8.0),
    "bump": lambda lam: chi0(np.asarray(lam) - 0.9),
    "oscillating": lambda lam: np.exp(60j * np.asarray(lam)),
}


@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("name", GUARD_SYMBOLS)
def test_one_grid_guard_matches_the_two_pass_guard(monkeypatch, name, odd):
    """On grids G = 64 to 16,384, each kernel equals the two-pass guard's
    2G kernel bit for bit, the guard trips exactly where the two-pass
    guard's move passes ALIAS_TOL, and its own move lies within
    1e-14 max|k| of that one: the guard holds at the move plus that margin
    and trips below the move less it.  A grid that passes is not followed
    by a finer one that trips."""
    fn = GUARD_SYMBOLS[name]
    trips = []
    for G in (64, 256, 1024, 4096, 16384):
        nmax = min(G // 4 - 10, 300)
        want, moved = doubled_grid_two_pass(fn, G, nmax, odd)
        margin = 1e-14 * np.max(np.abs(want))
        pin_grid(monkeypatch, G)

        def kernel():
            try:
                if odd:
                    return zline.z_grad_multiplier_kernel(fn, nmax)
                return zline.z_multiplier_kernel(fn, nmax)
            except zline.ConsistencyError:
                return None     # past the guard

        for tol, trip in ((zline.ALIAS_TOL, moved > zline.ALIAS_TOL),
                          (moved + margin, False), (moved - margin, True)):
            if tol <= 0:
                continue
            monkeypatch.setattr(zline, "ALIAS_TOL", tol)
            if trip:
                with pytest.raises(zline.AliasingError):
                    kernel()
            else:
                zk = kernel()
                assert zk is None or (zk.grid == 2 * G
                                      and np.array_equal(zk.values, want))
        monkeypatch.undo()
        trips.append(moved > zline.ALIAS_TOL)
    assert trips == sorted(trips, reverse=True)


KERNELS = (zline.z_multiplier_kernel, zline.z_grad_multiplier_kernel)
REAL_SYMBOLS = ("heat t=1", "heat t=40", "bump")


def _outcome(kernel, fn, nmax):
    """The kernel's values as bytes, or the error it raised."""
    try:
        return kernel(fn, nmax).values.tobytes()
    except zline.NumericalError as exc:
        return repr(exc)


@pytest.mark.parametrize("name", REAL_SYMBOLS)
def test_real_symbols_give_the_complex_route_kernel(name):
    """A real symbol stays real up to the transform, and its kernels are bit
    for bit those of the same symbol returned as complex128; a float32
    symbol is widened to complex128 and gives the kernels (or the error)
    of its float64 values."""
    fn = GUARD_SYMBOLS[name]
    as_complex = lambda lam: np.asarray(fn(lam), dtype=complex)
    as_float32 = lambda lam: np.asarray(fn(lam), dtype=np.float32)
    widened = lambda lam: as_float32(lam).astype(np.float64)
    assert fn(zline._grid(64)[0]).dtype == np.float64
    for kernel in KERNELS:
        for nmax in (16, 300, 5000):
            assert kernel(fn, nmax).values.tobytes() == \
                kernel(as_complex, nmax).values.tobytes()
            assert _outcome(kernel, as_float32, nmax) == _outcome(kernel, widened, nmax)


def test_grid_trigonometry_is_read_only_and_kept_for_one_size():
    """Computed in place, the pair is bit for bit 1.0 - np.cos(theta) and
    np.sin(theta), up to the largest grid the guard tries."""
    for points in (64, 4096, 2 * zline.MAX_GRID):
        lam, sin = zline._grid(points)
        theta = 2 * np.pi * np.arange(points) / points
        assert lam.tobytes() == (1.0 - np.cos(theta)).tobytes()
        assert sin.tobytes() == np.sin(theta).tobytes()
    zline._grid.cache_clear()
    lam, sin = zline._grid(64)
    for a in (lam, sin):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
    assert zline._grid(64)[0] is lam
    zline._grid(128)
    assert zline._grid.cache_info().currsize == 1
    assert zline._grid(64)[0] is not lam


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_symbol_that_writes_into_its_argument_is_refused(kernel):
    """The symbol's argument is the kept grid's read-only 1 - cos theta: a
    symbol that computes in place raises ValueError, and the grid it
    tried to write into still gives the right kernel."""
    def in_place(lam):
        lam *= -1.0
        return np.exp(lam, out=lam)
    heat = GUARD_SYMBOLS["heat t=1"]
    want = kernel(heat, 300).values.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        kernel(in_place, 300)
    assert kernel(heat, 300).values.tobytes() == want


def test_consistency_check_trips_below_the_rounding_gap(monkeypatch):
    """The finite-difference route, read from a real transform of a real
    symbol's first half or from a complex symbol's full transform, meets
    the odd-symbol route only to rounding: a tolerance of 0 trips the
    check, for a real and a complex symbol."""
    monkeypatch.setattr(zline, "CONSISTENCY_TOL", 0.0)
    for name in ("heat t=1", "wave packet t=8"):
        with pytest.raises(zline.ConsistencyError):
            zline.z_grad_multiplier_kernel(GUARD_SYMBOLS[name], 300)


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


# mpmath.besseli(n, 1e5) e^{-1e5} at 30 digits, frozen to 22: mpmath takes
# seconds a value at t = 1e5 from n = 2500 on
MP_HEAT_1E5 = {
    2508: "2.772411691250366830796e-17", 2952: "1.511190222481526876471e-22",
    3709: "1.705812228752568341127e-33", 5486: "5.806319906747827664271e-69",
    8114: "1.641568076506811717458e-146", 11504: "1.091766196954825391296e-290",
    11703: "1.076890398464756744953e-300", 12000: "6.038806143419467971869e-316",
}
HEAT_T = (1e-3, 0.5, 1.0, 7.3, 105.5, 1000.0, 4096.0, 1e5)
HEAT_N = {0, 1, 2, 11504, 11703, *(int(round(x)) for x in np.geomspace(1, 12000, 25))}


@functools.lru_cache(maxsize=None)
def _mp_heat(n, t):
    """e^{-t} I_n(t) as an mpmath number, at 30 digits."""
    if t == 1e5 and n >= 2500:
        return mpmath.mpf(MP_HEAT_1E5[n])
    with mpmath.workdps(30):
        return +(mpmath.besseli(n, t, maxterms=10 ** 6) * mpmath.exp(-t))


@pytest.mark.parametrize("t", HEAT_T)
def test_heat_kernels_match_mpmath_besseli(t):
    """Both heat kernels within 2e-14 relative of mpmath where above 1e-300
    (within 1e-300 below it), at every nmax from 0 to past underflow."""
    radius = zline.heat_support_radius(t, 1e-17)
    for nmax in (0, 1, 50, radius, 12000):
        k, g = zline.heat_z_kernel(t, nmax), zline.heat_z_gradkernel(t, nmax)
        assert len(k) == len(g) == nmax + 1
        for n in sorted(HEAT_N | {radius, nmax}):
            if n > nmax:
                break
            want = _mp_heat(n, t)
            for got, w in ((k[n], want), (g[n], want * 2 * n / t)):
                assert abs(got - w) <= (2e-14 * w if w > 1e-300 else 1e-300), (nmax, n)


@pytest.mark.parametrize("t", [1e6, 1e7, 1e8])
def test_heat_kernels_match_mpmath_besseli_at_large_t(t):
    """Both heat kernels within 1e-14 relative of mpmath at the times the
    Riesz quadrature oracle reads (up to its t_cut = 1e8), on the kernel's
    support radius n_last: at n = 0, 1, sqrt(t), 3 sqrt(t) and n_last / 2."""
    n_last = zline.heat_support_radius(t, 1e-17)
    k, g = zline.heat_z_kernel(t, n_last), zline.heat_z_gradkernel(t, n_last)
    for n in (0, 1, math.isqrt(int(t)), math.isqrt(int(9 * t)), n_last // 2):
        want = _mp_heat(n, t)
        assert abs(k[n] - want) <= 1e-14 * want, n
        assert abs(g[n] - want * 2 * n / t) <= 1e-14 * want * 2 * n / t, n


@pytest.mark.parametrize("t", HEAT_T)
def test_heat_kernel_crosschecks_scipy_ive(t):
    """scipy's ive agrees within 1e-12 relative where above 1e-300; at
    t = 1e5 only above 1e-50, where scipy's own error passes 1e-12 (1.5e-12
    at n = 11504 against MP_HEAT_1E5)."""
    from scipy.special import ive
    want = ive(np.arange(12001), t)
    got = zline.heat_z_kernel(t, 12000)
    on = want > (1e-50 if t == 1e5 else 1e-300)
    assert np.all(np.abs(got[on] - want[on]) <= 1e-12 * want[on])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.floats(-3.0, 4.0), st.integers(0, 400))
def test_heat_kernel_is_a_decreasing_recurrence_solution(log_t, nmax):
    """k(n) >= 0, non-increasing in n, and (2n/t) k(n) = k(n-1) - k(n+1)
    to rounding (to 1e-300 among subnormal values)."""
    t = 10.0 ** log_t
    k, g = zline.heat_z_kernel(t, nmax), zline.heat_z_gradkernel(t, nmax)
    assert np.all(k >= 0) and np.all(np.diff(k) <= 0)
    eps = np.finfo(float).eps
    tol = np.maximum(64 * eps * (k[:-2] + k[2:]), 1e-300)
    assert np.all(np.abs(g[1:-1] - (k[:-2] - k[2:])) <= tol)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf, -math.inf])
def test_heat_kernels_reject_bad_t(t):
    for kernel in (zline.heat_z_kernel, zline.heat_z_gradkernel):
        with pytest.raises(ValueError, match="t must be finite"):
            kernel(t, 5)


def test_heat_kernels_at_t_zero_and_tiny_t():
    for t in (0.0, 1e-310):
        assert zline.heat_z_kernel(t, 3).tolist() == [1.0, t / 2, 0.0, 0.0]
        assert zline.heat_z_gradkernel(t, 3).tolist() == [0.0, 1.0, 0.0, 0.0]


def test_parseval_smooth_bump():
    fn = lambda lam: chi0(lam - 0.8)
    zk = zline.z_multiplier_kernel(fn, 220)
    assert zline.parseval_residual(fn, zk) < 1e-10


def test_imaginary_power_quad_vs_gamma():
    kern, quads, worst = zline.imaginary_power_kernel(1.0, 60)
    assert worst < 1e-8
    # conjugation: kernel for -alpha conjugates
    k2 = zline.imaginary_power_gamma(-1.0, 7)
    assert abs(k2 - np.conj(zline.imaginary_power_gamma(1.0, 7))) < 1e-15


QUAD_TABLE = pathlib.Path(__file__).with_name("data") / "imaginary_power_quad_mpmath.json"


def _mp_quad(alpha, n):
    """(1/pi) int_0^pi (1 - cos th)^{ia} cos(n th) dth by mpmath.quad at 30
    digits, in s = log(pi / th), where the integrand is smooth and decays
    like e^{-s}, split where cos(n th) oscillates."""
    with mpmath.workdps(30):
        a, pi = mpmath.mpf(alpha), mpmath.pi

        def g(s):
            th = pi * mpmath.exp(-s)
            lam = 2 * mpmath.sin(th / 2) ** 2
            return th * mpmath.exp(1j * a * mpmath.log(lam)) * mpmath.cos(n * th) / pi

        k = max(1, n // 8)
        pts = ([-mpmath.log(1 - mpmath.mpf(j) / (2 * k)) for j in range(k)]
               + [j * mpmath.log(2) for j in (1, 2, 3)] + [mpmath.inf])
        return complex(mpmath.quad(g, pts))


def _quad_table():
    """_mp_quad at alpha in {1, 0.5, 2}, n = 0..50, frozen (mpmath takes
    about 0.1 s a value); alpha = -1 is the conjugate of alpha = 1."""
    tab = {float(a): [complex(re, im) for re, im in rows]
           for a, rows in json.loads(QUAD_TABLE.read_text())["alpha"].items()}
    tab[-1.0] = [v.conjugate() for v in tab[1.0]]
    return tab


def test_imaginary_power_quad_matches_mpmath_quad():
    for alpha, want in _quad_table().items():
        got = zline.imaginary_power_quad(alpha, np.arange(51))
        assert np.max(np.abs(got - want)) <= 5e-14, alpha
        for n in (0, 7, 50):    # a scalar n gets a rule sized for n alone
            assert abs(zline.imaginary_power_quad(alpha, n) - want[n]) <= 5e-14


@pytest.mark.parametrize("alpha, n", [(1.0, 0), (1.0, 50), (2.0, 23)])
def test_quad_table_is_mpmath_quad(alpha, n):
    assert abs(_mp_quad(alpha, n) - _quad_table()[alpha][n]) <= 1e-16


def test_imaginary_power_gamma_matches_mpmath_gamma():
    for alpha in (1.0, -1.0, 0.5, 2.0, 10.0):
        with mpmath.workdps(30):
            a = mpmath.mpf(alpha)
            c = mpmath.power(2, 1j * a) * mpmath.gamma(0.5 + 1j * a) / (
                mpmath.sqrt(mpmath.pi) * mpmath.gamma(-1j * a))
            want = [complex(c * mpmath.gamma(n - 1j * a) / mpmath.gamma(n + 1 + 1j * a))
                    for n in range(1, 201)]
        got = zline.imaginary_power_gamma(alpha, np.arange(1, 201))
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12, alpha


def test_imaginary_power_gamma_keeps_digits_at_large_n():
    """log Gamma(n - ia) and log Gamma(n + 1 + ia) are each about n log n,
    so their difference must not carry that size's rounding into the
    kernel: within 1e-13 relative of mpmath's Gamma up to n = 10^7."""
    ns = np.unique(np.round(np.logspace(0, 7, 29)).astype(np.int64))
    for alpha in (1.0, -1.0, 0.5, 2.0, 10.0):
        with mpmath.workdps(30):
            a = mpmath.mpf(alpha)
            c = mpmath.power(2, 1j * a) * mpmath.gamma(0.5 + 1j * a) / (
                mpmath.sqrt(mpmath.pi) * mpmath.gamma(-1j * a))
            want = [complex(c * mpmath.gamma(n - 1j * a) / mpmath.gamma(n + 1 + 1j * a))
                    for n in ns.tolist()]
        got = zline.imaginary_power_gamma(alpha, ns)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13, alpha


def test_imaginary_power_band():
    vals = [abs(zline.imaginary_power_gamma(1.0, n)) * n for n in range(10, 201)]
    assert max(vals) / min(vals) <= 1.2


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0])
def test_imaginary_power_kernel_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be finite and nonzero"):
        zline.imaginary_power_kernel(alpha, 3)


def test_imaginary_power_kernel_gap_keeps_nan(monkeypatch):
    """A NaN on the quadrature route makes the reported gap NaN, not 0."""
    def quad(alpha, n):
        out = np.ones(len(n), dtype=complex)
        out[2] = np.nan
        return out
    monkeypatch.setattr(zline, "imaginary_power_quad", quad)
    assert math.isnan(zline.imaginary_power_kernel(1.0, 3)[2])


def test_weighted_l2_grad_stable_under_refinement(monkeypatch):
    """Weighted l2 norms of the gradient kernel settle as the grid doubles."""
    fn = lambda lam: chi0(lam - 0.9)
    for alpha in (0, 1, 2):
        vals = []
        for grid in (1 << 12, 1 << 13):
            pin_grid(monkeypatch, grid)
            zk = zline.z_grad_multiplier_kernel(fn, 300)
            ns = np.arange(-300, 301)
            s = np.sum((1.0 + np.abs(ns)) ** (2 * alpha) * np.abs(zk.values) ** 2)
            vals.append(s)
        assert math.isfinite(vals[-1])
        assert abs(vals[0] - vals[1]) <= 1e-8 * max(vals[1], 1.0)


def test_scale_invariant_grad_l2_band(monkeypatch):
    """t^{3/2}-normalized weighted l2 sums stay in a narrow band in t."""
    fn = lambda lam: chi0((lam - 1.0) / 0.75)  # supported in [1/4, 7/4]
    for alpha in (0, 1):
        vals = []
        for t in (1.0, 4.0, 16.0, 64.0):
            nmax = int(40 * math.sqrt(t)) + 60
            pin_grid(monkeypatch, 1 << int(np.ceil(np.log2(64 * nmax))))
            zk = zline.z_grad_multiplier_kernel(lambda lam: fn(t * lam), nmax)
            ns = np.arange(-nmax, nmax + 1)
            s = np.sum((1.0 + np.abs(ns) / math.sqrt(t)) ** (2 * alpha)
                       * np.abs(zk.values) ** 2)
            vals.append(t ** 1.5 * s)
        assert max(vals) / min(vals) < 4.0
