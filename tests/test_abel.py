"""Discrete Abel bridge: sphere weights, transforms, radial kernels, sums."""

import functools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from flowtree import ball_window
from flowtree import abel, zline
from flowtree.exactnum import QSurd
from flowtree.localops import kernel_column_lambda_poly

from conftest import (abel_forward_quadratic, abel_inverse_quadratic, apply_gradient,
                      cheb_apply, opsum_numpy_scalars, radial_numpy_scalars,
                      sqrt_q_power, weighted_col_sums)


def _sphere_count(q, d, r):
    """Vertices at distance d and level offset r from a fixed vertex of the
    homogeneous tree: q^((d-r)/2) on the geodesic up-down path (|r| = d),
    (q-1) q^((d-r)/2 - 1) when the even gap d - |r| > 0 allows a branch."""
    if abs(r) == d:
        return q ** ((d - r) // 2)
    gap = d - abs(r)
    if gap > 0 and gap % 2 == 0:
        return (q - 1) * q ** ((d - r) // 2 - 1)
    return 0


def test_sphere_count_vs_enumeration():
    for q in (2, 3):
        w, _, c = ball_window(q, 5)
        for d in range(0, 6):
            cnt = Counter(w.level[v] - w.level[c]
                          for v in w.vertices if w.distance(v, c) == d)
            for r in range(-d, d + 1):
                assert _sphere_count(q, d, r) == cnt.get(r, 0), (q, d, r)


def test_sphere_weight_scaled_closed_form():
    """The closed form against the spheres of a ball, enumerated by level
    offset r: q^(-d/2) sum over the sphere of q^(r/2)."""
    for q, radius in ((2, 7), (3, 7), (5, 5)):
        w, _, c = ball_window(q, radius)
        for d in range(0, radius + 1):
            cnt = Counter(w.level[v] - w.level[c]
                          for v in w.vertices if w.distance(v, c) == d)
            brute = sum(n * q ** (r / 2.0) for r, n in cnt.items())
            assert abs(abel.sphere_weight_scaled(q, d) - brute * q ** (-d / 2.0)) < 1e-12


def test_abel_forward_delta0_fixed():
    out = abel.abel_forward(3, [Fraction(1)])
    assert out[0] == QSurd(3, 1)


def test_abel_forward_delta2():
    q = 3
    out = abel.abel_forward(q, [Fraction(0), Fraction(0), Fraction(1)])
    assert out[0] == QSurd(q, q - 1)
    assert out[1] == QSurd(q, 0)
    assert out[2] == QSurd(q, q)


def test_abel_transforms_take_floats_exactly():
    """A float entry is its Fraction value: no float arithmetic happens."""
    xs = [0.1, -2.5, 1 / 3, 0.0, 7.25, 1e-9]
    for q in (2, 3, 5):
        exact = [Fraction(x) for x in xs]
        assert abel.abel_forward(q, xs) == abel.abel_forward(q, exact)
        assert abel.abel_inverse(q, xs) == abel.abel_inverse(q, exact)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 9, 10])
def test_abel_transforms_match_the_quadratic_definitions(q):
    """The linear-time recursions equal the definitions summed term by term
    (square q folds the sqrt(q) part away), for Fraction, float and QSurd
    entries, for lists mixing ints, Fractions, floats and QSurds, and every
    length from 0 to 16."""
    rng = random.Random(q)
    for n in range(17):
        fracs = [Fraction(rng.randint(-99, 99), rng.randint(1, 23)) for _ in range(n)]
        floats = [rng.uniform(-5.0, 5.0) for _ in range(n)]
        surds = [QSurd(q, a, Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for a in fracs]
        ints = [rng.randint(-50, 50) for _ in range(n)]
        roots = [QSurd(q, a, Fraction(i + 1, 3)) for i, a in enumerate(fracs)]
        mixed = [(ints, fracs, floats, roots)[(i + n) % 4][i] for i in range(n)]
        for seq in (fracs, floats, surds, mixed):
            for fast, slow in ((abel.abel_forward, abel_forward_quadratic),
                               (abel.abel_inverse, abel_inverse_quadratic)):
                got, want = fast(q, seq), slow(q, seq)
                assert len(got) == n
                assert [(v.a, v.b) for v in got] == [(v.a, v.b) for v in want]
                assert all(type(v.a) is Fraction and type(v.b) is Fraction for v in got)


def test_abel_roundtrip_exact():
    rng = random.Random(5)
    for q in (2, 3, 5, 10):
        for _ in range(6):
            psi = [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                   for _ in range(rng.randint(1, 12))]
            back = abel.abel_forward(q, abel.abel_inverse(q, psi))
            assert all(QSurd(q, p) == b for p, b in zip(psi, back))


def test_abel_relation_polynomials_exact():
    """Forward transform of the radial coefficients recovers the line kernel."""
    rng = random.Random(17)
    for q in (2, 3, 4):
        for deg in range(0, 7):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(deg + 1)]
            a_ex = abel.e_f_exact(q, coeffs, deg + 3)
            e_seq = [sqrt_q_power(q, -k) * a_ex[k] for k in range(len(a_ex))]
            fwd = abel.abel_forward(q, e_seq)
            zk = zline.z_kernel_lambda_poly(coeffs)
            for n, val in enumerate(fwd):
                assert val == QSurd(q, zk.get(n, Fraction(0)))


def test_e_f_identity_and_laplacian():
    a_id = abel.e_f_exact(2, [Fraction(1)], 4)
    assert a_id[0] == 1 and all(v == 0 for v in a_id[1:])
    for q in (2, 5):
        a_lap = abel.e_f_exact(q, [Fraction(0), Fraction(1)], 4)
        assert a_lap[0] == 1
        assert a_lap[1] == Fraction(-1, 2)  # E(1) = -1/(2 sqrt q) scaled by sqrt q
        assert all(v == 0 for v in a_lap[2:])


def test_e_f_float_matches_exact():
    q = 3
    coeffs = [Fraction(1, 2), Fraction(-1), Fraction(1, 4)]
    rad = abel.e_f_coefficients(
        q, lambda lam: 0.5 - lam + 0.25 * lam ** 2, kmax=6)
    a_ex = abel.e_f_exact(q, coeffs, 6)
    for k in range(7):
        assert abs(rad.A[k] - float(a_ex[k])) < 1e-12


@pytest.mark.parametrize("q, t, kmax", [(2, 1.0, 12), (3, 8.0, 20)])
def test_e_f_tail_bound_covers_the_closed_form(q, t, kmax):
    """e_f_coefficients records its tail bound and its line-kernel grid:
    the heat coefficients lie within tail_scaled of the ones assembled from
    the closed-form heat gradient kernel, summed much further out."""
    rad = abel.e_f_coefficients(q, lambda lam: np.exp(-t * np.asarray(lam)), kmax)
    ref = abel.radial_from_gradkernel(q, zline.heat_z_gradkernel(t, 400), kmax)
    assert 0 < rad.tail_scaled < 1e-11
    assert np.max(np.abs(rad.A - ref.A)) <= rad.tail_scaled
    assert sorted(rad.meta) == ["grid", "nmax", "tol"]
    assert rad.meta["tol"] == abel.E_F_TOL and rad.meta["nmax"] > kmax
    assert rad.meta["grid"] >= 4 * (rad.meta["nmax"] + 2)


def test_e_f_heat_decay_and_window_oracle():
    q = 2
    t = 1.0
    gradk = zline.heat_z_gradkernel(t, 80)
    rad = abel.radial_from_gradkernel(q, gradk, 40)
    # geometric decay of E(k) = A(k) q^{-k/2}
    for k in range(1, 12):
        assert abs(rad.e(k)) <= 2.2 * q ** (-k / 2.0)
    # window oracle: Chebyshev heat column on a T2 ball
    from flowtree.chebyshev import cheb_approx, cheb_column
    w, m, c = ball_window(2, 7, backend="float")
    model = cheb_approx(lambda lam: np.exp(-t * lam), 7)
    col = cheb_column(w, m, model, c)
    for x in col.safe:
        d = w.distance(x, c)
        want, errb = abel.homog_kernel_value(q, rad, w.level[x], w.level[c], d)
        assert abs(col.value(x) - want) <= col.err_bound + errb + 1e-12


def test_homog_kernel_value_trivial_and_cross():
    q = 3
    a_id = abel.e_f_exact(q, [Fraction(1)], 2)
    assert abel.homog_kernel_value_exact(q, a_id, -2, -2, 0) == Fraction(q) ** 2
    a_lap = abel.e_f_exact(q, [Fraction(0), Fraction(1)], 3)
    # y the parent of x: K = -1/(2 m(parent))
    lx, ly = -3, -2
    assert abel.homog_kernel_value_exact(q, a_lap, lx, ly, 1) == \
        -Fraction(1, 2) * Fraction(q) ** 2
    with pytest.raises(ValueError):
        abel.homog_kernel_value_exact(q, a_lap, 0, 0, 1)  # parity
    # q^e for positive, zero and negative e = -(lx + ly + d)/2, twice over
    # (the second time from the cache): the same Fractions
    for q in (2, 3, 10):
        a_lap = abel.e_f_exact(q, [Fraction(0), Fraction(1)], 3)
        for _ in range(2):
            for lx, ly, d in ((-5, -3, 0), (-2, -2, 0), (-3, -2, 1), (0, 0, 0),
                              (1, 0, 1), (2, 4, 0), (7, 3, 2)):
                got = abel.homog_kernel_value_exact(q, a_lap, lx, ly, d)
                assert type(got) is Fraction
                assert got == a_lap[d] * Fraction(q) ** (-(lx + ly + d) // 2)


def test_homog_weighted_l1_examples():
    q = 4
    a_id = abel.e_f_exact(q, [Fraction(1)], 6)
    rad = abel.RadialKernel(q, np.array([complex(v) for v in a_id]), 6)
    val, _ = abel.homog_weighted_opsum(q, rad, lambda d: 1.0, "plain")
    assert abs(val - 1.0) < 1e-14
    a_lap = abel.e_f_exact(q, [Fraction(0), Fraction(1)], 6)
    radl = abel.RadialKernel(q, np.array([complex(v) for v in a_lap]), 6)
    val, _ = abel.homog_weighted_opsum(q, radl, lambda d: 1.0, "plain")
    assert abs(val - 2.0) < 1e-14
    val, _ = abel.homog_weighted_opsum(q, radl, lambda d: 1.0 + d, "plain")
    assert abs(val - 3.0) < 1e-14


def test_homog_weighted_l1_matches_window_colsum():
    q = 2
    coeffs = [Fraction(1, 2), Fraction(2), Fraction(-1)]
    w, m, c = ball_window(q, 6)
    col = kernel_column_lambda_poly(w, m, coeffs, c)
    want, truncated = weighted_col_sums(w, m, col, lambda d, lx, ly: 1 + d // 2)
    assert not truncated
    a_ex = abel.e_f_exact(q, coeffs, 8)
    rad = abel.RadialKernel(q, np.array([complex(v) for v in a_ex]), 8)
    got, _ = abel.homog_weighted_opsum(q, rad, lambda d: 1.0 + d // 2, "plain",
                                       tail_check=False)
    assert abs(got - float(want)) < 1e-12


def test_heat_weighted_l1_uniform_in_q():
    vals = []
    for q in (2, 3, 5):
        gradk = zline.heat_z_gradkernel(1.0, 120)
        rad = abel.radial_from_gradkernel(q, gradk, 60)
        v, _ = abel.homog_weighted_opsum(q, rad, lambda d: math.exp(d / 10.0), "plain")
        vals.append(v)
    assert max(vals) / min(vals) < 3.0


def test_weighted_sum_dominated_tail_check():
    q = 2
    gradk = zline.heat_z_gradkernel(1.0, 60)
    rad = abel.radial_from_gradkernel(q, gradk, 8)  # kmax far too small
    with pytest.raises(ValueError, match="dominated-tail"):
        abel.homog_weighted_opsum(q, rad, lambda d: math.exp(6.0 * d), "plain")


@functools.lru_cache(maxsize=None)
def _gradkernels():
    """Real (heat) and complex (wave packet) gradient kernels, nmax 80 to
    13,000."""
    from flowtree.bumps import schrodinger_multiplier
    return {"heat t=1": zline.heat_z_gradkernel(1.0, 80),
            "heat t=2e6": zline.heat_z_gradkernel(2e6, 13000),
            "wave t=3": zline.z_grad_multiplier_kernel(
                schrodinger_multiplier(3.0), 200).one_sided(),
            "wave t=8": zline.z_grad_multiplier_kernel(
                schrodinger_multiplier(8.0), 13000).one_sided()}


@pytest.mark.parametrize("q", [2, 3, 5, 64, 4096])
def test_radial_sums_match_the_numpy_scalar_loops(q):
    """The radial recursion and the four closed-form sums, run on Python
    numbers, give bit for bit what the numpy-scalar loops give (those
    divide by q; numpy's complex division multiplies by 1/q)."""
    for name, gradk in _gradkernels().items():
        kmax = len(gradk) - 3
        rad = abel.radial_from_gradkernel(q, gradk, kmax)
        want = radial_numpy_scalars(q, gradk, kmax)
        assert rad.A.dtype == want.dtype and np.array_equal(rad.A, want), name
        weight = lambda d: math.exp(d / 5000.0)
        for variant in ("plain", "grad_x", "gradstar_z", "grad_both"):
            got = abel.homog_weighted_opsum(q, rad, weight, variant, tail_check=False)
            assert got == opsum_numpy_scalars(q, want, kmax, weight, variant), \
                (name, variant)


def test_weighted_sum_overflowing_weight_names_the_distance():
    rad = abel.radial_from_gradkernel(2, _gradkernels()["heat t=2e6"], 800)
    with pytest.raises(zline.NumericalError, match="weight at distance 710 overflows"):
        abel.homog_weighted_opsum(2, rad, math.exp, "grad_x", tail_check=False)


def test_e_f_real_for_real_symbol():
    rad = abel.e_f_coefficients(2, lambda lam: np.exp(-0.7 * lam), kmax=10)
    assert np.max(np.abs(rad.A.imag)) < 1e-13


def test_sharpness_radial_t0_sanity():
    sh = abel.sharpness_radial(2, 0.0, 10)
    vals = [abs(v * 2 ** (-k / 2.0)) for k, v in sh.items()]
    # no oscillation: coefficients decay geometrically
    assert vals[8] < vals[0]
    assert all(math.isfinite(v) for v in vals)


def test_sharpness_lower_bound_window():
    """Stationary-phase floor at t=20: scaled coefficients at least c/sqrt(t)."""
    q, t = 2, 20.0
    sh = abel.sharpness_radial(q, t, int(t / 2) + 2)
    for k, v in sh.items():
        if t / 4 <= k + 1 <= t / 2:
            assert abs(v) >= 0.05 / math.sqrt(t)


def test_sharpness_window_oracle():
    """Radial oscillating coefficients vs a Chebyshev column combination."""
    from flowtree.bumps import chi0
    from flowtree.chebyshev import cheb_approx, cheb_column
    from flowtree.localops import indicator
    q, t = 2, 6.0
    sh = abel.sharpness_radial(q, t, 8)
    w, m, c = ball_window(q, 8, backend="float")
    fn = lambda lam: np.exp(1j * t * lam) * chi0(lam)
    model = cheb_approx(fn, 40)
    # columns of F(L) grad: apply grad to the indicator first
    g = apply_gradient(w, m, indicator(w, c))
    gc = cheb_apply(w, m, model, g)
    # pick x on the ancestor line (x not strictly below y): scaled combo
    x = c
    for k in (0, 1, 2):
        val = complex(gc.values.get(x, 0)) / m.as_float(c)
        pred = sh[k] * q ** (-k / 2.0) * q ** (-(w.level[x] + w.level[c]) / 2.0)
        assert abs(val - pred) < 1e-6 + 20 * model.sup_err
        if w.parent(x) is None:
            break
        x = w.parent(x)
        # next k compares K(p^k(c), c)


def test_qsurd_hashes_as_the_rational_it_equals():
    """A QSurd with no sqrt(q) part equals its rational value and hashes as
    it, so sets and dicts treat the two as one key."""
    half = QSurd(2, Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert len({half, Fraction(1, 2), 0.5}) == 1
    assert len({QSurd(3, 2), 2, 2.0, Fraction(2)}) == 1
    assert QSurd(4, 1, 1) == 3 and hash(QSurd(4, 1, 1)) == hash(3)  # sqrt(4) folds
    assert len({QSurd(2, 1, 1), QSurd(2, 1, 1), QSurd(2, 1)}) == 2


def test_qsurd_equality_is_transitive_across_bases():
    """Rational QSurds over different bases equal each other exactly when
    their values do, as their hashes say; a sqrt part keeps the base."""
    a, b = QSurd(3, 2), QSurd(5, 2)
    assert a == 2 and 2 == b and a == b and hash(a) == hash(b) == hash(2)
    assert QSurd(3, Fraction(1, 2)) != QSurd(5, Fraction(1, 3))
    assert len({a, b, QSurd(7, Fraction(4, 2)), 2.0}) == 1
    assert QSurd(3, 1, 1) != QSurd(5, 1, 1)
    assert QSurd(3, 1, 1) != QSurd(3, 1) and QSurd(3, 1) != QSurd(3, 1, 1)


def test_qsurd_is_unequal_to_non_numbers():
    x = QSurd(2, Fraction(1, 2), 1)
    for other in ("x", "1/2", None, [1], float("nan"), float("inf")):
        assert not x == other
        assert x != other
    assert QSurd(2) != "0" and QSurd(2) != None  # noqa: E711
