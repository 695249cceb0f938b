"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test registers a PASS/FAIL line that the terminal summary prints.
Expected values marked as derived in the statements below were computed by
the stated independent oracles (enumeration, convolution, quadrature),
never by the code path under test.
"""

import functools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import record_acceptance, riesz_quadrature
from flowtree import ball_window, constant_ratio_window, safe_region, spine_window
from flowtree import abel, analysis, flowkernel, quotient, zline
from flowtree.bumps import chi0, imaginary_power_cut
from flowtree.exactnum import QSurd
from flowtree.localops import kernel_column_lambda_poly, kernel_column_poly
from flowtree.ncpoly import Z1, Z2, NcPolynomial

GOLDEN = (math.sqrt(5) - 1) / 2


def finish(num, ok, detail, t0, limit):
    elapsed = time.time() - t0
    line = f"{detail} [{elapsed:.1f}s]"
    record_acceptance(num, ok and elapsed < limit, line)
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} runtime {elapsed:.1f}s > {limit}s"


def test_criterion_01_abel_direct_equivalence():
    """q in {2,3,4}, monomials up to degree 6, all pairs within distance 6:
    radial formula equals direct columns exactly (rational) and to 1e-10
    (float quadrature route)."""
    t0 = time.time()
    ok = True
    worst_float = 0.0
    for q, center_level in ((2, 0), (2, 3), (3, 0), (4, 0)):
        w, m, c = ball_window(q, 7, center_level=center_level)
        lc = w.level[c]
        for k in range(0, 7):
            coeffs = [Fraction(0)] * k + [Fraction(1)]
            col = kernel_column_lambda_poly(w, m, coeffs, c)
            a_exact = abel.e_f_exact(q, coeffs, 8)
            rad = abel.e_f_coefficients(q, lambda lam, k=k: np.asarray(lam) ** k,
                                        kmax=8)
            for x in w.vertices:
                d = w.distance(x, c)
                if d > 6:
                    continue
                direct = col.value(x)
                radial = abel.homog_kernel_value_exact(q, a_exact,
                                                       w.level[x], lc, d)
                if direct != radial:
                    ok = False
                fval, _ = abel.homog_kernel_value(q, rad, w.level[x], lc, d)
                worst_float = max(worst_float, abs(fval - float(direct)))
    ok = ok and worst_float <= 1e-10
    finish(1, ok, f"abel/direct exact; float dev {worst_float:.2e}", t0, 10.0)


def test_criterion_02_abel_roundtrip():
    """Forward transform inverts the inversion formula exactly, 50 random
    rational sequences for each q in {2,3,5,10}."""
    t0 = time.time()
    rng = random.Random(20240809)
    ok = True
    for q in (2, 3, 5, 10):
        for _ in range(50):
            psi = [Fraction(rng.randint(-99, 99), rng.randint(1, 23))
                   for _ in range(rng.randint(1, 14))]
            back = abel.abel_forward(q, abel.abel_inverse(q, psi))
            if not all(QSurd(q, p) == b for p, b in zip(psi, back)):
                ok = False
    finish(2, ok, "inverse/forward round-trip exact, 50 x 4 sequences", t0, 5.0)


def test_criterion_03_line_base_cases():
    """One-step kernel values (1, -1/2, -1/2) to 1e-14; Parseval residual of
    a smooth bump below 1e-10."""
    t0 = time.time()
    zk = zline.z_multiplier_kernel(lambda lam: lam, 6)
    dev = max(abs(zk.value(0) - 1.0), abs(zk.value(1) + 0.5),
              abs(zk.value(-1) + 0.5),
              max(abs(zk.value(n)) for n in range(2, 7)))
    bump = lambda lam: chi0(lam - 0.9)
    zb = zline.z_multiplier_kernel(bump, 240)
    resid = zline.parseval_residual(bump, zb)
    ok = dev <= 1e-14 and resid <= 1e-10
    finish(3, ok, f"one-step kernel dev {dev:.1e}; Parseval {resid:.1e}", t0, 10.0)


def _within_quadrature(w, m, pairs) -> bool:
    """The closed-form Riesz values in both orders of each pair lie within
    the quadrature oracle's error estimate."""
    both = pairs + [(y, x) for x, y in pairs]
    vals, _ = analysis.riesz_kernel_values(w, m, both)
    want, errs = riesz_quadrature(w, m, both)
    return all(abs(v - u) <= e for v, u, e in zip(vals, want, errs))


def test_criterion_04_riesz_skew_identity():
    """Antisymmetrized Riesz kernel equals the closed skew form to 1e-6 at
    all pairs within distance 8, on the line, the binary canonical tree,
    and a golden-ratio flow window; there the closed-form Riesz values lie
    within the subordination quadrature's error estimate."""
    t0 = time.time()
    worst = 0.0
    oracle = True
    # the line
    w, m, c = ball_window(1, 12)
    pairs = sorted((x, c) for x in w.vertices if 0 < w.distance(x, c) <= 8)
    worst = max(worst, analysis.riesz_skew_check(w, m, pairs).meta["max_dev"])
    oracle &= _within_quadrature(w, m, pairs)
    # sanity pin of the nearest-neighbour constant
    p = w.parent(c)
    skew_1 = analysis.riesz_skew_closed(w, m, p, c)
    assert abs(abs(skew_1) - 8 * math.sqrt(2) / (3 * math.pi)) < 1e-12
    assert abs(abs(skew_1) - 1.200422) < 1e-6
    # binary canonical tree
    w2, m2, c2 = ball_window(2, 9)
    pairs2 = sorted((x, c2) for x in w2.vertices if 0 < w2.distance(x, c2) <= 8)
    worst = max(worst, analysis.riesz_skew_check(w2, m2, pairs2).meta["max_dev"])
    oracle &= _within_quadrature(w2, m2, pairs2)
    # golden-ratio flow
    wg, mg, bg = constant_ratio_window((GOLDEN, 1 - GOLDEN), depth=13, up=16,
                                       backend="float")
    anchor = next(v for v in wg.vertices if wg.level[v] == wg.level[bg] - 5)
    pg = sorted((x, anchor) for x in wg.vertices
                if 0 < wg.distance(x, anchor) <= 8)
    worst = max(worst, analysis.riesz_skew_check(wg, mg, pg).meta["max_dev"])
    oracle &= _within_quadrature(wg, mg, pg)
    finish(4, worst <= 1e-6 and oracle,
           f"max skew deviation {worst:.2e} over line/binary/golden; "
           f"within the quadrature's error estimate: {oracle}", t0, 10.0)


def test_criterion_05_transference_exactness():
    """Quotient construction validates exactly and fiber averaging equals the
    target-side kernel for 20 random words of degree at most 4, for each of
    the three ratio profiles."""
    t0 = time.time()
    rng = random.Random(1234)
    ok = True
    deg = 4
    for ratios, q in (((Fraction(1, 2), Fraction(1, 2)), 2),
                      ((Fraction(3, 4), Fraction(1, 4)), 4),
                      ((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)), 3)):
        target, tmeas, base = constant_ratio_window(ratios, depth=2 * deg, up=0)
        sub = quotient.build_submersion_rational(target, tmeas, q)
        rep = quotient.validate_submersion(sub)
        ok = ok and rep.ok
        t_anchor = next(v for v in target.vertices
                        if target.level[v] == target.level[base] - deg)
        s_anchor = next(s for s, t in sub.mapping.items()
                        if t == t_anchor and s in safe_region(sub.source, deg))
        done = 0
        while done < 20:
            terms = {}
            for _ in range(rng.randint(1, 5)):
                word = tuple(rng.choice((Z1, Z2))
                             for _ in range(rng.randint(0, deg)))
                terms[word] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            poly = NcPolynomial(terms)
            if not poly.terms or poly.degree > deg:
                continue
            done += 1
            col = kernel_column_poly(sub.source, sub.source_measure, poly,
                                     s_anchor)
            pushed = quotient.fiber_average_kernel(sub, col)
            direct = kernel_column_poly(target, tmeas, poly, t_anchor)
            for v in set(pushed.values) | set(direct.values):
                if v in pushed.safe and v in direct.safe:
                    if pushed.value(v) != direct.value(v):
                        ok = False
    finish(5, ok, "3 ratio profiles validated; 20 random words each, exact",
           t0, 2.0)


def test_criterion_06_rationalization_bounds():
    """Golden flow at q in {8,64,512}: every per-vertex error within
    (q0-1)/q for the binary tree, and kernel deviations strictly shrink."""
    t0 = time.time()
    w, m, b = constant_ratio_window((GOLDEN, 1 - GOLDEN), depth=6, up=0,
                                    backend="float")
    ok = True
    for q in (8, 64, 512):
        _, rows, err = quotient.rationalize_flow(w, m, q)
        if not all(r.error <= (2 - 1) / q + 1e-15 for r in rows):
            ok = False
    safe2 = sorted(safe_region(w, 2))
    anchor = safe2[len(safe2) // 2]
    pairs = [(x, anchor) for x in safe2[::5][:10]]
    tbl = quotient.perturbation_probe(
        w, m, [Fraction(0), Fraction(0), Fraction(1)], [8, 64, 512], pairs)
    devs = [r["max_kernel_dev"] for r in tbl]
    mono = all(a > b for a, b in zip(devs, devs[1:]))
    ok = ok and mono
    finish(6, ok, f"errors within 1/q; deviations {'|'.join(f'{d:.2e}' for d in devs)}",
           t0, 10.0)


def test_criterion_07_heat_sweep_scaling():
    """Weighted heat rows over t in {1,4,16,64}, q in {2,3,5}: plain row
    within a factor 10, gradient rows slope -0.5 +- 0.1, two-sided row
    -1.0 +- 0.15."""
    t0 = time.time()
    rep = analysis.weighted_heat_sweep(1.0, [1.0, 4.0, 16.0, 64.0], [2, 3, 5])
    ok = rep.fit["heat_variation"]["overall"] <= 10.0
    slopes = []
    for name, target, band in (("grad_heat", -0.5, 0.1),
                               ("heat_gradstar", -0.5, 0.1),
                               ("grad_heat_gradstar", -1.0, 0.15)):
        for q, s in rep.fit[name].items():
            slopes.append(s)
            if abs(s - target) > band:
                ok = False
    finish(7, ok, f"heat x{rep.fit['heat_variation']['overall']:.2f}; "
           f"slopes {min(slopes):.2f}..{max(slopes):.2f}", t0, 10.0)


def test_criterion_08_level_sum_decay():
    """Level-slice gradient sums decay like 1/(1+t) (slope -1 +- 0.1) on the
    binary canonical tree and on a rational nonhomogeneous flow."""
    t0 = time.time()
    ts = [1, 2, 4, 8, 16, 32, 64, 128]
    w2, m2, c2 = ball_window(2, 4)
    s1 = analysis.level_sum_estimate(
        functools.partial(flowkernel.chain_of, w2, m2, c2), ts).fit["slope"]
    w34, m34, b34 = constant_ratio_window((Fraction(3, 4), Fraction(1, 4)),
                                          depth=3, up=6)
    chain34 = functools.partial(flowkernel.chain_of, w34, m34, b34)
    s2 = analysis.level_sum_estimate(chain34, ts).fit["slope"]
    s3 = analysis.level_sum_estimate(chain34, ts, orientation="z").fit["slope"]
    ok = all(abs(s + 1.0) <= 0.1 for s in (s1, s2, s3))
    finish(8, ok, f"slopes {s1:.3f} (binary), {s2:.3f}/{s3:.3f} (3:1 flow)",
           t0, 10.0)


def test_criterion_09_sharpness_exponent():
    """Oscillating-multiplier lower-bound functional grows like t^1.5 +- 0.2
    at q=2 over [10,40]; Sobolev-norm proxies grow with exponents 1 and 2."""
    t0 = time.time()
    rep = analysis.sharpness_fit(2, list(range(10, 41)))
    slope = rep.fit["slope"]
    sob = analysis.sobolev_growth(
        list(np.exp(np.linspace(np.log(30.0), np.log(300.0), 12))))
    ok = abs(slope - 1.5) <= 0.2
    for s in (1, 2):
        if abs(sob[s]["slope"] - s) > 0.2:
            ok = False
    finish(9, ok, f"functional slope {slope:.3f}; Sobolev "
           f"{sob[1]['slope']:.3f}/{sob[2]['slope']:.3f}", t0, 10.0)


def test_criterion_10_mh_dyadic_gradient_slope():
    """Dyadic multiplier pieces of a bounded oscillating symbol: gradient
    column sums fall like 2^{-l/2} over l in 0..6 (slope -0.5 +- 0.1 in
    log2), on a high-degree tree where branching-tail preasymptotics are
    negligible."""
    t0 = time.time()
    rep = analysis.mh_dyadic_norms(imaginary_power_cut(1.0), range(7), q=64)
    slope = rep.fit["gradsum_slope_log2"]
    ok = abs(slope + 0.5) <= 0.1
    finish(10, ok, f"gradient-sum slope {slope:.3f} (q=64)", t0, 10.0)


def test_criterion_11_imaginary_powers():
    """Gamma-formula kernel of the imaginary power: |k(n)| n within a 1.2x
    band on [10,200]; quadrature matches the formula to 1e-8 on [1,50]."""
    t0 = time.time()
    kern, quads, worst = zline.imaginary_power_kernel(1.0, 200)
    band = [abs(kern.value(n)) * n for n in range(10, 201)]
    ratio = max(band) / min(band)
    ok = ratio <= 1.2 and worst <= 1e-8
    finish(11, ok, f"band x{ratio:.4f}; quad-vs-Gamma {worst:.2e}", t0, 10.0)


def test_criterion_11_quadrature_meets_gamma_to_rounding():
    """Beside criterion 11: the graded Gauss-Legendre quadrature meets the
    Gamma formula within 1e-13 on [1,50], at alpha in {1, -1, 0.5, 2}."""
    for alpha in (1.0, -1.0, 0.5, 2.0):
        _, _, worst = zline.imaginary_power_kernel(alpha, 200)
        assert worst <= 1e-13, alpha


def test_criterion_12_spectrum_probe():
    """Averaging-operator residuals on truncated waves decay like d^{-1/2}
    (exponent -0.5 +- 0.1, theta in {0, pi/3, pi}, d up to 200); dense
    eigenvalues of window compressions stay within [0, 2] to 1e-10."""
    t0 = time.time()
    w, m, o = constant_ratio_window((Fraction(1),), depth=206, up=4)
    rep = analysis.spectrum_probe(w, m, o, [0.0, math.pi / 3, math.pi],
                                  [25, 50, 100, 200])
    ok = all(abs(s + 0.5) <= 0.1 for s in rep.fit["slopes"].values())
    eigs = []
    for ww, mm in ((ball_window(2, 6)[:2]),
                   (constant_ratio_window((GOLDEN, 1 - GOLDEN), depth=7, up=2,
                                          backend="float")[:2]),
                   (constant_ratio_window((Fraction(1),), depth=400, up=2)[:2])):
        lo, hi = analysis.rayleigh_bounds(ww, mm)
        eigs.append((lo, hi))
        if lo < -1e-10 or hi > 2 + 1e-10:
            ok = False
    finish(12, ok, f"residual slopes {sorted(round(s, 3) for s in rep.fit['slopes'].values())}; "
           f"eig ranges ok", t0, 10.0)


def test_criterion_13_divergence_increments():
    """Skew-Riesz column mass below a branching vertex grows harmonically:
    doubling increments within 25 percent of log 2 for D in {16,32,64}."""
    t0 = time.time()
    w, m, x1 = spine_window(depth=132)
    rep = analysis.divergence_probe(w, m, x1, [16, 32, 64])
    incs = rep.fit["increments"]
    ok = all(abs(incs[d] / math.log(2.0) - 1.0) <= 0.25 for d in (16, 32, 64))
    detail = ", ".join(f"D={d}: {incs[d]:.4f}" for d in (16, 32, 64))
    finish(13, ok, f"{detail} vs log2={math.log(2.0):.4f}", t0, 10.0)


def _ktilde_doubling_sum(d: int) -> float:
    """sum_{k=D+1}^{2D} ktilde_z(k) in digamma form: ktilde_z(k) =
    (sqrt(2)/pi) (1/(k - 1/2) + 1/(k + 1/2))."""
    from scipy.special import psi
    return (math.sqrt(2.0) / math.pi) * (psi(2 * d + 0.5) - psi(d + 0.5)
                                         + psi(2 * d + 1.5) - psi(d + 1.5))


def test_criterion_13_increments_are_ktilde_sums():
    """Criterion 13's increments are exactly sum_{k=D+1}^{2D} ktilde_z(k)
    (every depth-n slice below x1 has mass m(x1)), whose limit is
    (2 sqrt(2)/pi) log 2, not log 2; the gap to it falls like
    1/(pi sqrt(2) D)."""
    w, m, x1 = spine_window(depth=132)
    incs = analysis.divergence_probe(w, m, x1, [16, 32, 64]).fit["increments"]
    for d, inc in incs.items():
        want = math.fsum(analysis.ktilde_z(np.arange(d + 1, 2 * d + 1)))
        assert abs(inc - want) <= 1e-12
        assert abs(_ktilde_doubling_sum(d) - want) <= 1e-12
    limit = (2 * math.sqrt(2.0) / math.pi) * math.log(2.0)
    assert abs(_ktilde_doubling_sum(2 ** 20) - limit) <= 1e-6
    for d in (2 ** 10, 2 ** 20):
        gap = limit - _ktilde_doubling_sum(d)
        assert abs(gap * d - 1 / (math.pi * math.sqrt(2.0))) <= 1e-3
