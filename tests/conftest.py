"""Shared fixtures plus the acceptance-summary hook.

Acceptance tests register one line each; the terminal summary prints them
so every criterion shows an explicit pass/fail verdict in the pytest output.
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

ACCEPTANCE_LINES = []


def riesz_quadrature(window, measure, pairs, spec=None):
    """The Riesz kernel by subordination quadrature, the oracle of the
    closed-form route: the summed quadrature kernel and its last decade
    profiled at every pair (one array call per chain, pairs on the end
    more pairs share), one Richardson step for the tail past t_cut
    (contributions decay like 1/t there: the last decade over 9), and the
    error estimate |correction| / 3 + 1e-12, inf on a truncated chain."""
    from flowtree import analysis, flowkernel
    total, last = analysis._riesz_gradkernels(spec or analysis.QuadratureSpec())
    lx, ly, j0 = np.array([(window.level[x], window.level[y],
                            window.level[window.lca(x, y)]) for x, y in pairs]).T
    uses = Counter(v for pair in pairs for v in pair)
    ends = np.array([x if uses[x] >= uses[y] else y for x, y in pairs])
    vals, tails = np.zeros((2, len(pairs)), dtype=complex)
    truncated = np.zeros(len(pairs))
    for e in dict.fromkeys(ends.tolist()):
        chain = flowkernel.chain_of(window, measure, e, len(total) - 1)
        idx = np.flatnonzero(ends == e)
        for out, k in ((vals, total), (tails, last)):
            out[idx] = flowkernel.variant_value(k, chain, lx[idx], ly[idx],
                                                j0[idx], "grad_x")
        if chain.truncated:
            truncated[idx] = np.inf
    return vals + tails / 9.0, np.abs(tails / 9.0) / 3.0 + 1e-12 + truncated


def grad_heat_kernel_column(window, measure, t, y, side="x"):
    """Gradient of the heat column in the first (side 'x') or second
    (side 'y') variable: K(x,y) - K(parent(x), y) resp. K(x,y) - K(x, parent(y)),
    from the ancestor-profile formula, exact at t = 0."""
    from flowtree import analysis
    if side not in ("x", "y"):
        raise ValueError("side must be 'x' or 'y'")
    variant = "grad_x" if side == "x" else "gradstar_z"
    return analysis._profile_column(window, measure, analysis._heat_gradk(t), y, variant)


def meeting_levels(window, y):
    """level(lca(x, y)) for every window vertex x, in one top-down pass.

    A vertex on y's ancestor line (y included) meets y at its own level;
    any other vertex meets y where its parent does: the dict walk that
    analysis._meeting_levels's arrays are checked against.
    """
    on_chain = set(window.ancestors(y))
    meet = {}
    stack = [(window.apex, window.level[window.apex])]
    while stack:
        v, j = stack.pop()
        if v in on_chain:
            j = window.level[v]
        meet[v] = j
        stack.extend((c, j) for c in window.children(v))
    return meet


def doubled_grid_two_pass(fn, G, nmax, odd):
    """The line kernel of F(1 - cos theta) (odd: of the odd symbol
    sin(theta) F(1 - cos theta), times -2i), |n| <= nmax, by trapezoid sums
    on G and then on 2G points, each grid's symbol evaluated and
    transformed on its own, and the most any value moved between them:
    the two-pass guard that zline._doubled_grid's aliased image replaces.
    Returns the 2G kernel and that move."""
    out = None
    for g in (G, 2 * G):
        theta = 2 * np.pi * np.arange(g) / g
        symbol = np.asarray(fn(1.0 - np.cos(theta)), dtype=complex)
        assert np.all(np.isfinite(symbol))
        if odd:
            k = -2j * np.fft.ifft(np.sin(theta) * symbol)[np.arange(-nmax, nmax + 1) % g]
        else:
            k = np.fft.ifft(symbol)[np.arange(-nmax, nmax + 1) % g]
        moved = None if out is None else float(np.max(np.abs(k - out)))
        out = k
    return out, moved


def radial_numpy_scalars(q, gradk, kmax):
    """A(d) = gradk(d+1) + A(d+2)/q on a complex128 array, one numpy scalar
    per step: the loop abel.radial_from_gradkernel's Python-number
    recursion replaces, and its oracle.  Returns A(0..kmax)."""
    nmax = len(gradk) - 1
    A = np.zeros(nmax + 2, dtype=complex)
    for d in range(nmax - 1, -1, -1):
        A[d] = gradk[d + 1] + A[d + 2] / q
    return A[:kmax + 1].copy()


def opsum_numpy_scalars(q, A, kmax, weight, variant):
    """The closed-form sphere sums of abel.homog_weighted_opsum on numpy
    scalars of the complex128 array A, dividing by q: the loop its
    Python-number sums replace, and their oracle.  Returns (total, tail)
    without the dominated-tail check."""
    from flowtree import abel
    terms = np.zeros(kmax - 1 if variant == "grad_both" else kmax, dtype=float)
    for d in range(len(terms)):
        s = abel.sphere_weight_scaled(q, d)
        if variant == "plain":
            val = abs(A[d]) * s
        elif variant in ("grad_x", "gradstar_z"):
            b_near = abs(A[d] - A[d + 1] / q)
            b_far = abs(A[d] - A[d - 1]) if d >= 1 else 0.0
            val = b_near + (s - 1.0) * b_far
        elif d == 0:
            val = abs(A[0] - 2 * A[1] / q + A[0] / q)
        else:
            b_comp = abs(A[d] - A[d - 1] - A[d + 1] / q + A[d] / q)
            b_inc = abs(A[d] - 2 * A[d - 1] + (A[d - 2] if d >= 2 else 0.0))
            val = 2.0 * b_comp + max(s - 2.0, 0.0) * b_inc
        terms[d] = weight(d) * val
    return float(np.sum(terms)), float(np.sum(terms[-4:]))


def sobolev_norms_full_grid(t_grid):
    """The L2 Sobolev norms (s = 1, 2) of exp(i t lam) chi0(lam) that
    analysis.sobolev_growth fits, with the wave packet evaluated on the
    whole grid and the weights (1 + xi^2)^s recomputed for every t: the
    loop it replaces, and its oracle."""
    from flowtree.bumps import chi0
    grid, span = 1 << 15, 8.0
    lam = (np.arange(grid) - grid / 2) * (span / grid)
    xi = (np.arange(grid) - grid / 2) * (2 * np.pi / span)
    base = chi0(lam)
    norms = {1: [], 2: []}
    for t in t_grid:
        f = np.exp(1j * t * lam) * base
        power = np.abs(np.fft.fftshift(np.fft.fft(np.fft.ifftshift(f))) * (span / grid)) ** 2
        for s, vals in norms.items():
            vals.append(float(np.sqrt(np.sum((1 + xi ** 2) ** s * power)
                                      / (2 * np.pi) * (2 * np.pi / span))))
    return norms


def profile_value_exact(gradk, window, measure, v, lx, lz, j0):
    """The profile sum of a pair at levels lx, lz meeting at level j0, in
    exact arithmetic over the window ancestors of v at levels j0 and up,
    with their rational measures: the oracle of flowkernel's float sums."""
    assert measure.backend == "rational"
    total = Fraction(0)
    for a in window.ancestors(v):
        J = window.level[a]
        if J < j0:
            continue
        g = gradk.get(2 * J - lx - lz + 1)
        if g:
            total += g / measure.values[a]
    return total


def sqrt_q_power(q, k):
    """q**(k/2) as a QSurd, for integer k (k may be negative)."""
    from flowtree.exactnum import QSurd
    half, odd = divmod(k, 2)
    base = Fraction(q) ** half
    return QSurd(q, 0, base) if odd else QSurd(q, base, 0)


def abel_forward_quadratic(q, phi):
    """J_q(phi)(j) = q^{j/2} [phi(j) + ((q-1)/q) sum_{k>=1} q^k phi(j+2k)],
    every tail summed afresh: the reference of abel.abel_forward."""
    from flowtree.exactnum import QSurd
    phi = [x if isinstance(x, QSurd) else QSurd(q, Fraction(x)) for x in phi]
    n = len(phi)
    out = []
    for j in range(n):
        tail = QSurd(q)
        for k in range(1, (n - 1 - j) // 2 + 1):
            tail = tail + Fraction(q) ** k * phi[j + 2 * k]
        out.append(sqrt_q_power(q, j) * (phi[j] + tail * Fraction(q - 1, q)))
    return out


def abel_inverse_quadratic(q, psi):
    """sum_{j>=0} q^{-(m+2j)/2} (psi(m+2j) - psi(m+2j+2)), every sum taken
    afresh: the reference of abel.abel_inverse."""
    from flowtree.exactnum import QSurd
    psi = [x if isinstance(x, QSurd) else QSurd(q, Fraction(x)) for x in psi]
    n = len(psi)

    def at(i):
        return psi[i] if i < n else QSurd(q)

    out = []
    for m in range(n):
        acc = QSurd(q)
        for j in range(0, (n - m) // 2 + 1):
            acc = acc + sqrt_q_power(q, -(m + 2 * j)) * (at(m + 2 * j) - at(m + 2 * j + 2))
        out.append(acc)
    return out


def validate_submersion_fraction(sub):
    """quotient.validate_submersion with every compatibility check made on
    the masses themselves, m2(t) m1(v) against m2(tp) times the slice's
    summed masses, in Fraction arithmetic on the rational backend: the
    reference of the integer cross-products."""
    from flowtree.quotient import SubmersionReport
    src, tgt = sub.source, sub.target
    m1, m2 = sub.source_measure.values, sub.target_measure.values
    pi = sub.mapping
    exact = (sub.source_measure.backend == "rational"
             and sub.target_measure.backend == "rational")
    bad = {kind: [] for kind in (
        "unmapped", "level_shift", "pred_intertwine", "succ_onto", "compatibility")}
    counts = {"pred": 0, "succ": 0, "level": len(src), "compat": 0}

    shift = None
    for v, lv in src.level.items():
        tv = pi.get(v)
        tl = tgt.level.get(tv)
        if tl is None:
            bad["unmapped"].append(v)
            continue
        if shift is None:
            shift = tl - lv
        elif tl - lv != shift:
            bad["level_shift"].append(v)
        p, tp = src.pred.get(v), tgt.pred.get(tv)
        if p is not None and tp is not None:
            counts["pred"] += 1
            if pi.get(p) != tp:
                bad["pred_intertwine"].append(v)
        if not src.is_complete(v):
            continue
        kids = src.children(v)
        slices = {}
        for c in kids:
            t = pi.get(c)
            slices[t] = slices[t] + m1[c] if t in slices else m1[c]
        if tgt.is_complete(tv):
            counts["succ"] += 1
            if slices.keys() != set(tgt.children(tv)):
                bad["succ_onto"].append(v)
        off = {}
        for t, mass in slices.items():
            tp = tgt.pred.get(t)
            if tp is not None:
                lhs, rhs = m2[t] * m1[v], m2[tp] * mass
                off[t] = (lhs != rhs if exact else abs(float(lhs) - float(rhs))
                          > 1e-10 * max(abs(float(lhs)), 1.0))
        checked = [c for c in kids if pi.get(c) in off]
        counts["compat"] += len(checked)
        bad["compatibility"] += [c for c in checked if off[pi[c]]]

    if bad["unmapped"]:
        return SubmersionReport(False, [("unmapped", v) for v in bad["unmapped"]])
    if bad["compatibility"]:
        rank = {v: i for i, v in enumerate(src.level)}
        bad["compatibility"].sort(key=rank.__getitem__)
    violations = [(kind, v) for kind, vs in bad.items() for v in vs]
    return SubmersionReport(not violations, violations, shift, counts)


def weighted_col_sums(window, measure, column, weight):
    """sum over safe x of w(d(x,y), level(x), level(y)) |K(x,y)| m(x), over
    the window's vertices: the window oracle of the closed-form and profile
    column sums.

    Returns (value, truncated): truncated flags support reaching vertices
    that are unsafe or sit on the window boundary, where tail mass may be
    missing.
    """
    y = column.anchor
    ly = window.level[y]
    total = 0
    truncated = False
    dist = window.defect_distances()
    for v, x in column.values.items():
        if not x:
            continue
        if v not in column.safe:
            truncated = True
            continue
        if dist.get(v, 0) == 0:
            truncated = True
        d = window.distance(v, y)
        total = total + weight(d, window.level[v], ly) * abs(x) * measure.values[v]
    return total, truncated


def apply_gradient(window, measure, f):
    """(grad f)(x) = f(x) - f(parent(x)), on the stencil core: weights
    (1, -1, 0, 1) read the vertex and its parent."""
    from flowtree import localops
    return localops._stencil(window, measure, f, lambda fv, fp, fc: fv - fp, (1, -1, 0, 1))


def apply_lambda_poly(window, measure, coeffs, f):
    """sum_k coeffs[k] L^k f for any window function f, as a sum of powers
    in k order, each L^k f one more Laplacian stencil: the oracle of
    kernel_column_lambda_poly's Horner evaluation."""
    from flowtree import localops

    def powers(f):
        for k in range(len(coeffs)):
            if k:
                f = localops.apply_laplacian(window, measure, f)
            yield f
    return localops._combine(window, zip(coeffs, powers(f)))


def z_kernel_power_sum(coeffs):
    """The exact line kernel of sum_k coeffs[k] L^k as a sum of convolution
    powers of the one-step kernel, in k order: the oracle of
    zline.z_kernel_lambda_poly's Horner evaluation."""
    base = {-1: Fraction(-1, 2), 0: Fraction(1), 1: Fraction(-1, 2)}
    out, power = {}, {0: Fraction(1)}
    for k, c in enumerate(coeffs):
        if k:
            new = {}
            for i, a in power.items():
                for j, b in base.items():
                    new[i + j] = new.get(i + j, Fraction(0)) + a * b
            power = new
        for n, a in power.items():
            out[n] = out.get(n, Fraction(0)) + Fraction(c) * a
    return {n: a for n, a in out.items() if a}


def cheb_apply(window, measure, model, f):
    """The interpolant of F applied to any window function by the forward
    three-term recurrence on Laplacian stencils, T_1 = (L - I) T_0 and
    T_{k+1} = 2 (L - I) T_k - T_{k-1}: the per-vertex cross-check of
    cheb_column's ball sweep."""
    from flowtree import localops

    def iterates(f):
        prev = None
        for k in range(len(model.coef)):
            if k:
                g = localops.apply_laplacian(window, measure, f)
                vals = localops._accumulate(dict(g.values), -1, f.values)
                if k >= 2:
                    vals = localops._accumulate(localops._accumulate({}, 2, vals), -1,
                                                prev.values)
                prev, f = f, localops.WindowFunction(vals, g.safe, g.zero_outside)
            yield f

    return localops._combine(window, zip(model.coef, iterates(f)))


def kernel_value_general(window, measure, model, x, y):
    """K_{P_N(L)}(x, y) by the stencil recurrence, plus the pointwise
    certificate for K_{F(L)}(x, y): |K_{F(L)}(x,y) - value| <= sup_err /
    sqrt(m(x) m(y)), since the spectrum lies in [0, 2] and the
    interpolation defect bounds the L2 operator norm."""
    from flowtree import localops
    g = cheb_apply(window, measure, model,
                   localops._anchored(window, model.degree, y, x))
    value = complex(g.values.get(x, 0)) / measure.as_float(y)
    cert = model.sup_err / np.sqrt(measure.as_float(x) * measure.as_float(y))
    return value, float(cert)


def word_identity():
    """The identity as a word polynomial."""
    from flowtree.ncpoly import NcPolynomial
    return NcPolynomial({(): 1})


def word_laplacian():
    """L = (1/2)(1 - Z2)(1 - Z1) as a word polynomial."""
    from flowtree.ncpoly import Z1, Z2, NcPolynomial
    h = Fraction(1, 2)
    return NcPolynomial({(): h, (Z1,): -h, (Z2,): -h, (Z2, Z1): h})


def from_lambda_coeffs(coeffs):
    """sum_k coeffs[k] L**k as a word polynomial, L expanded as
    (1/2)(1 - Z2)(1 - Z1)."""
    from flowtree.ncpoly import NcPolynomial
    out = NcPolynomial()
    power = word_identity()
    lap = word_laplacian()
    for k, c in enumerate(coeffs):
        if k:
            power = power * lap
        if c:
            out = out + power.scale(c)
    return out


def modulation(window, f: dict) -> dict:
    """Pointwise sign flip by level parity; involutive."""
    return {v: (x if window.level[v] % 2 == 0 else -x) for v, x in f.items()}


def modulation_conjugate_model(model):
    """Chebyshev model of lam -> F(2 - lam): flips odd coefficients."""
    from flowtree.chebyshev import ChebModel
    coef = model.coef.copy()
    coef[1::2] = -coef[1::2]
    return ChebModel(coef, model.degree, model.sup_err)


def record_acceptance(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append((num, f"ACCEPTANCE {num:2d}: {status}  {detail}"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def t2_ball():
    from flowtree import ball_window
    return ball_window(2, 6)


@pytest.fixture(scope="session")
def z_ball():
    from flowtree import ball_window
    return ball_window(1, 24)
