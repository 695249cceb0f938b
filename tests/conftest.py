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
        out.append(QSurd.sqrt_q_power(q, j) * (phi[j] + tail * Fraction(q - 1, q)))
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
            acc = acc + QSurd.sqrt_q_power(q, -(m + 2 * j)) * (at(m + 2 * j) - at(m + 2 * j + 2))
        out.append(acc)
    return out


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
