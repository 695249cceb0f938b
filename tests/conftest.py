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
