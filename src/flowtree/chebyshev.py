"""Chebyshev models for scalar functions of the flow Laplacian on [0, 2].

The interpolant is built in the shifted variable u = lambda - 1 on [-1, 1].
Its sup-norm defect is estimated by dense sampling and reported as such.
A kernel column of the interpolant carries sup_err / sqrt(m_min m(y)),
m_min the least mass of the window: the defect bounds the L2 operator norm,
and |K(x, y)| <= ||T|| / sqrt(m(x) m(y)).  The defect is sampled, not
proved, so the column's err_bound is an estimate too, and consumers are
expected to budget headroom on top of it.

The column, sum coef[k] T_k(L - I) delta_y / m(y), is float-valued, so
``localops._polynomial_column`` runs its three-term recurrence as a sweep of
the anchor's ball on float masses, on both backends.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .localops import KernelColumn, _polynomial_column
from .trees import FlowMeasure, TreeWindow, Vertex


@dataclass
class ChebModel:
    """Truncated Chebyshev expansion of F(1 + u) with a sampled error bound."""

    coef: np.ndarray
    degree: int
    sup_err: float

    def __call__(self, lam):
        return npcheb.chebval(np.asarray(lam) - 1.0, self.coef)


def cheb_approx(fn, degree: int) -> ChebModel:
    """Degree-N Chebyshev interpolant of fn on [0, 2].

    sup_err is the max defect on a dense grid of max(32 N, 512) points (an
    estimate, not a rigorous remainder).
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")

    def g(u):
        vals = np.asarray(fn(np.asarray(u) + 1.0), dtype=complex)
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite sample value in cheb_approx")
        return vals

    if degree == 0:
        coef = np.array([g(np.array([0.0]))[0]])
    else:
        nodes = np.cos(np.pi * (2 * np.arange(degree + 1) + 1) / (2 * (degree + 1)))
        fx = g(nodes)
        # first-kind interpolation via the discrete cosine relations
        k = np.arange(degree + 1)
        T = np.cos(np.outer(k, np.pi * (2 * np.arange(degree + 1) + 1) / (2 * (degree + 1))))
        coef = (2.0 / (degree + 1)) * (T @ fx)
        coef[0] /= 2.0
    if np.max(np.abs(coef.imag)) == 0:
        coef = coef.real.astype(complex)

    npts = max(32 * max(degree, 1), 512)
    grid = np.linspace(-1.0, 1.0, npts)
    resid = np.max(np.abs(g(grid) - npcheb.chebval(grid, coef)))
    return ChebModel(coef, degree, float(resid))


def cheb_column(window: TreeWindow, measure: FlowMeasure, model: ChebModel,
                y: Vertex) -> KernelColumn:
    """Kernel column of the interpolant P_N(L) at anchor y (exact for P_N,
    up to rounding), err_bound = sup_err / sqrt(m_min m(y)), m_min over the
    certified set, which is the whole window: read from its cached masses."""
    col = _polynomial_column(window, measure, model.coef, y, True)
    m_min, my = float(window.arrays().masses(measure).min()), measure.as_float(y)
    # both masses are scaled by 2^600 when their product is no normal double:
    # the root cannot underflow, and a normal product's bound keeps its bits
    scale = 1.0 if m_min * my >= sys.float_info.min else 2.0 ** 600
    col.err_bound = float(model.sup_err / math.sqrt((m_min * scale) * (my * scale)) * scale)
    return col
