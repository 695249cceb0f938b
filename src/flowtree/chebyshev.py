"""Chebyshev models for scalar functions of the flow Laplacian on [0, 2].

The interpolant is built in the shifted variable u = lambda - 1 on [-1, 1].
Its sup-norm defect is estimated by dense sampling and reported as such; the
pointwise kernel certificate divides that estimate by sqrt(m(x) m(y)), which
is the L2 operator-norm route.  The sampling estimate is not a proof, so
consumers are expected to budget headroom on top of it.

The recurrence T_{k+1} = 2 (L - I) T_k - T_{k-1} runs one Laplacian stencil
per degree; a kernel column on a float window runs it instead as the
array sweep of the anchor's ball (``localops._swept_column``), with the
same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .localops import (KernelColumn, WindowFunction, _accumulate, _anchored,
                       _combine, _swept_column, apply_laplacian)
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


def _forward_recurrence(window: TreeWindow, measure: FlowMeasure,
                        coef: np.ndarray, f: WindowFunction) -> WindowFunction:
    """sum_k coef[k] T_k(L - I) f by the forward three-term recurrence
    T_{k+1} = 2 (L - I) T_k - T_{k-1}, one Laplacian stencil per degree."""

    def terms():
        yield coef[0], f
        t_prev, t_cur = None, f
        for k in range(1, len(coef)):
            lt = apply_laplacian(window, measure, t_cur)
            vals = _accumulate(dict(lt.values), -1, t_cur.values)
            if k >= 2:
                vals = _accumulate(_accumulate({}, 2, vals), -1, t_prev.values)
            t_prev, t_cur = t_cur, WindowFunction(vals, lt.safe, lt.zero_outside)
            yield coef[k], t_cur

    return _combine(window, terms())


def cheb_apply(window: TreeWindow, measure: FlowMeasure, model: ChebModel,
               f: WindowFunction) -> WindowFunction:
    """Apply the interpolant of F to a window function."""
    return _forward_recurrence(window, measure, model.coef, f)


def cheb_column(window: TreeWindow, measure: FlowMeasure, model: ChebModel,
                y: Vertex) -> KernelColumn:
    """Kernel column of the interpolant P_N(L) at anchor y (exact for P_N);
    on a float window by sweeps of the anchor's ball."""
    f = _anchored(window, model.degree, y)
    my = measure.as_float(y)
    if measure.backend == "float":
        col = _swept_column(window, measure, model.coef, y, True)
        m_min = float(window.arrays().masses(measure).min())
    else:
        g = _forward_recurrence(window, measure, model.coef, f)
        col = KernelColumn(y, {v: complex(x) / my for v, x in g.values.items()}, g.safe)
        m_min = min((measure.as_float(v) for v in g.safe), default=my)
    col.err_bound = float(model.sup_err / np.sqrt(m_min * my))
    return col


def kernel_value_general(window: TreeWindow, measure: FlowMeasure,
                         model: ChebModel, x: Vertex, y: Vertex):
    """K_{P_N(L)}(x, y) plus the pointwise certificate for K_{F(L)}(x, y).

    |K_{F(L)}(x,y) - value| <= sup_err / sqrt(m(x) m(y)), since the spectrum
    lies in [0, 2] and the interpolation defect bounds the L2 operator norm.
    """
    g = _forward_recurrence(window, measure, model.coef,
                            _anchored(window, model.degree, y, x))
    value = complex(g.values.get(x, 0)) / measure.as_float(y)
    cert = model.sup_err / np.sqrt(measure.as_float(x) * measure.as_float(y))
    return value, float(cert)
