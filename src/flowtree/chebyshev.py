"""Chebyshev models for scalar functions of the flow Laplacian on [0, 2].

The interpolant is built in the shifted variable u = lambda - 1 on [-1, 1].
Its sup-norm defect is estimated by dense sampling and reported as such; the
pointwise kernel certificate divides that estimate by sqrt(m(x) m(y)), which
is the L2 operator-norm route.  The sampling estimate is not a proof, so
consumers are expected to budget headroom on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .localops import (KernelColumn, WindowFunction, _accumulate, _meet,
                       apply_laplacian, indicator)
from .trees import (FlowMeasure, InsufficientMarginError, TreeWindow, Vertex,
                    in_safe_region)


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

    def shifted(g):
        lg = apply_laplacian(window, measure, g)
        return WindowFunction(_accumulate(dict(lg.values), -1, g.values),
                              lg.safe, lg.zero_outside)

    acc = _accumulate({}, coef[0], f.values) if coef[0] else {}
    safe = f.safe
    zero = f.zero_outside
    t_prev, t_cur = None, f
    for k in range(1, len(coef)):
        t_next = shifted(t_cur)
        if k >= 2:
            vals = _accumulate(_accumulate({}, 2, t_next.values), -1, t_prev.values)
            t_next = WindowFunction(vals, t_next.safe, t_next.zero_outside)
        safe = _meet(window, safe, t_next.safe)
        zero = zero and t_next.zero_outside
        if coef[k]:
            _accumulate(acc, coef[k], t_next.values)
        t_prev, t_cur = t_cur, t_next
    return WindowFunction(acc, safe, zero)


def cheb_apply(window: TreeWindow, measure: FlowMeasure, model: ChebModel,
               f: WindowFunction) -> WindowFunction:
    """Apply the interpolant of F to a window function."""
    return _forward_recurrence(window, measure, model.coef, f)


def cheb_column(window: TreeWindow, measure: FlowMeasure, model: ChebModel,
                y: Vertex) -> KernelColumn:
    """Kernel column of the interpolant P_N(L) at anchor y (exact for P_N)."""
    if not in_safe_region(window, y, model.degree):
        raise InsufficientMarginError(
            f"anchor {y} is not safe at radius {model.degree}")
    g = _forward_recurrence(window, measure, model.coef, indicator(window, y))
    my = measure.as_float(y)
    vals = {v: complex(x) / my for v, x in g.values.items()}
    m_min = min((measure.as_float(v) for v in g.safe), default=my)
    err = model.sup_err / np.sqrt(m_min * my)
    return KernelColumn(y, vals, g.safe, float(err))


def kernel_value_general(window: TreeWindow, measure: FlowMeasure,
                         model: ChebModel, x: Vertex, y: Vertex):
    """K_{P_N(L)}(x, y) plus the pointwise certificate for K_{F(L)}(x, y).

    |K_{F(L)}(x,y) - value| <= sup_err / sqrt(m(x) m(y)), since the spectrum
    lies in [0, 2] and the interpolation defect bounds the L2 operator norm.
    """
    if not (in_safe_region(window, x, model.degree)
            and in_safe_region(window, y, model.degree)):
        raise InsufficientMarginError(
            f"pair ({x}, {y}) not safe at radius {model.degree}")
    g = _forward_recurrence(window, measure, model.coef, indicator(window, y))
    value = complex(g.values.get(x, 0)) / measure.as_float(y)
    cert = model.sup_err / np.sqrt(measure.as_float(x) * measure.as_float(y))
    return value, float(cert)
