"""Exact application of the shift pair and derived operators on windows.

Functions on a window are sparse dicts; every application returns a new
function together with the set of vertices where the result is certified
exact.  Certification tracks two facts: which stored values were exact so
far, and whether the function is known to vanish at every ambient vertex
outside the window (true initially for finitely supported input, and
invalidated once mass crosses the window boundary).

Every operator is one stencil: the value at a vertex reads the vertex, its
parent, its children, or a combination.  A stencil visits only the input's
support and those vertices' parents and children, so its cost follows the
support, not the window.  Certified sets are materialised only when needed:

* While the input is certified at every vertex and vanishes outside the
  window, so is the output.  "Every vertex" is the window's one cached
  frozenset (``TreeWindow.all_vertices``), so meeting two such sets costs
  an identity check.
* Once the support reaches a window defect (the apex or an incomplete
  vertex), the function may no longer vanish outside the window, and from
  then on the certified set is computed vertex by vertex over the window.

Word polynomials, Laplacian polynomials and the Chebyshev recurrence sum
their stencil results through one helper, ``_combine``.

Zero reads are skipped, not added: a child sum starts from its first
nonzero product, and an entry new to a sum starts from its term, with no
int 0 in front (a Fraction would take its slow reverse add for it) and no
multiplication by a unit coefficient.  A float or complex term still gets
that 0 +, which clears the signed zeros of a complex value, so every value
keeps its type and its bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .ncpoly import Z1, Z2, NcPolynomial
from .trees import (FlowMeasure, InsufficientMarginError, TreeWindow, Vertex,
                    in_safe_region)


@dataclass
class WindowFunction:
    values: dict[Vertex, complex]
    safe: frozenset[Vertex]
    zero_outside: bool

    def value(self, v: Vertex):
        return self.values.get(v, 0)


def indicator(window: TreeWindow, y: Vertex) -> WindowFunction:
    if y not in window.level:
        raise KeyError(f"vertex {y} not in window")
    return WindowFunction({y: 1}, window.all_vertices(), True)


def _seed(x):
    """0 + x: x itself when it is a Fraction (the same value and type, without
    the int-to-Fraction add); other types keep the add, which clears the
    signed zeros of a complex x."""
    return x if type(x) is Fraction else 0 + x


def _accumulate(acc: dict, c, g: dict) -> dict:
    """acc += c * g on sparse dicts, in place; entries that cancel are dropped.
    Into an empty acc, c = 1 (an int or a Fraction) adds g's Fraction values
    as they are."""
    unit = not acc and type(c) in (int, Fraction) and c == 1
    for v, x in g.items():
        if unit and type(x) is Fraction:
            val = x
        elif v in acc:
            val = acc[v] + c * x
        else:
            val = _seed(c * x)
        if val:
            acc[v] = val
        elif v in acc:
            del acc[v]
    return acc


def _meet(window: TreeWindow, a: frozenset, b: frozenset) -> frozenset:
    """a & b for certified sets; free when either is the whole window."""
    full = window.all_vertices()
    if a is b or b is full:
        return a
    if a is full:
        return b
    return a & b


def _combine(window: TreeWindow, terms: Iterable) -> WindowFunction:
    """sum of c g over the (c, g) pairs, in order, certified where every g
    is and zero outside the window if every g is (whatever c is)."""
    vals: dict[Vertex, complex] = {}
    safe = window.all_vertices()
    zero = True
    for c, g in terms:
        safe = _meet(window, safe, g.safe)
        zero = zero and g.zero_outside
        if c:
            _accumulate(vals, c, g.values)
    return WindowFunction(vals, safe, zero)


def _anchored(window: TreeWindow, radius: int, y: Vertex, *also: Vertex) -> WindowFunction:
    """indicator(window, y), once y and every vertex of `also` are safe at
    `radius`; otherwise InsufficientMarginError."""
    for v in (y, *also):
        if not in_safe_region(window, v, radius):
            raise InsufficientMarginError(f"vertex {v} is not safe at radius {radius}")
    return indicator(window, y)


def _zero_on_incomplete(window: TreeWindow, f: WindowFunction) -> bool:
    return all(window.is_complete(v) for v in f.values if f.values[v])


def _certified(window: TreeWindow, f: WindowFunction, reads_self: bool,
               reads_parent: bool, reads_children: bool) -> frozenset:
    """Vertices whose stencil value is exact: every value read is certified,
    a parent outside the window is known to carry zero, and a child list is
    complete or the missing children are known to carry zero."""
    fs = f.safe
    if f.zero_outside and len(fs) == len(window):  # certified everywhere
        return window.all_vertices()
    safe = []
    for v in window.vertices:
        if reads_self and v not in fs:
            continue
        if reads_parent:
            p = window.parent(v)
            if not ((p in fs) if p is not None else f.zero_outside):
                continue
        if reads_children:
            if not (all(c in fs for c in window.children(v))
                    and (window.is_complete(v) or f.zero_outside)):
                continue
        safe.append(v)
    return frozenset(safe)


def _stencil(window: TreeWindow, measure: FlowMeasure, f: WindowFunction,
             combine: Callable, reads_self: bool, reads_parent: bool,
             reads_children: bool) -> WindowFunction:
    """(Tf)(v) = combine(f(v), f(parent(v)), (1/m(v)) sum over children c of
    f(c) m(c)), with combine(0, 0, 0) = 0.

    Only the support and its parents and children can carry a nonzero value,
    so only they are visited, in vertex order.
    """
    m = measure.values
    fv = f.values
    pred, succ = window.pred, window.succ
    near = set()
    for u, x in fv.items():
        if not x:
            continue
        if reads_self:
            near.add(u)
        if reads_parent:
            near.update(succ.get(u, ()))
        if reads_children and u in pred:
            near.add(pred[u])
    vals: dict[Vertex, complex] = {}
    for v in sorted(near):
        p = pred.get(v)
        fp = fv.get(p, 0) if p is not None else 0
        child_acc = 0
        if reads_children:
            acc = None
            for c in succ.get(v, ()):
                fc = fv.get(c)
                if fc:
                    fc = fc * m[c]
                    acc = _seed(fc) if acc is None else acc + fc
            if acc:
                child_acc = acc / m[v]
        x = combine(fv.get(v, 0), fp, child_acc)
        if x:
            vals[v] = x
    zero = f.zero_outside
    if reads_parent:
        zero = zero and _zero_on_incomplete(window, f)
    if reads_children:
        zero = zero and not f.value(window.apex)
    safe = _certified(window, f, reads_self, reads_parent, reads_children)
    return WindowFunction(vals, safe, zero)


def apply_shift(window: TreeWindow, measure: FlowMeasure, f: WindowFunction) -> WindowFunction:
    """(Sigma f)(x) = f(parent(x)); the apex value is known only if the
    function is certified zero outside the window."""
    return _stencil(window, measure, f, lambda fv, fp, fc: fp, False, True, False)


def apply_shift_adjoint(window: TreeWindow, measure: FlowMeasure,
                        f: WindowFunction) -> WindowFunction:
    """(Sigma* f)(x) = (1/m(x)) sum over successors of f(y) m(y)."""
    return _stencil(window, measure, f, lambda fv, fp, fc: fc, False, False, True)


def apply_word(window: TreeWindow, measure: FlowMeasure, word: Iterable[int],
               f: WindowFunction) -> WindowFunction:
    """Apply a word over {Z1, Z2}; the rightmost letter acts first."""
    for letter in reversed(tuple(word)):
        if letter == Z1:
            f = apply_shift(window, measure, f)
        elif letter == Z2:
            f = apply_shift_adjoint(window, measure, f)
        else:
            raise ValueError(f"unknown letter {letter}")
    return f


def apply_ncpoly(window: TreeWindow, measure: FlowMeasure, poly: NcPolynomial,
                 f: WindowFunction) -> WindowFunction:
    return _combine(window, ((c, apply_word(window, measure, word, f))
                             for word, c in poly.terms.items()))


def apply_gradient(window, measure, f):
    """(grad f)(x) = f(x) - f(parent(x))."""
    return _stencil(window, measure, f, lambda fv, fp, fc: fv - fp, True, True, False)


def apply_averaging(window, measure, f):
    """(A f)(x) = f(parent)/2 + (1/2m(x)) sum over successors of f m."""
    half = Fraction(1, 2) if measure.backend == "rational" else 0.5
    return _stencil(window, measure, f,
                    lambda fv, fp, fc: half * fp + half * fc, True, True, True)


def apply_laplacian(window, measure, f):
    """(L f)(x) = f(x) - (A f)(x); one unit of propagation per application."""
    half = Fraction(1, 2) if measure.backend == "rational" else 0.5
    return _stencil(window, measure, f,
                    lambda fv, fp, fc: fv - half * fp - half * fc, True, True, True)


def apply_lambda_poly(window, measure, coeffs, f: WindowFunction) -> WindowFunction:
    """sum_k coeffs[k] L^k f by iterated Laplacian stencils (radius = degree)."""
    def powers():
        g = f
        for k, c in enumerate(coeffs):
            if k:
                g = apply_laplacian(window, measure, g)
            yield c, g

    return _combine(window, powers())


@dataclass
class KernelColumn:
    """Sparse kernel column x -> K(x, anchor) with a certification set.

    err_bound majorizes |true - stored| at every safe vertex; exact
    polynomial evaluation sets it to zero.
    """

    anchor: Vertex
    values: dict[Vertex, complex]
    safe: frozenset[Vertex]
    err_bound: float = 0.0

    def value(self, x: Vertex):
        return self.values.get(x, 0)

    def support(self):
        return [v for v, x in self.values.items() if x]

    def csv_rows(self, window: TreeWindow):
        rows = []
        for v in sorted(self.values):
            x = complex(self.values[v])
            rows.append((v, x.real, x.imag, window.distance(v, self.anchor),
                         window.level[v]))
        return rows


def _column_from_function(window, measure, g: WindowFunction, y) -> KernelColumn:
    my = measure.values[y]
    vals = {v: x / my for v, x in g.values.items()}
    return KernelColumn(y, vals, g.safe)


def kernel_column_poly(window: TreeWindow, measure: FlowMeasure,
                       poly: NcPolynomial, y: Vertex) -> KernelColumn:
    """Exact column of F(Sigma, Sigma*) at anchor y; needs y safe at deg F."""
    g = apply_ncpoly(window, measure, poly, _anchored(window, poly.degree, y))
    return _column_from_function(window, measure, g, y)


def kernel_column_lambda_poly(window: TreeWindow, measure: FlowMeasure,
                              coeffs, y: Vertex) -> KernelColumn:
    """Column of sum coeffs[k] L^k, via stencils (margin = polynomial degree)."""
    g = apply_lambda_poly(window, measure, coeffs,
                          _anchored(window, max(len(coeffs) - 1, 0), y))
    return _column_from_function(window, measure, g, y)
