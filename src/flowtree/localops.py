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

Word polynomials sum their stencil results through one helper,
``_combine``; so do exact polynomials in L, by Horner's rule: g <- L g +
c_k f, one Laplacian stencil and one ``_combine`` per coefficient.

On the rational backend the three stencils that read children (Sigma*, A
and L) run on integer numerators when every input value is an int or a
Fraction: the input goes over one common denominator D, the lcm of its
denominators, and the measure on the support and its parents over one
common denominator M, so each child weight m(c)/m(v) is a ratio of
integers mu(c)/mu(v).  Each output is then one Fraction(n, s D mu(v)),
instead of a Fraction multiply, add and divide per child.  An input whose
numerators repeat (at most half of them distinct) builds each distinct
(n, mu(v)) once per call.  Columns are such inputs on every flow, not only
q-ary ones: the L^6 column at the centre of ``ball_window(4, 7)`` holds 28
distinct values of 6,826, and on a ball of random rational ratios 28 of
964.  The float backend, rational windows holding other values, and the
shift (which reads no measure and keeps its ints) apply the stencil's
combine vertex by vertex.

There, and in every sum, zero reads are skipped, not added: a child sum
starts from its first nonzero product, and an entry new to a sum starts
from its term, with no int 0 in front (a Fraction would take its slow
reverse add for it).  A float or complex term still gets that 0 +, which
clears the signed zeros of a complex value, so every value keeps its type
and its bits.  A unit coefficient copies a term of nonzero Fractions into
an empty sum in one dict update, objects and all, and a rational column
divides each distinct value by m(y) once.

Kernel columns of polynomials in L, ``kernel_column_lambda_poly`` here and
``chebyshev.cheb_column``, share one entry, ``_polynomial_column``, which
anchors the column and picks its engine by the kind of its numbers.  Exact
columns, int and Fraction coefficients on a rational window, run Horner's
rule on the integer stencils.  Every other column is float-valued, on either
backend, and skips the dicts: each Laplacian step is one pass of the
Laplacian's rule over numpy arrays on the anchor's ball B_N(y), read from
the window's cached arrays (``TreeWindow.arrays``) with float masses, with
the stencil's sums in the stencil's order, so every value has the bits of
the per-vertex stencils on the float copy of the measure.  The ``apply_*``
functions, whose inputs need not be anchored, keep the stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .ncpoly import Z1, Z2, NcPolynomial
from .trees import (FlowMeasure, InsufficientMarginError, TreeWindow, Vertex,
                    WindowArrays, in_safe_region)


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
    Into an empty acc, c = 1 (an int or a Fraction) copies g in one update
    when every value of g is a nonzero Fraction, objects and all."""
    if (not acc and type(c) in _RATIONAL and c == 1
            and all(type(x) is Fraction and x for x in g.values())):
        acc.update(g)
        return acc
    for v, x in g.items():
        if v in acc:
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
    """f is zero at every incomplete vertex: only values there are tested."""
    complete = window.complete
    return all(complete.get(v, False) or not x for v, x in f.values.items())


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
             combine: Callable, weights: tuple) -> WindowFunction:
    """(Tf)(v) = combine(f(v), f(parent(v)), (1/m(v)) sum over children c of
    f(c) m(c)), with combine(0, 0, 0) = 0.

    weights = (a, b, c, s) states the same rule in integers, (Tf)(v) =
    (a f(v) + b f(parent(v)) + c (1/m(v)) sum f(c) m(c)) / s; a zero weight
    means the value is not read.  Only the support and its parents and
    children can carry a nonzero value, so only they are visited, in vertex
    order.  A zero value of f adds only vertices whose values come out
    zero and are dropped, so values are not tested for zero here.
    """
    reads_self, reads_parent, reads_children = (w != 0 for w in weights[:3])
    fv = f.values
    pred, succ = window.pred, window.succ
    near = set()
    for u in fv:
        if reads_self:
            near.add(u)
        if reads_parent:
            near.update(succ.get(u, ()))
        if reads_children and u in pred:
            near.add(pred[u])
    if (reads_children and measure.backend == "rational"
            and all(type(x) in _RATIONAL for x in fv.values())):
        vals = _integer_stencil(measure, fv, pred, sorted(near), weights)
    else:
        vals = _generic_stencil(measure, fv, pred, succ, sorted(near), combine,
                                reads_children)
    zero = f.zero_outside
    if reads_parent:
        zero = zero and _zero_on_incomplete(window, f)
    if reads_children:
        zero = zero and not f.value(window.apex)
    safe = _certified(window, f, reads_self, reads_parent, reads_children)
    return WindowFunction(vals, safe, zero)


def _generic_stencil(measure, fv, pred, succ, near, combine, reads_children):
    m = measure.values
    vals: dict[Vertex, complex] = {}
    for v in near:
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
    return vals


def _integer_stencil(measure, fv, pred, near, weights):
    """The stencil on ints and Fractions, in integers: f = F/D over the lcm D
    of the support's denominators, m = mu/M over the lcm M of the measure's
    denominators on the support and its parents, so the child weight
    m(c)/m(v) is mu(c)/mu(v), and each output is one Fraction(n, s D mu(v))
    (s D where no child of v is in the support, read as mu(v) = 1).

    Equal inputs give equal outputs, so when at most half of the input's
    numerators are distinct (an iterate of an indicator holds a few dozen
    values over thousands of vertices) each distinct (n, mu(v)) is built
    once per call; an input of mostly distinct values skips the memo,
    whose lookups would only add to every output.  A zero value has
    denominator 1 and drops out of F by its integer numerator, so no value
    is tested for zero as a Fraction."""
    a, b, c, s = weights
    m = measure.values
    D = math.lcm(*{x.denominator for x in fv.values()})
    F = {u: n for u, x in fv.items() if (n := x.numerator * (D // x.denominator))}
    child_sum = dict.fromkeys((pred[u] for u in F if u in pred), 0)
    M = math.lcm(*{m[u].denominator for u in F},
                 *{m[v].denominator for v in child_sum})
    for u, x in F.items():
        if u in pred:
            mass = m[u]
            child_sum[pred[u]] += x * mass.numerator * (M // mass.denominator)
    den = s * D
    built = {} if 2 * len(set(F.values())) <= len(F) else None  # (n, mu(v)) -> value
    vals: dict[Vertex, Fraction] = {}
    for v in near:
        n = a * F.get(v, 0) + b * F.get(pred.get(v), 0)
        mv = 1
        if v in child_sum:
            mass = m[v]
            mv = mass.numerator * (M // mass.denominator)
            n = n * mv + c * child_sum[v]
        if not n:
            continue
        if built is None:
            vals[v] = Fraction(n, den * mv)
            continue
        x = built.get((n, mv))
        if x is None:
            x = built[n, mv] = Fraction(n, den * mv)
        vals[v] = x
    return vals


# the weights (a, b, c, s) of each stencil, as _stencil reads them
_SHIFT = (0, 1, 0, 1)
_SHIFT_ADJOINT = (0, 0, 1, 1)
_AVERAGING = (0, 1, 1, 2)
_LAPLACIAN = (2, -1, -1, 2)
_RATIONAL = (int, Fraction)


def apply_shift(window: TreeWindow, measure: FlowMeasure, f: WindowFunction) -> WindowFunction:
    """(Sigma f)(x) = f(parent(x)); the apex value is known only if the
    function is certified zero outside the window."""
    return _stencil(window, measure, f, lambda fv, fp, fc: fp, _SHIFT)


def apply_shift_adjoint(window: TreeWindow, measure: FlowMeasure,
                        f: WindowFunction) -> WindowFunction:
    """(Sigma* f)(x) = (1/m(x)) sum over successors of f(y) m(y)."""
    return _stencil(window, measure, f, lambda fv, fp, fc: fc, _SHIFT_ADJOINT)


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


def _half(measure: FlowMeasure):
    return Fraction(1, 2) if measure.backend == "rational" else 0.5


def apply_averaging(window, measure, f):
    """(A f)(x) = f(parent)/2 + (1/2m(x)) sum over successors of f m."""
    h = _half(measure)
    return _stencil(window, measure, f, lambda fv, fp, fc: h * fp + h * fc, _AVERAGING)


def _laplacian_rule(h):
    """(L f)(v) from f(v), f(parent(v)) and the child term (1/m(v)) sum f(c)
    m(c): one rule for the stencil's numbers and the ball sweep's arrays."""
    return lambda fv, fp, fc: fv - h * fp - h * fc


def apply_laplacian(window, measure, f):
    """(L f)(x) = f(x) - (A f)(x); one unit of propagation per application."""
    return _stencil(window, measure, f, _laplacian_rule(_half(measure)), _LAPLACIAN)


@dataclass
class KernelColumn:
    """Sparse kernel column x -> K(x, anchor) with a certification set.

    err_bound is what the column's route states about |true - stored| at
    a safe vertex, and only an exact column's is a bound:
    * exact columns (int and Fraction values) are exact: 0.0;
    * Chebyshev columns (``chebyshev.cheb_column``): sup_err / sqrt(m_min
      m(y)), an estimate, since it inherits the sampled defect sup_err;
    * profile columns (``analysis._profile_column``): a fixed estimate,
      1e-13;
    * swept and other float-valued columns: 0.0, which leaves rounding out.
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
    """g / m(y); an int or Fraction over an int or Fraction m(y) = a/b is one
    Fraction(x b, a), not a division, built once per distinct value x: a
    column of a polynomial at y holds few distinct values, on any flow."""
    my = measure.values[y]
    if type(my) not in _RATIONAL:
        return KernelColumn(y, {v: x / my for v, x in g.values.items()}, g.safe)
    a, b = my.numerator, my.denominator
    divided: dict[tuple, Fraction] = {}    # (numerator, denominator) -> quotient
    vals = {}
    for v, x in g.values.items():
        if type(x) not in _RATIONAL:
            vals[v] = x / my
            continue
        key = x.numerator, x.denominator
        z = divided.get(key)
        if z is None:
            z = divided[key] = Fraction(key[0] * b, key[1] * a)
        vals[v] = z
    return KernelColumn(y, vals, g.safe)


def kernel_column_poly(window: TreeWindow, measure: FlowMeasure,
                       poly: NcPolynomial, y: Vertex) -> KernelColumn:
    """Exact column of F(Sigma, Sigma*) at anchor y; needs y safe at deg F."""
    g = apply_ncpoly(window, measure, poly, _anchored(window, poly.degree, y))
    return _column_from_function(window, measure, g, y)


def kernel_column_lambda_poly(window: TreeWindow, measure: FlowMeasure,
                              coeffs, y: Vertex) -> KernelColumn:
    """Column of sum coeffs[k] L^k at anchor y; needs y safe at the degree."""
    return _polynomial_column(window, measure, coeffs, y, False)


def _polynomial_column(window: TreeWindow, measure: FlowMeasure, coeffs, y: Vertex,
                       chebyshev: bool) -> KernelColumn:
    """The column at anchor y of sum coeffs[k] P_k(L): P_k = L^k, or
    T_k(L - I) when ``chebyshev`` is set; y must be safe at the degree.
    The one engine choice: Horner's rule on the exact stencils, g <- L g +
    c_k delta_y from the top coefficient down, then _column_from_function,
    for int and Fraction coefficients on a rational window; the ball sweep
    (_swept_column) for every other column."""
    f = _anchored(window, max(len(coeffs) - 1, 0), y)
    if (chebyshev or measure.backend != "rational"
            or any(c and type(c) not in _RATIONAL for c in coeffs)):
        return _swept_column(window, measure, coeffs, y, chebyshev)
    g = _combine(window, [(c, f) for c in coeffs[-1:]])
    for c in reversed(coeffs[:-1]):
        g = _combine(window, ((1, apply_laplacian(window, measure, g)), (c, f)))
    return _column_from_function(window, measure, g, y)


def _segments(start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Every p with start[i] <= p < stop[i], for i in order."""
    count = stop - start
    return np.arange(count.sum()) + np.repeat(start + count - np.cumsum(count), count)


def _ball(arrays: WindowArrays, y: int, radius: int) -> tuple[np.ndarray, list]:
    """The positions of B_radius(y) (y a position), nearest first, and the
    number of them within each distance k <= radius."""
    seen = np.zeros(len(arrays.parent), dtype=bool)
    seen[y] = True
    sphere = np.array([y])
    spheres, end = [sphere], [1]
    for _ in range(radius):
        near = np.concatenate((arrays.parent[sphere], arrays.child[
            _segments(arrays.child_start[sphere], arrays.child_start[sphere + 1])]))
        sphere = near[~seen[near] & (near >= 0)]
        seen[sphere] = True
        spheres.append(sphere)
        end.append(end[-1] + len(sphere))
    return np.concatenate(spheres), end


def _swept_iterates(window: TreeWindow, measure: FlowMeasure, y: Vertex,
                    count: int, chebyshev: bool):
    """The ball B of radius count - 1 around y, the number end[k] of its
    vertices within distance k, and an iterator over the k < count of
    P_k(L) delta_y on B (nearest first, one zero entry past the end):
    L^k, or the Chebyshev T_k(L - I) when ``chebyshev`` is set, by
    (L - I) T_k, then 2 (L - I) T_k - T_{k-1}.  Each Laplacian step
    evaluates _laplacian_rule on float arrays over B_k: child terms f(c)
    m(c) are summed per parent in successor order, from the first
    (np.bincount adds in array order), and a parent outside B reads the
    zero entry, so every nonzero value has the per-vertex stencils' bits.
    """
    arrays = window.arrays()
    mass = arrays.masses(measure)
    ball, end = _ball(arrays, arrays.positions([y])[0], max(count - 1, 0))
    size = len(ball)
    local = np.full(len(mass) + 1, size)   # position -1 (no parent) reads local[-1]
    local[ball] = np.arange(size)
    parent = local[arrays.parent[ball]]
    start, stop = arrays.child_start[ball], arrays.child_start[ball + 1]
    child = local[arrays.child[_segments(start, stop)]]
    owner = np.repeat(np.arange(size), stop - start)
    inside = child < size
    child, owner = child[inside], owner[inside]
    links = np.searchsorted(owner, end)     # the child links of B_k's vertices
    m = mass[ball]
    child_mass = m[child]
    rule = _laplacian_rule(0.5)

    def laplacian(x, k):
        n, nl = end[k], links[k]
        fc = np.bincount(owner[:nl], x[child[:nl]] * child_mass[:nl], n) / m[:n]
        out = np.zeros(size + 1)
        out[:n] = rule(x[:n], x[parent[:n]], fc)
        return out

    def iterates():
        x = np.zeros(size + 1)
        x[0] = 1.0
        yield x
        prev = None
        for k in range(1, count):
            lx = laplacian(x, k)
            if chebyshev:
                n = end[k]
                lx[:n] -= x[:n]
                if k >= 2:
                    lx[:n] = 2 * lx[:n] - prev[:n]
                prev = x
            x = lx
            yield x

    return ball, end, iterates()


def _swept_column(window: TreeWindow, measure: FlowMeasure, coeffs, y: Vertex,
                  chebyshev: bool) -> KernelColumn:
    """The column of sum coeffs[k] P_k(L) at anchor y, from
    _swept_iterates's P_k, with the bits of the per-vertex stencils on the
    float copy of the measure: each term c P_k is added in k order, c x
    taken as Python multiplies a float by c as a Python number ((cr x -
    ci 0, cr 0 + ci x) for a complex c), and each sum is divided by m(y)
    part by part (as complex / float does to sums whose parts are never
    -0.0).  Values are complex for a Chebyshev model or where any
    coefficient is (np.iscomplexobj: np.complex64 is no complex subclass),
    floats otherwise.  Keys come in window order; the certified set is the
    window, since y is safe at the degree.
    """
    ball, end, xs = _swept_iterates(window, measure, y, len(coeffs), chebyshev)
    arrays = window.arrays()
    re, im = np.zeros(len(ball)), np.zeros(len(ball))
    for k, (c, x) in enumerate(zip(coeffs, xs)):
        if not c:
            continue
        n = end[k]
        if np.iscomplexobj(c):
            c = complex(c)
            re[:n] += c.real * x[:n] - c.imag * 0.0
            im[:n] += c.real * 0.0 + c.imag * x[:n]
        else:
            re[:n] += float(c) * x[:n]
    nz = np.flatnonzero((re != 0) | (im != 0))
    nz = nz[np.argsort(ball[nz])]
    my = float(arrays.masses(measure)[ball[0]])
    if chebyshev or any(np.iscomplexobj(c) for c in coeffs):
        values = np.empty(len(nz), dtype=complex)
        values.real, values.imag = re[nz] / my, im[nz] / my
    else:
        values = re[nz] / my
    return KernelColumn(y, dict(zip(arrays.vertices[ball[nz]].tolist(), values.tolist())),
                        window.all_vertices())
