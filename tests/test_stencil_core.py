"""The support-local stencil core against a whole-window reference.

The reference below applies every letter and stencil by sweeping every
window vertex and builds each certified set vertex by vertex, the rules the
support-local core must reproduce.  Values are compared exactly (rational
windows) or bit for bit (float windows), certified sets and the
zero-outside flag for equality.  Anchors sit at every defect distance from
0 to DEG + 1, so words run into the window boundary and lose the
zero-outside flag part way through.
"""

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowtree import (TreeError, analysis, constant_ratio_window, load_window,
                      safe_region, window_to_json)
from flowtree import TreeWindow, ball_window, quotient
from flowtree.chebyshev import ChebModel, cheb_approx, cheb_column
from flowtree.localops import (InsufficientMarginError, KernelColumn,
                               WindowFunction, _accumulate, apply_averaging,
                               apply_laplacian, apply_ncpoly, apply_shift,
                               apply_shift_adjoint,
                               indicator, kernel_column_lambda_poly,
                               kernel_column_poly)
from flowtree.ncpoly import Z1, Z2, NcPolynomial
from flowtree.trees import FlowMeasure

from conftest import apply_gradient, apply_lambda_poly, cheb_apply

DEG = 4
HYPO = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# -- whole-window reference -------------------------------------------------

def ref_indicator(w, y):
    return WindowFunction({y: 1}, frozenset(w.vertices), True)


def _zero_on_incomplete(w, f):
    return all(w.is_complete(v) for v, x in f.values.items() if x)


def ref_shift(w, m, f):
    vals, safe = {}, set()
    for v in w.vertices:
        p = w.parent(v)
        if p is None:
            if f.zero_outside:
                safe.add(v)
            continue
        if f.value(p):
            vals[v] = f.value(p)
        if p in f.safe:
            safe.add(v)
    return WindowFunction(vals, frozenset(safe),
                          f.zero_outside and _zero_on_incomplete(w, f))


def ref_shift_adjoint(w, m, f):
    vals, safe = {}, set()
    for v in w.vertices:
        cs = w.children(v)
        acc = 0
        for c in cs:
            if f.value(c):
                acc = acc + f.value(c) * m.values[c]
        if acc:
            vals[v] = acc / m.values[v]
        if all(c in f.safe for c in cs) and (w.is_complete(v) or f.zero_outside):
            safe.add(v)
    return WindowFunction(vals, frozenset(safe),
                          f.zero_outside and not f.value(w.apex))


def ref_stencil(w, m, f, combine, needs_children):
    vals, safe = {}, set()
    for v in w.vertices:
        p = w.parent(v)
        fp = f.value(p) if p is not None else 0
        child_acc = 0
        if needs_children:
            for c in w.children(v):
                if f.value(c):
                    child_acc = child_acc + f.value(c) * m.values[c]
            child_acc = child_acc / m.values[v] if child_acc else 0
        x = combine(f.value(v), fp, child_acc)
        if x:
            vals[v] = x
        ok = v in f.safe and ((p in f.safe) if p is not None else f.zero_outside)
        if needs_children and ok:
            ok = (all(c in f.safe for c in w.children(v))
                  and (w.is_complete(v) or f.zero_outside))
        if ok:
            safe.add(v)
    zero = f.zero_outside and _zero_on_incomplete(w, f)
    if needs_children:
        zero = zero and not f.value(w.apex)
    return WindowFunction(vals, frozenset(safe), zero)


def _half(m):
    return Fraction(1, 2) if m.backend == "rational" else 0.5


REF_OPS = {
    "Z1": ref_shift,
    "Z2": ref_shift_adjoint,
    "grad": lambda w, m, f: ref_stencil(w, m, f, lambda fv, fp, fc: fv - fp, False),
    "avg": lambda w, m, f: ref_stencil(
        w, m, f, lambda fv, fp, fc: _half(m) * fp + _half(m) * fc, True),
    "lap": lambda w, m, f: ref_stencil(
        w, m, f, lambda fv, fp, fc: fv - _half(m) * fp - _half(m) * fc, True),
}
OPS = {"Z1": apply_shift, "Z2": apply_shift_adjoint, "grad": apply_gradient,
       "avg": apply_averaging, "lap": apply_laplacian}


def ref_axpy(acc, c, g):
    for v, x in g.items():
        val = acc.get(v, 0) + c * x
        if val:
            acc[v] = val
        elif v in acc:
            del acc[v]


def ref_ncpoly(w, m, poly, f):
    vals, safe, zero = {}, frozenset(w.vertices), True
    for word, c in poly.terms.items():
        g = f
        for letter in reversed(word):
            g = REF_OPS["Z1" if letter == Z1 else "Z2"](w, m, g)
        ref_axpy(vals, c, g.values)
        safe, zero = safe & g.safe, zero and g.zero_outside
    return WindowFunction(vals, safe, zero)


def ref_lambda_poly(w, m, coeffs, f):
    vals, safe, zero, g = {}, frozenset(w.vertices), f.zero_outside, f
    for k, c in enumerate(coeffs):
        if k:
            g = REF_OPS["lap"](w, m, g)
        safe, zero = safe & g.safe, zero and g.zero_outside
        if c:
            ref_axpy(vals, c, g.values)
    return WindowFunction(vals, safe, zero)


def ref_chebyshev(w, m, coef, f):
    """sum_k coef[k] T_k(L - I) f, one whole-window Laplacian per degree."""
    def shifted(g):
        lg = REF_OPS["lap"](w, m, g)
        vals = dict(lg.values)
        for v, x in g.values.items():
            val = vals.get(v, 0) - x
            if val:
                vals[v] = val
            elif v in vals:
                del vals[v]
        return WindowFunction(vals, lg.safe, lg.zero_outside)

    acc, safe, zero = {}, f.safe, f.zero_outside
    if coef[0]:
        ref_axpy(acc, coef[0], f.values)
    t_prev, t_cur = None, f
    for k in range(1, len(coef)):
        s = shifted(t_cur)
        if k == 1:
            t_next = s
        else:
            vals = {}
            for v in set(s.values) | set(t_prev.values):
                val = 2 * s.values.get(v, 0) - t_prev.values.get(v, 0)
                if val:
                    vals[v] = val
            t_next = WindowFunction(vals, s.safe, s.zero_outside)
        safe, zero = safe & t_next.safe, zero and t_next.zero_outside
        if coef[k]:
            ref_axpy(acc, coef[k], t_next.values)
        t_prev, t_cur = t_cur, t_next
    return WindowFunction(acc, safe, zero)


def ref_fiber_average(sub, column):
    pi, m1, m2 = sub.mapping, sub.source_measure.values, sub.target_measure.values
    sums, fiber_safe = {}, {}
    for s, t in pi.items():
        v = column.value(s)
        fiber_safe[t] = fiber_safe.get(t, True) and (s in column.safe)
        if v:
            sums[t] = sums.get(t, 0) + v * m1[s]
    vals, safe = {}, set()
    for t, ok in fiber_safe.items():
        if t in sums:
            vals[t] = sums[t] / m2[t]
        if ok:
            safe.add(t)
        elif sums.get(t):
            raise TreeError(f"fiber of target vertex {t} exits the certified region")
    return KernelColumn(pi[column.anchor], vals, frozenset(safe), column.err_bound)


# -- windows and anchors ----------------------------------------------------

SPLITS = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(2, 5), Fraction(3, 5)),
          (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))


def mixed_window_json(depth, up):
    """A rational window whose vertices split their mass by each of SPLITS
    in turn (by vertex id), so the ratios m(c)/m(v) have denominators that
    differ from vertex to vertex, below a chain of `up` >= 1 ancestors;
    depth >= 1."""
    recs = [{"id": i, "pred": i - 1 if i else None,
             "measure": str(Fraction(2) ** (up - i)), "complete": False}
            for i in range(up)]
    recs.append({"id": up, "pred": up - 1, "measure": "1", "complete": True})
    level, mass = [up], {up: Fraction(1)}
    for k in range(depth):
        nxt = []
        for v in level:
            for r in SPLITS[v % len(SPLITS)]:
                c = len(recs)
                mass[c] = mass[v] * r
                recs.append({"id": c, "pred": v, "measure": str(mass[c]),
                             "complete": k + 1 < depth})
                nxt.append(c)
        level = nxt
    return {"apex_level": up, "vertices": recs}


GOLDEN = ((5 ** 0.5 - 1) / 2, 1 - (5 ** 0.5 - 1) / 2)
# three unequal splits whose child sums round differently in reverse order
UNEVEN = (0.61, 0.27, 0.12)


def reversed_successors(w):
    """The window w with every successor list reversed, so that children no
    longer come in id order (nor in window order)."""
    return TreeWindow(w.apex, dict(w.pred), {v: cs[::-1] for v, cs in w.succ.items()},
                      dict(w.level), dict(w.complete))


def _windows():
    ball_w, ball_m, _ = ball_window(2, 5)
    ratio_w, ratio_m, _ = constant_ratio_window(
        (Fraction(2, 3), Fraction(1, 3)), depth=5, up=3)
    fw, fm, _ = constant_ratio_window((0.6, 0.4), depth=5, up=3, backend="float")
    loaded_w, loaded_m = load_window(json.dumps(window_to_json(fw, fm)))
    mixed_w, mixed_m = load_window(json.dumps(mixed_window_json(5, 3)))
    uneven_w, uneven_m, _ = ball_window(UNEVEN, 5, backend="float")
    return {"ball": (ball_w, ball_m), "ratio": (ratio_w, ratio_m),
            "loaded": (loaded_w, loaded_m), "mixed": (mixed_w, mixed_m),
            "float ball": ball_window(3, 5, backend="float")[:2],
            "golden": ball_window(GOLDEN, 6, backend="float")[:2],
            "reversed": (reversed_successors(uneven_w), uneven_m)}


WINDOWS = _windows()


def anchor_at(w, d, pick):
    """A vertex at defect distance d (the deepest one the window has, if
    none sits at d exactly)."""
    dist = w.defect_distances()
    d = min(d, max(dist.values(), default=0))
    cands = sorted(v for v in w.vertices if dist.get(v, 0) == d)
    return cands[pick % len(cands)]


def assert_same(got, want):
    assert got.values == want.values
    for v, x in want.values.items():
        assert type(got.values[v]) is type(x)
    assert got.safe == want.safe
    assert got.zero_outside == want.zero_outside


def assert_same_bits(got, want):
    """Values agree bit for bit, signed zeros included (== does not see them)."""
    assert repr(sorted(got.values.items())) == repr(sorted(want.values.items()))


def assert_same_column(col, want: dict):
    """A column's values are want's, bit for bit and type for type."""
    typed = lambda vals: repr(sorted((v, type(x), x) for v, x in vals.items()))
    assert typed(col.values) == typed(want)


def start_pair(w, y, start):
    """The input of a test and its reference copy: the indicator of y,
    complex values with signed-zero parts at y and its children (where
    0 + x and x differ in their bits), or Fractions with assorted
    denominators at y and its children."""
    if start == "indicator":
        return indicator(w, y), ref_indicator(w, y)
    if start == "fractions":
        rng = random.Random(y)
        vals = {v: Fraction(rng.choice((-7, -2, 1, 3, 5)), rng.randint(1, 12))
                for v in (y, *w.children(y))}
    else:
        vals = {y: complex(-1.0, -0.0)}
        vals.update((c, complex(-0.0, 0.5)) for c in w.children(y))
    return (WindowFunction(dict(vals), w.all_vertices(), True),
            WindowFunction(dict(vals), frozenset(w.vertices), True))


windows_st = st.sampled_from(sorted(WINDOWS))
distance_st = st.integers(0, DEG + 1)
pick_st = st.integers(0, 10 ** 6)
letter_st = st.sampled_from((Z1, Z2))
coeff_st = st.fractions(min_value=-3, max_value=3, max_denominator=4)
float_st = st.floats(-3, 3)
complex_st = st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False)
number_st = st.one_of(coeff_st, float_st, float_st.map(np.float64), complex_st)


def coeff_lists(element):
    return st.lists(element, min_size=1, max_size=DEG + 1)


# Laplacian polynomial coefficients of one Python kind, real or complex (the
# float windows' ball sweeps), or mixing Fractions, floats, numpy floats and
# complex values (the stencils); signed zeros and subnormal parts included
numbers_st = st.one_of(coeff_lists(coeff_st | float_st), coeff_lists(complex_st),
                       coeff_lists(number_st))
FLOAT_WINDOWS = ("loaded", "float ball", "golden", "reversed")
# the rational-coefficient test's windows: three rational ones, where
# all-Fraction lists run the exact integer stencils, and one float window
COEFF_WINDOWS = ("ball", "loaded", "mixed", "ratio")
start_st = st.sampled_from(("indicator", "signed zeros", "fractions"))


@HYPO
@given(windows_st, distance_st, pick_st,
       st.lists(st.sampled_from(sorted(OPS)), min_size=1, max_size=DEG + 2), start_st)
def test_letters_and_stencils_match_reference(name, d, pick, ops, start):
    w, m = WINDOWS[name]
    y = anchor_at(w, d, pick)
    f, ref = start_pair(w, y, start)
    assert_same(f, ref)
    for op in ops:
        f, ref = OPS[op](w, m, f), REF_OPS[op](w, m, ref)
        assert_same(f, ref)
        assert_same_bits(f, ref)


@HYPO
@given(windows_st, distance_st, pick_st,
       st.dictionaries(st.lists(letter_st, max_size=DEG).map(tuple), coeff_st,
                       min_size=1, max_size=4))
def test_word_polynomials_match_reference(name, d, pick, terms):
    w, m = WINDOWS[name]
    y = anchor_at(w, d, pick)
    poly = NcPolynomial(terms)
    want = ref_ncpoly(w, m, poly, ref_indicator(w, y))
    assert_same(apply_ncpoly(w, m, poly, indicator(w, y)), want)
    if y not in safe_region(w, poly.degree):
        with pytest.raises(InsufficientMarginError):
            kernel_column_poly(w, m, poly, y)
        return
    col = kernel_column_poly(w, m, poly, y)
    my = m.values[y]
    assert col.values == {v: x / my for v, x in want.values.items()}
    assert col.safe == want.safe


def float_copy(m):
    """The measure with every mass as float(m(v)), on the float backend."""
    return FlowMeasure({v: float(x) for v, x in m.values.items()}, "float")


def python_numbers(coeffs):
    """Each coefficient as the Python number the ball sweep reads it as."""
    return [complex(c) if np.iscomplexobj(c) else float(c) for c in coeffs]


def is_exact(m, coeffs):
    """The engine rule: int and Fraction coefficients on a rational window."""
    return m.backend == "rational" and all(type(c) in (int, Fraction) for c in coeffs if c)


def expected_column(w, m, coeffs, y, chebyshev=False):
    """The column at y the engine rule gives, from the whole-window
    reference: an exact one is the exact reference over m(y); any other is
    the reference on the float copy of the measure with the coefficients as
    Python numbers, complex for a Chebyshev model or where any coefficient
    is complex, float otherwise."""
    if not chebyshev and is_exact(m, coeffs):
        want = ref_lambda_poly(w, m, coeffs, ref_indicator(w, y))
        return {v: x / m.values[y] for v, x in want.values.items()}
    fm = float_copy(m)
    ref = ref_chebyshev if chebyshev else ref_lambda_poly
    want = ref(w, fm, python_numbers(coeffs), ref_indicator(w, y))
    kind = complex if chebyshev or any(np.iscomplexobj(c) for c in coeffs) else float
    return {v: kind(x) / fm.values[y] for v, x in want.values.items()}


def check_laplacian_polynomial(name, d, pick, coeffs, start):
    w, m = WINDOWS[name]
    y = anchor_at(w, d, pick)
    f, ref = start_pair(w, y, start)
    want = ref_lambda_poly(w, m, coeffs, ref)
    got = apply_lambda_poly(w, m, coeffs, f)
    assert_same(got, want)
    assert_same_bits(got, want)
    if start != "indicator":
        return
    if y not in safe_region(w, len(coeffs) - 1):
        with pytest.raises(InsufficientMarginError):
            kernel_column_lambda_poly(w, m, coeffs, y)
        return
    col = kernel_column_lambda_poly(w, m, coeffs, y)
    assert_same_column(col, expected_column(w, m, coeffs, y))
    assert col.safe == want.safe


@HYPO
@given(st.sampled_from(COEFF_WINDOWS), distance_st, pick_st, coeff_lists(coeff_st),
       start_st)
def test_laplacian_polynomials_match_reference(name, d, pick, coeffs, start):
    """Fraction coefficients: the exact integer stencils on the rational
    windows, the ball sweep on the loaded float one."""
    check_laplacian_polynomial(name, d, pick, coeffs, start)


@HYPO
@given(windows_st, distance_st, pick_st, numbers_st, start_st)
# mixed kinds: every column value is complex, the anchor's and its float
# neighbours' alike; numpy scalars: every column value is a Python float
@example("reversed", DEG, 0, [0.5j, 1.0], "indicator")
@example("golden", DEG, 0, [np.float64(0.5), 0.0, 1.0], "indicator")
def test_laplacian_polynomials_of_any_numbers_match_reference(name, d, pick, coeffs,
                                                              start):
    """Float, complex and numpy coefficients and mixtures of them: the
    stencils apply them as they are; their columns sweep the anchor's ball
    on every window, unless every nonzero coefficient is an int or a
    Fraction on a rational window."""
    check_laplacian_polynomial(name, d, pick, coeffs, start)


@HYPO
@given(st.sampled_from(("ball",) + FLOAT_WINDOWS), distance_st, pick_st,
       st.integers(0, DEG), st.floats(0.1, 4.0), st.floats(-2.0, 2.0))
def test_chebyshev_recurrence_matches_reference(name, d, pick, degree, t, omega):
    """Heat (omega = 0) and complex multipliers exp((i omega - t) lambda)."""
    w, m = WINDOWS[name]
    y = anchor_at(w, d, pick)
    model = cheb_approx(lambda lam: np.exp((1j * omega - t) * np.asarray(lam)), degree)
    want = ref_chebyshev(w, m, model.coef, ref_indicator(w, y))
    assert_same(cheb_apply(w, m, model, indicator(w, y)), want)
    grad = apply_gradient(w, m, indicator(w, y))
    assert_same(cheb_apply(w, m, model, grad),
                ref_chebyshev(w, m, model.coef, REF_OPS["grad"](w, m, ref_indicator(w, y))))
    if y not in safe_region(w, degree):
        with pytest.raises(InsufficientMarginError):
            cheb_column(w, m, model, y)
        return
    col = cheb_column(w, m, model, y)
    my = m.as_float(y)
    assert_same_column(col, {v: complex(x) / my for v, x in want.values.items()})
    assert col.safe == want.safe
    m_min = min(m.as_float(v) for v in want.safe)
    assert repr(col.err_bound) == repr(float(model.sup_err / np.sqrt(m_min * my)))


SUB = quotient.build_submersion_rational(
    *constant_ratio_window((Fraction(3, 4), Fraction(1, 4)), depth=4, up=0)[:2], 4)


@HYPO
@given(distance_st, pick_st,
       st.dictionaries(st.lists(letter_st, max_size=DEG).map(tuple), coeff_st,
                       min_size=1, max_size=4))
def test_fiber_averaging_matches_reference(d, pick, terms):
    src, sm = SUB.source, SUB.source_measure
    s = anchor_at(src, d, pick)
    g = ref_ncpoly(src, sm, NcPolynomial(terms), ref_indicator(src, s))
    col = KernelColumn(s, {v: x / sm.values[s] for v, x in g.values.items()},
                       g.safe)
    try:
        want = ref_fiber_average(SUB, col)
    except TreeError:
        with pytest.raises(TreeError, match="exits the certified region"):
            quotient.fiber_average_kernel(SUB, col)
        return
    got = quotient.fiber_average_kernel(SUB, col)
    assert (got.anchor, got.values, got.safe) == (want.anchor, want.values, want.safe)


def test_fully_certified_sets_are_the_window_set():
    """While nothing reaches a defect, every certified set is the window's
    vertex set, held as a view of its keys rather than a copy, and fiber
    averaging certifies the image."""
    w, m, c = ball_window(2, 5)
    full = w.all_vertices()
    assert full == frozenset(w.vertices) and not isinstance(full, (set, frozenset))
    g = indicator(w, c)
    for op in ("Z1", "Z2", "lap", "avg", "grad"):
        g = OPS[op](w, m, g)
        assert g.safe == w.vertices and not isinstance(g.safe, (set, frozenset))
        assert g.zero_outside
    col = kernel_column_poly(w, m, NcPolynomial({(Z2, Z1, Z1): 1}), c)
    assert col.safe == w.vertices and not isinstance(col.safe, (set, frozenset))
    s = anchor_at(SUB.source, DEG, 0)
    pushed = quotient.fiber_average_kernel(
        SUB, kernel_column_poly(SUB.source, SUB.source_measure,
                                NcPolynomial({(Z1, Z2): 1}), s))
    assert pushed.safe is SUB.image()
    assert pushed.safe == frozenset(SUB.mapping.values())


def test_fiber_averaging_rejects_uncertified_fiber():
    """Z2 carries the column to the apex; Z1 Z2 Z2 leaves the window and
    uncertifies the apex, so the pushed column would read an uncertified
    fiber."""
    src, sm = SUB.source, SUB.source_measure
    child = src.children(src.apex)[0]
    poly = NcPolynomial({(Z2,): 1, (Z1, Z2, Z2): 1})
    g = apply_ncpoly(src, sm, poly, indicator(src, child))
    assert src.apex in g.values and src.apex not in g.safe
    col = KernelColumn(child, dict(g.values), g.safe)
    for push in (ref_fiber_average, quotient.fiber_average_kernel):
        with pytest.raises(TreeError, match="exits the certified region"):
            push(SUB, col)


COMBINE_VALUES = (0, 1, -2, Fraction(0), Fraction(3, 4), Fraction(-5, 6), 0.5,
                  -0.0, complex(-1.0, -0.0), complex(-0.0, 0.5))


SMALL_RATIONAL = {"ball": ball_window(2, 2)[:2],
                  "mixed": load_window(json.dumps(mixed_window_json(2, 1)))}


def test_rational_stencils_match_the_reference_lambdas():
    """On rational windows the Laplacian and averaging stencils give the
    value, the type and the bits of the reference lambdas on every mix of
    ints, Fractions, floats and complex values at a vertex, its parent and
    a child, signed zeros included: all-rational inputs take the integer
    route, every other mix the lambdas themselves.  So do Fractions on
    every vertex, all distinct or three values (the integer route builds
    each distinct output once only for the second)."""
    rng = random.Random(7)
    for w, m in SMALL_RATIONAL.values():
        y = min(v for v in w.vertices if w.parent(v) is not None and w.children(v))
        p, c = w.parent(y), w.children(y)[-1]
        inputs = [{y: fv, p: fp, c: fc}
                  for fv, fp, fc in itertools.product(COMBINE_VALUES, repeat=3)]
        inputs += [{v: Fraction(rng.randint(-999, 999), rng.randint(1, 97))
                    for v in w.vertices},
                   {v: Fraction(rng.choice((-1, 2, 3)), 4) for v in w.vertices}]
        for vals in inputs:
            for op in ("lap", "avg"):
                got = OPS[op](w, m, WindowFunction(dict(vals), w.all_vertices(), True))
                want = REF_OPS[op](w, m, WindowFunction(dict(vals), frozenset(w.vertices),
                                                        True))
                assert_same(got, want)
                assert_same_bits(got, want)


def test_a_unit_copy_into_an_empty_sum_matches_the_loop():
    """Into an empty sum, a unit coefficient (int or Fraction) copies a term
    of nonzero Fractions object for object.  Any other term gets the
    reference's entries, in its key order: a Fraction(0) entry is dropped,
    and int, float and complex entries keep the reference's types and
    signed-zero bits."""
    a, b = Fraction(3, 4), Fraction(-5, 6)
    terms = ({7: a, 3: b}, {7: a, 5: Fraction(0), 3: b}, {7: a, 5: 2, 3: b},
             {7: a, 5: 0.5, 3: -0.0}, {7: complex(-1.0, -0.0), 5: a, 3: complex(-0.0, 0.5)},
             {7: 0, 5: 1, 3: a})
    typed = lambda vals: repr([(v, type(x), x) for v, x in vals.items()])
    for c in (1, Fraction(1)):
        for g in terms:
            want = {}
            ref_axpy(want, c, g)
            assert typed(_accumulate({}, c, g)) == typed(want)
        got = _accumulate({}, c, terms[0])
        assert all(got[v] is x for v, x in terms[0].items())


def test_exact_columns_build_each_distinct_value_once(monkeypatch):
    """The L^6 column at the centre of ball_window(4, 7) holds 6,826 values,
    28 of them distinct.  The rational stencils build each distinct value
    once per step, so the column takes at most a few hundred Fractions, not
    one per vertex per step, and the column divides each distinct value by
    m(y) once: equal values are one object, also on the (3/4, 1/4) ball,
    where distinct (numerator, mass) pairs of a stencil reduce to one
    value.  Coefficients 1, 1/2, ..., 1/7 add one value at the anchor per
    step of Horner's rule, so they stay under the same bound (a sum of
    powers multiplies each of them by every value of its term)."""
    w, m, c = ball_window(4, 7)
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    coeffs = [Fraction(0)] * 6 + [Fraction(1)]
    for cs in ([Fraction(1, k) for k in range(1, 8)], coeffs):
        built = [0]
        monkeypatch.setattr(Fraction, "__new__", counting)
        col = kernel_column_lambda_poly(w, m, cs, c)
        monkeypatch.undo()
        assert built[0] <= 500
    values = list(col.values.values())
    assert len(values) == 6826 and len(set(values)) == 28
    assert len({id(x) for x in values}) == 28
    w, m, c = ball_window((Fraction(3, 4), Fraction(1, 4)), 7)
    values = list(kernel_column_lambda_poly(w, m, coeffs, c).values.values())
    assert len({id(x) for x in values}) == len(set(values)) < len(values)


def test_swept_columns_sum_children_in_successor_order():
    """Float-window columns sweep arrays on the anchor's ball; their child
    sums follow the successor lists, so reversing every list changes some
    bits, and both orders match the per-vertex reference."""
    uneven_w, m, c = ball_window(UNEVEN, 5, backend="float")
    model = cheb_approx(lambda lam: np.exp(-np.asarray(lam)), 4)
    columns = []
    for w in (uneven_w, reversed_successors(uneven_w)):
        for coeffs in ([0.0, 0.0, 0.0, 1.0], [1.5 + 0j, -2j, 0.25 - 1j, 1 / 3 + 0j, 1j]):
            want = ref_lambda_poly(w, m, coeffs, ref_indicator(w, c))
            col = kernel_column_lambda_poly(w, m, coeffs, c)
            assert_same_column(col, {v: x / m.values[c] for v, x in want.values.items()})
            assert col.safe == w.vertices
            columns.append(col.values)
        want = ref_chebyshev(w, m, model.coef, ref_indicator(w, c))
        col = cheb_column(w, m, model, c)
        assert_same_column(col, {v: complex(x) / m.as_float(c) for v, x in want.values.items()})
        columns.append(col.values)
    for forward, backward in zip(columns[:3], columns[3:]):  # L^3, the complex sum, T
        assert forward.keys() == backward.keys()
        assert any(repr(x) != repr(backward[v]) for v, x in forward.items())


def test_window_arrays_are_built_once_per_window():
    """No window builds its arrays while it is built; the first swept column
    does, and every later column, measure lookup and meeting-level call
    reads the same objects."""
    w, m, c = ball_window(2, 6, backend="float")
    assert w._arrays is None
    model = cheb_approx(lambda lam: np.exp(-np.asarray(lam)), 4)
    cheb_column(w, m, model, c)
    arrays = w.arrays()
    masses = arrays.masses(m)
    kernel_column_lambda_poly(w, m, [0.0, 1.0, 0.5], c)
    cheb_column(w, m, model, w.children(c)[0])
    assert w.arrays() is arrays and arrays.masses(m) is masses
    assert analysis._meeting_levels(w, c)[0] is arrays.level
    assert masses.tolist() == [m.values[v] for v in w.vertices]
    # a built window's ids are its positions; a loaded one maps them
    loaded = WINDOWS["loaded"][0]
    assert arrays.position is None and loaded.arrays().position is not None
    for u in (w, loaded):
        assert u.arrays().positions(u.vertices).tolist() == list(range(len(u)))
        assert u.arrays().vertices.tolist() == list(u.vertices)


def test_rational_windows_keep_exact_iterate_columns():
    """On a rational window Laplacian polynomial columns with Fraction
    coefficients keep the exact route, as Fractions, and never build the
    window's arrays; Chebyshev columns are float-valued and sweep the ball
    on the float copy of the measure."""
    w, m, c = ball_window(2, 4)
    coeffs = [Fraction(1, 3), Fraction(-1), 0, Fraction(2)]
    col = kernel_column_lambda_poly(w, m, coeffs, c)
    want = ref_lambda_poly(w, m, coeffs, ref_indicator(w, c))
    assert all(type(x) is Fraction for x in col.values.values())
    assert_same_column(col, {v: x / m.values[c] for v, x in want.values.items()})
    assert w._arrays is None
    model = cheb_approx(lambda lam: np.exp(-np.asarray(lam)), 4)
    col = cheb_column(w, m, model, c)
    assert_same_column(col, expected_column(w, m, model.coef, c, chebyshev=True))
    assert w._arrays is not None


def _random_ratios(seed, q):
    """q branching ratios with random integer weights, as Fractions."""
    rng = random.Random(seed)
    weights = [rng.randint(1, 9) for _ in range(q)]
    return tuple(Fraction(x, sum(weights)) for x in weights)


EXACT_BALLS = {"3:1": ball_window((Fraction(3, 4), Fraction(1, 4)), DEG),
               "q=3": ball_window(3, DEG),
               "random ratios": ball_window(_random_ratios(11, 3), DEG)}
HEAT = cheb_approx(lambda lam: np.exp(-np.asarray(lam)), DEG)
# one input of each kind, and the engine the rule sends it to
ENGINE_INPUTS = [
    ("Fractions", [Fraction(1, 3), 0, Fraction(-2, 5), Fraction(1)], "integer"),
    ("ints", [0, 1, 0, -2], "integer"),
    ("zero floats among Fractions", [0.0, Fraction(1, 2), -0.0, Fraction(1)], "integer"),
    ("floats", [0.5, -1.0, 0.0, 2.0], "swept"),
    ("complex", [0.5j, 1 + 0j], "swept"),
    ("np.float32", [np.float32(0.5), np.float32(1)], "swept"),
    ("np.complex64", [np.complex64(0.5 + 1j), np.complex64(1)], "swept"),
    ("mixed", [Fraction(1, 3), 0.5, 1j, np.float64(2)], "swept"),
    ("Chebyshev", HEAT, "swept"),
]


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("kind, coeffs, engine", ENGINE_INPUTS,
                         ids=[i[0] for i in ENGINE_INPUTS])
def test_columns_pick_their_engine_by_number_kind(monkeypatch, backend, kind, coeffs,
                                                  engine):
    """Exact columns, int and Fraction coefficients on a rational window,
    run one integer stencil per Laplacian step and never build the
    window's arrays; every other column, on either backend, is one ball
    sweep, and no column reaches the per-vertex stencil."""
    from flowtree import localops
    calls = {"integer": 0, "generic": 0, "swept": 0}

    def counted(name, key):
        fn = getattr(localops, name)

        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        monkeypatch.setattr(localops, name, wrapped)

    counted("_integer_stencil", "integer")
    counted("_generic_stencil", "generic")
    counted("_swept_column", "swept")
    w, m, c = ball_window(2, DEG, backend=backend)
    if isinstance(coeffs, ChebModel):
        degree = coeffs.degree
        cheb_column(w, m, coeffs, c)
    else:
        degree = len(coeffs) - 1
        kernel_column_lambda_poly(w, m, coeffs, c)
    if backend == "float":
        engine = "swept"
    want = {"integer": degree if engine == "integer" else 0, "generic": 0,
            "swept": int(engine == "swept")}
    assert calls == want
    assert (w._arrays is None) == (engine == "integer")


real_st = st.floats(-3, 3, allow_subnormal=False)
complex_st_normal = st.complex_numbers(max_magnitude=3, allow_nan=False,
                                       allow_infinity=False, allow_subnormal=False)
float32_st = st.floats(-3, 3, width=32).map(np.float32)
complex64_st = complex_st_normal.map(np.complex64)
KIND_LISTS = {
    "float": coeff_lists(real_st),
    "complex": coeff_lists(complex_st_normal),
    "np.float32": coeff_lists(float32_st),
    "np.complex64": coeff_lists(complex64_st),
    "mixed": coeff_lists(st.one_of(coeff_st, real_st, float32_st, complex_st_normal,
                                   complex64_st)),
}


def exact_iterates(w, m, y, count, chebyshev):
    """delta_y, then L^k delta_y or T_k(L - I) delta_y for k < count, as
    exact dicts on the rational measure."""
    full = frozenset(w.vertices)
    g, prev, out = {y: Fraction(1)}, None, []
    for k in range(count):
        if k:
            lg = REF_OPS["lap"](w, m, WindowFunction(g, full, True)).values
            if chebyshev:
                lg = {v: lg.get(v, 0) - g.get(v, 0) for v in set(lg) | set(g)}
                if k >= 2:
                    lg = {v: 2 * lg.get(v, 0) - prev.get(v, 0) for v in set(lg) | set(prev)}
            prev, g = g, lg
        out.append(g)
    return out


def exact_column(w, m, coeffs, y, chebyshev):
    """sum coeffs[k] P_k delta_y / m(y) in exact arithmetic, each part of
    each coefficient read exactly, rounded once to a complex value."""
    re, im = {}, {}
    for c, it in zip(coeffs, exact_iterates(w, m, y, len(coeffs), chebyshev)):
        c = complex(c)
        cr, ci = Fraction(c.real), Fraction(c.imag)
        for v, x in it.items():
            re[v] = re.get(v, 0) + cr * x
            im[v] = im.get(v, 0) + ci * x
    my = m.values[y]
    return {v: complex(re[v] / my, im[v] / my) for v in re}


@HYPO
@given(st.sampled_from(sorted(EXACT_BALLS)),
       st.sampled_from(sorted(KIND_LISTS) + ["chebyshev"]), st.data())
def test_float_valued_columns_on_rational_windows(name, kind, data):
    """Float-valued columns on rational windows, float, complex, numpy and
    mixed coefficient lists and Chebyshev models alike, have the bits of
    the whole-window reference on the float copy of the measure, and lie
    within 1e-15 of max |value| of the exact-measure column.  (Normal
    coefficients: a subnormal one has no relative accuracy to keep.)"""
    w, m, c = EXACT_BALLS[name]
    if kind == "chebyshev":
        t, omega = data.draw(st.floats(0.1, 4.0)), data.draw(st.floats(-2.0, 2.0))
        model = cheb_approx(lambda lam: np.exp((1j * omega - t) * np.asarray(lam)),
                            data.draw(st.integers(0, DEG)))
        coeffs, col = model.coef, cheb_column(w, m, model, c)
    else:
        coeffs = data.draw(KIND_LISTS[kind])
        if is_exact(m, coeffs):  # a mixed list that drew only Fractions and zeros
            return
        col = kernel_column_lambda_poly(w, m, coeffs, c)
    chebyshev = kind == "chebyshev"
    assert_same_column(col, expected_column(w, m, coeffs, c, chebyshev))
    exact = exact_column(w, m, coeffs, c, chebyshev)
    scale = max(map(abs, exact.values()), default=0.0)
    err = max((abs(complex(col.value(v)) - exact.get(v, 0)) for v in set(exact) | set(col.values)),
              default=0.0)
    assert err <= 1e-15 * scale
