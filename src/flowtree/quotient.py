"""Flow submersions between windows: validation, construction, transference.

A submersion intertwines predecessors and successor sets; compatibility of
the two flow measures says each target branching ratio equals the mass
fraction of the matching fiber slice upstairs.  The validator checks all
of this in array passes over int views of both windows (levels, parent
positions, completeness flags, child links, the mapping as target
positions), one path for both backends: each slice of a complete source
vertex's children over one image is one compatibility identity, tested
exactly on rational masses in Python ints, over one common denominator of
the source masses, and within 1e-10 relative on floats.  Windows with
uniformly rational branching ratios (common denominator q) are exactly
the quotients of the q-ary canonical tree, and the constructor below
realizes the quotient map top-down by repeating each child in a length-q
successor list with multiplicity q * m(child) / m(parent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, repeat
from typing import Optional

import numpy as np

from .localops import KernelColumn
from .trees import (FlowMeasure, TreeError, TreeWindow, Vertex, WindowArrays,
                    _Builder, validate_measure, validate_window)


@dataclass
class SubmersionReport:
    ok: bool
    violations: list = field(default_factory=list)
    level_shift: Optional[int] = None
    checked: dict = field(default_factory=dict)


@dataclass
class Submersion:
    source: TreeWindow
    source_measure: FlowMeasure
    target: TreeWindow
    target_measure: FlowMeasure
    mapping: dict[Vertex, Vertex]
    _image: Optional[frozenset[Vertex]] = field(default=None, repr=False,
                                                compare=False)

    def image(self) -> frozenset[Vertex]:
        """Target vertices the mapping hits, as one cached frozenset."""
        if self._image is None:
            self._image = frozenset(self.mapping.values())
        return self._image

    def fibers(self) -> dict[Vertex, list[Vertex]]:
        out: dict[Vertex, list[Vertex]] = {}
        for s, t in self.mapping.items():
            out.setdefault(t, []).append(s)
        return out

    def csv_rows(self):
        return sorted(self.mapping.items())


def validate_submersion(sub: Submersion) -> SubmersionReport:
    """Check the intertwining axioms, level-shift constancy, and measure
    compatibility at every vertex where both sides are determined.

    The check runs as array passes over int views of both windows, built
    for this call from the windows as they are now (never the cached
    ``arrays()``): levels, parent positions, completeness flags, child
    links in successor order, and the mapping as target positions.  A
    vertex mapped nowhere or outside the target is reported as
    "unmapped", and then nothing else is.  Otherwise the level shift and
    pred intertwining are array comparisons, one entry per source vertex;
    the children of every complete source vertex v are grouped into
    slices, one per (v, image) pair, and v's successor check compares
    its slices' images with the successor set of v's image.  Each
    violation carries a witness vertex, by kind, then in source order.

    Compatibility at the slice of v over t, under tp = pred(t), is one
    identity m2(t) m1(v) = m2(tp) mass, mass the slice's summed child
    masses.  Floats pass within 1e-10 relative, the slice summed in child
    order.  Rational masses (ints or Fractions) are checked exactly in
    Python ints: with the source masses over one common denominator M,
    m1 = N / M, and A = num m2(t) den m2(tp), B = num m2(tp) den m2(t),
    taken once per target vertex, the identity holds iff
    A N(v) = B N(slice).  The two sides are the sides of the identity
    times M den m2(t) den m2(tp), a product of positive denominators, so
    both the equality and its failure carry over, zero masses included.
    """
    src, tgt = sub.source, sub.target
    S, T = WindowArrays.of(src), WindowArrays.of(tgt)
    n, m = len(S.level), len(T.level)
    tpos = dict(zip(tgt.level, range(m)))
    img = np.fromiter(map(tpos.get, map(sub.mapping.get, src.level), repeat(-1)),
                      dtype=np.int64, count=n)
    unmapped = img < 0
    if unmapped.any():
        return SubmersionReport(False, [("unmapped", v) for v in
                                        S.vertices[unmapped].tolist()])
    scomplete = _flags(src)
    kid, slice_of, s_parent, s_img = _slices(S, img, scomplete, m)
    compat_checked = (T.parent[s_img] >= 0)[slice_of]
    off = _slice_defects(sub, S, T, s_parent, s_img, kid, slice_of)

    # successor onto-ness: as sets, the slices' images are the successors
    # of the parent's image (the target's distinct successor pairs, sorted)
    t_keys = np.sort(np.repeat(np.arange(m), np.diff(T.child_start)) * m + T.child)
    t_keys = t_keys[np.diff(t_keys, prepend=-1) != 0]
    pair = img[s_parent] * m + s_img
    stray = np.searchsorted(t_keys, pair, "left") == np.searchsorted(t_keys, pair, "right")
    onto_checked = scomplete & _flags(tgt)[img]
    onto_bad = onto_checked & (
        (np.bincount(s_parent, minlength=n) != np.bincount(t_keys // m, minlength=m)[img])
        | (np.bincount(s_parent[stray], minlength=n) > 0))

    shift = int(T.level[img[0]] - S.level[0]) if n else None
    tparent = T.parent[img]
    has_pred = (S.parent >= 0) & (tparent >= 0)  # else the image is the apex
    bad = {"level_shift": T.level[img] - S.level != shift,
           "pred_intertwine": has_pred & (img[S.parent] != tparent),
           "succ_onto": onto_bad}
    violations = [(kind, v) for kind, mask in bad.items()
                  for v in S.vertices[mask].tolist()]
    violations += [("compatibility", v) for v in
                   S.vertices[np.sort(kid[off[slice_of]])].tolist()]
    counts = {"pred": int(has_pred.sum()), "succ": int(onto_checked.sum()),
              "level": n, "compat": int(compat_checked.sum())}
    return SubmersionReport(not violations, violations, shift, counts)


def _flags(window: TreeWindow) -> np.ndarray:
    """complete[v] in window order."""
    return np.fromiter(map(window.complete.get, window.level, repeat(False)),
                       dtype=bool, count=len(window))


def _slices(S: WindowArrays, img: np.ndarray, complete: np.ndarray, m: int):
    """The children of complete source vertices, parent by parent, and
    their slices, one per (parent, image) pair in key order: returns the
    children's positions, each child's slice, and each slice's parent
    and image."""
    n_kids = np.diff(S.child_start)
    take = np.repeat(complete, n_kids)
    kid = S.child[take]
    keys, slice_of = np.unique(np.repeat(np.arange(len(img)), n_kids)[take] * m + img[kid],
                               return_inverse=True)
    return (kid, slice_of, *np.divmod(keys, m))


def _slice_defects(sub, S, T, s_parent, s_img, kid, slice_of) -> np.ndarray:
    """Whether each slice breaks compatibility (never where its image is
    the target apex): A N(parent) != B N(slice) in Python ints when both
    measures are rational, the 1e-10 relative test otherwise."""
    if sub.source_measure.backend == sub.target_measure.backend == "rational":
        N = _common_numerators(sub.source_measure.values, S.vertices)
        t_mass = list(map(sub.target_measure.values.__getitem__, T.vertices))
        A, B = np.zeros((2, len(t_mass)), dtype=object)  # 0 == 0 at the apex
        for t, p in enumerate(T.parent.tolist()):
            if p >= 0:
                a, b = t_mass[t], t_mass[p]
                A[t] = a.numerator * b.denominator
                B[t] = b.numerator * a.denominator
        mass = np.zeros(len(s_img), dtype=object)
        np.add.at(mass, slice_of, N[kid])
        return A[s_img] * N[s_parent] != B[s_img] * mass
    f1, f2 = S.masses(sub.source_measure), T.masses(sub.target_measure)
    s_tp = T.parent[s_img]
    mass = np.bincount(slice_of, weights=f1[kid], minlength=len(s_img))
    lhs, rhs = f2[s_img] * f1[s_parent], f2[s_tp] * mass
    return (s_tp >= 0) & (np.abs(lhs - rhs) > 1e-10 * np.maximum(np.abs(lhs), 1.0))


def _common_numerators(values: dict, vertices: np.ndarray) -> np.ndarray:
    """The integers N with values[v] = N / M for each of the vertices, over
    the lcm M of the denominators, as Python ints in an object array.
    Each distinct mass object is read once (a built quotient shares one
    per level)."""
    _, first, inverse = np.unique(
        np.fromiter(map(id, map(values.__getitem__, vertices)), dtype=np.int64,
                    count=len(vertices)), return_index=True, return_inverse=True)
    distinct = list(map(values.__getitem__, vertices[first]))
    M = math.lcm(*(x.denominator for x in distinct))
    return np.array([x.numerator * (M // x.denominator) for x in distinct],
                    dtype=object)[inverse]


def _ratio_multiplicity(q: int, mv, mp) -> int:
    r = Fraction(mv) / Fraction(mp) * q
    if r.denominator != 1 or r.numerator < 1:
        raise TreeError(
            f"branching ratio {Fraction(mv) / Fraction(mp)} is not a positive "
            f"multiple of 1/{q}")
    return r.numerator


def build_submersion_rational(target: TreeWindow, target_measure: FlowMeasure,
                              q: int) -> Submersion:
    """Quotient map onto a q-uniformly rational window from a q-ary window.

    The source is generated alongside the map: the target apex lifts to a
    single apex, and each complete target vertex with children y_0..y_{b-1}
    expands into the length-q list where y_i repeats q*m(y_i)/m(target vertex)
    times (successor file order).  The canonical source measure is scaled so
    apex masses agree, making fiber masses match target masses exactly.
    Each target vertex's lift entry (lifted list, child masses and
    completeness flag) is computed once, for the first source vertex of
    its fiber, and each level's mass once, as the canonical measure
    depends on the level only.  Only source vertices whose image has
    children are visited.
    """
    if target_measure.backend != "rational":
        raise TreeError("rational backend required to build an exact quotient")
    if q < 1:
        raise TreeError(f"a q-ary source needs q >= 1, not {q}")
    validate_window(target)
    validate_measure(target, target_measure)

    tm = target_measure.values
    b = _Builder(target.level[target.apex], Fraction(tm[target.apex]))
    mapping: dict[Vertex, Vertex] = {0: target.apex}
    # target vertex -> (lifted children, their masses, completeness flag,
    # which lifted children have children: the only ones the walk visits)
    lifted: dict[Vertex, tuple] = {}
    child_mass: dict[int, Fraction] = {}  # level -> its children's mass
    stack = [0] if target.children(target.apex) else []
    while stack:
        s = stack.pop()
        tv = mapping[s]
        entry = lifted.get(tv)
        if entry is None:
            complete = target.is_complete(tv)
            # a boundary vertex lifts each visible child once and stays
            # incomplete: siblings and multiplicities are unknown upstairs
            # (fibers stay exact inside complete cones, where anchors live)
            lift = target.children(tv)
            if complete:
                mt = Fraction(tm[tv])
                lift = [c for c in lift
                        for _ in range(_ratio_multiplicity(q, tm[c], mt))]
                if len(lift) != q:
                    raise TreeError(
                        f"ratios at target vertex {tv} do not fill a length-{q} list "
                        f"(got {len(lift)})")
            lv = target.level[tv]
            if lv not in child_mass:
                child_mass[lv] = b.values[s] / q
            entry = lifted[tv] = (lift, [child_mass[lv]] * len(lift), complete,
                                  [bool(target.children(c)) for c in lift])
        lift, masses, complete, inner = entry
        kids = b.add(s, masses, complete)
        mapping.update(zip(kids, lift))
        stack.extend(compress(kids, inner))

    window, measure = b.finish("rational", Fraction(q))
    return Submersion(window, measure, target, target_measure, mapping)


def fiber_average_kernel(sub: Submersion, column: KernelColumn) -> KernelColumn:
    """Push a source kernel column to the quotient by fiber averaging.

    With y = image of the source anchor, the target value at x is
    (1/m2(x)) * sum over the fiber of x of K_source(., anchor) m1; for
    operators generated by the shift pair this equals the target-side kernel
    exactly.  Requires every contributing fiber to sit inside the column's
    certified set.  The sums read the column's support only; a target
    vertex is certified when its whole fiber is, which for a column
    certified everywhere is every vertex of the image.
    """
    pi = sub.mapping
    m1 = sub.source_measure.values
    m2 = sub.target_measure.values
    anchor_t = pi[column.anchor]
    sums: dict[Vertex, complex] = {}
    for s, v in column.values.items():
        if v:
            t = pi[s]
            sums[t] = sums.get(t, 0) + v * m1[s]
    vals = {t: x / m2[t] for t, x in sums.items()}
    if len(column.safe) == len(sub.source):  # certified everywhere
        return KernelColumn(anchor_t, vals, sub.image(), column.err_bound)
    fiber_safe: dict[Vertex, bool] = {}
    for s, t in pi.items():
        fiber_safe[t] = fiber_safe.get(t, True) and (s in column.safe)
    for t, x in sums.items():
        if x and not fiber_safe[t]:
            raise TreeError(f"fiber of target vertex {t} exits the certified region")
    safe = frozenset(t for t, ok in fiber_safe.items() if ok)
    return KernelColumn(anchor_t, vals, safe, column.err_bound)


@dataclass
class RationalizationRow:
    vertex: Vertex
    child_index: int
    child: Vertex
    ratio: Fraction
    error: float


def rationalize_flow(window: TreeWindow, measure: FlowMeasure, q: int):
    """Approximate branching ratios by multiples of 1/q (floor off-anchor,
    remainder absorbed at the child of minimal measure, ties broken by
    successor order).

    Requires q at least the max branching and 1/q at most the least ratio at
    every parental vertex; the error is at most 1/q off-anchor and
    (q0 - 1)/q at the anchor child.  The apex keeps its measure.  Returns
    (measure, rows, max_error).
    """
    rows: list[RationalizationRow] = []
    ratios: dict[Vertex, Fraction] = {}
    max_err = 0.0
    for v in window.vertices:
        cs = window.children(v)
        if not cs:
            continue
        if len(cs) > q:
            raise TreeError(f"branching {len(cs)} at vertex {v} exceeds q={q}")
        mv = measure.values[v]
        rs = [measure.values[c] / mv if measure.backend == "rational"
              else measure.as_float(c) / measure.as_float(v) for c in cs]
        for c, r in zip(cs, rs):
            if float(r) < 1.0 / q:
                raise TreeError(
                    f"ratio {float(r):.6g} at child {c} of {v} is below 1/q")
        def floor_ratio(r) -> Fraction:
            if measure.backend == "rational":
                qr = q * Fraction(r)
                return Fraction(qr.numerator // qr.denominator, q)
            return Fraction(math.floor(q * float(r)), q)

        # anchor: child of minimal measure, ties broken by successor order
        # (flooring the heavier ratios keeps the dyadic floors moving with q,
        # so deviation tables decrease strictly along power-of-two grids)
        anchor_i = min(range(len(cs)), key=lambda i: (float(rs[i]), i))
        w: list[Fraction] = [Fraction(0)] * len(cs)
        acc = Fraction(0)
        for i, r in enumerate(rs):
            if i != anchor_i:
                w[i] = floor_ratio(r)
                acc += w[i]
        if window.is_complete(v):
            w[anchor_i] = 1 - acc
        else:
            # boundary vertex: sibling masses unknown, plain floor everywhere
            w[anchor_i] = floor_ratio(rs[anchor_i])
        for i, (c, r) in enumerate(zip(cs, rs)):
            err = abs(float(w[i]) - float(r))
            max_err = max(max_err, err)
            rows.append(RationalizationRow(v, i, c, w[i], err))
            ratios[c] = w[i]

    root = window.apex
    new_vals: dict[Vertex, Fraction] = {}
    stack = [(root, Fraction(measure.values[root]))]
    while stack:
        v, m = stack.pop()
        new_vals[v] = m
        for c in window.children(v):
            stack.append((c, m * ratios[c]))
    return FlowMeasure(new_vals, "rational"), rows, max_err


def perturbation_probe(window: TreeWindow, measure: FlowMeasure, coeffs,
                       q_grid, pairs) -> list[dict]:
    """Kernel deviation table under rationalized measures.

    For each q, the flow is rationalized and the kernel of the Laplacian
    polynomial recomputed at the sample pairs; deviations shrink as q grows.
    """
    from .localops import kernel_column_lambda_poly

    anchors = sorted({y for _, y in pairs})
    base_cols = {y: kernel_column_lambda_poly(window, measure, coeffs, y)
                 for y in anchors}
    out = []
    for q in q_grid:
        mq, _, ratio_err = rationalize_flow(window, measure, q)
        dev = 0.0
        for x, y in pairs:
            col = kernel_column_lambda_poly(window, mq, coeffs, y)
            dev = max(dev, abs(complex(col.value(x)) - complex(base_cols[y].value(x))))
        out.append({"q": q, "max_ratio_error": ratio_err, "max_kernel_dev": dev})
    return out
