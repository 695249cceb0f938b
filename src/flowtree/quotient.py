"""Flow submersions between windows: validation, construction, transference.

A submersion intertwines predecessors and successor sets; compatibility of
the two flow measures says each target branching ratio equals the mass
fraction of the matching fiber slice upstairs.  Windows with uniformly
rational branching ratios (common denominator q) are exactly the quotients
of the q-ary canonical tree, and the constructor below realizes the quotient
map top-down by repeating each child in a length-q successor list with
multiplicity q * m(child) / m(parent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .localops import KernelColumn
from .trees import (FlowMeasure, TreeError, TreeWindow, Vertex, _Builder,
                    validate_measure, validate_window)


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

    One pass over the source; a complete vertex sums its children's masses
    once per image for its successor and compatibility checks.  Exact in
    the rational backend; each violation carries a witness vertex (by kind,
    then in source order).  A vertex mapped nowhere or outside the target
    is reported as "unmapped", and then nothing else is.
    """
    src, tgt = sub.source, sub.target
    m1, m2 = sub.source_measure.values, sub.target_measure.values
    pi = sub.mapping
    exact = (sub.source_measure.backend == "rational"
             and sub.target_measure.backend == "rational")
    bad: dict[str, list] = {kind: [] for kind in (
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
        if p is not None and tp is not None:  # else the image is the apex
            counts["pred"] += 1
            if pi.get(p) != tp:
                bad["pred_intertwine"].append(v)
        if not src.is_complete(v):
            continue
        kids = src.children(v)
        slices: dict = {}  # image -> mass of v's children mapped there
        for c in kids:
            t = pi.get(c)
            slices[t] = slices.get(t, 0) + m1[c]
        if tgt.is_complete(tv):
            counts["succ"] += 1
            if slices.keys() != set(tgt.children(tv)):
                bad["succ_onto"].append(v)
        off = {}  # image with a target parent -> compatibility violated
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
    if bad["compatibility"]:  # witnessed by children, found parent by parent
        rank = {v: i for i, v in enumerate(src.level)}
        bad["compatibility"].sort(key=rank.__getitem__)
    violations = [(kind, v) for kind, vs in bad.items() for v in vs]
    return SubmersionReport(not violations, violations, shift, counts)


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
    Each target vertex's lifted list is computed once, for the first source
    vertex of its fiber.
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
    lifted: dict[Vertex, list[Vertex]] = {}  # target vertex -> lifted children
    stack = [0]
    while stack:
        s = stack.pop()
        tv = mapping[s]
        complete = target.is_complete(tv)
        lift = lifted.get(tv)
        if lift is None:
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
            lifted[tv] = lift
        if lift:
            kids = b.add(s, [b.values[s] / q] * len(lift), complete)
            mapping.update(zip(kids, lift))
            stack.extend(kids)

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
