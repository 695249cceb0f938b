"""Submersions: validation, quotient construction, transference, perturbation."""

import copy
import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtree import (FlowMeasure, TreeError, ball_window, constant_ratio_window,
                      safe_region, validate_measure)
from flowtree import quotient
from flowtree.localops import (indicator, kernel_column_lambda_poly,
                               kernel_column_poly)
from flowtree.ncpoly import Z1, Z2, NcPolynomial

from conftest import validate_submersion_fraction, weighted_col_sums, word_identity

GOLDEN = (math.sqrt(5) - 1) / 2


def rand_poly(rng, max_deg):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        word = tuple(rng.choice((Z1, Z2)) for _ in range(rng.randint(0, max_deg)))
        terms[word] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    p = NcPolynomial(terms)
    return p if p.terms and p.degree <= max_deg else NcPolynomial({(Z1,): 1})


def build(ratios, q, depth=6, up=0):
    target, tmeas, base = constant_ratio_window(ratios, depth=depth, up=up)
    sub = quotient.build_submersion_rational(target, tmeas, q)
    return target, tmeas, base, sub


def test_identity_quotient_is_isomorphism():
    _, _, _, sub = build((Fraction(1, 2), Fraction(1, 2)), 2, depth=5)
    rep = quotient.validate_submersion(sub)
    assert rep.ok
    cone_fibers = [v for t, v in sub.fibers().items()
                   if sub.target.parent(t) is not None]
    assert all(len(v) == 1 for v in cone_fibers)


def test_level_map_onto_line():
    # the line is a quotient of the binary tree via levels
    target, tmeas, base = constant_ratio_window((Fraction(1),), depth=7, up=0)
    sub = quotient.build_submersion_rational(target, tmeas, 2)
    rep = quotient.validate_submersion(sub)
    assert rep.ok and rep.level_shift == 0
    assert len(sub.source) == 2 ** 8 - 1
    # fibers are whole levels of the binary cone
    for t, fib in sub.fibers().items():
        assert len(fib) == 2 ** (sub.target.level[base] - sub.target.level[t]
                                 + 0) or sub.target.level[t] > sub.target.level[base]


def test_multiplicity_structure_three_one():
    target, tmeas, base, sub = build((Fraction(3, 4), Fraction(1, 4)), 4, depth=4)
    rep = quotient.validate_submersion(sub)
    assert rep.ok
    # within each complete source vertex the children map with multiplicity
    # q * ratio: three copies onto the heavy child, one onto the light child
    for s in sub.source.vertices:
        if not sub.source.is_complete(s):
            continue
        images = [sub.mapping[c] for c in sub.source.children(s)]
        heavy, light = sub.target.children(sub.mapping[s])
        assert images.count(heavy) == 3
        assert images.count(light) == 1


def test_compatibility_violation_witness():
    # two siblings of unequal mass mapped to swapped-ratio targets
    target, tmeas, base = constant_ratio_window((Fraction(3, 4), Fraction(1, 4)),
                                                depth=2, up=0)
    sub = quotient.build_submersion_rational(target, tmeas, 4)
    h, l = target.children(base)
    swapped = dict(sub.mapping)
    for s, t in sub.mapping.items():
        if t == h:
            swapped[s] = l
        elif t == l:
            swapped[s] = h
    bad = quotient.Submersion(sub.source, sub.source_measure, target, tmeas, swapped)
    rep = quotient.validate_submersion(bad)
    assert not rep.ok
    assert any(kind == "compatibility" for kind, _ in rep.violations)


def test_pushforward_identity():
    target, tmeas, base, sub = build((Fraction(1, 3), Fraction(2, 3)), 3, depth=5)
    c0 = tmeas.values[target.apex] / sub.source_measure.values[sub.source.apex]
    for t, fib in sub.fibers().items():
        mass = sum(sub.source_measure.values[s] for s in fib)
        assert mass * c0 == tmeas.values[t]


def test_fiber_average_identity_column():
    target, tmeas, base, sub = build((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
                                     3, depth=5)
    anchor_t = next(v for v in target.vertices
                    if target.level[v] == target.level[base] - 2)
    anchor_s = next(s for s, t in sub.mapping.items() if t == anchor_t)
    col = kernel_column_poly(sub.source, sub.source_measure,
                             word_identity(), anchor_s)
    pushed = quotient.fiber_average_kernel(sub, col)
    assert pushed.value(anchor_t) == 1 / tmeas.values[anchor_t]
    assert all(v == anchor_t for v in pushed.support())


def test_fiber_average_laplacian_through_level_map():
    """Averaging the Laplacian column over level fibers gives the line kernel."""
    target, tmeas, base = constant_ratio_window((Fraction(1),), depth=8, up=0)
    sub = quotient.build_submersion_rational(target, tmeas, 2)
    anchor_t = next(v for v in target.vertices
                    if target.level[v] == target.level[base] - 4)
    anchor_s = next(s for s, t in sub.mapping.items()
                    if t == anchor_t and s in safe_region(sub.source, 2))
    col = kernel_column_lambda_poly(sub.source, sub.source_measure,
                                    [Fraction(0), Fraction(1)], anchor_s)
    pushed = quotient.fiber_average_kernel(sub, col)
    from flowtree.zline import z_kernel_lambda_poly
    zk = z_kernel_lambda_poly([Fraction(0), Fraction(1)])
    for v in pushed.support():
        n = target.level[v] - target.level[anchor_t]
        assert pushed.value(v) == zk.get(n, Fraction(0))


def test_fiber_average_random_exact():
    rng = random.Random(23)
    target, tmeas, base, sub = build((Fraction(3, 4), Fraction(1, 4)), 4, depth=8)
    anchor_t = next(v for v in target.vertices
                    if target.level[v] == target.level[base] - 4)
    anchor_s = next(s for s, t in sub.mapping.items()
                    if t == anchor_t and s in safe_region(sub.source, 4))
    for _ in range(6):
        poly = rand_poly(rng, 4)
        col = kernel_column_poly(sub.source, sub.source_measure, poly, anchor_s)
        pushed = quotient.fiber_average_kernel(sub, col)
        direct = kernel_column_poly(target, tmeas, poly, anchor_t)
        for v in set(pushed.values) | set(direct.values):
            if v in pushed.safe and v in direct.safe:
                assert pushed.value(v) == direct.value(v)


def test_transference_contraction():
    """Weighted column mass never grows under fiber averaging."""
    rng = random.Random(31)
    target, tmeas, base, sub = build((Fraction(1, 4), Fraction(3, 4)), 4, depth=8)
    anchor_t = next(v for v in target.vertices
                    if target.level[v] == target.level[base] - 4)
    anchor_s = next(s for s, t in sub.mapping.items()
                    if t == anchor_t and s in safe_region(sub.source, 3))
    for _ in range(5):
        poly = rand_poly(rng, 3)
        col = kernel_column_poly(sub.source, sub.source_measure, poly, anchor_s)
        pushed = quotient.fiber_average_kernel(sub, col)
        for wfun in (lambda d, lx, ly: 1, lambda d, lx, ly: (1 + d) ** 2):
            up, _ = weighted_col_sums(sub.source, sub.source_measure, col, wfun)
            down, _ = weighted_col_sums(sub.target, tmeas, pushed, wfun)
            assert down <= up + Fraction(1, 10 ** 12)


def test_lift_then_average_is_identity():
    """Averaging the lift of a target function recovers it (unit pushforward)."""
    rng = random.Random(41)
    target, tmeas, base, sub = build((Fraction(1, 2), Fraction(1, 2)), 2, depth=6)
    fibers = sub.fibers()
    c0 = tmeas.values[target.apex] / sub.source_measure.values[sub.source.apex]
    for _ in range(5):
        g = {v: Fraction(rng.randint(-5, 5)) for v in target.vertices
             if rng.random() < 0.3}
        lifted = {s: g.get(t, Fraction(0)) for s, t in sub.mapping.items()}
        back = {}
        for t, fib in fibers.items():
            acc = sum(lifted[s] * sub.source_measure.values[s] for s in fib)
            back[t] = acc * c0 / tmeas.values[t]
        for t in g:
            assert back[t] == g[t]


def test_random_rational_profiles_validate():
    """Every constructed quotient passes validation, random ratio tuples."""
    rng = random.Random(77)
    for _ in range(6):
        q = rng.choice((2, 3, 4, 6))
        b = rng.randint(2, min(q, 3))
        # random positive numerators with common denominator q summing to q
        while True:
            cuts = sorted(rng.sample(range(1, q), b - 1)) if b > 1 else []
            parts = [a - b_ for a, b_ in zip(cuts + [q], [0] + cuts)]
            if all(p >= 1 for p in parts):
                break
        ratios = tuple(Fraction(p, q) for p in parts)
        target, tmeas, base = constant_ratio_window(ratios, depth=4, up=0)
        sub = quotient.build_submersion_rational(target, tmeas, q)
        rep = quotient.validate_submersion(sub)
        assert rep.ok, (ratios, q, rep.violations[:3])


def test_ratio_not_multiple_of_q():
    target, tmeas, base = constant_ratio_window((Fraction(1, 3), Fraction(2, 3)),
                                                depth=2)
    with pytest.raises(TreeError, match="ratio"):
        quotient.build_submersion_rational(target, tmeas, 4)


def test_rationalize_exact_reproduction():
    w, m, b = constant_ratio_window((Fraction(1, 3), Fraction(2, 3)), depth=4)
    mq, rows, err = quotient.rationalize_flow(w, m, 3)
    assert err == 0
    assert all(mq.values[v] == m.values[v] for v in w.vertices)


def test_rationalize_floor_and_anchor():
    r = 1 / math.sqrt(2)
    w, m, b = constant_ratio_window((r, 1 - r), depth=3, backend="float")
    mq, rows, err = quotient.rationalize_flow(w, m, 100)
    validate_measure(w, mq)
    for row in rows:
        if not w.is_complete(row.vertex):
            continue
        # heavy child floored to 70/100, remainder at the light anchor
        assert row.ratio == (Fraction(70, 100) if row.child_index == 0
                             else Fraction(30, 100))
    assert err <= (2 - 1) / 100 + 1e-15


def test_rationalize_threshold_witness():
    w, m, b = constant_ratio_window((Fraction(3, 10), Fraction(7, 10)), depth=2)
    with pytest.raises(TreeError, match="below 1/q"):
        quotient.rationalize_flow(w, m, 2)


def test_perturbation_probe_rational_flow_is_exact():
    w, m, b = constant_ratio_window((Fraction(1, 4), Fraction(3, 4)), depth=6)
    x = next(v for v in w.vertices if w.level[v] == w.level[b] - 3)
    tbl = quotient.perturbation_probe(w, m, [Fraction(0), Fraction(0), Fraction(1)],
                                      [4, 8, 16], [(x, x)])
    assert all(r["max_kernel_dev"] == 0 for r in tbl)


def test_perturbation_probe_golden_monotone():
    w, m, b = constant_ratio_window((GOLDEN, 1 - GOLDEN), depth=6, up=0,
                                    backend="float")
    safe2 = sorted(safe_region(w, 2))
    anchor = safe2[len(safe2) // 2]
    pairs = [(x, anchor) for x in safe2[::7][:8]]
    tbl = quotient.perturbation_probe(w, m, [Fraction(0), Fraction(0), Fraction(1)],
                                      [8, 64, 512], pairs)
    devs = [r["max_kernel_dev"] for r in tbl]
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert devs[-1] < devs[0] / 10


# Every violation kind on one small quotient: the 4-ary window over the
# (1/2, 1/2) window of depth 2 (21 source vertices over 7 target vertices;
# target vertices 1, 2 at level -1, leaves 3..6 at level -2).
CHECKED = {"pred": 20, "succ": 5, "level": 21, "compat": 20}


def as_float(sub):
    """The same quotient with both measures on the float backend."""
    return dataclasses.replace(
        sub, source_measure=FlowMeasure(
            {v: float(m) for v, m in sub.source_measure.values.items()}, "float"),
        target_measure=FlowMeasure(
            {v: float(m) for v, m in sub.target_measure.values.items()}, "float"))


def small_quotient(backend):
    target, tmeas, _ = constant_ratio_window((Fraction(1, 2), Fraction(1, 2)),
                                             depth=2)
    sub = quotient.build_submersion_rational(target, tmeas, 4)
    return as_float(sub) if backend == "float" else sub


def fiber(sub, t):
    """The fiber of target vertex t, in source-vertex order."""
    return [s for s in sub.source.vertices if sub.mapping[s] == t]


def witnesses(kind, vertices):
    return [(kind, v) for v in vertices]


BACKENDS = pytest.mark.parametrize("backend", ["rational", "float"])


@BACKENDS
def test_small_quotient_validates(backend):
    rep = quotient.validate_submersion(small_quotient(backend))
    assert (rep.ok, rep.violations, rep.level_shift, rep.checked) == (
        True, [], 0, CHECKED)


@BACKENDS
def test_unmapped_vertices_are_reported_alone(backend):
    sub = small_quotient(backend)
    sub.target.level[3] += 1  # a level fault the early return never sees
    del sub.mapping[20], sub.mapping[5]
    rep = quotient.validate_submersion(sub)
    assert (rep.ok, rep.violations, rep.level_shift, rep.checked) == (
        False, witnesses("unmapped", [5, 20]), None, {})


@BACKENDS
def test_image_outside_target_is_unmapped(backend):
    sub = small_quotient(backend)
    sub.mapping[7] = 10 ** 6
    rep = quotient.validate_submersion(sub)
    assert (rep.ok, rep.violations, rep.checked) == (
        False, witnesses("unmapped", [7]), {})


@BACKENDS
def test_level_shift_witnesses(backend):
    sub = small_quotient(backend)
    sub.target.level[4] += 1
    rep = quotient.validate_submersion(sub)
    assert rep.violations == witnesses("level_shift", fiber(sub, 4))
    assert (rep.level_shift, rep.checked) == (0, CHECKED)


@BACKENDS
def test_pred_intertwine_witnesses(backend):
    sub = small_quotient(backend)
    # 3 hangs under 2 instead of 1; both weigh 1/2, so compatibility holds
    sub.target.pred[3] = 2
    rep = quotient.validate_submersion(sub)
    assert rep.violations == witnesses("pred_intertwine", fiber(sub, 3))
    assert rep.checked == CHECKED


@BACKENDS
def test_succ_onto_witnesses(backend):
    sub = small_quotient(backend)
    sub.target.succ[2] = [5]
    rep = quotient.validate_submersion(sub)
    assert rep.violations == witnesses("succ_onto", fiber(sub, 2))
    assert rep.checked == CHECKED


@BACKENDS
def test_compatibility_witnesses_in_source_order(backend):
    sub = small_quotient(backend)
    sub.target_measure.values[3] *= 2
    rep = quotient.validate_submersion(sub)
    # found parent by parent (17 and 18, under source vertex 1, come
    # first), reported in source order
    assert fiber(sub, 3) == [13, 14, 17, 18]
    assert rep.violations == witnesses("compatibility", [13, 14, 17, 18])
    assert rep.checked == CHECKED


@BACKENDS
def test_compatibility_float_tolerance(backend):
    sub = small_quotient(backend)
    sub.target_measure.values[3] *= 1 + Fraction(1, 10 ** 14)
    rep = quotient.validate_submersion(sub)
    expect = [] if backend == "float" else witnesses("compatibility", fiber(sub, 3))
    assert rep.violations == expect


@BACKENDS
def test_violations_ordered_by_kind_then_source(backend):
    sub = small_quotient(backend)
    sub.target_measure.values[4] *= 2
    sub.target.succ[2] = [5]
    sub.target.pred[3] = 2
    sub.target.level[6] += 1
    rep = quotient.validate_submersion(sub)
    assert rep.violations == (witnesses("level_shift", fiber(sub, 6))
                              + witnesses("pred_intertwine", fiber(sub, 3))
                              + witnesses("succ_onto", fiber(sub, 2))
                              + witnesses("compatibility", fiber(sub, 4)))
    assert (rep.ok, rep.level_shift, rep.checked) == (False, 0, CHECKED)


# -- the integer cross-products against the Fraction reference ------------

def _quotients():
    out = {"binary": small_quotient("rational")}
    for name, ratios, q in (("three-one", (Fraction(3, 4), Fraction(1, 4)), 4),
                            ("two-one", (Fraction(2, 3), Fraction(1, 3)), 3)):
        target, tmeas, _ = constant_ratio_window(ratios, depth=3, up=1)
        out[name] = quotient.build_submersion_rational(target, tmeas, q)
    return out


QUOTIENTS = _quotients()
FACTORS = (Fraction(2), Fraction(1, 3), Fraction(-1), Fraction(0),
           1 + Fraction(1, 10 ** 14), Fraction(7, 5))


def mutate(sub, kind, i, j, factor):
    """One mutation of sub, in place; i and j pick the vertices."""
    src, tgt = sub.source, sub.target
    s_vs, t_vs = list(src.vertices), list(tgt.vertices)
    s, t, t2 = s_vs[i % len(s_vs)], t_vs[i % len(t_vs)], t_vs[j % len(t_vs)]
    m1, m2 = sub.source_measure.values, sub.target_measure.values
    if kind == "scale target mass":
        m2[t] = m2[t] * factor
    elif kind == "scale source mass":
        m1[s] = m1[s] * factor
    elif kind == "move mass":  # between two children of s with one image
        kids = src.succ.get(s, [])
        twins = [(a, b) for a in kids for b in kids
                 if a < b and sub.mapping.get(a) == sub.mapping.get(b)]
        if twins:
            a, b = twins[j % len(twins)]
            delta = m1[a] * factor / 7
            m1[a], m1[b] = m1[a] + delta, m1[b] - delta
    elif kind == "zero target mass":
        m2[t] = 0 * m2[t]
    elif kind == "int masses":  # an int where a Fraction (or float) was
        m1[s] = math.ceil(m1[s])
        m2[t] = math.floor(m2[t] * 4)
    elif kind == "rewire pred":
        tgt.pred[t] = t2
    elif kind == "shift level":
        (tgt.level if j % 2 else src.level)[t if j % 2 else s] += 1 if j % 3 else -1
    elif kind == "edit succ":
        kids = list(tgt.succ.get(t, []))
        tgt.succ[t] = kids[1:] + [t2] if j % 2 else kids[::-1][:1]
        src.succ[s] = list(src.succ.get(s, []))[j % 2:]
    elif kind == "flip complete":
        tgt.complete[t] = not tgt.complete.get(t, False)
    elif kind == "remap":
        sub.mapping[s] = t2
    elif kind == "unmap":
        if j % 2:
            sub.mapping.pop(s, None)
        else:
            sub.mapping[s] = 10 ** 6


MUTATIONS = ("scale target mass", "scale source mass", "move mass",
             "zero target mass", "int masses", "rewire pred", "shift level",
             "edit succ", "flip complete", "remap", "unmap")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(QUOTIENTS)), st.sampled_from(["rational", "float"]),
       st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 10 ** 6),
                          st.integers(0, 10 ** 6), st.sampled_from(FACTORS)),
                max_size=3))
def test_validation_matches_the_fraction_reference(name, backend, mutations):
    """Mutated quotients give the report of the Fraction reference: the same
    ok, violations and witnesses in order, level shift and counts."""
    sub = copy.deepcopy(QUOTIENTS[name])
    if backend == "float":
        sub = as_float(sub)
    for kind, i, j, factor in mutations:
        mutate(sub, kind, i, j, factor if backend == "rational" else float(factor))
    assert quotient.validate_submersion(sub) == validate_submersion_fraction(sub)


@pytest.mark.parametrize("ratios, q, size", [
    ((Fraction(2, 3), Fraction(1, 3)), 3, 29_524),
    ((Fraction(3, 4), Fraction(1, 4)), 4, 9_426),
], ids=["two-one-depth-9", "three-one-ball-4"])
def test_benchmark_sized_quotients_match_the_fraction_reference(ratios, q, size):
    """The two quotients the benchmark validates, intact and with one deep
    source mass off by a part in 10^12."""
    if q == 3:
        target, tmeas, _ = constant_ratio_window(ratios, depth=9)
    else:
        target, tmeas, _ = ball_window(ratios, 4)
    sub = quotient.build_submersion_rational(target, tmeas, q)
    assert len(sub.source) == size
    rep = quotient.validate_submersion(sub)
    assert rep.ok and rep == validate_submersion_fraction(sub)
    deep = max(sub.source.vertices, key=lambda v: (-sub.source.level[v], v))
    sub.source_measure.values[deep] *= 1 + Fraction(1, 10 ** 12)
    rep = quotient.validate_submersion(sub)
    assert rep == validate_submersion_fraction(sub)
    assert rep.violations == [("compatibility", deep)]


# -- random small flows, one target-side mutation each ---------------------

@st.composite
def rational_flows(draw):
    """A small window of a flow whose branching ratios are multiples of 1/q
    (a constant-ratio cone or a ratio ball, depth or radius at most 3),
    with its q."""
    q = draw(st.sampled_from((2, 3, 4, 6)))
    cuts = draw(st.lists(st.integers(1, q - 1), max_size=2, unique=True))
    parts = [b - a for a, b in zip([0] + sorted(cuts), sorted(cuts) + [q])]
    ratios = tuple(Fraction(p, q) for p in parts)
    depth = draw(st.integers(0, 3))
    if draw(st.booleans()):
        target, tmeas, _ = constant_ratio_window(ratios, depth=depth,
                                                 up=draw(st.integers(0, 1)))
    else:
        target, tmeas, _ = ball_window(ratios, depth)
    return target, tmeas, q


TARGET_MUTATIONS = ("remap", "unmap", "shift target level", "rehang target pred",
                    "add target succ", "drop target succ", "scale target mass")
# off by a part in 10^8 fails the float test too, by a part in 10^14 only the exact one
SCALES = (Fraction(2), Fraction(0), Fraction(-1), 1 + Fraction(1, 10 ** 8),
          1 + Fraction(1, 10 ** 14))


def mutate_target(sub, kind, i, j, factor):
    """One mutation of sub's mapping or target, in place; i and j pick the
    vertices."""
    s_vs, t_vs = list(sub.source.vertices), list(sub.target.vertices)
    s, t, t2 = s_vs[i % len(s_vs)], t_vs[i % len(t_vs)], t_vs[j % len(t_vs)]
    tgt = sub.target
    if kind == "remap":
        sub.mapping[s] = t2
    elif kind == "unmap":
        del sub.mapping[s]
    elif kind == "shift target level":
        tgt.level[t] += 1 if j % 2 else -1
    elif kind == "rehang target pred":
        tgt.pred[t] = t2
    elif kind in ("add target succ", "drop target succ"):  # where it is checked
        parents = [v for v in t_vs if tgt.is_complete(v)] or t_vs
        t = parents[i % len(parents)]
        tgt.succ[t] = (tgt.children(t) + [t2] if kind == "add target succ"
                       else tgt.children(t)[1:])
    elif kind == "scale target mass":
        sub.target_measure.values[t] *= factor


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(rational_flows(), st.sampled_from(["rational", "float"]),
       st.sampled_from(TARGET_MUTATIONS), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6), st.sampled_from(SCALES))
def test_random_flows_match_the_fraction_reference(flow, backend, kind, i, j, factor):
    """Quotients of random small rational flows, each with one mutation of
    its mapping or target, give the Fraction reference's report, field for
    field."""
    target, tmeas, q = flow
    sub = quotient.build_submersion_rational(target, tmeas, q)
    if backend == "float":
        sub = as_float(sub)
    mutate_target(sub, kind, i, j, factor if backend == "rational" else float(factor))
    rep, ref = quotient.validate_submersion(sub), validate_submersion_fraction(sub)
    for f in dataclasses.fields(rep):
        assert getattr(rep, f.name) == getattr(ref, f.name), f.name


@BACKENDS
def test_validation_reads_the_windows_not_their_cached_views(backend):
    """Array views cached before the target changes do not hide its level,
    successor or mass violations."""
    sub = small_quotient(backend)
    for window, measure in ((sub.source, sub.source_measure),
                            (sub.target, sub.target_measure)):
        window.arrays().masses(measure)
    sub.target.level[6] += 1
    sub.target.succ[2] = [5]
    sub.target_measure.values[4] *= 2
    rep = quotient.validate_submersion(sub)
    assert rep.violations == (witnesses("level_shift", fiber(sub, 6))
                              + witnesses("succ_onto", fiber(sub, 2))
                              + witnesses("compatibility", fiber(sub, 4)))
    assert rep == validate_submersion_fraction(sub)
