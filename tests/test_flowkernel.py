"""The ancestor-profile kernel formula against independent evaluations.

This identity (kernel values of functions of the flow Laplacian depend only
on the two levels and the common-ancestor measures) is the workhorse behind
every large-time computation, so it gets exact pinning on homogeneous,
rational nonhomogeneous, and float windows, plus the grouped level and
column sums against brute-force window enumeration.
"""

import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from flowtree import TreeError, ball_window, constant_ratio_window, spine_window
from flowtree import abel, analysis, flowkernel, zline
from flowtree.localops import kernel_column_lambda_poly

from conftest import profile_value_exact, weighted_col_sums


def exact_pair(window, measure, coeffs, x, z):
    gk = zline.z_gradkernel_lambda_poly(coeffs)
    a = window.lca(x, z)
    return profile_value_exact(
        gk, window, measure, x, window.level[x], window.level[z], window.level[a])


def test_exact_on_homogeneous():
    q = 3
    w, m, c = ball_window(q, 6)
    rng = random.Random(2)
    import flowtree.trees as trees
    safe = sorted(trees.safe_region(w, 3))
    for _ in range(25):
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                  for _ in range(4)]
        x = rng.choice(safe)
        z = rng.choice(safe)
        col = kernel_column_lambda_poly(w, m, coeffs, z)
        assert exact_pair(w, m, coeffs, x, z) == col.value(x)


def test_exact_on_mixed_ratio_tree():
    patterns = (Fraction(3, 4), Fraction(1, 4))
    w, m, b = constant_ratio_window(patterns, depth=8, up=4)
    import flowtree.trees as trees
    safe = sorted(trees.safe_region(w, 3))
    rng = random.Random(4)
    for _ in range(25):
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                  for _ in range(4)]
        x, z = rng.choice(safe), rng.choice(safe)
        col = kernel_column_lambda_poly(w, m, coeffs, z)
        assert exact_pair(w, m, coeffs, x, z) == col.value(x)


def test_matches_radial_formula_on_canonical_tree():
    q = 2
    t = 3.0
    gradk = zline.heat_z_gradkernel(t, 90)
    rad = abel.radial_from_gradkernel(q, gradk, 40)
    w, m, c = ball_window(q, 8)
    chain = flowkernel.chain_of(w, m, c, len(gradk) - 1)
    for z in list(w.vertices)[:200]:
        d = w.distance(z, c)
        if d > 16:
            continue
        a = w.lca(c, z)
        got = flowkernel.variant_value(gradk, chain, w.level[c], w.level[z],
                                       w.level[a], "plain")
        want, err = abel.homog_kernel_value(q, rad, w.level[c], w.level[z], d)
        assert abs(got - want) <= err + 1e-13


def test_float_gradient_variants_match_shifted_pairs():
    w, m, b = constant_ratio_window((0.3, 0.7), depth=7, up=30, backend="float")
    t = 2.5
    gradk = zline.heat_z_gradkernel(t, 120)
    import flowtree.trees as trees
    safe = sorted(trees.safe_region(w, 2))
    rng = random.Random(9)
    for _ in range(20):
        x, z = rng.choice(safe), rng.choice(safe)
        cx = flowkernel.chain_of(w, m, x)
        a = w.lca(x, z)
        lx, lz, j0 = w.level[x], w.level[z], w.level[a]
        base = flowkernel.variant_value(gradk, cx, lx, lz, j0, "plain")
        px = w.parent(x)
        cpx = flowkernel.chain_of(w, m, px)
        apx = w.lca(px, z)
        base_px = flowkernel.variant_value(gradk, cpx, w.level[px], lz,
                                           w.level[apx], "plain")
        got = flowkernel.variant_value(gradk, cx, lx, lz, j0, "grad_x")
        assert abs(got - (base - base_px)) < 1e-13


def test_level_sum_matches_brute_force():
    """Grouped level sums equal enumeration over the slice below the cone top.

    The chain is capped at the cone base so both sides see exactly the
    descendants of the base (the full infinite slice has extra mass under
    missing chain siblings, which the window cannot enumerate).
    """
    w, m, b = constant_ratio_window((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                                    depth=7, up=40)
    t = 1.5
    gradk = zline.heat_z_gradkernel(t, 160)
    x = w.children(b)[0]
    lx = w.level[x]
    full = flowkernel.chain_of(w, m, x, len(gradk) - 1)
    lb = w.level[b]
    lam, j, value_mass, _ = flowkernel.column_masses(full, gradk, lx, "gradstar_z")
    km = np.abs(value_mass)
    for l in (lx - 3, lx - 1, lx, lx + 1):
        got = float(np.sum(km[(lam == l) & (j <= lb)]))
        brute = 0.0
        for z in w.vertices:
            if w.level[z] != l or w.lca(z, b) != b:
                continue
            a = w.lca(x, z)
            v = flowkernel.variant_value(gradk, full, lx, l, w.level[a], "grad_x")
            brute += abs(v) * m.as_float(z)
        assert abs(got - brute) < 1e-12 * max(1.0, brute) + 1e-13


def test_weighted_colsum_matches_homog_radial():
    q = 3
    t = 4.0
    gradk = zline.heat_z_gradkernel(t, 140)
    rad = abel.radial_from_gradkernel(q, gradk, 100)
    w, m, c = ball_window(q, 4)
    chain = flowkernel.chain_of(w, m, c, len(gradk) - 1)
    eps = 1.0
    wfun = lambda d: np.exp(eps * d / math.sqrt(t))
    for variant in flowkernel.VARIANTS:
        got = flowkernel.weighted_colsum(chain, gradk, w.level[c], wfun, variant)
        want, _ = abel.homog_weighted_opsum(q, rad, wfun, variant,
                                            tail_check=False)
        assert abs(got - want) < 1e-9 * max(1.0, want)


def random_flow_window(rng, depth=5, up=3):
    """Random-shape window: branching 1..3, random rational mass splits."""
    from flowtree.trees import FlowMeasure, TreeWindow, validate_measure, validate_window
    pred, succ, level, complete, vals = {}, {}, {}, {}, {}
    nid = 0

    def add(p, lv, mass):
        nonlocal nid
        v = nid
        nid += 1
        pred_entry = {} if p is None else {v: p}
        pred.update(pred_entry)
        succ[v] = []
        level[v] = lv
        complete[v] = False
        vals[v] = mass
        if p is not None:
            succ[p].append(v)
        return v

    apex = add(None, up, Fraction(1))
    cur = apex
    for j in range(up):
        cur = add(cur, up - j - 1, vals[cur] * Fraction(rng.randint(1, 3), 4))
    frontier = [cur]
    for _ in range(depth):
        nxt = []
        for v in frontier:
            b = rng.randint(1, 3)
            weights = [rng.randint(1, 5) for _ in range(b)]
            tot = sum(weights)
            for wt in weights:
                nxt.append(add(v, level[v] - 1, vals[v] * Fraction(wt, tot)))
            complete[v] = True
        frontier = nxt
    window = TreeWindow(apex, pred, succ, level, complete)
    measure = FlowMeasure(vals, "rational")
    validate_window(window)
    validate_measure(window, measure)
    return window, measure, cur


def test_exact_on_random_trees():
    """The ancestor-profile formula survives arbitrary shapes and splits."""
    import flowtree.trees as trees
    rng = random.Random(99)
    for trial in range(6):
        w, m, base = random_flow_window(rng)
        safe = sorted(trees.safe_region(w, 3))
        if len(safe) < 2:
            continue
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                  for _ in range(4)]
        for _ in range(8):
            x, z = rng.choice(safe), rng.choice(safe)
            col = kernel_column_lambda_poly(w, m, coeffs, z)
            assert exact_pair(w, m, coeffs, x, z) == col.value(x), (trial, x, z)


def test_weighted_colsum_matches_window_enumeration():
    w, m, b = constant_ratio_window((Fraction(2, 3), Fraction(1, 3)), depth=9, up=50)
    coeffs = [Fraction(0), Fraction(1), Fraction(-1, 2)]
    gk_exact = zline.z_gradkernel_lambda_poly(coeffs)
    nmax = max(abs(n) for n in gk_exact) + 1
    gradk = np.zeros(nmax + 1, dtype=complex)
    for n, v in gk_exact.items():
        if n >= 0:
            gradk[n] = float(v)
    y = [v for v in w.vertices if w.level[v] == w.level[b] - 4][0]
    col = kernel_column_lambda_poly(w, m, coeffs, y)
    want, truncated = weighted_col_sums(w, m, col, lambda d, lx, ly: 1.0 + d)
    assert not truncated
    chain = flowkernel.chain_of(w, m, y)
    got = flowkernel.weighted_colsum(chain, gradk, w.level[y],
                                     lambda d: 1.0 + d, "plain")
    assert abs(got - float(want)) < 1e-12


VARIANTS = ("plain", "grad_x", "gradstar_z", "grad_both")


def exact_variant(gk, window, measure, x, lx, lz, j0, variant):
    """A variant from exact profile sums over the ancestors of x: a gradient
    replaces its vertex by the predecessor, which meets the other vertex at
    max(j0, level + 1)."""
    p = lambda a, b, j: profile_value_exact(gk, window, measure, x, a, b, j)
    v = p(lx, lz, j0)
    if variant in ("grad_x", "grad_both"):
        v -= p(lx + 1, lz, max(j0, lx + 1))
    if variant in ("gradstar_z", "grad_both"):
        v -= p(lx, lz + 1, max(j0, lz + 1))
    if variant == "grad_both":
        v += p(lx + 1, lz + 1, max(j0, lx + 1, lz + 1))
    return v


@pytest.mark.parametrize("ratios", [
    (Fraction(2, 3), Fraction(1, 3)),
    (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))])
def test_array_variants_match_exact_profile_sums(ratios):
    """Array calls of every variant against exact profile sums on rational
    chains, at random pairs plus the kernel-support edge and the chain top;
    a scalar call gives the same bits as the array entry."""
    w, m, b = constant_ratio_window(ratios, depth=5, up=12)
    x = next(v for v in w.vertices if w.level[v] == w.level[b] - 5)
    chain = flowkernel.chain_of(w, m, x)
    rng = random.Random(17)
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)]
    gk = zline.z_gradkernel_lambda_poly(coeffs)
    nmax = max(gk)
    gradk = np.array([float(gk.get(n, 0)) for n in range(nmax + 1)])
    base, top = chain.base_level, chain.top_level
    pairs = []
    for _ in range(150):
        j0 = rng.randint(base, top + 1)
        pairs.append((rng.randint(j0 - nmax - 2, j0), rng.randint(j0 - nmax - 2, j0), j0))
    for lz in range(base - 3, base + 2):
        for lx in range(lz - 2, lz + 3):
            # meeting levels on both sides of the kernel-support edge, and
            # the chain top
            j_edge = (nmax + lx + lz) // 2
            pairs += [(lx, lz, j) for j in (j_edge - 1, j_edge, j_edge + 1, top)
                      if base <= j and max(lx, lz) <= j]
    lx, lz, j0 = (np.array(col) for col in zip(*pairs))
    for variant in VARIANTS:
        got = flowkernel.variant_value(gradk, chain, lx, lz, j0, variant)
        want = np.array([float(exact_variant(gk, w, m, x, *p, variant)) for p in pairs])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        for i in range(0, len(pairs), 7):
            one = flowkernel.variant_value(gradk, chain, *pairs[i], variant)
            assert isinstance(one, complex) and one == got[i]


def test_meeting_level_below_chain_or_vertex_raises():
    w, m, b = constant_ratio_window((Fraction(2, 3), Fraction(1, 3)), depth=3, up=4)
    chain = flowkernel.chain_of(w, m, b)
    gradk = zline.heat_z_gradkernel(1.0, 20)
    lb = w.level[b]
    with pytest.raises(TreeError, match="below the chain base"):
        flowkernel.variant_value(gradk, chain, lb - 1, lb - 2, np.array([lb, lb - 1]))
    with pytest.raises(TreeError, match="a vertex's level"):
        flowkernel.variant_value(gradk, chain, lb + 1, lb, lb, "grad_x")
    with pytest.raises(TreeError, match="a vertex's level"):
        flowkernel.variant_value(gradk, chain, lb + 2, lb, lb + 1, "grad_x")


def _every_candidate_group(chain, gradk, ly, variant):
    """column_masses listed the long way: every level j down to 2j - ly -
    nmax - 2 at every meeting level j, with the empty groups dropped after;
    a group's share of m(a_j) is 1, or 1 - m(a_{j-1})/m(a_j) for the rest
    of a slice."""
    nmax = len(gradk) - 1
    rows = []
    for j in range(ly, min(chain.top_level, ly + nmax + 2) + 1):
        for lam in range(j, 2 * j - ly - nmax - 3, -1):
            rows.append((lam, j, j == ly or lam == j))
    lam, j, whole = (np.array(col) for col in zip(*rows))
    n = j - chain.base_level
    share = np.where(whole, 1.0, 1.0 - chain.ratio(np.maximum(n - 1, ly - chain.base_level), n))
    keep = share > 0
    lam, j, share, n = lam[keep], j[keep], share[keep], n[keep]
    value_mass = flowkernel._scaled_value(gradk, chain, lam, ly, j, variant) * share
    return lam, j, value_mass, np.log2(chain.mantissa[n] * share) + chain.exponent[n]


@pytest.mark.parametrize("make", [
    lambda: ball_window(1, 12), lambda: spine_window(40), lambda: ball_window(2, 0),
    lambda: ball_window((Fraction(3, 4), Fraction(1, 4)), 0)],
    ids=["line", "spine", "binary", "ratios"])
def test_column_groups_skip_empty_slices_in_the_same_order(make):
    """A level whose slice holds its chain vertex alone lists that vertex
    only; the groups, their order, values times masses and log masses are
    those of listing every candidate and dropping the empty ones."""
    w, m, y = make()
    gradk = analysis._heat_gradk(16.0)
    chain = flowkernel.chain_of(w, m, y, len(gradk) - 1)
    for variant in ("plain", "gradstar_z"):
        got = flowkernel.column_masses(chain, gradk, w.level[y], variant)
        want = _every_candidate_group(chain, gradk, w.level[y], variant)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_line_column_groups_are_few_and_small():
    """On the line at t = 1e5 only the slice below the anchor and the chain
    vertices are groups: 2 nmax + 5 of them, listed under 20 MiB."""
    w, m, y = ball_window(1, 12)
    gradk = analysis._heat_gradk(1e5)
    chain = flowkernel.chain_of(w, m, y, len(gradk) - 1)
    tracemalloc.start()
    try:
        lam, j, value_mass, log2_mass = flowkernel.column_masses(chain, gradk,
                                                                 w.level[y], "plain")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20
    assert len(lam) == 2 * (len(gradk) - 1) + 5
    assert np.all((j == w.level[y]) | (lam == j)) and np.all(log2_mass == 0.0)
    assert abs(np.sum(value_mass.real) - 1.0) <= 1e-12


def test_suffix_sums_in_blocks_give_the_same_bits(monkeypatch):
    """A table split into row blocks (to bound memory) sums every value in
    the same order as one block."""
    w, m, c = ball_window(2, 0, backend="float")
    gradk = zline.heat_z_gradkernel(16.0, 80)
    chain = flowkernel.chain_of(w, m, c, len(gradk) - 1)
    whole = flowkernel.distance_masses(chain, gradk, 0, "grad_both")
    monkeypatch.setattr(flowkernel, "_BLOCK_ENTRIES", 50)
    assert np.array_equal(flowkernel.distance_masses(chain, gradk, 0, "grad_both"),
                          whole)


@pytest.mark.parametrize("spike, drops", [(False, [1]), (True, [1, 0])])
def test_suffix_sums_drop_only_blocks_that_change_no_bit(monkeypatch, spike, drops):
    """On the binary chain (blocks of 864 levels) a row read 1,728 levels
    below its top leaves out its top block when the block below carries its
    sum on unchanged, and is summed from the top when a spike in the top
    block reaches the read entry through zeros; either way the bits are
    those of the whole row (a chain said to fall is never cut)."""
    w, m, c = ball_window(2, 0, backend="float")
    n = np.arange(5000)
    h = np.zeros(5000) if spike else 1.0 / (n + 1.0) ** 2
    h[2 * 1640 + 1] = 1.0          # a term at level 1640, in the top block
    chain = flowkernel.chain_of(w, m, c, len(h) - 1)
    whole = dataclasses.replace(chain)
    whole.never_falls = False
    args = (np.array([0]), np.array([771]), np.array([771]))
    block_sums, seen = flowkernel._block_sums, []
    monkeypatch.setattr(flowkernel, "_block_sums",
                        lambda *a: seen.append(a[-1]) or block_sums(*a))
    got = flowkernel._suffix_sums(h, chain, *args)
    assert seen == drops
    want = flowkernel._suffix_sums(h, whole, *args)
    assert got.tobytes() == want.tobytes() and (want != 0).all()


# (q, t) across degrees and times: at q^(nmax + 2) past 1e308 (q = 8 from
# t = 1024, q = 64 from t = 256) the measures leave double range, and the
# group sums run on their ratios; (3, 1024) and (64, 64) add an odd degree
# and a time between the grid's
FULL_REACH = ([(q, t) for q in (2, 8, 64, 512, 4096) for t in (16.0, 256.0, 1024.0, 4096.0)]
              + [(3, 1024.0), (64, 64.0)])


@pytest.mark.parametrize("q, t", FULL_REACH)
def test_group_sums_match_the_radial_route(q, t):
    """The profile route's weighted column sums (weight e^{d/sqrt t}) equal
    the radial route's closed-form operator sums for every variant, and the
    heat column's masses per distance add up to 1, at large t and large q."""
    gradk = analysis._heat_gradk(t)
    rad = abel.radial_from_gradkernel(q, gradk, len(gradk) - 3)
    w, m, c = ball_window(q, 0, backend="float")
    chain = flowkernel.chain_of(w, m, c, len(gradk) - 1)
    assert not chain.truncated
    for variant in flowkernel.VARIANTS:
        got = flowkernel.weighted_colsum(chain, gradk, 0,
                                         lambda d: np.exp(d / math.sqrt(t)), variant)
        want, _ = abel.homog_weighted_opsum(q, rad, lambda d: math.exp(d / math.sqrt(t)),
                                            variant)
        assert abs(got - want) <= 1e-12 * want
    assert abs(flowkernel.distance_masses(chain, gradk, 0).sum() - 1.0) <= 1e-12


def test_chain_climbs_to_its_reach():
    """A chain for a kernel of largest index nmax holds levels up to
    level(x) + nmax + 2, past the apex by the growth law; with no nmax it
    stops at the apex; a window with no growth law is flagged truncated."""
    w, m, b = constant_ratio_window((Fraction(2, 3), Fraction(1, 3)), depth=3, up=4)
    lb = w.level[b]
    assert flowkernel.chain_of(w, m, b).top_level == w.level[w.apex]
    assert flowkernel.chain_of(w, m, b, 40).top_level == lb + 42
    chain = flowkernel.chain_of(dataclasses.replace(w, up_ratio=None), m, b, 40)
    assert chain.truncated and chain.top_level == w.level[w.apex]
