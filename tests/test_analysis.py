"""Heat, Riesz, level-sum, multiplier, and spectrum experiments."""

import dataclasses
import functools
import json
import math
import warnings
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowtree import (ball_window, constant_ratio_window, load_window,
                      safe_region, spine_window, window_to_json)
from flowtree import analysis, flowkernel, zline
from flowtree.analysis import RIESZ_CUT, QuadratureSpec
from flowtree.trees import ball

from conftest import (doubled_grid_two_pass, grad_heat_kernel_column, heat_z_kernel,
                      meeting_levels, modulation, modulation_conjugate_model,
                      riesz_quadrature, sobolev_norms_full_grid, weighted_colsum)

GOLDEN = (math.sqrt(5) - 1) / 2


def test_heat_column_t0_is_identity(t2_ball):
    w, m, c = t2_ball
    col = analysis.heat_kernel_column(w, m, 0.0, c)
    assert col.values == {c: 1.0 / m.as_float(c)}


def test_heat_column_matches_line_oracle(z_ball):
    w, m, c = z_ball
    col = analysis.heat_kernel_column(w, m, 1.0, c)
    zk = zline.z_multiplier_kernel(lambda lam: np.exp(-lam), 25)
    for x in w.vertices:
        n = w.level[x] - w.level[c]
        assert abs(col.value(x) - zk.value(n)) < 1e-12


def test_heat_mass_conservation():
    w, m, c = ball_window(2, 16, backend="float")
    col = analysis.heat_kernel_column(w, m, 2.0, c)
    mass = sum(complex(v).real * m.as_float(x) for x, v in col.values.items())
    assert abs(mass - 1.0) < 1e-9


def _ratio_cone():
    w, m, b = constant_ratio_window((Fraction(2, 3), Fraction(1, 3)), depth=6, up=40)
    return w, m, next(v for v in w.vertices if w.level[v] == w.level[b] - 3)


def _loaded_file():
    w, m, _ = constant_ratio_window((Fraction(3, 4), Fraction(1, 4)), depth=5, up=8)
    w, m = load_window(json.dumps(window_to_json(w, m)))
    return w, m, sorted(w.vertices)[len(w) // 2]


# (window maker, whether the group masses are exact sums of vertex masses)
GROUP_WINDOWS = {
    "binary-6": (lambda: ball_window(2, 6), True),
    "ternary-4": (lambda: ball_window(3, 4), True),
    "binary-float-8": (lambda: ball_window(2, 8, backend="float"), False),
    "golden": (lambda: ball_window((GOLDEN, 1 - GOLDEN), 6, center_level=-6,
                                   backend="float"), False),
    "ratio-cone": (_ratio_cone, False),
    "spine": (lambda: spine_window(40), False),
    "loaded": (_loaded_file, False),
}


@pytest.mark.parametrize("name", GROUP_WINDOWS)
def test_heat_column_groups_match_the_vertices(name):
    """Every vertex's heat value is its (level, meeting level) group's
    value: bit for bit as value_mass / m(a_j) where the group's mass is its
    meeting ancestor's, else to 1e-12; and a group wholly inside the
    anchor's complete ball holds the group's mass, to 1e-14 on rational
    balls, else to 1e-12."""
    make, exact = GROUP_WINDOWS[name]
    w, m, y = make()
    ly = w.level[y]
    meet = meeting_levels(w, y)
    inside = w.defect_distances().get(y, 0)
    for t in (0.0, 0.5, 4.0):
        rep = analysis.heat_column_groups(functools.partial(flowkernel.chain_of, w, m, y), t)
        col = analysis.heat_kernel_column(w, m, t, y)
        chain = flowkernel.chain_of(w, m, y, len(analysis._heat_gradk(t)) - 1)
        groups = {(r["level"], r["meeting_level"]): r for r in rep.rows}
        assert len(groups) == len(rep.rows)
        held = defaultdict(int)
        for x in w.vertices:
            key = (w.level[x], meet[x])
            v = complex(col.values.get(x, 0))
            if key not in groups:
                assert v == 0
                continue
            g = groups[key]
            assert v.imag == 0 and g["distance"] == w.distance(x, y)
            if key[1] == ly or key[0] == key[1]:   # the group's mass is m(a_j)
                assert g["value_mass"] * chain.inverse_measures(key[1]) == v.real
            else:
                assert abs(v.real * 10 ** g["log10_mass"] - g["value_mass"]) <= \
                    1e-12 * abs(g["value_mass"])
            held[key] += m.values[x]
        checked = 0
        for key, total in held.items():
            want = 10 ** groups[key]["log10_mass"]
            if groups[key]["distance"] <= inside:
                checked += 1
                assert abs(float(total) - want) <= (1e-14 if exact else 1e-12) * want
        assert checked > 0


@pytest.mark.parametrize("make", [
    lambda: ball_window(2, 0), lambda: ball_window(3, 0), lambda: ball_window(8, 0),
    lambda: ball_window(1, 12),
    lambda: ball_window((GOLDEN, 1 - GOLDEN), 0, backend="float"),
    lambda: ball_window((Fraction(3, 4), Fraction(1, 4)), 0),
    lambda: spine_window(140),
], ids=["q2", "q3", "q8", "line", "golden", "ratios", "spine"])
def test_heat_column_groups_hold_the_mass(make):
    """The groups' value * mass adds up to 1 within 1e-12, from t = 0 to 64."""
    w, m, y = make()
    for t in (0.0, 0.5, 4.0, 64.0):
        rep = analysis.heat_column_groups(functools.partial(flowkernel.chain_of, w, m, y), t)
        assert not rep.meta["truncated"]
        assert abs(rep.meta["mass"] - 1.0) <= 1e-12
        assert abs(math.fsum(r["value_mass"] for r in rep.rows) - 1.0) <= 1e-12


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 64).flatmap(lambda b: st.tuples(st.integers(1, b - 1), st.just(b))),
       st.floats(0.0, 1024.0))
@example((1, 64), 1024.0)
def test_heat_groups_hold_the_mass_on_two_way_flows(split, t):
    """On every two-way flow (a/b, 1 - a/b) with b <= 64, for t up to 1024,
    where the ancestor measures may grow past 1e308, the groups' value_mass
    adds up to 1 within 1e-12, with no exception and no RuntimeWarning."""
    a, b = split
    w, m, y = ball_window((Fraction(a, b), 1 - Fraction(a, b)), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = analysis.heat_column_groups(functools.partial(flowkernel.chain_of, w, m, y), t)
    assert abs(rep.meta["mass"] - 1.0) <= 1e-12


def test_heat_positivity(t2_ball):
    w, m, c = t2_ball
    col = analysis.heat_kernel_column(w, m, 3.0, c)
    assert all(complex(v).real > -1e-13 for v in col.values.values())


def test_grad_heat_t0_and_zero_pairing(t2_ball):
    w, m, c = t2_ball
    col0 = grad_heat_kernel_column(w, m, 0.0, c, side="x")
    assert col0.value(c) == 1.0 / m.as_float(c)
    for ch in w.children(c):
        assert col0.value(ch) == -1.0 / m.as_float(c)
    assert set(col0.support()) == {c, *w.children(c)}
    # pairing with constants vanishes: columns of grad e^{-tL} kill 1
    w2, m2, c2 = ball_window(2, 14, backend="float")
    col = grad_heat_kernel_column(w2, m2, 1.0, c2, side="x")
    tot = sum(complex(v) * m2.as_float(x) for x, v in col.values.items())
    assert abs(tot) < 1e-10


def test_grad_heat_sides_and_decay(z_ball):
    w, m, c = z_ball
    gx = grad_heat_kernel_column(w, m, 1.0, c, side="x")
    gk = zline.heat_z_gradkernel(1.0, 30)
    kk = heat_z_kernel(1.0, 31)
    for x in w.vertices:
        n = w.level[x] - w.level[c]
        want = kk[abs(n)] - kk[abs(n + 1)]
        assert abs(gx.value(x) - want) < 1e-12
    sup1 = sum(abs(gx.value(x)) for x in w.vertices)
    gx16 = grad_heat_kernel_column(w, m, 16.0, c, side="x")
    sup16 = sum(abs(gx16.value(x)) for x in w.vertices)
    assert sup16 < sup1


def test_grad_heat_side_y_profile_vs_cheb():
    from flowtree.chebyshev import cheb_approx, cheb_column
    w, m, c = ball_window(2, 12, backend="float")
    prof = grad_heat_kernel_column(w, m, 1.0, c, side="y")
    model = cheb_approx(lambda lam: np.exp(-lam), 11)
    base = cheb_column(w, m, model, c)
    other = cheb_column(w, m, model, w.parent(c))
    for x in base.safe & other.safe:
        cheb = base.value(x) - other.value(x)
        assert abs(prof.value(x) - cheb) <= base.err_bound + other.err_bound + 1e-10


@pytest.mark.parametrize("make", [
    lambda: ball_window(2, 4),
    lambda: ball_window(3, 3, backend="float"),
    lambda: constant_ratio_window((Fraction(2, 3), Fraction(1, 3)), depth=4, up=3),
], ids=["rational_ball", "float_ball", "ratio_window"])
def test_grad_heat_t0_columns_are_the_gradient_stencils(make):
    """At t = 0 the heat operator is the identity, so side "x" is y less its
    children and side "y" is y less its parent, exactly and certified on
    the whole window."""
    w, m, y = make()
    my, p = m.as_float(y), w.parent(y)
    want = {"x": {y: 1 / my, **{c: -1 / my for c in w.children(y)}},
            "y": {y: 1 / my, p: -1 / m.as_float(p)}}
    for side, values in want.items():
        col = grad_heat_kernel_column(w, m, 0.0, y, side=side)
        assert col.values == values
        assert col.safe == frozenset(w.vertices)


def test_level_sum_small_t_bounded():
    w, m, c = ball_window(2, 4)
    rep = analysis.level_sum_estimate(functools.partial(flowkernel.chain_of, w, m, c), [1e-3])
    assert rep.rows[0]["value"] <= 2.0 + 1e-9


def test_level_sum_slopes_both_orientations():
    w, m, c = ball_window(2, 4)
    ts = [1, 2, 4, 8, 16, 32, 64, 128]
    for orient in ("x", "z"):
        rep = analysis.level_sum_estimate(functools.partial(flowkernel.chain_of, w, m, c), ts,
                                          orientation=orient)
        assert abs(rep.fit["slope"] + 1.0) < 0.1


@pytest.mark.parametrize("flow", [2, 64, (Fraction(3, 4), Fraction(1, 4))],
                         ids=["q2", "q64", "3:1"])
def test_level_sum_rows_match_the_per_level_loop(flow):
    """The per-level sums, one bincount over the column's groups, equal a
    masked sum per level within 1e-14 (they add in another order), at the
    same level."""
    w, m, c = ball_window(flow, 0)
    ts = [0.5, 4.0, 64.0, 1024.0]
    rep = analysis.level_sum_estimate(functools.partial(flowkernel.chain_of, w, m, c), ts)
    gradks = [analysis._heat_gradk(t) for t in ts]
    chain = flowkernel.chain_of(w, m, c, max(map(len, gradks)) - 1)
    for t, gradk, row in zip(ts, gradks, rep.rows):
        lam, _, value_mass, _ = flowkernel.column_masses(chain, gradk, "gradstar_z")
        span = int(3 * math.sqrt(t)) + 3
        sums = [float(np.sum(np.abs(value_mass[lam == l]))) for l in range(-span, span + 1)]
        assert abs(row["value"] - max(sums)) <= 1e-14 * max(sums)
        assert row["level"] == sums.index(max(sums)) - span


def test_riesz_skew_z_pinned_constant(z_ball):
    """Nearest-neighbour skew kernel equals 8 sqrt(2) / (3 pi)."""
    w, m, c = z_ball
    p = w.parent(c)
    rep = analysis.riesz_skew_check(w, m, [(c, p)])
    want = 8 * math.sqrt(2) / (3 * math.pi)
    assert abs(want - 1.200422) < 1e-6
    got = rep.rows[0]["skew_re"]
    assert abs(abs(got) - want) < 1e-8
    assert rep.meta["max_dev"] < 1e-8


def test_riesz_skew_closed_branches(t2_ball):
    w, m, c = t2_ball
    p2 = w.parent(w.parent(c))
    val = analysis.riesz_skew_closed(w, m, c, p2)
    want = (2 * math.sqrt(2) / math.pi) * (-2 / (4 - 0.25)) / m.as_float(p2)
    assert abs(val - want) < 1e-15
    # incomparable pairs vanish
    sib = [v for v in w.children(w.parent(c)) if v != c][0]
    assert analysis.riesz_skew_closed(w, m, c, sib) == 0.0
    # skew adjointness across all branch cases: K(x,y) = -K(y,x)
    for y in (p2, w.parent(c), sib, c):
        a = analysis.riesz_skew_closed(w, m, c, y)
        b = analysis.riesz_skew_closed(w, m, y, c)
        assert abs(a + b) < 1e-15


def test_riesz_quadrature_incomparable_skew_vanishes(t2_ball):
    w, m, c = t2_ball
    sib = [v for v in w.children(w.parent(c)) if v != c][0]
    rep = analysis.riesz_skew_check(w, m, [(c, sib)])
    assert rep.meta["max_dev"] < 1e-8


def test_riesz_truncation_consistency(z_ball):
    """Cutting the oracle quadrature a decade earlier moves its values
    within its error budget."""
    w, m, c = z_ball
    p = w.parent(c)
    full = QuadratureSpec(t_cut=1e8)
    trunc = QuadratureSpec(t_cut=1e7)
    (v1,), (e1,) = riesz_quadrature(w, m, [(c, p)], full)
    (v2,), (e2,) = riesz_quadrature(w, m, [(c, p)], trunc)
    assert abs(v1 - v2) <= 10 * (e1 + e2)


def _line_riesz_direct(lx, lz, nmax):
    """The Riesz value (gradient in x) on the line, where m = 1, summed
    term by term to index nmax: the level-lx term when x is not below z,
    then k(n + 1) - k(n) at n = 2J - lx - lz from J = max(lx + 1, lz) on;
    what is left alternates, and telescopes to -(sqrt(2)/pi) / (n - 1/2)
    from the first omitted n."""
    k = analysis.ktilde_z
    n = np.arange(2 * max(lx + 1, lz) - lx - lz, nmax, 2)
    head = float(k(lx - lz + 1)) if lx >= lz else 0.0
    tail = -(math.sqrt(2.0) / math.pi) / (n[-1] + 1.5)
    return head + math.fsum(k(n + 1) - k(n)) + tail


def test_riesz_line_values_match_a_long_direct_sum():
    """On the line the profiled kernel plus its telescoped remainder equals
    a direct sum to n = 10^6 plus its tail, and the bound is 0."""
    w, m, c = ball_window(1, 12)
    pairs = [(x, c) for x in w.vertices if w.distance(x, c) <= 8]
    pairs += [(c, x) for x, _ in pairs]
    vals, bounds = analysis.riesz_kernel_values(w, m, pairs)
    for (x, y), v, b in zip(pairs, vals, bounds):
        want = _line_riesz_direct(w.level[x], w.level[y], 10 ** 6)
        assert abs(v - want) <= 1e-14 and v.imag == 0.0 and b == 0.0


def test_riesz_tail_bound_holds_where_weights_fall_slowly():
    """Where the inverse measures fall by 0.9999 a level, the remainder past
    the cut is left in the bound: profiling to n = 10^6 moves the values by
    at most the bound, and by at least a quarter of it."""
    w, m, c = ball_window((0.9999, 0.0001), 2, backend="float")
    pairs = sorted((x, c) for x in w.vertices if x != c)
    vals, bounds = analysis.riesz_kernel_values(w, m, pairs)
    nmax = 10 ** 6
    chain = flowkernel.chain_of(w, m, c, nmax)
    for (x, y), v, b in zip(pairs, vals, bounds):
        at = (w.level[x], w.level[y], w.level[w.lca(x, y)])
        want = flowkernel.variant_value(analysis.ktilde_z(np.arange(nmax + 1)),
                                        chain, *at, "grad_x")
        assert b / 4 <= abs(v - want) <= b


def test_riesz_truncated_chain_has_no_bound(t2_ball):
    """A window with no growth law cannot say what lies past its apex."""
    w, m, c = t2_ball
    vals, bounds = analysis.riesz_kernel_values(
        dataclasses.replace(w, up_ratio=None), m, [(c, w.parent(c))])
    assert bounds == [math.inf] and math.isfinite(abs(vals[0]))


def test_riesz_pairs_beyond_the_cut_are_refused():
    w, m, c = ball_window(1, RIESZ_CUT)
    far = next(x for x in w.vertices if w.distance(x, c) == RIESZ_CUT)
    with pytest.raises(ValueError, match="distance below"):
        analysis.riesz_kernel_values(w, m, [(far, c)])


ROWS = (("plain", "heat"), ("grad_x", "grad_heat"),
        ("gradstar_z", "heat_gradstar"), ("grad_both", "grad_heat_gradstar"))


def test_weighted_heat_sweep_bands():
    """The slope bands hold on the q-ary trees and at the golden chain's
    growth; there and on the line (growth 1) every row equals the anchor's
    column sum read by the profile route."""
    golden, _, _ = ball_window((GOLDEN, 1 - GOLDEN), 0, backend="float")
    rep = analysis.weighted_heat_sweep(1.0, [1, 4, 16, 64], [2, 5, golden.up_ratio, 1])
    assert rep.fit["heat_variation"]["overall"] <= 10.0
    for q, s in rep.fit["grad_heat"].items():
        assert q == 1 or abs(s + 0.5) <= 0.1
    for q, s in rep.fit["grad_heat_gradstar"].items():
        assert q == 1 or abs(s + 1.0) <= 0.15
    for flow in ((GOLDEN, 1 - GOLDEN), 1):
        w, m, c = ball_window(flow, 0, backend="float")
        rows = [r for r in rep.rows if r["q"] == w.up_ratio]
        assert len(rows) == 4
        for row in rows:
            gradk = analysis._heat_gradk(row["t"])
            chain = flowkernel.chain_of(w, m, c, len(gradk) - 1)
            for variant, name in ROWS:
                got = weighted_colsum(chain, gradk,
                                      lambda d: np.exp(d / math.sqrt(row["t"])), variant)
                assert abs(got - row[name]) <= 1e-12 * got


def test_mh_dyadic_norms_reference_symbol():
    """Bounded weighted pieces and decaying gradient sums on the 64-ary
    tree; at the golden chain's growth and on the line the rows equal the
    anchor's column sums read by the profile route, up to the gap between
    the two routes' cuts of the line kernel, which the 64-ary rows show
    too."""
    from flowtree.bumps import dyadic_phi, imaginary_power_cut
    fn = imaginary_power_cut(1.0)
    rep = analysis.mh_dyadic_norms(fn, range(5), q=64)
    ws = [r["weighted"] for r in rep.rows]
    assert max(ws) / min(ws) < 3.0  # scale-invariant symbol: bounded pieces
    assert rep.fit["gradsum_slope_log2"] < -0.3
    for flow in (64, (GOLDEN, 1 - GOLDEN), 1):
        w, m, c = ball_window(flow, 0, backend="float")
        rows = rep.rows if flow == 64 else analysis.mh_dyadic_norms(fn, range(5), w.up_ratio).rows
        for row in rows:
            l = row["l"]
            piece = lambda lam: np.asarray(fn(lam)) * dyadic_phi(2.0 ** l * np.asarray(lam))
            gradk = zline.z_grad_multiplier_kernel(piece, int(40 * 2 ** (l / 2) * 5 + 200)).one_sided()
            chain = flowkernel.chain_of(w, m, c, len(gradk) - 1)
            weighted = weighted_colsum(chain, gradk,
                                       lambda d: (1.0 + d / 2.0 ** (l / 2)) ** 0.5)
            gradsum = weighted_colsum(chain, gradk, np.ones_like, "gradstar_z")
            assert abs(weighted - row["weighted"]) <= 5e-5 * weighted
            assert abs(gradsum - row["gradsum"]) <= 5e-5 * gradsum


def _recorded_line_kernels(monkeypatch, module):
    """Have module's z_grad_multiplier_kernel record (fn, nmax, kernel) of
    each call in the list returned."""
    calls = []
    inner = zline.z_grad_multiplier_kernel

    def record(fn, nmax):
        calls.append((fn, nmax, inner(fn, nmax)))
        return calls[-1][2]
    monkeypatch.setattr(module, "z_grad_multiplier_kernel", record)
    return calls


def test_sharpness_kernels_match_their_old_hand_set_grid(monkeypatch):
    """At criterion 9's t, the aliasing guard's grid gives sharpness_radial
    the line kernels of the grid it used to set by hand, within 1e-15, from
    fewer points."""
    from flowtree import abel
    calls = _recorded_line_kernels(monkeypatch, abel)
    for t in range(10, 41):
        abel.sharpness_radial(2, float(t), int(t / 2) + 3)
        fn, nmax, zk = calls[-1]
        old = 1 << int(np.ceil(np.log2(max(8192, 16 * (nmax + t + 40)))))
        want, _ = doubled_grid_two_pass(fn, old, nmax, True)
        assert zk.grid < 2 * old
        assert np.max(np.abs(zk.values - want)) <= 1e-15


def test_mh_dyadic_kernels_match_their_old_hand_set_grid(monkeypatch):
    """At criterion 10's l, the aliasing guard's grid gives mh_dyadic_norms
    the line kernels of the grid it used to set by hand, within 1e-15, from
    fewer points."""
    from flowtree.bumps import imaginary_power_cut
    calls = _recorded_line_kernels(monkeypatch, zline)
    analysis.mh_dyadic_norms(imaginary_power_cut(1.0), range(7), 64)
    assert len(calls) == 7
    for fn, nmax, zk in calls:
        old = 1 << int(np.ceil(np.log2(max(16384, 8 * nmax))))
        want, _ = doubled_grid_two_pass(fn, old, nmax, True)
        assert zk.grid < 2 * old
        assert np.max(np.abs(zk.values - want)) <= 1e-15


def test_mh_partition_mass():
    """The dyadic bumps sum to one below the cut: piece masses reproduce it."""
    from flowtree.bumps import dyadic_phi
    lam = np.linspace(1e-6, 0.499, 600)
    total = sum(dyadic_phi((2.0 ** l) * lam) for l in range(0, 40))
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_sharpness_fit_quick():
    rep = analysis.sharpness_fit(2, list(range(12, 33, 4)))
    assert 1.0 < rep.fit["slope"] < 1.8
    # upper sanity: the windowed functional is below the full weighted sum
    from flowtree import abel
    t = 16.0
    sh = abel.sharpness_radial(2, t, int(t / 2) + 3)
    window_sum = sum((k + 1) * abs(v) for k, v in sh.items()
                     if t / 4 <= k + 1 <= t / 2)
    full_sum = sum((k + 1) * abs(v) for k, v in sh.items())
    assert window_sum <= full_sum + 1e-12


def test_divergence_probe_matches_harmonic():
    w, m, x1 = spine_window(depth=70)
    rep = analysis.divergence_probe(w, m, x1, [10, 16, 32])
    first = rep.rows[0]
    assert 0.5 <= first["ratio"] <= 2.0
    for d, inc in rep.fit["increments"].items():
        if d >= 16:
            assert abs(inc / math.log(2.0) - 1.0) <= 0.25


def test_divergence_shape_independent():
    """The same sums come out on a branching window (levels drive the formula)."""
    w1, m1, x1 = spine_window(depth=24)
    rep1 = analysis.divergence_probe(w1, m1, x1, [6])
    w2, m2, b2 = constant_ratio_window((Fraction(1, 2), Fraction(1, 2)),
                                       depth=13, up=1)
    rep2 = analysis.divergence_probe(w2, m2, b2, [6])
    assert abs(rep1.rows[0]["partial_sum"] - rep2.rows[0]["partial_sum"]) < 1e-12


def test_spectrum_probe_path_window():
    w, m, o = constant_ratio_window((Fraction(1),), depth=120, up=4)
    rep = analysis.spectrum_probe(w, m, o, [0.0, math.pi], [20, 40, 80])
    for theta, s in rep.fit["slopes"].items():
        assert abs(s + 0.5) < 0.1
    # theta = pi: approximate eigenvalue of L near 2, residual of (L-2)f small
    last = [r for r in rep.rows if r["theta"] == math.pi][-1]
    assert last["residual_ratio"] < 0.2


def test_rayleigh_bounds_in_band():
    for builder in (lambda: ball_window(2, 6),
                    lambda: constant_ratio_window((GOLDEN, 1 - GOLDEN),
                                                  depth=7, up=1,
                                                  backend="float")[:2] + (None,)):
        w, m = builder()[:2]
        lo, hi = analysis.rayleigh_bounds(w, m)
        assert lo >= -1e-10
        assert hi <= 2 + 1e-10


def test_modulation_conjugation_of_multiplier():
    """Kernel of F(2-L) equals the sign-conjugated kernel of F(L)."""
    from flowtree.chebyshev import cheb_approx, cheb_column
    w, m, c = ball_window(2, 10, backend="float")
    model = cheb_approx(lambda lam: np.exp(-1.3 * lam), 9)
    flipped_model = modulation_conjugate_model(model)
    grid = np.linspace(0, 2, 64)
    assert np.max(np.abs(flipped_model(grid) - model(2 - grid))) < 1e-12
    col = cheb_column(w, m, model, c)
    colf = cheb_column(w, m, flipped_model, c)
    sy = -1 if w.level[c] % 2 else 1
    flip = modulation(w, dict(col.values))
    for v in set(flip) | set(colf.values):
        assert abs(sy * flip.get(v, 0) - colf.value(v)) <= \
            col.err_bound + colf.err_bound + 1e-12


def test_report_monotone_under_window_growth():
    """Level sums only grow when the window (hence the slice) grows."""
    t = 4.0
    small, msmall, xs = constant_ratio_window((Fraction(1, 2), Fraction(1, 2)),
                                              depth=3, up=10)
    big, mbig, xb = constant_ratio_window((Fraction(1, 2), Fraction(1, 2)),
                                          depth=3, up=30)
    rs = analysis.level_sum_estimate(
        functools.partial(flowkernel.chain_of, small, msmall, xs), [t])
    rb = analysis.level_sum_estimate(functools.partial(flowkernel.chain_of, big, mbig, xb), [t])
    assert rs.rows[0]["value"] <= rb.rows[0]["value"] + 1e-12


def test_spectrum_probe_chain_too_short():
    from flowtree import TreeError
    w, m, o = constant_ratio_window((Fraction(1),), depth=10, up=2)
    with pytest.raises(TreeError):
        analysis.spectrum_probe(w, m, o, [0.0], [50])


def test_divergence_window_too_shallow():
    from flowtree import TreeError
    w, m, x1 = spine_window(depth=10)
    with pytest.raises(TreeError, match="shallow"):
        analysis.divergence_probe(w, m, x1, [16])


def test_spectrum_window_too_shallow():
    from flowtree import TreeError
    w, m, o = ball_window(1, 5)
    with pytest.raises(TreeError, match="too shallow"):
        analysis.spectrum_probe(w, m, o, [1.0], [10])


@pytest.mark.parametrize("l_grid", [[0], [2, 2], [-1, 0, 1], []])
def test_mh_dyadic_norms_needs_two_distinct_levels(l_grid):
    from flowtree.bumps import imaginary_power_cut
    with pytest.raises(ValueError, match="two distinct l >= 0"):
        analysis.mh_dyadic_norms(imaginary_power_cut(1.0), l_grid, 64)


def test_sobolev_growth_exponents():
    ts = list(np.exp(np.linspace(np.log(30), np.log(300), 10)))
    out = analysis.sobolev_growth(ts)
    assert abs(out[1]["slope"] - 1.0) <= 0.2
    assert abs(out[2]["slope"] - 2.0) <= 0.2


def test_sobolev_growth_matches_the_full_grid_loop(monkeypatch):
    """Evaluating the wave packet only where chi0 is nonzero, and the
    weights once, changes no bit of the norms that are fitted."""
    ts = [0.5, 30.0, 123.4, 300.0]
    fitted = {}
    monkeypatch.setattr(analysis, "fit_loglog", lambda x, y: fitted.setdefault(len(fitted), y))
    analysis.sobolev_growth(ts)
    assert list(fitted.values()) == list(sobolev_norms_full_grid(ts).values())


def _riesz_per_node(window, measure, pairs, spec):
    """Reference Riesz quadrature: every node's heat gradient kernel goes
    through the profile formula at every pair, and the weighted results are
    summed (one Richardson step on the last decade, as in the oracle)."""
    ndec = int(round(math.log10(spec.t_cut)))
    nmax = zline.heat_support_radius(spec.t_cut, 1e-17)
    ctx = []
    for x, y in pairs:
        chain = flowkernel.chain_of(window, measure, x, nmax)
        ctx.append((chain, window.level[x], window.level[y],
                    window.level[window.lca(x, y)]))
    totals = np.zeros(len(pairs), dtype=complex)
    last = np.zeros(len(pairs), dtype=complex)
    for t, wt, block in spec.nodes():
        gradk = zline.heat_z_gradkernel(t, zline.heat_support_radius(t, 1e-17))
        for i, (chain, lx, ly, j0) in enumerate(ctx):
            v = wt * flowkernel.variant_value(gradk, chain, lx, ly, j0, "grad_x")
            totals[i] += v
            if block == ndec:
                last[i] += v
    totals += last / 9.0
    return totals, np.abs(last / 9.0) / 3.0 + 1e-12


def test_riesz_summed_kernel_matches_per_node_quadrature():
    """Profiling the summed quadrature kernel once equals the per-node sum,
    and the closed-form values lie within each pair's quadrature error
    estimate, on the line, the binary tree and a golden-ratio flow.  The
    line runs a shorter quadrature: its chain does not decay, so every node
    costs a sum as long as the chain."""
    zw, zm, zc = ball_window(1, 12)
    bw, bm, bc = ball_window(2, 9)
    gw, gm, gb = constant_ratio_window((GOLDEN, 1 - GOLDEN), depth=9, up=16,
                                       backend="float")
    ga = next(v for v in gw.vertices if gw.level[v] == gw.level[gb] - 4)
    cases = [(zw, zm, [(zc, zw.parent(zc)), (zw.parent(zc), zc)],
              QuadratureSpec(t_cut=1e6)),
             (bw, bm, [(x, bc) for x in sorted(ball(bw, bc, 8))[::60]]
              + [(bc, x) for x in sorted(ball(bw, bc, 8))[7::90]],
              QuadratureSpec()),
             (gw, gm, [(x, ga) for x in sorted(gw.vertices)[::90]]
              + [(ga, x) for x in sorted(gw.vertices)[5::120]],
              QuadratureSpec())]
    for w, m, pairs, spec in cases:
        vals, errs = riesz_quadrature(w, m, pairs, spec)
        want_v, want_e = _riesz_per_node(w, m, pairs, spec)
        assert max(abs(v - u) for v, u in zip(vals, want_v)) < 1e-13
        assert max(abs(e - u) for e, u in zip(errs, want_e)) < 1e-15
        closed, _ = analysis.riesz_kernel_values(w, m, pairs)
        assert all(abs(v - u) <= e for v, u, e in zip(closed, want_v, want_e))


def test_riesz_kernels_cached_per_spec():
    a = analysis._riesz_gradkernels(QuadratureSpec())
    assert analysis._riesz_gradkernels(QuadratureSpec(t_cut=1e8)) is a
    b = analysis._riesz_gradkernels(QuadratureSpec(t_cut=1e7))
    assert len(b[0]) < len(a[0]) and not np.array_equal(b[1], a[1][:len(b[1])])
    for arr in a + b:
        assert not arr.flags.writeable


@pytest.mark.parametrize("t", [1.0, 2.5, 16.0])
def test_profile_columns_match_per_vertex_chains(t):
    """Columns built from the anchor's chain are bit-equal to evaluating
    every vertex with its own chain and meeting level."""
    bw, bm, bc = ball_window(2, 8, backend="float")
    gw, gm, gb = constant_ratio_window((GOLDEN, 1 - GOLDEN), depth=8, up=10,
                                       backend="float")
    gy = next(v for v in gw.vertices if gw.level[v] == gw.level[gb] - 3)
    gradk = analysis._heat_gradk(t)
    for w, m, y in ((bw, bm, bc), (bw, bm, sorted(bw.vertices)[-1]), (gw, gm, gy)):
        cols = {"plain": analysis.heat_kernel_column(w, m, t, y),
                "grad_x": grad_heat_kernel_column(w, m, t, y, side="x"),
                "gradstar_z": grad_heat_kernel_column(w, m, t, y, side="y")}
        for variant, col in cols.items():
            want = {}
            for x in w.vertices:
                chain = flowkernel.chain_of(w, m, x, len(gradk) - 1)
                v = flowkernel.variant_value(gradk, chain, w.level[x], w.level[y],
                                             w.level[w.lca(x, y)], variant)
                if v:
                    want[x] = v
            assert list(col.values.items()) == list(want.items())
            assert col.safe == frozenset(w.vertices)


def _shuffled_file():
    """A loaded (3/4, 1/4) ball whose ids are scattered and whose records,
    and so window order, are not in level order."""
    w, m, _ = ball_window((Fraction(3, 4), Fraction(1, 4)), 4)
    doc = window_to_json(w, m)
    new_id = {r["id"]: 7919 * r["id"] % 10007 + 50 for r in doc["vertices"]}
    for r in doc["vertices"]:
        r["id"] = new_id[r["id"]]
        r["pred"] = new_id.get(r["pred"])
    doc["vertices"] = doc["vertices"][1::2] + doc["vertices"][::2]
    w, m = load_window(doc)
    assert list(w.level.values()) != sorted(w.level.values(), reverse=True)
    return w, m


MEETING_WINDOWS = {
    "line": lambda: ball_window(1, 12)[:2],
    "binary": lambda: ball_window(2, 4)[:2],
    "ternary": lambda: ball_window(3, 3)[:2],
    "golden": lambda: ball_window((GOLDEN, 1 - GOLDEN), 5, center_level=-5,
                                  backend="float")[:2],
    "3:1": lambda: ball_window((Fraction(3, 4), Fraction(1, 4)), 5)[:2],
    "spine": lambda: spine_window(30)[:2],
    "shuffled file": _shuffled_file,
}


@pytest.mark.parametrize("name", MEETING_WINDOWS)
def test_meeting_level_arrays_match_the_dict_walk(name):
    """At every anchor, the level and meeting-level arrays hold, in window
    order, each vertex's level and the dict walk's meeting level."""
    w, _ = MEETING_WINDOWS[name]()
    for y in w.vertices:
        level, meet = analysis._meeting_levels(w, y)
        assert level.dtype == meet.dtype == np.int64
        want = meeting_levels(w, y)
        assert level.tolist() == list(w.level.values())
        assert meet.tolist() == [want[x] for x in w.vertices]


def _profile_column_by_pairs(w, m, gradk, y, variant):
    """A profile column keyed by the dict walk's meeting levels and the
    distinct (level, meeting level) columns of a 2 x N array."""
    chain = flowkernel.chain_of(w, m, y, len(gradk) - 1)
    meet = meeting_levels(w, y)
    keys, key_of = np.unique([list(w.level.values()), [meet[x] for x in w.vertices]],
                             axis=1, return_inverse=True)
    at_key = flowkernel.variant_value(gradk, chain, keys[0], w.level[y], keys[1], variant)
    return {x: v for x, v in zip(w.vertices, at_key[key_of].tolist()) if v}


@pytest.fixture(scope="module")
def bench_ball():
    return ball_window(2, 13, backend="float")


@pytest.mark.parametrize("t", [1.0, 2.5])
def test_profile_columns_bit_equal_to_the_pair_keys(bench_ball, t):
    """On float ball_window(2, 13), the window of the profile heat columns
    in the benchmark, heat and gradient heat columns are bit-equal, as
    ordered dicts, to the columns keyed by (level, meeting level) pairs."""
    w, m, c = bench_ball
    anchors = sorted(safe_region(w, 11))
    gradk = analysis._heat_gradk(t)
    for y in (c, anchors[0], anchors[-1]):
        cols = {"plain": analysis.heat_kernel_column(w, m, t, y),
                "grad_x": grad_heat_kernel_column(w, m, t, y, side="x"),
                "gradstar_z": grad_heat_kernel_column(w, m, t, y, side="y")}
        for variant, col in cols.items():
            want = _profile_column_by_pairs(w, m, gradk, y, variant)
            assert list(col.values.items()) == list(want.items())


@pytest.mark.parametrize("call, message", [
    (lambda: analysis.sharpness_fit(2, [10, 1.5]), "every t >= 2"),
    (lambda: analysis.sharpness_fit(2, [0]), "every t >= 2"),
    (lambda: analysis.spectrum_probe(*ball_window(1, 6), [0.0], [4, 0]),
     "every d >= 1"),
    (lambda: analysis.divergence_probe(*spine_window(depth=10), [0]),
     "every D >= 1"),
    (lambda: analysis.heat_kernel_column(*ball_window(2, 2)[:2], -1.0, 0), "t must be >= 0"),
    (lambda: analysis.heat_column_groups(
        functools.partial(flowkernel.chain_of, *ball_window(2, 0)), -1.0), "t must be >= 0"),
    (lambda: analysis.weighted_heat_sweep(1.0, [4.0, 0.0], [2]), "t must be > 0"),
], ids=["sharpness-t1.5", "sharpness-t0", "spectrum-d0", "divergence-D0",
        "heat-column-t-1", "heat-groups-t-1", "weighted-sweep-t0"])
def test_probes_reject_grid_points_below_their_range(call, message):
    """A t below 2 leaves the sharpness window empty, and d = 0 or D = 0
    leaves a probe nothing to sum: each is a ValueError, not a log(0) fit
    or a KeyError.  So is a heat time below 0, and t = 0 in the weighted
    sweep, whose weight exp(eps d / sqrt(t)) it would divide by zero."""
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("ts, orientation, message", [
    ([4.0, -1.0], "x", "t must be >= 0"),
    ([4.0], "y", "orientation must be 'x' or 'z'"),
])
def test_level_sum_estimate_rejects_negative_t_and_unknown_orientation(
        ts, orientation, message):
    w, m, c = ball_window(2, 4)
    with pytest.raises(ValueError, match=message):
        analysis.level_sum_estimate(functools.partial(flowkernel.chain_of, w, m, c), ts,
                                    orientation=orientation)
