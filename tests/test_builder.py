"""Window generators and the quotient lift: pinned outputs and edge cases.

The digests below pin vertex ids, successor order, levels, completeness
flags, masses, value types, ``up_ratio`` and backend of every generator
(and the source and mapping of ``build_submersion_rational``) over a
parameter sweep, with the order in which each map lists its vertices, so a
change to the shared window builder cannot move any of them.
"""

import hashlib
import json
import sys
import tracemalloc
from fractions import Fraction as F

import pytest

from flowtree import localops, quotient, trees

G = (0.6180339887498949, 0.3819660112501051)

LOADED = {"apex_level": 0, "vertices": [
    {"id": 0, "pred": None, "measure": "1", "complete": True},
    {"id": 1, "pred": 0, "measure": "1/2", "complete": True},
    {"id": 2, "pred": 0, "measure": "1/2", "complete": False},
    {"id": 3, "pred": 1, "measure": "1/2", "complete": False},
    {"id": 4, "pred": 2, "measure": "1/4", "complete": False}]}

CASES = {
    "homog-1-5-2-0-r": lambda: trees.constant_ratio_window((F(1),), 5, 2),
    "homog-2-4-0-0-r": lambda: trees.constant_ratio_window((F(1, 2),) * 2, 4),
    "homog-2-0-0-0-r": lambda: trees.constant_ratio_window((F(1, 2),) * 2, 0),
    "ball-1-0-r": lambda: trees.ball_window(1, 0),
    "ball-1-4-r": lambda: trees.ball_window(1, 4),
    "ball-2-0-r": lambda: trees.ball_window(2, 0),
    "ball-2-1-r": lambda: trees.ball_window(2, 1),
    "ball-2-4-r": lambda: trees.ball_window(2, 4),
    "ball-3-3-r": lambda: trees.ball_window(3, 3),
    "ball-5-2-r": lambda: trees.ball_window(5, 2),
    "ball-2-4-m3-f": lambda: trees.ball_window(2, 4, -3, "float"),
    "ball-3-2-f": lambda: trees.ball_window(3, 2, backend="float"),
    "cr-34-3-0": lambda: trees.constant_ratio_window((F(3, 4), F(1, 4)), 3),
    "cr-thirds-2-1": lambda: trees.constant_ratio_window((F(1, 3),) * 3, 2, 1),
    "cr-golden-4-3": lambda: trees.constant_ratio_window(G, 4, 3),
    "cr-one-3-2": lambda: trees.constant_ratio_window((1,), 3, 2),
    "cr-244-2-0-f": lambda: trees.constant_ratio_window(
        (F(1, 2), F(1, 4), F(1, 4)), 2, backend="float"),
    "spine-6-2": lambda: trees.spine_window(6),
}

SUBMERSIONS = {
    "sub-34-3-0-q4": lambda: trees.constant_ratio_window((F(3, 4), F(1, 4)), 3)[:2] + (4,),
    "sub-23-3-1-q3": lambda: trees.constant_ratio_window((F(2, 3), F(1, 3)), 3, 1)[:2] + (3,),
    "sub-ball-2-2-q4": lambda: trees.ball_window(2, 2)[:2] + (4,),
    "sub-236-2-1-q6": lambda: trees.constant_ratio_window(
        (F(1, 2), F(1, 3), F(1, 6)), 2, 1)[:2] + (6,),
    "sub-loaded-q2": lambda: trees.load_window(LOADED) + (2,),
}

# Recorded from the per-generator code that the window builder replaced;
# the homog-* cones (constant_ratio_window with ratios 1/q) and cr-one-3-2
# (the line, whose chain is complete) were recorded from the builder since.
EXPECTED = {
    "ball-1-0-r": "2f7e5d7e8a34e4dd",
    "ball-1-4-r": "8c457afa3b0661b8",
    "ball-2-0-r": "79611fc468c0b5aa",
    "ball-2-1-r": "7258681bad3bb158",
    "ball-2-4-m3-f": "2094cfb49e08877b",
    "ball-2-4-r": "66fcc178d9adc2e5",
    "ball-3-2-f": "948546b49f8dfade",
    "ball-3-3-r": "c392ad6d6bb32f71",
    "ball-5-2-r": "f8d46e90c8ffbee4",
    "cr-244-2-0-f": "e832f1707ad2e8df",
    "cr-34-3-0": "a7811ddb1d484697",
    "cr-golden-4-3": "c5429d03a8ec13be",
    "cr-one-3-2": "9a573b44cad8afec",
    "cr-thirds-2-1": "80edbf75909248e7",
    "homog-1-5-2-0-r": "df3ebf1e55c006ad",
    "homog-2-0-0-0-r": "79611fc468c0b5aa",
    "homog-2-4-0-0-r": "32c692437bb4e698",
    "spine-6-2": "4a6036bea3d2ab6e",
    "sub-23-3-1-q3": "9e9ca17b613523e5",
    "sub-236-2-1-q6": "0502853eb38afaff",
    "sub-34-3-0-q4": "e30e398da6bb974a",
    "sub-ball-2-2-q4": "3e1c13727c398830",
    "sub-loaded-q2": "ce0f19a59216d803",
}


def _sha(*parts) -> str:
    return hashlib.sha256("\n".join(map(str, parts)).encode()).hexdigest()[:16]


def _window_digest(w, m) -> str:
    types = sorted({type(x).__name__ for x in m.values.values()})
    maps = [list(w.pred.items()), [(v, w.children(v)) for v in w.level],
            list(w.level.items()), [(v, w.is_complete(v)) for v in w.level],
            list(m.values.items())]
    return _sha(json.dumps(trees.window_to_json(w, m), sort_keys=True),
                repr(w.up_ratio), m.backend, types, maps)


def digest(name: str) -> str:
    if name in SUBMERSIONS:
        sub = quotient.build_submersion_rational(*SUBMERSIONS[name]())
        return _sha(_window_digest(sub.source, sub.source_measure),
                    sorted(sub.mapping.items()))
    w, m, *extra = CASES[name]()
    return _sha(_window_digest(w, m), extra)


@pytest.mark.parametrize("name", sorted(CASES) + sorted(SUBMERSIONS))
def test_generated_windows_are_pinned(name):
    assert digest(name) == EXPECTED[name]


def _pinned_window(name):
    if name in SUBMERSIONS:
        return quotient.build_submersion_rational(*SUBMERSIONS[name]()).source
    return CASES[name]()[0]


@pytest.mark.parametrize("name", sorted(CASES) + sorted(SUBMERSIONS) + ["loaded"])
def test_windows_store_only_parents_and_complete_vertices(name):
    """succ holds the vertices with children and complete the complete
    ones: no empty successor list and no False flag is stored."""
    w = trees.load_window(LOADED)[0] if name == "loaded" else _pinned_window(name)
    assert set(w.succ) == {v for v in w.level if w.children(v)}
    assert set(w.complete.values()) <= {True}
    if name == "loaded":
        assert (sorted(w.succ), sorted(w.complete)) == ([0, 1, 2], [0, 1])


DEEP = {
    "ball": lambda: trees.ball_window(2, 6, -10)[0],
    "ratio-ball": lambda: trees.ball_window((F(2, 3), F(1, 3)), 5, -8)[0],
    "cone": lambda: trees.constant_ratio_window((F(1, 2),) * 2, 9)[0],
    "lift": lambda: quotient.build_submersion_rational(
        *trees.constant_ratio_window((F(3, 4), F(1, 4)), 6)[:2], 4).source,
}


@pytest.mark.parametrize("name", sorted(DEEP))
def test_each_level_is_one_int_object(name):
    """Levels below the small-int cache are shared too: one object per level."""
    w = DEEP[name]()
    ids = {}
    for lv in w.level.values():
        ids.setdefault(lv, set()).add(id(lv))
    assert min(ids) < -5 and all(len(s) == 1 for s in ids.values())


def _traced_peak_mb(build) -> float:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_large_windows_stay_within_their_memory():
    """Traced peak of building ball_window(4, 7) and the 29,524-vertex lift
    of the (2/3, 1/3) cone of depth 9: 10.0 and 11.2 MB while every leaf kept
    an empty successor list, a False flag and its own level int."""
    assert _traced_peak_mb(lambda: trees.ball_window(4, 7)) < 7
    target, tmeas, _ = trees.constant_ratio_window((F(2, 3), F(1, 3)), 9)
    assert _traced_peak_mb(
        lambda: quotient.build_submersion_rational(target, tmeas, 3)) < 8.5


def _traced_retained_mb(call) -> float:
    """MB that call() allocates and still holds when it returns, its result
    and any cache it fills included."""
    tracemalloc.start()
    try:
        kept = call()  # held while the current size is read
        return tracemalloc.get_traced_memory()[0] / 1e6
    finally:
        tracemalloc.stop()


def test_window_caches_hold_no_copy_of_the_vertex_set():
    """On ball_window(4, 7) (27,306 vertices, 20,480 of them defects: the
    leaves and the apex): the defect distances keep only the positive ones,
    1.31 MB while every defect was stored at 0; and an everywhere-certified
    column holds a view of the window's keys, not a window-sized set."""
    w, m, c = trees.ball_window(4, 7)
    assert _traced_retained_mb(w.defect_distances) < 0.5
    window_set_mb = sys.getsizeof(frozenset(w.level)) / 1e6
    for coeffs in ([0, 0, 1], [0.0, 0.0, 1.0]):  # the exact and the swept route
        w, m, c = trees.ball_window(4, 7)
        w.defect_distances(), w.arrays().masses(m)  # the caches a window keeps
        assert _traced_retained_mb(
            lambda: localops.kernel_column_lambda_poly(w, m, coeffs, c)) < window_set_mb / 4
        assert localops.kernel_column_lambda_poly(w, m, coeffs, c).safe == w.vertices


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_ball_vertex_bound_is_the_ball_size(q):
    for radius in (0, 1, 2, 3, 5):
        assert trees.ball_vertex_bound(q, radius) == len(trees.ball_window(q, radius)[0])


def test_deep_ball_builds_without_recursion():
    """The line's radius-1500 ball: 3,001 vertices, no recursion limit."""
    w, m, c = trees.ball_window(1, 1500)
    assert len(w) == 3001
    assert trees.ball(w, c, 1500) == set(w.vertices)
    trees.validate_window(w)
    trees.validate_measure(w, m)


def test_unfilled_lift_names_the_target_vertex(monkeypatch):
    """A complete target vertex whose ratios do not add up to one (the
    measure check switched off to reach it) stops the lift there."""
    window = trees.TreeWindow(
        0, {1: 0, 2: 0, 3: 1, 4: 1, 5: 2},
        {0: [1, 2], 1: [3, 4], 2: [5], 3: [], 4: [], 5: []},
        {0: 0, 1: -1, 2: -1, 3: -2, 4: -2, 5: -2},
        {0: True, 1: True, 2: True, 3: False, 4: False, 5: False})
    measure = trees.FlowMeasure({0: F(1), 1: F(1, 2), 2: F(1, 2), 3: F(1, 4),
                                 4: F(1, 4), 5: F(1, 4)}, "rational")
    monkeypatch.setattr(quotient, "validate_measure", lambda *a, **k: None)
    with pytest.raises(trees.TreeError,
                       match=r"target vertex 2 do not fill a length-4 list \(got 2\)"):
        quotient.build_submersion_rational(window, measure, 4)


def test_lift_reads_each_target_vertex_once(monkeypatch):
    """Multiplicities are computed once per target child, not once per
    source vertex of the fiber."""
    calls = []
    real = quotient._ratio_multiplicity
    monkeypatch.setattr(quotient, "_ratio_multiplicity",
                        lambda *a: calls.append(a) or real(*a))
    target, tmeas, _ = trees.constant_ratio_window((F(3, 4), F(1, 4)), 4)
    sub = quotient.build_submersion_rational(target, tmeas, 4)
    assert len(sub.source) == (4 ** 5 - 1) // 3
    assert len(calls) == len(target) - 1


RATIO_SETS = {
    "13-23": (F(1, 3), F(2, 3)),
    "34-14": (F(3, 4), F(1, 4)),
    "12-14-14": (F(1, 2), F(1, 4), F(1, 4)),
    "golden": G,
}


@pytest.mark.parametrize("name", sorted(RATIO_SETS))
def test_ratio_ball_is_the_ball_of_the_constant_ratio_flow(name):
    """Exact size, valid window and measure, a center safe at the full
    radius, m = r0**-level on the center's ancestor line, and every
    complete vertex's children splitting its mass by the ratios in order."""
    ratios = RATIO_SETS[name]
    backend = "float" if name == "golden" else "rational"
    same = ((lambda x: pytest.approx(x, rel=1e-14)) if backend == "float"
            else (lambda x: x))
    r0 = ratios[0]
    for radius in range(6):
        w, m, c = trees.ball_window(ratios, radius, center_level=-radius,
                                    backend=backend)
        assert len(w) == trees.ball_vertex_bound(len(ratios), radius)
        trees.validate_window(w)
        trees.validate_measure(w, m)
        assert c in trees.safe_region(w, radius)
        assert w.level[c] == -radius and w.up_ratio == same(1 / r0)
        for v in w.ancestors(c):
            assert m.values[v] == same(r0 ** -w.level[v])
        for p in w.vertices:
            if w.is_complete(p):
                assert [m.values[k] for k in w.children(p)] == \
                    same([m.values[p] * r for r in ratios])


@pytest.mark.parametrize("q", [2, 3])
def test_uniform_ratio_ball_is_the_q_ary_ball(q):
    for radius in range(5):
        w, m, c = trees.ball_window((F(1, q),) * q, radius)
        w2, m2, c2 = trees.ball_window(q, radius)
        assert (w, m, c) == (w2, m2, c2)
        assert [list(d.items()) for d in (w.succ, m.values)] == \
            [list(d.items()) for d in (w2.succ, m2.values)]


@pytest.mark.parametrize("name, q", [("13-23", 3), ("34-14", 4),
                                     ("12-14-14", 4)])
def test_lifted_ratio_ball_is_a_submersion(name, q):
    """The q-ary lift of a rational ratio ball is a valid submersion, and
    every source copy of the center is safe at the ball's radius."""
    for radius in range(5):
        w, m, c = trees.ball_window(RATIO_SETS[name], radius)
        sub = quotient.build_submersion_rational(w, m, q)
        assert quotient.validate_submersion(sub).ok
        copies = [s for s, t in sub.mapping.items() if t == c]
        assert copies and all(trees.in_safe_region(sub.source, s, radius)
                              for s in copies)
