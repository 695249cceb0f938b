"""Window construction, validation, the JSON loader, and safe regions."""

import json
import pathlib
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowtree import (TreeError, TreeWindow, ball_window,
                      constant_ratio_window, homogeneous_window, load_window,
                      safe_region, spine_window, validate_measure,
                      validate_window, window_to_json)
from flowtree.trees import ball

from conftest import meeting_levels

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def doc(apex_level, vertices):
    return {"apex_level": apex_level, "vertices": vertices}


def test_load_three_vertex_path():
    window, measure = load_window(doc(0, [
        {"id": 0, "pred": None, "measure": "1", "complete": False},
        {"id": 1, "pred": 0, "measure": "1", "complete": False},
        {"id": 2, "pred": 1, "measure": "1", "complete": False},
    ]))
    assert len(window) == 3
    assert window.level[2] == -2
    assert measure.backend == "rational"


def test_load_flow_equation_forced():
    window, measure = load_window(doc(0, [
        {"id": 0, "pred": None, "measure": "1", "complete": True},
        {"id": 1, "pred": 0, "measure": "1/2", "complete": False},
        {"id": 2, "pred": 0, "measure": "1/2", "complete": False},
    ]))
    assert measure.of(1) == Fraction(1, 2)


def test_load_flow_violation():
    with pytest.raises(TreeError, match="flow equation"):
        load_window(doc(0, [
            {"id": 0, "pred": None, "measure": "1", "complete": True},
            {"id": 1, "pred": 0, "measure": "1/2", "complete": False},
            {"id": 2, "pred": 0, "measure": "1/3", "complete": False},
        ]))


def test_load_rejects_nonpositive_and_cycles():
    with pytest.raises(TreeError, match="nonpositive"):
        load_window(doc(0, [
            {"id": 0, "pred": None, "measure": "0", "complete": False},
        ]))
    with pytest.raises(TreeError):
        load_window(doc(0, [
            {"id": 0, "pred": 1, "measure": "1", "complete": False},
            {"id": 1, "pred": 0, "measure": "1", "complete": False},
        ]))
    with pytest.raises(TreeError, match="malformed"):
        load_window("{not json")


def _one_vertex(measure):
    return doc(0, [{"id": 0, "pred": None, "measure": measure, "complete": False}])


@pytest.mark.parametrize("measure, match", [
    (True, "unsupported measure"),
    (float("nan"), "non-finite"),
    (float("inf"), "non-finite"),
    ("1/0", "zero denominator"),
])
def test_load_rejects_bad_measure_entries(measure, match):
    with pytest.raises(TreeError, match=match):
        load_window(_one_vertex(measure))
    # the same entries written as JSON text (NaN and Infinity as JSON allows)
    with pytest.raises(TreeError, match=match):
        load_window(json.dumps(_one_vertex(measure)))


@pytest.mark.parametrize("measure", [
    "1/" + "1" + "0" * 400, "1" + "0" * 400, 10 ** 400, "1/" + "1" + "0" * 310, 1e-310,
    5e-324, f"1/{2 ** 1023}",
], ids=["1e-400", "1e400 text", "1e400 int", "1e-310", "1e-310 float", "5e-324", "2^-1023"])
def test_load_rejects_masses_outside_the_normal_doubles(measure):
    """A positive mass whose float overflows or is subnormal (or 0) is
    refused, and the error names the record; the least normal double is
    read."""
    with pytest.raises(TreeError, match=r"record at index 0: .* normal doubles"):
        load_window(_one_vertex(measure))
    tiny = 2.0 ** -1022
    for entry in (tiny, f"1/{2 ** 1022}"):
        _, m = load_window(_one_vertex(entry))
        assert float(m.values[0]) == tiny


def test_load_refuses_far_exponents_before_expanding_them():
    """A decimal exponent far past double range is refused from the entry's
    Decimal, where Fraction would write out ten million digits (seconds);
    zero and negative decimals keep the nonpositive message, naming the
    vertex, and are refused from the Decimal's sign, far exponents too."""
    start = time.perf_counter()
    with pytest.raises(TreeError, match=r"record at index 0: .* normal doubles"):
        load_window(_one_vertex("1e-10000000"))
    assert time.perf_counter() - start < 0.1
    for entry in ("0", "0e-5", "-1e-400", "-2.5e3", "-1e-3000000", "0e-3000000"):
        start = time.perf_counter()
        with pytest.raises(TreeError, match="^nonpositive measure at vertex 0$"):
            load_window(_one_vertex(entry))
        assert time.perf_counter() - start < 0.1


def test_load_missing_path_is_unreadable(tmp_path):
    with pytest.raises(TreeError, match="cannot read tree file"):
        load_window(str(tmp_path / "missing.json"))
    with pytest.raises(TreeError, match="malformed"):
        load_window('  {"vertices": [')


def test_json_roundtrip():
    w, m, _ = constant_ratio_window((Fraction(1, 3), Fraction(2, 3)), depth=3, up=2)
    w2, m2 = load_window(json.loads(json.dumps(window_to_json(w, m))))
    assert len(w2) == len(w)
    assert sorted(m2.values.values()) == sorted(m.values.values())


def test_json_roundtrip_deep_spine_keeps_preorder():
    """Dumping a 1500-level path does not recurse, and records stay in the
    recursive preorder (children in successor order)."""
    w, m, _ = spine_window(depth=1500)
    doc_ = window_to_json(w, m)
    w2, m2 = load_window(json.loads(json.dumps(doc_)))
    assert w2.level == w.level and w2.pred == w.pred
    assert m2.values == m.values

    small, sm, _ = constant_ratio_window((Fraction(1, 3), Fraction(2, 3)),
                                         depth=3, up=2)
    order = []

    def visit(v):
        order.append(v)
        for c in small.children(v):
            visit(c)

    visit(small.apex)
    assert [r["id"] for r in window_to_json(small, sm)["vertices"]] == order


def test_homogeneous_window_counts_and_measure():
    w, m = homogeneous_window(1, depth=5, up=5)
    assert len(w) == 11  # the integer line
    assert all(m.of(v) == 1 for v in w.vertices)

    w, m = homogeneous_window(2, depth=3, up=0)
    assert len(w) == 15
    leaves = [v for v in w.vertices if w.level[v] == -3]
    assert len(leaves) == 8
    assert all(m.of(v) == Fraction(1, 8) for v in leaves)

    w, m = homogeneous_window(3, depth=2)
    assert len(w) == 13
    for v in w.vertices:
        if w.is_complete(v):
            assert sum(m.of(c) for c in w.children(v)) == m.of(v)
            assert len(w.children(v)) == 3


def test_vertex_cap():
    with pytest.raises(TreeError, match="cap"):
        homogeneous_window(2, depth=40)


def test_vertex_cap_names_a_huge_count_to_two_digits():
    """A count past 12 digits (here 3 * 2^5000 - 2, past float range) is
    named to two significant digits, before anything is built."""
    with pytest.raises(TreeError, match=r"about 4\.2e\+1505 vertices, over the "
                       r"cap of 2,000,000"):
        ball_window(2, 5000)


def test_validate_catches_bad_levels():
    w, m = homogeneous_window(2, depth=2)
    w.level[w.children(w.apex)[0]] += 1
    with pytest.raises(TreeError):
        validate_window(w)


def test_validate_catches_pred_without_level():
    w = TreeWindow(0, {1: 0}, {0: [1], 1: []}, {0: 0}, {0: False, 1: False})
    with pytest.raises(TreeError, match="no level"):
        validate_window(w)


def test_validate_catches_vertices_cut_off_from_apex():
    orphan = TreeWindow(0, {}, {0: [], 1: []}, {0: 0, 1: -1}, {})
    with pytest.raises(TreeError, match="vertex 1"):
        validate_window(orphan)
    two_cycle = TreeWindow(0, {1: 2, 2: 1}, {0: [], 1: [2], 2: [1]},
                           {0: 0, 1: -1, 2: -2}, {})
    with pytest.raises(TreeError):
        validate_window(two_cycle)


def test_measure_float_tolerance():
    w, m, _ = ball_window(2, 2, backend="float")
    validate_measure(w, m)
    m.values[w.children(w.apex)[0]] *= 1 + 1e-6
    with pytest.raises(TreeError):
        validate_measure(w, m)


def test_safe_region_radius_zero_is_everything():
    w, _ = homogeneous_window(2, depth=3)
    assert safe_region(w, 0) == set(w.vertices)


def test_safe_region_depth3_cone_radius_one():
    w, _ = homogeneous_window(2, depth=3, up=0)
    expect = {v for v in w.vertices
              if w.is_complete(v) and w.parent(v) is not None}
    assert safe_region(w, 1) == expect


def test_safe_region_nesting():
    w, _ = homogeneous_window(2, depth=5, up=5)
    for n in range(5):
        assert safe_region(w, n + 1) <= safe_region(w, n)


def brute_force_safe(window, n):
    """Dependency closure: B_n(x) present and B_{n-1}(x) complete."""
    out = set()
    for x in window.vertices:
        ball = {x}
        frontier = {x}
        ok = True
        for step in range(n):
            nxt = set()
            for v in frontier:
                p = window.parent(v)
                if p is None:
                    if v == window.apex:
                        ok = False  # ambient predecessor missing
                else:
                    nxt.add(p)
                if not window.is_complete(v):
                    ok = False  # some ambient child missing from the ball
                nxt.update(window.children(v))
            if not ok:
                break
            frontier = nxt - ball
            ball |= nxt
        if ok:
            out.add(x)
    return out


def test_safe_region_matches_dependency_closure():
    w, _ = homogeneous_window(2, depth=4, up=3)
    for n in (1, 2, 3):
        assert safe_region(w, n) == brute_force_safe(w, n)
    bw, _, _ = ball_window(3, 4)
    for n in (1, 2, 3, 4):
        assert safe_region(bw, n) == brute_force_safe(bw, n)


def test_defect_distances_are_distances_to_the_nearest_defect():
    """Each vertex's distance to the apex or the nearest incomplete vertex,
    in breadth-first order from the defects (the order the dict keeps)."""
    for w in (homogeneous_window(2, depth=4, up=3)[0], ball_window(3, 3)[0],
              spine_window(12)[0]):
        defects = [v for v in w.vertices if v == w.apex or not w.is_complete(v)]
        dist = w.defect_distances()
        assert dist == {v: min(w.distance(v, d) for d in defects)
                        for v in w.vertices}
        assert list(dist.values()) == sorted(dist.values())
        assert list(dist)[:len(defects)] == defects


def test_equal_windows_stay_equal_after_filling_their_caches():
    """Equality reads the tree, not which caches a window has filled."""
    w, _, _ = ball_window(2, 3)
    other, _, _ = ball_window(2, 3)
    assert w == other
    w.defect_distances(), w.all_vertices(), w.arrays()
    assert w == other and other == w
    assert w != ball_window(2, 4)[0]


def test_ball_window_center_safety():
    w, m, c = ball_window(2, 5)
    assert c in safe_region(w, 5)
    assert c not in safe_region(w, 6)
    validate_window(w)
    validate_measure(w, m)


def test_distance_and_lca():
    w, _, c = ball_window(2, 4)
    p = w.parent(c)
    sib = [v for v in w.children(p) if v != c][0]
    assert w.distance(c, sib) == 2
    assert w.lca(c, sib) == p
    assert w.distance(c, c) == 0
    assert w.lca(c, p) == p and w.lca(p, c) != c


def test_spine_window_structure():
    w, m, x1 = spine_window(depth=20)
    assert len(w.children(w.parent(x1))) == 2
    v = x1
    for _ in range(20):
        assert w.is_complete(v)
        assert len(w.children(v)) == 1
        assert m.of(w.children(v)[0]) == m.of(v)
        v = w.children(v)[0]


def test_homogeneous_branching_invariant():
    for q in (1, 2, 4):
        w, _ = homogeneous_window(q, depth=3, up=2)
        assert all(len(w.children(v)) == q
                   for v in w.vertices if w.is_complete(v))


def test_constant_ratio_flow_equation_exact():
    w, m, b = constant_ratio_window((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
                                    depth=4, up=3)
    validate_window(w)
    validate_measure(w, m)
    assert m.of(b) == 1
    assert m.of(w.apex) == 27


def test_ball_and_meeting_levels_match_distance_and_lca():
    windows = [ball_window(2, 6)[:2],
               constant_ratio_window((0.618, 0.382), depth=7, up=5,
                                     backend="float")[:2],
               spine_window(depth=12)[:2]]
    for w, _ in windows:
        verts = sorted(w.vertices)
        for y in verts[::7]:
            for r in range(6):
                assert ball(w, y, r) == {x for x in verts if w.distance(x, y) <= r}
            meet = meeting_levels(w, y)
            assert meet == {x: w.level[w.lca(x, y)] for x in verts}


BACKEND = st.sampled_from(["rational", "float"])
WINDOWS = st.one_of(
    st.builds(lambda q, depth, up: homogeneous_window(q, depth, up=up),
              st.integers(1, 3), st.integers(0, 3), st.integers(0, 2)),
    st.builds(lambda r, depth, up: constant_ratio_window(r, depth=depth, up=up)[:2],
              st.sampled_from([(Fraction(1, 3), Fraction(2, 3)), (0.618, 0.382),
                               (Fraction(1),)]),
              st.integers(0, 3), st.integers(0, 2)),
    st.builds(lambda q, r, bk: ball_window(q, r, backend=bk)[:2],
              st.integers(1, 3), st.integers(0, 3), BACKEND),
    st.builds(lambda depth: spine_window(depth)[:2], st.integers(0, 6)),
)
MUTATIONS = ("none", "drop", "repoint", "two_cycle", "duplicate_id",
             "flip_complete", "measure")


def mutate(recs, kind, draw):
    """Apply one mutation of the given kind to the vertex records."""
    index = st.integers(0, len(recs) - 1)
    rec = recs[draw(index)]
    if kind == "drop":
        recs.remove(rec)
    elif kind == "repoint":
        rec["pred"] = draw(st.sampled_from([r["id"] for r in recs] + [None, 10 ** 6]))
    elif kind == "two_cycle":  # a 1-cycle when both picks agree
        other = recs[draw(index)]
        rec["pred"], other["pred"] = other["id"], rec["id"]
    elif kind == "duplicate_id":
        rec["id"] = recs[draw(index)]["id"]
    elif kind == "flip_complete":
        rec["complete"] = not rec["complete"]
    elif kind == "measure":
        rec["measure"] = draw(st.sampled_from(
            ["0", "-1/2", "3/7", 0.25, -1.0, str(2 * Fraction(rec["measure"]))]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(WINDOWS, st.sampled_from(MUTATIONS), st.data())
def test_loader_mutations_give_tree_error_or_valid_window(wm, kind, data):
    """One random mutation of a dumped window: the loader either refuses it
    with a TreeError or returns a window that validates; an unmutated
    document round-trips."""
    w, m = wm
    doc_ = json.loads(json.dumps(window_to_json(w, m)))
    mutate(doc_["vertices"], kind, data.draw)
    try:
        w2, m2 = load_window(doc_)
    except TreeError:
        assert kind != "none"
        return
    validate_window(w2)
    validate_measure(w2, m2)
    if kind == "none":
        assert w2.level == w.level and w2.pred == w.pred
        assert {v: w2.children(v) for v in w2.vertices} == \
            {v: w.children(v) for v in w.vertices}
        assert {v: w2.is_complete(v) for v in w2.vertices} == \
            {v: w.is_complete(v) for v in w.vertices}
        assert (m2.values, m2.backend) == (m.values, m.backend)


def test_readme_python_example_writes_a_loadable_window(tmp_path, monkeypatch):
    """The README's window-file example runs, and load_window reads the
    file it writes back as the same window."""
    block = README.read_text(encoding="utf-8").split("```python")[1]
    monkeypatch.chdir(tmp_path)
    exec(block.split("```")[0], {})
    w, m = load_window(str(tmp_path / "golden.json"))
    want, wm, _ = constant_ratio_window((0.6180339887498949, 0.3819660112501051),
                                        depth=10, up=150, backend="float")
    assert len(w) == len(want) and w.level == want.level
    assert m.values == wm.values
