"""Finite windows into trees with a root at infinity, and flow measures on them.

A window stores a predecessor map (every vertex except one apex has its
predecessor in the window), ordered successor lists of the vertices that
have children, integer levels, and the set of complete vertices, those
whose stored successor list is the full one in the ambient infinite tree.
A flow measure assigns a positive weight to every vertex and satisfies
m(x) = sum of m over successors at every complete vertex.

All operator evaluations elsewhere in the package certify their results
against these flags via ``safe_region``; nothing silently pretends the window
is the whole tree.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable, Iterator, Optional, Union

import numpy as np

Vertex = int
Number = Union[Fraction, float]

DEFAULT_VERTEX_CAP = 2_000_000
FLOAT_FLOW_RTOL = 1e-12


class TreeError(ValueError):
    """Structural or measure-validation failure on a tree window."""


class InsufficientMarginError(TreeError):
    """An operation needs more certified margin than the window provides."""


@dataclass
class TreeWindow:
    """Finite p-subtree of a tree with root at infinity.

    ``pred`` omits the apex; ``succ`` lists children in their fixed order;
    ``complete[v]`` (always True) means succ[v] is exhaustive in the ambient
    tree.  Both are sparse: a vertex missing from ``succ`` has no children,
    and one missing from ``complete`` is incomplete, so read them through
    ``children`` and ``is_complete`` (or ``.get`` with that default).
    ``up_ratio``, when set by a generator, is the factor by which the ambient
    measure grows per level above the apex (used to extend ancestor profiles
    analytically; loaded files leave it None).
    """

    apex: Vertex
    pred: dict[Vertex, Vertex]
    succ: dict[Vertex, list[Vertex]]
    level: dict[Vertex, int]
    complete: dict[Vertex, bool]
    up_ratio: Optional[Number] = None
    _defect_dist: Optional[dict[Vertex, int]] = field(default=None, repr=False,
                                                      compare=False)
    _all_vertices: Optional[frozenset[Vertex]] = field(default=None, repr=False,
                                                       compare=False)
    _arrays: Optional["WindowArrays"] = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.level)

    @property
    def vertices(self) -> Iterable[Vertex]:
        return self.level.keys()

    def all_vertices(self) -> frozenset[Vertex]:
        """Every vertex, as one cached frozenset: the certified set of a
        function that is exact everywhere on the window."""
        if self._all_vertices is None:
            self._all_vertices = frozenset(self.level)
        return self._all_vertices

    def arrays(self) -> "WindowArrays":
        """The window's dicts as read-only arrays, built on first use and
        cached (never while the window is built)."""
        if self._arrays is None:
            self._arrays = WindowArrays.of(self)
        return self._arrays

    def parent(self, v: Vertex) -> Optional[Vertex]:
        return self.pred.get(v)

    def children(self, v: Vertex) -> list[Vertex]:
        return self.succ.get(v, [])

    def is_complete(self, v: Vertex) -> bool:
        return self.complete.get(v, False)

    def ancestors(self, v: Vertex) -> Iterator[Vertex]:
        """v, parent(v), ... up to the apex."""
        while v is not None:
            yield v
            v = self.pred.get(v)

    def lca(self, x: Vertex, y: Vertex) -> Vertex:
        pred, level = self.pred, self.level
        lx, ly = level[x], level[y]
        while lx < ly:
            x = pred[x]
            lx += 1
        while ly < lx:
            y = pred[y]
            ly += 1
        try:
            while x != y:
                x, y = pred[x], pred[y]
        except KeyError:
            raise TreeError("vertices have no common ancestor in window") from None
        return x

    def distance(self, x: Vertex, y: Vertex) -> int:
        a = self.lca(x, y)
        return 2 * self.level[a] - self.level[x] - self.level[y]

    def defect_distances(self) -> dict[Vertex, int]:
        """Graph distance from each vertex to the nearest window defect.

        Defects are the apex (its ambient predecessor is missing) and every
        incomplete vertex (some ambient successor is missing).  A closed ball
        B_N(x) lies in the window with B_{N-1}(x) complete exactly when this
        distance is >= N.
        """
        if self._defect_dist is None:
            pred, succ, complete = self.pred, self.succ, self.complete
            frontier = [v for v in self.vertices
                        if v == self.apex or not complete.get(v, False)]
            dist = dict.fromkeys(frontier, 0)
            d = 0
            while frontier:  # breadth first, one distance at a time
                d += 1
                found = []
                for v in frontier:
                    p = pred.get(v)
                    if p is not None and p not in dist:
                        dist[p] = d
                        found.append(p)
                    for w in succ.get(v, ()):
                        if w not in dist:
                            dist[w] = d
                            found.append(w)
                frontier = found
            self._defect_dist = dist
        return self._defect_dist


@dataclass
class WindowArrays:
    """A window's dicts as arrays, in window order (the order of ``level``).

    ``vertices`` holds the vertex ids themselves (an object array);
    ``level`` holds the levels, ``parent`` each vertex's parent position
    (-1 at the apex), and ``child[child_start[i]:child_start[i + 1]]`` the
    positions of vertex i's children in successor-list order.  ``position``
    maps ids to positions, or is None where they are equal: a built window
    numbers its vertices 0, 1, ... in window order (``_Builder``).
    """

    vertices: np.ndarray
    position: Optional[dict[Vertex, int]]
    level: np.ndarray
    parent: np.ndarray
    child_start: np.ndarray
    child: np.ndarray
    _masses: dict = field(default_factory=dict, repr=False)

    @classmethod
    def of(cls, window: TreeWindow) -> "WindowArrays":
        level, n = window.level, len(window.level)
        kids = list(map(window.succ.get, level, repeat(())))
        if list(level) == list(range(n)):
            position = None
            up = map(window.pred.get, level, repeat(-1))
            down = chain.from_iterable(kids)
        else:
            position = dict(zip(level, range(n)))
            up = map(position.get, map(window.pred.get, level), repeat(-1))
            down = map(position.__getitem__, chain.from_iterable(kids))
        child_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, kids), dtype=np.int64, count=n), out=child_start[1:])
        arrays = (np.fromiter(level, dtype=object, count=n),
                  np.fromiter(level.values(), dtype=np.int64, count=n),
                  np.fromiter(up, dtype=np.int64, count=n), child_start,
                  np.fromiter(down, dtype=np.int64, count=child_start[-1]))
        for a in arrays:
            a.setflags(write=False)
        vertices, levels, parent, child_start, child = arrays
        return cls(vertices, position, levels, parent, child_start, child)

    def positions(self, vs: Iterable[Vertex]) -> np.ndarray:
        """The positions of the given window vertices."""
        if self.position is not None:
            vs = map(self.position.__getitem__, vs)
        return np.fromiter(vs, dtype=np.int64)

    def masses(self, measure: "FlowMeasure") -> np.ndarray:
        """float(m(v)) in window order, read-only, built once per measure
        (the entry keeps the measure, so its id is not reused)."""
        entry = self._masses.get(id(measure))
        if entry is None:
            m = np.fromiter(map(measure.values.__getitem__, self.vertices),
                            dtype=float, count=len(self.vertices))
            m.setflags(write=False)
            entry = self._masses[id(measure)] = (measure, m)
        return entry[1]


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


@dataclass
class FlowMeasure:
    """Positive vertex weights; flow equation holds at complete vertices."""

    values: dict[Vertex, Number]
    backend: str  # "rational" | "float"

    def as_float(self, v: Vertex) -> float:
        return float(self.values[v])


def safe_region(window: TreeWindow, n: int) -> set[Vertex]:
    """Vertices x with B_n(x) inside the window and B_{n-1}(x) complete.

    Words of length <= n in the shift pair evaluate exactly there.
    safe_region(n+1) is contained in safe_region(n) by construction.
    """
    if n < 0:
        raise ValueError("radius must be >= 0")
    if n == 0:
        return set(window.vertices)
    dist = window.defect_distances()
    return {v for v in window.vertices if dist.get(v, 0) >= n}


def in_safe_region(window: TreeWindow, v: Vertex, n: int) -> bool:
    """v in safe_region(window, n), read from the cached defect distances."""
    if n < 0:
        raise ValueError("radius must be >= 0")
    if v not in window.level:
        return False
    return n == 0 or window.defect_distances().get(v, 0) >= n


def ball(window: TreeWindow, center: Vertex, radius: int) -> set[Vertex]:
    """Window vertices within graph distance ``radius`` of center."""
    arrays = window.arrays()
    at = _ball(arrays, arrays.positions([center])[0], radius)[0]
    return set(arrays.vertices[at].tolist())


def _levels_from_apex(apex: Vertex, apex_level: int,
                      succ: dict[Vertex, list[Vertex]]) -> dict[Vertex, int]:
    """Levels of the vertices below the apex along successor lists, by one
    walk down with an explicit stack; vertices cut off from the apex get
    none.  Each vertex must sit in at most one successor list, the apex in
    none."""
    level = {apex: apex_level}
    stack = [apex]
    while stack:
        p = stack.pop()
        for c in succ.get(p, ()):
            level[c] = level[p] - 1
            stack.append(c)
    return level


def validate_window(window: TreeWindow) -> None:
    """Check pred/succ consistency, levels, acyclicity, connectivity (the
    last three by one walk down from the apex once pred and succ agree)."""
    verts = window.level
    if window.apex not in verts:
        raise TreeError("apex not among vertices")
    if window.apex in window.pred:
        raise TreeError("apex must have no predecessor")
    for v, p in window.pred.items():
        if v not in verts:
            raise TreeError(f"vertex {v} has a predecessor but no level")
        if p not in verts:
            raise TreeError(f"predecessor {p} of {v} not in window")
        if v not in window.succ.get(p, []):
            raise TreeError(f"vertex {v} missing from successor list of {p}")
    for v, cs in window.succ.items():
        for c in cs:
            if window.pred.get(c) != v:
                raise TreeError(f"successor {c} of {v} has wrong predecessor")
        if len(set(cs)) != len(cs):
            raise TreeError(f"duplicate successor at {v}")
    level = _levels_from_apex(window.apex, verts[window.apex], window.succ)
    if level != verts:
        v = next(v for v, lv in verts.items() if level.get(v) != lv)
        raise TreeError(f"level of {v} is not level({window.pred[v]}) - 1"
                        if v in level else f"vertex {v} has no path up to the "
                        "apex (no predecessor, or a cycle)")


def validate_measure(window: TreeWindow, measure: FlowMeasure) -> None:
    """Positivity everywhere; flow equation at every complete vertex (to
    FLOAT_FLOW_RTOL relative on the float backend)."""
    for v in window.vertices:
        m = measure.values.get(v)
        if m is None:
            raise TreeError(f"no measure at vertex {v}")
        if m <= 0:
            raise TreeError(f"nonpositive measure at vertex {v}")
    for v in window.vertices:
        if not window.is_complete(v):
            continue
        total = sum(measure.values[c] for c in window.children(v))
        if measure.backend == "rational":
            if total != measure.values[v]:
                raise TreeError(f"flow equation violated at vertex {v}")
        else:
            mv = float(measure.values[v])
            if abs(float(total) - mv) > FLOAT_FLOW_RTOL * abs(mv):
                raise TreeError(f"flow equation violated at vertex {v}")


def _cone_size(b: int, depth: int) -> int:
    """Vertices of the full b-ary cone ``depth`` levels deep (0 for depth -1)."""
    return depth + 1 if b == 1 else (b ** (depth + 1) - 1) // (b - 1)


def ball_vertex_bound(q: int, radius: int) -> int:
    """The size of the radius ball in the q-ary tree, which ``ball_window``
    checks against its cap: 1 + (q+1)(q^r - 1)/(q - 1), or 2r + 1 for q = 1."""
    return 1 + (q + 1) * _cone_size(q, radius - 1)


def _check_cap(count: int) -> None:
    """Refuse a window of more than DEFAULT_VERTEX_CAP vertices, naming its
    size: in full up to 12 digits, else to two significant ones."""
    if count > DEFAULT_VERTEX_CAP:
        size = f"{count:,}" if count < 10 ** 12 else f"about {Decimal(count):.1e}"
        raise TreeError(f"the window would have {size} vertices, over the cap "
                        f"of {DEFAULT_VERTEX_CAP:,}")


class _Builder:
    """The one writer of generated windows.

    It assigns sequential vertex ids from the apex (id 0) and writes pred,
    level and the measure in id order, and succ and complete sparsely: a
    parent enters succ with its first child, and complete only while its
    last ``add`` says it is complete.  Each level's int is one object,
    shared by the level's vertices.  The generators keep their own math:
    they pass in the masses and say which parents are complete.
    """

    def __init__(self, apex_level: int, apex_mass: Number):
        self.pred: dict[Vertex, Vertex] = {}
        self.succ: dict[Vertex, list[Vertex]] = {}
        self.level: dict[Vertex, int] = {0: apex_level}
        self.complete: dict[Vertex, bool] = {}
        self.values: dict[Vertex, Number] = {0: apex_mass}
        self._levels: dict[int, int] = {}

    def add(self, p: Vertex, masses, complete: bool) -> list[Vertex]:
        """Children of p, one per mass, at level(p) - 1; sets p's flag."""
        pred, succ, level, flags, values = (self.pred, self.succ, self.level,
                                            self.complete, self.values)
        lv = level[p] - 1
        lv = self._levels.setdefault(lv, lv)
        kids = []
        for m in masses:
            v = len(level)
            pred[v] = p
            level[v] = lv
            values[v] = m
            kids.append(v)
        if p in succ:
            succ[p] += kids
        elif kids:
            succ[p] = kids
        if complete:
            flags[p] = True
        else:
            flags.pop(p, None)
        return kids

    def cone(self, base: Vertex, depth: int, child_masses) -> None:
        """Grow the full cone of a childless base ``depth`` levels down,
        level by level, parent by parent.  ``child_masses(mass, level)``
        gives the masses of the children, at ``level``, of a parent of the
        given mass; every parent becomes complete."""
        frontier = [base]
        for lv in range(self.level[base] - 1, self.level[base] - depth - 1, -1):
            frontier = [v for p in frontier
                        for v in self.add(p, child_masses(self.values[p], lv), True)]

    def finish(self, backend: str, up_ratio: Optional[Number]
               ) -> tuple[TreeWindow, FlowMeasure]:
        window = TreeWindow(0, self.pred, self.succ, self.level, self.complete,
                            up_ratio=up_ratio)
        return window, FlowMeasure(self.values, backend)


def _canonical_flow(q: Number, backend: str):
    """The flow level -> q**level (the q-ary tree's canonical one), memoised
    per level, and its up_ratio q, in the backend's number type."""
    unit = Fraction(q) if backend == "rational" else float(q)
    return functools.lru_cache(maxsize=None)(unit.__pow__), unit


def ball_window(q: Union[int, tuple], radius: int, center_level: int = 0,
                backend: str = "rational"
                ) -> tuple[TreeWindow, FlowMeasure, Vertex]:
    """The closed ball of the given radius around a center in the q-ary
    tree, or, for a tuple ``q`` of branching ratios, in the flow of
    ``constant_ratio_window``: the center's ancestors follow the first
    ratio, with m = ratios[0]**-level, and any other child has its
    parent's mass times its ratio.

    Returns (window, measure, center).  The center is in
    ``safe_region(window, radius)`` and not in ``safe_region(window,
    radius + 1)``, so a ball of radius r hosts the center's columns of
    operators with propagation up to r.  Vertex ids are depth first: a
    child's whole cone comes before its next sibling.
    """
    degree = len(q) if isinstance(q, tuple) else q
    if degree < 1 or radius < 0:
        raise ValueError("need q >= 1 and radius >= 0")
    # children(p, lv, m, d): stack entries for the children of a vertex p
    # of mass m, at level lv with cones of depth d, the first child last
    if isinstance(q, tuple):
        backend, rr = _ratio_flow(q, backend)
        mass, unit = _canonical_flow(1 / rr[0], backend)
        children = lambda p, lv, m, d: [(p, lv, m * r, d) for r in reversed(rr)]
    else:
        mass, unit = _canonical_flow(q, backend)
        children = lambda p, lv, m, d: [(p, lv, mass(lv), d)] * q
    _check_cap(ball_vertex_bound(degree, radius))
    b = _Builder(center_level + radius, mass(center_level + radius))
    chain = [0]
    for j in range(radius):
        lv = center_level + radius - j - 1
        chain += b.add(chain[-1], [mass(lv)], j >= 1)
    # off-chain cones: chain[i] (level distance radius - i from the center)
    # gets its children after the first, each carrying a cone so total
    # distance stays <= radius; the center's own cone comes first
    stack = []
    for i in range(radius - 1, 0, -1):
        p = chain[i]
        stack += children(p, b.level[p] - 1, b.values[p], i - 1)[:-1]
    if radius:
        stack += children(chain[-1], center_level - 1, b.values[chain[-1]],
                          radius - 1)
    while stack:
        p, lv, m, d = stack.pop()
        c, = b.add(p, (m,), True)
        if d > 0:
            stack += children(c, lv - 1, m, d - 1)
    return (*b.finish(backend, unit), chain[-1])


def _ratio_flow(ratios: tuple, backend: Optional[str]) -> tuple[str, list]:
    """The backend (read from the ratios' types when None) and the ratios in
    its number type, checked to be positive and to sum to one."""
    if backend is None:
        backend = "rational" if all(isinstance(r, (Fraction, int)) for r in ratios) else "float"
    rr = [(Fraction if backend == "rational" else float)(r) for r in ratios]
    if abs(sum(rr) - 1) > (0 if backend == "rational" else 1e-12):
        raise TreeError("ratios must sum to one")
    if min(rr) <= 0:
        raise TreeError("ratios must be positive")
    return backend, rr


def constant_ratio_window(ratios: tuple, depth: int, up: int = 0,
                          backend: Optional[str] = None
                          ) -> tuple[TreeWindow, FlowMeasure, Vertex]:
    """Self-similar flow tree: every vertex splits its mass by ``ratios``.

    The base sits at level 0 with mass 1, under an ancestor chain of length
    ``up`` that follows the first-ratio branch (so the apex is at level
    ``up``), and the ambient measure grows by 1/ratios[0] per level up; the
    chain is complete for one ratio (the line) only.  Ratios 1/q, q times,
    give the q-ary tree's flow m = q**level.  Returns (window, measure, base).
    """
    backend, rr = _ratio_flow(ratios, backend)
    _check_cap(up + _cone_size(len(ratios), depth))
    r0 = rr[0]
    base_mass = (Fraction if backend == "rational" else float)(1)
    b = _Builder(up, base_mass / (r0 ** up) if up else base_mass)
    base = 0
    for _ in range(up):
        base, = b.add(base, [b.values[base] * r0], len(rr) == 1)
    b.cone(base, depth, lambda m, lv: [m * r for r in rr])
    return (*b.finish(backend, 1 / r0), base)


def spine_window(depth: int) -> tuple[TreeWindow, FlowMeasure, Vertex]:
    """One branching vertex whose first child continues as a deep path.

    Used by the divergence probe.  The apex, of mass 1 at level 3, sits
    2 levels above the branching vertex, which splits its mass 1/2, 1/2
    between x1 (at level 0) and a sibling; below x1 every vertex has a
    single (complete) successor carrying the full mass, ``depth`` levels
    down.  Rational backend.  Returns (window, measure, x1).
    """
    _check_cap(depth + 5)
    one, half = Fraction(1), Fraction(1, 2)
    b = _Builder(3, one)
    branch, = b.add(0, [one], False)
    branch, = b.add(branch, [one], False)
    x1, _ = b.add(branch, [half, half], True)
    v = x1
    for _ in range(depth):
        v, = b.add(v, [half], True)
    return (*b.finish("rational", one), x1)


def _check_normal(raw, m) -> None:
    """Refuse the entry raw when the float of its positive value m is not a
    normal double."""
    try:
        x = float(m)
    except OverflowError:
        x = math.inf
    if not sys.float_info.min <= x < math.inf:
        raise TreeError(f"measure {reprlib.repr(raw)} is outside the range of "
                        "normal doubles")


def _parse_measure(raw) -> tuple[Number, str]:
    """A measure entry and its backend.  A positive entry whose float is not
    a normal double (it overflows, or underflows to a subnormal or to 0) is
    refused: every float route, and the ball sweep on rational windows too,
    reads each mass as a double.  A decimal string is tested as a Decimal,
    which keeps its exponent, before Fraction would expand it in full; a
    nonpositive one comes back as 0, for validate_measure to refuse with the
    vertex named."""
    if isinstance(raw, bool):
        raise TreeError(f"unsupported measure entry {raw!r}")
    if isinstance(raw, str):
        try:
            d = Decimal(raw)
        except ArithmeticError:   # "p/q", or malformed: Fraction reads or refuses it
            d = Decimal("NaN")
        if d.is_finite():
            if d <= 0:
                return Fraction(0), "rational"
            _check_normal(raw, d)
    if isinstance(raw, (str, int)):
        try:
            m, backend = Fraction(raw), "rational"
        except ZeroDivisionError as exc:
            raise TreeError(f"measure {raw!r} has a zero denominator") from exc
    elif isinstance(raw, float):
        if not math.isfinite(raw):
            raise TreeError(f"non-finite measure {raw!r}")
        m, backend = raw, "float"
    else:
        raise TreeError(f"unsupported measure entry {raw!r}")
    if m > 0:
        _check_normal(raw, m)
    return m, backend


def _read_document(source) -> dict:
    """The parsed document of a path, a JSON text, or a parsed dict.

    A string that does not open as a file is read as JSON text only if it
    starts like a JSON object or array; anything else is an unreadable path.
    """
    if isinstance(source, dict):
        return source
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, TypeError, ValueError) as exc:
        if not (isinstance(source, str) and source.lstrip()[:1] in ("{", "[")):
            raise TreeError(f"cannot read tree file {source!r}: {exc}") from exc
        text = source
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise TreeError(f"malformed tree document: {exc}") from exc


def load_window(source) -> tuple[TreeWindow, FlowMeasure]:
    """Read a tree-description document (path, JSON text, or parsed dict).

    Schema: {"apex_level": int, "vertices": [{"id", "pred" (null for apex),
    "measure" ("p/q" string or float), "complete": bool}, ...]}.
    Successor order is array order among children of the same pred, and
    vertices keep document order.  Like a generated window, the result
    keeps only vertices with children in ``succ`` and only complete ones in
    ``complete``.
    """
    doc = _read_document(source)
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise TreeError("tree document must be an object with a 'vertices' array")
    apex_level = doc.get("apex_level", 0)
    if not isinstance(apex_level, int):
        raise TreeError("apex_level must be an integer")

    pred: dict[int, int] = {}
    succ: dict[int, list[int]] = {}
    complete: dict[int, bool] = {}
    values: dict[int, Number] = {}
    backends = set()
    apex = None
    order = []
    for i, rec in enumerate(doc["vertices"]):
        try:
            vid = int(rec["id"])
            p = rec.get("pred")
            m, bk = _parse_measure(rec["measure"])
            comp = bool(rec.get("complete", False))
        except (KeyError, TypeError, ValueError) as exc:
            raise TreeError(f"bad vertex record at index {i}: {exc}") from exc
        if vid in values:
            raise TreeError(f"duplicate vertex id {vid} (record {i})")
        order.append(vid)
        values[vid] = m
        backends.add(bk)
        if comp:
            complete[vid] = True
        if p is None:
            if apex is not None:
                raise TreeError(f"two apexes: {apex} and {vid} (record {i})")
            apex = vid
        else:
            pred[vid] = int(p)
    if apex is None:
        raise TreeError("no apex record (pred null) found")
    for vid in order:
        if vid in pred:
            p = pred[vid]
            if p not in values:
                raise TreeError(f"vertex {vid} refers to unknown predecessor {p}")
            succ.setdefault(p, []).append(vid)

    backend = "float" if "float" in backends else "rational"
    if backend == "float":
        values = {v: float(m) for v, m in values.items()}

    level = _levels_from_apex(apex, apex_level, succ)
    for vid in order:
        if vid not in level:
            raise TreeError(f"vertex {vid}: disconnected from apex or cyclic")

    window = TreeWindow(apex, pred, succ, {v: level[v] for v in order}, complete)
    measure = FlowMeasure(values, backend)
    validate_window(window)
    validate_measure(window, measure)
    return window, measure


def window_to_json(window: TreeWindow, measure: FlowMeasure) -> dict:
    """Inverse of load_window, suitable for json.dump.

    Records come in preorder from the apex (children in successor order).
    """
    recs = []
    seen = set()
    stack = [window.apex]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        m = measure.values[v]
        recs.append({
            "id": v,
            "pred": window.pred.get(v),
            "measure": str(m) if measure.backend == "rational" else float(m),
            "complete": window.is_complete(v),
        })
        stack.extend(reversed(window.children(v)))
    return {"apex_level": window.level[window.apex], "vertices": recs}
