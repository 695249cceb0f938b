"""Finite windows into trees with a root at infinity, and flow measures on them.

A window stores a predecessor map (every vertex except one apex has its
predecessor in the window), ordered successor lists, integer levels, and a
per-vertex completeness flag saying whether the stored successor list is the
full one in the ambient infinite tree.  A flow measure assigns a positive
weight to every vertex and satisfies m(x) = sum of m over successors at every
complete vertex.

All operator evaluations elsewhere in the package certify their results
against these flags via ``safe_region``; nothing silently pretends the window
is the whole tree.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

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
    ``complete[v]`` means succ[v] is exhaustive in the ambient tree.
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
    _defect_dist: Optional[dict[Vertex, int]] = field(default=None, repr=False)
    _all_vertices: Optional[frozenset[Vertex]] = field(default=None, repr=False,
                                                       compare=False)

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
        lx, ly = self.level[x], self.level[y]
        while lx < ly:
            x = self.pred[x]
            lx += 1
        while ly < lx:
            y = self.pred[y]
            ly += 1
        while x != y:
            if x not in self.pred or y not in self.pred:
                raise TreeError("vertices have no common ancestor in window")
            x, y = self.pred[x], self.pred[y]
        return x

    def distance(self, x: Vertex, y: Vertex) -> int:
        a = self.lca(x, y)
        return 2 * self.level[a] - self.level[x] - self.level[y]

    def is_below(self, x: Vertex, y: Vertex) -> bool:
        """True iff x <= y (y lies on the geodesic from x to the root)."""
        return self.lca(x, y) == y

    def defect_distances(self) -> dict[Vertex, int]:
        """Graph distance from each vertex to the nearest window defect.

        Defects are the apex (its ambient predecessor is missing) and every
        incomplete vertex (some ambient successor is missing).  A closed ball
        B_N(x) lies in the window with B_{N-1}(x) complete exactly when this
        distance is >= N.
        """
        if self._defect_dist is None:
            dist = {}
            dq: deque[Vertex] = deque()
            for v in self.vertices:
                if v == self.apex or not self.complete.get(v, False):
                    dist[v] = 0
                    dq.append(v)
            while dq:
                v = dq.popleft()
                d = dist[v] + 1
                p = self.pred.get(v)
                nbrs = self.succ.get(v, [])
                for w in ([p] if p is not None else []) + list(nbrs):
                    if w not in dist:
                        dist[w] = d
                        dq.append(w)
            self._defect_dist = dist
        return self._defect_dist


@dataclass
class FlowMeasure:
    """Positive vertex weights; flow equation holds at complete vertices."""

    values: dict[Vertex, Number]
    backend: str  # "rational" | "float"

    def of(self, v: Vertex) -> Number:
        return self.values[v]

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
    """Window vertices within graph distance ``radius`` of center, by a
    breadth-first search over the predecessor and successor maps."""
    seen = {center}
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            p = window.pred.get(v)
            for w in ([p] if p is not None else []) + window.children(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def meeting_levels(window: TreeWindow, y: Vertex) -> dict[Vertex, int]:
    """level(lca(x, y)) for every window vertex x, in one top-down pass.

    A vertex on y's ancestor line (y included) meets y at its own level;
    any other vertex meets y where its parent does.
    """
    on_chain = set(window.ancestors(y))
    meet: dict[Vertex, int] = {}
    stack = [(window.apex, window.level[window.apex])]
    while stack:
        v, j = stack.pop()
        if v in on_chain:
            j = window.level[v]
        meet[v] = j
        stack.extend((c, j) for c in window.children(v))
    return meet


def validate_window(window: TreeWindow) -> None:
    """Check pred/succ consistency, levels, acyclicity, connectivity."""
    verts = set(window.vertices)
    if window.apex not in verts:
        raise TreeError("apex not among vertices")
    if window.apex in window.pred:
        raise TreeError("apex must have no predecessor")
    for v in verts:
        if v != window.apex and v not in window.pred:
            raise TreeError(f"vertex {v} has no predecessor and is not the apex")
    for v, p in window.pred.items():
        if p not in verts:
            raise TreeError(f"predecessor {p} of {v} not in window")
        if v not in window.succ.get(p, []):
            raise TreeError(f"vertex {v} missing from successor list of {p}")
        if window.level[v] != window.level[p] - 1:
            raise TreeError(f"level of {v} is not level({p}) - 1")
    for v, cs in window.succ.items():
        for c in cs:
            if window.pred.get(c) != v:
                raise TreeError(f"successor {c} of {v} has wrong predecessor")
        if len(set(cs)) != len(cs):
            raise TreeError(f"duplicate successor at {v}")
    # connectivity + acyclicity: every vertex reaches the apex by pred steps
    seen_ok = {window.apex}
    for v in verts:
        chain = []
        w = v
        while w not in seen_ok:
            chain.append(w)
            if w not in window.pred or len(chain) > len(verts):
                raise TreeError("window is disconnected or cyclic")
            w = window.pred[w]
        seen_ok.update(chain)


def validate_measure(window: TreeWindow, measure: FlowMeasure,
                     rtol: float = FLOAT_FLOW_RTOL) -> None:
    """Positivity everywhere; flow equation at every complete vertex."""
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
            if abs(float(total) - mv) > rtol * abs(mv):
                raise TreeError(f"flow equation violated at vertex {v}")


def ball_vertex_bound(q: int, radius: int) -> int:
    """The vertex count ``ball_window`` checks against its cap: an upper
    bound on the size of the radius ball in the q-ary tree."""
    return (radius + 1) * (q ** radius) + radius + 1


def _check_cap(count: int, max_vertices: int) -> None:
    if count > max_vertices:
        raise TreeError(
            f"window would exceed vertex cap ({count} > {max_vertices}); "
            "pass max_vertices to override")


def homogeneous_window(q: int, depth: int, up: int = 0, apex_level: int = 0,
                       backend: str = "rational",
                       max_vertices: int = DEFAULT_VERTEX_CAP
                       ) -> tuple[TreeWindow, FlowMeasure]:
    """Window into the q-ary tree with its canonical flow m(x) = q**level(x).

    An ancestor chain of length ``up`` sits above a base vertex, and the full
    q-ary cone of the base extends ``depth`` levels down.  Chain vertices are
    complete only for q = 1 (their ambient siblings are missing otherwise).
    The level convention: the apex carries ``apex_level``.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    est = up + (q ** (depth + 1) - 1) // (q - 1) if q > 1 else up + depth + 1
    _check_cap(est, max_vertices)

    pred: dict[int, int] = {}
    succ: dict[int, list[int]] = {}
    level: dict[int, int] = {}
    complete: dict[int, bool] = {}
    next_id = 0

    def add(p: Optional[int], lv: int) -> int:
        nonlocal next_id
        v = next_id
        next_id += 1
        level[v] = lv
        succ[v] = []
        complete[v] = False
        if p is not None:
            pred[v] = p
            succ[p].append(v)
        return v

    apex = add(None, apex_level)
    cur = apex
    for j in range(up):
        nxt = add(cur, apex_level - j - 1)
        complete[cur] = q == 1
        cur = nxt
    base = cur
    frontier = [base]
    for d in range(depth):
        new = []
        for v in frontier:
            for _ in range(q):
                new.append(add(v, level[v] - 1))
            complete[v] = True
        frontier = new

    if backend == "rational":
        values: dict[int, Number] = {v: Fraction(q) ** level[v] for v in level}
    else:
        values = {v: float(q) ** level[v] for v in level}
    window = TreeWindow(apex, pred, succ, level, complete,
                        up_ratio=Fraction(q) if backend == "rational" else float(q))
    measure = FlowMeasure(values, backend)
    return window, measure


def ball_window(q: int, radius: int, center_level: int = 0,
                backend: str = "rational",
                max_vertices: int = DEFAULT_VERTEX_CAP
                ) -> tuple[TreeWindow, FlowMeasure, Vertex]:
    """The closed ball of the given radius around a center in the q-ary tree.

    Returns (window, canonical measure, center).  The center is safe at the
    full radius, so a ball of radius r+? hosts columns of operators with
    propagation up to ``radius``.
    """
    if q < 1 or radius < 0:
        raise ValueError("need q >= 1 and radius >= 0")
    _check_cap(ball_vertex_bound(q, radius), max_vertices)

    pred: dict[int, int] = {}
    succ: dict[int, list[int]] = {}
    level: dict[int, int] = {}
    complete: dict[int, bool] = {}
    next_id = 0

    def add(p, lv):
        nonlocal next_id
        v = next_id
        next_id += 1
        level[v] = lv
        succ[v] = []
        complete[v] = False
        if p is not None:
            pred[v] = p
            succ[p].append(v)
        return v

    def grow_cone(v, depth_left):
        if depth_left <= 0:
            return
        for _ in range(q):
            c = add(v, level[v] - 1)
            grow_cone(c, depth_left - 1)
        complete[v] = True

    apex = add(None, center_level + radius)
    chain = [apex]
    for j in range(radius):
        chain.append(add(chain[-1], center_level + radius - j - 1))
    center = chain[-1]
    # center's own cone: depth = radius
    grow_cone(center, radius)
    # off-chain cones: chain[i] (level distance radius - i from center) gets
    # q-1 extra children, each carrying a cone so total distance <= radius
    for i, v in enumerate(chain[:-1]):
        extra_depth = i - 1  # descendants must stay within distance `radius`
        if extra_depth < 0:
            continue
        for _ in range(q - 1):
            c = add(v, level[v] - 1)
            grow_cone(c, extra_depth)
        complete[v] = True

    if backend == "rational":
        values: dict[int, Number] = {v: Fraction(q) ** level[v] for v in level}
    else:
        values = {v: float(q) ** level[v] for v in level}
    window = TreeWindow(apex, pred, succ, level, complete,
                        up_ratio=Fraction(q) if backend == "rational" else float(q))
    return window, FlowMeasure(values, backend), center


def constant_ratio_window(ratios: tuple, depth: int, up: int = 0,
                          apex_level: Optional[int] = None,
                          root_mass: Number = 1,
                          backend: Optional[str] = None,
                          max_vertices: int = DEFAULT_VERTEX_CAP
                          ) -> tuple[TreeWindow, FlowMeasure, Vertex]:
    """Self-similar flow tree: every vertex splits its mass by ``ratios``.

    The ancestor chain above the base follows the first-ratio branch, so the
    ambient measure grows by 1/ratios[0] per level up.  Returns
    (window, measure, base).
    """
    b = len(ratios)
    if backend is None:
        backend = "rational" if all(isinstance(r, (Fraction, int)) for r in ratios) else "float"
    tot = sum(Fraction(r) if backend == "rational" else float(r) for r in ratios)
    if backend == "rational":
        if tot != 1:
            raise TreeError("ratios must sum to one")
    elif abs(float(tot) - 1.0) > 1e-12:
        raise TreeError("ratios must sum to one")
    est = up + (b ** (depth + 1) - 1) // (b - 1) if b > 1 else up + depth + 1
    _check_cap(est, max_vertices)
    if apex_level is None:
        apex_level = up

    pred: dict[int, int] = {}
    succ: dict[int, list[int]] = {}
    level: dict[int, int] = {}
    complete: dict[int, bool] = {}
    values: dict[int, Number] = {}
    next_id = 0

    def add(p, lv, m):
        nonlocal next_id
        v = next_id
        next_id += 1
        level[v] = lv
        succ[v] = []
        complete[v] = False
        values[v] = m
        if p is not None:
            pred[v] = p
            succ[p].append(v)
        return v

    r0 = Fraction(ratios[0]) if backend == "rational" else float(ratios[0])
    base_mass = Fraction(root_mass) if backend == "rational" else float(root_mass)
    apex_mass = base_mass / (r0 ** up) if up else base_mass
    apex = add(None, apex_level, apex_mass)
    cur = apex
    for j in range(up):
        cur = add(cur, apex_level - j - 1, values[cur] * r0)
    base = cur
    frontier = [base]
    for _ in range(depth):
        new = []
        for v in frontier:
            for r in ratios:
                rr = Fraction(r) if backend == "rational" else float(r)
                new.append(add(v, level[v] - 1, values[v] * rr))
            complete[v] = True
        frontier = new

    window = TreeWindow(apex, pred, succ, level, complete,
                        up_ratio=(1 / r0 if backend == "float" else Fraction(1, 1) / r0))
    return window, FlowMeasure(values, backend), base


def spine_window(depth: int, up: int = 2, split: tuple = (Fraction(1, 2), Fraction(1, 2)),
                 backend: str = "rational") -> tuple[TreeWindow, FlowMeasure, Vertex]:
    """One branching vertex whose first child continues as a deep path.

    Used by the divergence probe: the returned vertex x1 has a sibling, and
    below x1 every vertex has a single (complete) successor carrying the full
    mass.  Returns (window, measure, x1).
    """
    pred: dict[int, int] = {}
    succ: dict[int, list[int]] = {}
    level: dict[int, int] = {}
    complete: dict[int, bool] = {}
    values: dict[int, Number] = {}
    next_id = 0

    def add(p, lv, m):
        nonlocal next_id
        v = next_id
        next_id += 1
        level[v] = lv
        succ[v] = []
        complete[v] = False
        values[v] = m
        if p is not None:
            pred[v] = p
            succ[p].append(v)
        return v

    one = Fraction(1) if backend == "rational" else 1.0
    apex = add(None, up + 1, one)
    cur = apex
    for j in range(up):
        cur = add(cur, level[cur] - 1, values[cur])
    branch = cur
    r0 = split[0] if backend == "rational" else float(split[0])
    r1 = split[1] if backend == "rational" else float(split[1])
    x1 = add(branch, level[branch] - 1, values[branch] * r0)
    add(branch, level[branch] - 1, values[branch] * r1)
    complete[branch] = True
    cur = x1
    for _ in range(depth):
        nxt = add(cur, level[cur] - 1, values[cur])
        complete[cur] = True
        cur = nxt
    window = TreeWindow(apex, pred, succ, level, complete, up_ratio=one)
    return window, FlowMeasure(values, backend), x1


def _parse_measure(raw) -> tuple[Number, str]:
    if isinstance(raw, bool):
        raise TreeError(f"unsupported measure entry {raw!r}")
    if isinstance(raw, (str, int)):
        try:
            return Fraction(raw), "rational"
        except ZeroDivisionError as exc:
            raise TreeError(f"measure {raw!r} has a zero denominator") from exc
    if isinstance(raw, float):
        if not math.isfinite(raw):
            raise TreeError(f"non-finite measure {raw!r}")
        return raw, "float"
    raise TreeError(f"unsupported measure entry {raw!r}")


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
    Successor order is array order among children of the same pred.
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
        complete[vid] = comp
        succ.setdefault(vid, [])
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
            succ[p].append(vid)

    backend = "float" if "float" in backends else "rational"
    if backend == "float":
        values = {v: float(m) for v, m in values.items()}

    # derive levels from the apex
    level: dict[int, int] = {}
    for vid in order:
        chain = []
        w = vid
        while w not in level:
            if w == apex:
                level[w] = apex_level
                break
            chain.append(w)
            if w not in pred or len(chain) > len(order):
                raise TreeError(f"vertex {vid}: disconnected from apex or cyclic")
            w = pred[w]
        for u in reversed(chain):
            level[u] = level[pred[u]] - 1

    window = TreeWindow(apex, pred, succ, level, complete)
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
