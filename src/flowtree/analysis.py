"""Numerical experiments on heat, Riesz, and multiplier kernels.

Everything here reduces to two engines: the radial calculus on the q-ary
tree (module abel) and the ancestor-profile formula (module flowkernel),
fed with closed-form gradient heat kernels on the integer line.  Slope fits
are ordinary least squares on logs with the residual reported; suprema over
anchors sample stratified vertices when the certified region is large.
"""

from __future__ import annotations

import functools
import math
import os
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import abel, flowkernel
from .chebyshev import ChebModel, cheb_approx, cheb_column
from .localops import KernelColumn
from .trees import (FlowMeasure, TreeError, TreeWindow, Vertex, ball_window,
                    meeting_levels, safe_region)
from .zline import heat_support_radius, heat_z_gradkernel

SQRT_PI = math.sqrt(math.pi)
# heat kernels on the line are cut where they fall below this
HEAT_TOL = 1e-17
# rayleigh_bounds solves densely up to this many vertices
DENSE_SOLVE_CAP = 500


def ktilde_z(n: int) -> float:
    """Convolution kernel of the skew Riesz part on the line:
    (2 sqrt(2) / pi) n / (n^2 - 1/4)."""
    if n == 0:
        return 0.0
    return (2.0 * math.sqrt(2.0) / math.pi) * n / (n * n - 0.25)


def fit_loglog(xs, ys) -> dict:
    """Least-squares slope of log(y) against log(x), with RMS residual."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    if len(lx) < 2:
        return {"slope": float("nan"), "intercept": float(ly[0]) if len(ly) else float("nan"),
                "resid": 0.0}
    coef = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((np.polyval(coef, lx) - ly) ** 2)))
    return {"slope": float(coef[0]), "intercept": float(coef[1]), "resid": resid}


@dataclass
class EstimateReport:
    """Grid of measured values plus an optional slope fit and metadata."""

    rows: list[dict] = field(default_factory=list)
    fit: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def csv_header(self):
        keys = []
        for r in self.rows:
            for k in r:
                if k not in keys:
                    keys.append(k)
        return keys

    def csv_rows(self):
        keys = self.csv_header()
        return [[r.get(k, "") for k in keys] for r in self.rows]


@dataclass(frozen=True)
class QuadratureSpec:
    """Subordination quadrature for the inverse square root.

    The t-integral runs as u = sqrt(t) Gauss-Legendre on (0, 1], then
    per-decade Gauss-Legendre panels in log t up to t_cut; the remaining
    tail decays like 1/t_cut (gradient heat kernels decay like t^{-3/2}
    pointwise) and is handled by one Richardson step on the last decade.
    """

    interior_nodes: int = 48
    panels_per_decade: int = 24
    t_cut: float = 1e8

    def nodes(self):
        """(t, weight) pairs approximating (1/sqrt(pi)) int f(t) dt/sqrt(t)."""
        out = []
        xs, ws = leggauss(self.interior_nodes)
        for xi, wi in zip(xs, ws):
            u = 0.5 * (xi + 1.0)
            out.append((u * u, 2.0 * 0.5 * wi / SQRT_PI, 0))
        # in s = log t the integrand is f(e^s) e^{s/2}
        xs, ws = leggauss(self.panels_per_decade)
        ndec = int(round(math.log10(self.t_cut)))
        for k in range(ndec):
            a, b = k * math.log(10.0), (k + 1) * math.log(10.0)
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            for xi, wi in zip(xs, ws):
                s = mid + half * xi
                t = math.exp(s)
                out.append((t, half * wi * math.sqrt(t) / SQRT_PI, 1 + k))
        return out


def _heat_gradk(t: float) -> np.ndarray:
    return heat_z_gradkernel(t, heat_support_radius(t, HEAT_TOL))


@functools.lru_cache(maxsize=None)
def _riesz_gradkernels(spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """The quadrature's weighted sum of heat gradient kernels, and the part
    of that sum from the last decade (t_cut / 10 to t_cut), zero-padded to
    one length and read-only.

    The ancestor-profile formula is linear in the line kernel, so profiling
    these two sums equals profiling every node and summing the results.
    The sums run in extended precision: rounded once, they keep the Riesz
    values as close to the exact quadrature as the node-by-node sums were.
    `ive` releases the GIL, so the kernels are evaluated on one thread per
    CPU, at most two per thread ahead of the sums, which add them in node
    order: the result does not depend on the CPU count.
    """
    ndec = int(round(math.log10(spec.t_cut)))
    nodes = spec.nodes()
    # kernel lengths grow with t, so the longest fixes the sums' length
    size = heat_support_radius(max(t for t, _, _ in nodes), HEAT_TOL) + 1
    total = np.zeros(size, dtype=np.longdouble)
    last = np.zeros(size, dtype=np.longdouble)
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:
        workers = os.cpu_count() or 1
    with ThreadPoolExecutor(workers) as pool:
        futures = (pool.submit(_heat_gradk, t) for t, _, _ in nodes)
        pending = deque(islice(futures, 2 * workers))
        for _, w, block in nodes:
            g = w * pending.popleft().result()
            pending.extend(islice(futures, 1))
            total[:len(g)] += g
            if block == ndec:
                last[:len(g)] += g
    total, last = total.astype(float), last.astype(float)
    total.setflags(write=False)
    last.setflags(write=False)
    return total, last


def heat_kernel_column(window: TreeWindow, measure: FlowMeasure, t: float,
                       y: Vertex, degree: Optional[int] = None) -> KernelColumn:
    """Column of the heat operator at time t.

    With an explicit Chebyshev degree the column is certified through the
    interpolation route (window margins permitting).  Without one, values
    come from the ancestor-profile formula with closed-form line kernels,
    exact up to Bessel evaluation and any flagged chain truncation.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if degree is not None:
        model = cheb_approx(lambda lam: np.exp(-t * lam), degree)
        return cheb_column(window, measure, model, y)
    if t == 0:
        return KernelColumn(y, {y: 1.0 / measure.as_float(y)},
                            frozenset(window.vertices), 0.0)
    gradk = _heat_gradk(t)
    return _profile_column(window, measure, gradk, y, "plain")


def _profile_column(window, measure, gradk, y, variant) -> KernelColumn:
    """Column of a profile kernel at anchor y.

    Every term of the profile sum of a pair (x, y) sits at a common
    ancestor (levels J >= the meeting level), so y's chain serves every x,
    and the value depends on x only through level(x) and the meeting level:
    one array call evaluates the distinct (level, meeting level) keys.
    The column carries the fixed error estimate 1e-13 (not derived).
    """
    top = max(window.level[v] for v in window.vertices) + (len(gradk) // 2) + 2
    chain = flowkernel.chain_of(window, measure, y, top)
    meet = meeting_levels(window, y)
    keys, key_of = np.unique([list(window.level.values()),
                              [meet[x] for x in window.vertices]], axis=1, return_inverse=True)
    at_key = flowkernel.variant_value(gradk, chain, keys[0], window.level[y],
                                      keys[1], variant)
    vals = {x: v for x, v in zip(window.vertices, at_key[key_of].tolist()) if v}
    safe = frozenset(window.vertices) if not chain.truncated else frozenset()
    return KernelColumn(y, vals, safe, 1e-13)


def heat_ball_radius(q: int, t: float, tol: float) -> int:
    """Smallest radius of a ball in the q-ary tree that holds all but at
    most tol of the heat column's mass at time t.

    The mass inside radius r is the cumulative sum, up to r, of the heat
    column's mass per distance, taken over the centre's ancestor profile,
    so no ball is built; radii run up to the kernel's support, past which
    a ball holds all the mass.
    """
    gradk = _heat_gradk(t)
    w, m, c = ball_window(q, 0, backend="float")
    chain = flowkernel.chain_of(w, m, c, len(gradk) + 2)
    inside = np.cumsum(flowkernel.distance_masses(chain, gradk, 0))[:len(gradk) - 1]
    held = np.flatnonzero(1.0 - inside <= tol)
    return int(held[0]) if len(held) else len(inside) - 1


def grad_heat_kernel_column(window: TreeWindow, measure: FlowMeasure, t: float,
                            y: Vertex, degree: Optional[int] = None,
                            side: str = "x") -> KernelColumn:
    """Gradient of the heat column in the first (side 'x') or second
    (side 'y') variable: K(x,y) - K(parent(x), y) resp. K(x,y) - K(x, parent(y))."""
    if side not in ("x", "y"):
        raise ValueError("side must be 'x' or 'y'")
    if degree is not None or t == 0:
        base = heat_kernel_column(window, measure, t, y,
                                  degree if t > 0 else None)
        if side == "y":
            p = window.parent(y)
            if p is None:
                raise TreeError("anchor has no predecessor in window")
            other = heat_kernel_column(window, measure, t, p,
                                       degree if t > 0 else None)
            vals = {}
            for v in set(base.values) | set(other.values):
                d = base.value(v) - other.value(v)
                if d:
                    vals[v] = d
            return KernelColumn(y, vals, base.safe & other.safe,
                                base.err_bound + other.err_bound)
        vals = {}
        safe = set()
        for v in window.vertices:
            p = window.parent(v)
            d = base.value(v) - (base.value(p) if p is not None else 0)
            if d:
                vals[v] = d
            if v in base.safe and (p is None or p in base.safe):
                safe.add(v)
        return KernelColumn(y, vals, frozenset(safe), 2 * base.err_bound)
    gradk = _heat_gradk(t)
    variant = "grad_x" if side == "x" else "gradstar_z"
    return _profile_column(window, measure, gradk, y, variant)


def level_sum_estimate(window: TreeWindow, measure: FlowMeasure,
                       t_grid: Iterable[float], x: Vertex,
                       orientation: str = "x") -> EstimateReport:
    """Level-slice L1 mass of the gradient heat kernel against 1/(1+t).

    Scans the levels within a few diffusion lengths of the anchor and keeps
    the maximum: the decay rate of this supremum over levels is the
    quantity bounded by the level estimates.
    """
    rows = []
    ts = list(t_grid)
    lx = window.level[x]
    top_needed = lx + heat_support_radius(max(ts)) // 2 + 4
    chain = flowkernel.chain_of(window, measure, x, top_needed)
    for t in ts:
        gradk = _heat_gradk(t)
        span = int(3 * math.sqrt(t)) + 3
        levels = range(lx - span, lx + span + 1)
        vals = [flowkernel.level_sum(chain, gradk, lx, ll, orientation)
                for ll in levels]
        best = max(vals)
        best_l = levels[vals.index(best)] if best > 0 else None
        rows.append({"t": t, "value": best, "level": best_l,
                     "chain_truncated": chain.truncated})
    fit = fit_loglog([1.0 + t for t in ts], [r["value"] for r in rows])
    return EstimateReport(rows, fit, {
        "anchor": x, "orientation": orientation, "l": "sup",
        "abscissa": "log(1+t)"})


def riesz_kernel_values(window: TreeWindow, measure: FlowMeasure, pairs,
                        spec: Optional[QuadratureSpec] = None):
    """Batched Riesz kernel values (gradient in the first variable).

    Each pair profiles the quadrature's summed gradient kernel, built once
    per spec.  Every term of a pair's profile sum sits at a common
    ancestor, so either end's chain serves the pair; pairs take the end
    that more pairs share, and each chain makes one array call per kernel.
    The last decade of the t-quadrature feeds one Richardson step for the
    truncated tail (contributions decay like 1/t there); the per-pair error
    estimate combines that step with the chain-truncation flag.
    """
    spec = spec or QuadratureSpec()
    total_k, last_k = _riesz_gradkernels(spec)
    top_needed = (max(window.level[v] for pair in pairs for v in pair)
                  + heat_support_radius(spec.t_cut) // 2 + 4)
    lx, ly, j0 = np.array([(window.level[x], window.level[y],
                            window.level[window.lca(x, y)]) for x, y in pairs]).T
    uses = Counter(v for pair in pairs for v in pair)
    ends = np.array([x if uses[x] >= uses[y] else y for x, y in pairs])
    totals, last_decade = np.zeros((2, len(pairs)), dtype=complex)
    chains = {e: flowkernel.chain_of(window, measure, e, top_needed)
              for e in dict.fromkeys(ends.tolist())}
    for e, chain in chains.items():
        idx = np.flatnonzero(ends == e)
        for out, gk in ((totals, total_k), (last_decade, last_k)):
            out[idx] = flowkernel.variant_value(gk, chain, lx[idx], ly[idx],
                                                j0[idx], "grad_x")
    # Richardson: with 1/t tail behavior the remaining mass past t_cut is
    # (last decade contribution) / 9
    correction = last_decade / 9.0
    totals += correction
    errs = np.abs(correction) / 3.0 + 1e-12
    if any(c.truncated for c in chains.values()):
        errs += np.inf
    return [complex(v) for v in totals], [float(e) for e in errs]


def riesz_skew_closed(window: TreeWindow, measure: FlowMeasure,
                      x: Vertex, y: Vertex) -> float:
    """Closed form of the skew Riesz kernel: ktilde of the level gap over the
    measure of the upper vertex on comparable pairs, zero otherwise."""
    a = window.lca(x, y)
    n = window.level[x] - window.level[y]
    if a == y and x != y:  # x strictly below y
        return ktilde_z(n) / measure.as_float(y)
    if a == x and x != y:  # y strictly below x
        return ktilde_z(n) / measure.as_float(x)
    return 0.0


def riesz_skew_check(window: TreeWindow, measure: FlowMeasure,
                     pairs) -> EstimateReport:
    """Antisymmetrized quadrature Riesz kernel against the closed form."""
    both = list(pairs) + [(y, x) for x, y in pairs]
    vals, errs = riesz_kernel_values(window, measure, both)
    fwd, rev = vals[:len(pairs)], vals[len(pairs):]
    errf, errr = errs[:len(pairs)], errs[len(pairs):]
    rows = []
    worst = 0.0
    for (x, y), kf, kr, e1, e2 in zip(pairs, fwd, rev, errf, errr):
        skew = complex(kf) - complex(kr).conjugate()
        closed = riesz_skew_closed(window, measure, x, y)
        dev = abs(skew - closed)
        worst = max(worst, dev)
        rows.append({"x": x, "y": y, "d": window.distance(x, y),
                     "skew_re": skew.real, "closed": closed, "dev": dev,
                     "err_est": e1 + e2})
    return EstimateReport(rows, {}, {"max_dev": worst})


def weighted_heat_sweep(eps: float, t_grid, q_grid) -> EstimateReport:
    """The four weighted L1 rows on homogeneous trees across (t, q).

    Weight exp(eps * d / sqrt(t)); rows: heat, gradient-heat, heat-adjoint
    gradient, and the two-sided gradient, with slope fits against log(1+t).
    """
    rows = []
    ts = sorted(set(float(t) for t in t_grid))
    if ts[0] <= 0:
        raise ValueError("t must be > 0")
    for q in q_grid:
        for t in ts:
            gradk = _heat_gradk(t)
            kmax = len(gradk) - 3
            rad = abel.radial_from_gradkernel(q, gradk, kmax)
            w = lambda d: math.exp(eps * d / math.sqrt(t))
            vals = {}
            for variant, name in (("plain", "heat"), ("grad_x", "grad_heat"),
                                  ("gradstar_y", "heat_gradstar"),
                                  ("grad_both", "grad_heat_gradstar")):
                vals[name], _ = abel.homog_weighted_opsum(q, rad, w, variant)
            rows.append({"q": q, "t": t, **vals})
    fits = {}
    for name in ("grad_heat", "heat_gradstar", "grad_heat_gradstar"):
        slopes = {}
        for q in q_grid:
            ys = [r[name] for r in rows if r["q"] == q]
            slopes[q] = fit_loglog([1.0 + t for t in ts], ys)["slope"]
        fits[name] = slopes
    heat_ratio = {}
    for q in q_grid:
        ys = [r["heat"] for r in rows if r["q"] == q]
        heat_ratio[q] = max(ys) / min(ys)
    all_heat = [r["heat"] for r in rows]
    fits["heat_variation"] = {"per_q": heat_ratio,
                              "overall": max(all_heat) / min(all_heat)}
    return EstimateReport(rows, fits, {"eps": eps, "abscissa": "log(1+t)"})


def window_weighted_heat_sweep(window: TreeWindow, measure: FlowMeasure,
                               eps: float, t_grid, anchors=None,
                               max_anchors: int = 24) -> EstimateReport:
    """Window variant of the sweep: supremum over sampled anchors via the
    ancestor-profile column sums."""
    if anchors is None:
        anchors = stratified_anchors(window, max_anchors)
    rows = []
    ts = sorted(set(float(t) for t in t_grid))
    for t in ts:
        gradk = _heat_gradk(t)
        top = max(window.level[y] for y in anchors) + len(gradk) // 2 + 3
        sup = {"heat": 0.0, "grad_heat": 0.0, "grad_heat_gradstar": 0.0}
        w = lambda d: np.exp(eps * d / math.sqrt(t))
        for y in anchors:
            chain = flowkernel.chain_of(window, measure, y, top)
            for variant, name in (("plain", "heat"), ("grad_x", "grad_heat"),
                                  ("grad_both", "grad_heat_gradstar")):
                val = flowkernel.weighted_colsum(chain, gradk, window.level[y],
                                                 w, variant)
                sup[name] = max(sup[name], val)
        rows.append({"t": t, **sup})
    fits = {name: fit_loglog([1 + t for t in ts], [r[name] for r in rows])["slope"]
            for name in ("grad_heat", "grad_heat_gradstar")}
    return EstimateReport(rows, fits, {"eps": eps, "anchors": len(anchors)})


def stratified_anchors(window: TreeWindow, max_anchors: int = 1000,
                       margin: int = 0) -> list[Vertex]:
    """All certified vertices when few, else a deterministic per-level sample."""
    cand = sorted(safe_region(window, margin)) if margin else sorted(window.vertices)
    if len(cand) <= max_anchors:
        return cand
    by_level: dict[int, list[Vertex]] = {}
    for v in cand:
        by_level.setdefault(window.level[v], []).append(v)
    out = []
    per = max(1, max_anchors // max(len(by_level), 1))
    for lvl in sorted(by_level):
        vs = by_level[lvl]
        step = max(1, len(vs) // per)
        out.extend(vs[::step][:per])
    return out[:max_anchors]


def mh_dyadic_norms(fn, l_grid, q: int = 64) -> EstimateReport:
    """Weighted and gradient column sums of the dyadic multiplier pieces.

    Piece l applies the symbol cut to the dyadic shell at scale 2^-l via the
    fixed partition bump; the gradient sums track 2^{-l/2} (slope fit in
    log2 against l), while the weighted sums, with weight
    (1 + d / 2^{l/2})^{1/2}, stay bounded.  The fit needs at least two
    distinct l, each at least 0.
    """
    from .bumps import dyadic_phi
    from .zline import z_grad_multiplier_kernel

    l_grid = list(l_grid)
    if len(set(l_grid)) < 2 or min(l_grid) < 0:
        raise ValueError("mh_dyadic_norms needs at least two distinct l >= 0")
    eps = 0.5
    rows = []
    for l in l_grid:
        piece = lambda lam, l=l: np.asarray(fn(lam)) * dyadic_phi((2.0 ** l) * np.asarray(lam))
        nmax = int(40 * 2 ** (l / 2) * 5 + 200)
        grid = 1 << int(np.ceil(np.log2(max(16384, 8 * nmax))))
        zk = z_grad_multiplier_kernel(piece, nmax, grid=grid)
        rad = abel.radial_from_gradkernel(q, zk.one_sided(), nmax - 3)
        wfun = lambda d, l=l: (1.0 + d / 2.0 ** (l / 2.0)) ** eps
        weighted, _ = abel.homog_weighted_opsum(q, rad, wfun, "plain",
                                                tail_check=False)
        gradsum, _ = abel.homog_weighted_opsum(q, rad, lambda d: 1.0,
                                               "gradstar_y", tail_check=False)
        rows.append({"l": l, "weighted": weighted, "gradsum": gradsum})
    ls = [r["l"] for r in rows]
    gs = [r["gradsum"] for r in rows]
    slope = float(np.polyfit(ls, np.log2(gs), 1)[0])
    pairwise = [math.log2(gs[i + 1] / gs[i]) for i in range(len(gs) - 1)]
    return EstimateReport(rows, {"gradsum_slope_log2": slope,
                                 "pairwise": pairwise},
                          {"q": q, "eps": eps})


def sharpness_fit(q: int, t_grid) -> EstimateReport:
    """Growth of the oscillating-multiplier lower-bound functional.

    For each t the functional sums (k+1) q^{k/2} |Etilde(k)| over the window
    t/4 <= k+1 <= t/2; stationary-phase predicts growth t^{3/2}.  That
    window is empty below t = 2, so every t must be at least 2.
    """
    if any(t < 2 for t in t_grid):
        raise ValueError("sharpness_fit needs every t >= 2")
    rows = []
    for t in t_grid:
        kmax = int(t / 2) + 3
        sh = abel.sharpness_radial(q, float(t), kmax)
        tot = 0.0
        for k, v in sh["etilde_scaled"].items():
            if t / 4 <= k + 1 <= t / 2:
                tot += (k + 1) * abs(v)
        rows.append({"t": t, "functional": tot})
    fit = fit_loglog([r["t"] for r in rows], [r["functional"] for r in rows])
    return EstimateReport(rows, fit, {"q": q})


def sobolev_growth(t_grid) -> dict:
    """Fitted growth exponents of the L2 Sobolev norms of the wave packet,
    for s = 1 and 2.

    Norms are computed spectrally from 2^15 samples of exp(i t lam)
    chi0(lam) on a period of 8; the exponent of t in ||F_t||_{L^2_s} should
    match s.
    """
    from .bumps import chi0
    grid, span = 1 << 15, 8.0
    lam = (np.arange(grid) - grid / 2) * (span / grid)
    xi = (np.arange(grid) - grid / 2) * (2 * np.pi / span)
    base = chi0(lam)
    out = {}
    for s in (1, 2):
        norms = []
        for t in t_grid:
            f = np.exp(1j * t * lam) * base
            fh = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(f))) * (span / grid)
            val = np.sqrt(np.sum((1 + xi ** 2) ** s * np.abs(fh) ** 2)
                          / (2 * np.pi) * (2 * np.pi / span))
            norms.append(float(val))
        out[s] = fit_loglog(list(t_grid), norms)
    return out


def _descendant_slices(window: TreeWindow, v: Vertex,
                       depth: int) -> list[list[Vertex]]:
    """The descendants of v by depth, 0 (v itself) to `depth`.

    Every vertex above the last slice must be complete and every slice
    nonempty, or a TreeError says the window is too shallow.
    """
    slices = [[v]]
    for n in range(1, depth + 1):
        nxt = []
        for u in slices[-1]:
            if not window.is_complete(u):
                raise TreeError(f"window too shallow: vertex {u} at depth "
                                f"{n - 1} below {v} is incomplete")
            nxt.extend(window.children(u))
        if not nxt:
            raise TreeError(f"window too shallow: no descendants at depth "
                            f"{n} below {v}")
        slices.append(nxt)
    return slices


def divergence_probe(window: TreeWindow, measure: FlowMeasure, x1: Vertex,
                     d_grid) -> EstimateReport:
    """Partial sums of the skew Riesz column mass below a vertex.

    Sums |K_(skew)(x, x1)| m(x) over descendants within distance D; the
    growth tracks harmonic numbers (the driver of the endpoint failure).
    Partial sums run to twice the largest requested D so doubling
    increments are available at every grid point.  Every D must be at
    least 1.
    """
    if any(d < 1 for d in d_grid):
        raise ValueError("divergence_probe needs every D >= 1")
    dmax = 2 * max(d_grid)
    by_depth = _descendant_slices(window, x1, dmax)
    partial = {}
    acc = 0.0
    for n in range(1, dmax + 1):
        acc += sum(abs(riesz_skew_closed(window, measure, v, x1))
                   * measure.as_float(v) for v in by_depth[n])
        partial[n] = acc
    rows = []
    for d in sorted(d_grid):
        harmonic = sum(1.0 / (n + 1) for n in range(0, d + 1))
        rows.append({"D": d, "partial_sum": partial[d], "harmonic": harmonic,
                     "ratio": partial[d] / harmonic})
    increments = {d: partial[2 * d] - partial[d] for d in sorted(d_grid)}
    return EstimateReport(rows, {"increments": increments,
                                 "log2": math.log(2.0)},
                          {"x1": x1})


def spectrum_probe(window: TreeWindow, measure: FlowMeasure, o: Vertex,
                   theta_grid, d_grid) -> EstimateReport:
    """L2 residual of the averaging operator on truncated level waves.

    f = exp(i theta level) on the descendant chain of o down d levels; the
    residual against cos(theta) f shrinks like d^{-1/2} (boundary terms
    only), probing that the spectrum fills the full band.  Every d must be
    at least 1.
    """
    if any(d < 1 for d in d_grid):
        raise ValueError("spectrum_probe needs every d >= 1")
    from .localops import WindowFunction, apply_averaging

    slices = _descendant_slices(window, o, max(d_grid) + 1)

    rows = []
    for theta in theta_grid:
        c = math.cos(theta)
        for d in d_grid:
            verts = [v for sl in slices[:d + 1] for v in sl]
            f = {v: complex(np.exp(1j * theta * window.level[v])) for v in verts}
            wf = WindowFunction(f, window.all_vertices(), True)
            af = apply_averaging(window, measure, wf)
            num = 0.0
            den = 0.0
            support = set(f) | set(af.values)
            for v in support:
                if v not in af.safe:
                    raise TreeError(f"averaging not certified at {v}")
                r = af.values.get(v, 0) - c * f.get(v, 0)
                num += abs(r) ** 2 * measure.as_float(v)
            for v in f:
                den += abs(f[v]) ** 2 * measure.as_float(v)
            rows.append({"theta": theta, "d": d,
                         "residual_ratio": math.sqrt(num / den)})
    fits = {}
    for theta in theta_grid:
        ds = [r["d"] for r in rows if r["theta"] == theta]
        ys = [r["residual_ratio"] for r in rows if r["theta"] == theta]
        fits[theta] = fit_loglog(ds, ys)["slope"]
    return EstimateReport(rows, {"slopes": fits}, {"o": o})


def rayleigh_bounds(window: TreeWindow, measure: FlowMeasure):
    """Eigenvalues of the window compression of the flow Laplacian.

    The compression of a self-adjoint operator with spectrum in [0, 2] stays
    in [0, 2]; returns (min eigenvalue, max eigenvalue).
    """
    verts = sorted(window.vertices)
    n = len(verts)
    if n > DENSE_SOLVE_CAP:
        raise TreeError(
            f"window too large for dense solve ({n} > {DENSE_SOLVE_CAP})")
    idx = {v: i for i, v in enumerate(verts)}
    a = np.zeros((n, n))
    for v in verts:
        i = idx[v]
        a[i, i] = 1.0
        p = window.parent(v)
        if p is not None:
            w = -0.5 * math.sqrt(measure.as_float(v) / measure.as_float(p))
            a[i, idx[p]] = w
            a[idx[p], i] = w
    vals = np.linalg.eigvalsh(a)
    return float(vals[0]), float(vals[-1])


def modulation_conjugate_model(model: ChebModel) -> ChebModel:
    """Chebyshev model of lam -> F(2 - lam): flips odd coefficients."""
    coef = model.coef.copy()
    coef[1::2] = -coef[1::2]
    return ChebModel(coef, model.degree, model.sup_err)
