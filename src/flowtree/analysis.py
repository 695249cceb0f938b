"""Numerical experiments on heat, Riesz, and multiplier kernels.

Everything here reduces to two engines: the radial calculus on the q-ary
tree (module abel) and the ancestor-profile formula (module flowkernel),
fed with closed-form line kernels: heat gradient kernels, and ktilde_z for
the Riesz transform.  Slope fits are ordinary least squares on logs with
the residual reported.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import abel, flowkernel
from .localops import KernelColumn
from .trees import DEFAULT_VERTEX_CAP, FlowMeasure, TreeError, TreeWindow, Vertex
from .zline import heat_support_radius, heat_z_gradkernel

SQRT_PI = math.sqrt(math.pi)
# heat kernels on the line are cut where they fall below this
HEAT_TOL = 1e-17
# rayleigh_bounds solves densely up to this many vertices
DENSE_SOLVE_CAP = 500
# Riesz values profile the line kernel on n = 0..RIESZ_CUT and sum the rest
RIESZ_CUT = 10_000
# QuadratureSpec's Gauss-Legendre nodes in u = sqrt(t) on (0, 1], and per decade of t
_INTERIOR_NODES = 48
_PANELS_PER_DECADE = 24


def ktilde_z(n) -> np.ndarray:
    """Convolution kernel of the skew Riesz part on the line, and the
    symmetric-gradient line kernel of L^(-1/2): (2 sqrt(2) / pi) n /
    (n^2 - 1/4), zero at n = 0, for an integer or an integer array."""
    n = np.asarray(n, dtype=float)
    return np.where(n == 0, 0.0, (2.0 * math.sqrt(2.0) / math.pi) * n / (n * n - 0.25))


_RIESZ_KERNEL = ktilde_z(np.arange(RIESZ_CUT + 1))
_RIESZ_KERNEL.setflags(write=False)


def fit_loglog(xs, ys) -> dict:
    """Least-squares slope of log(y) against log(x), with RMS residual."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    if len(set(lx.tolist())) < 2:  # no line through fewer than two distinct points
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
        return list(dict.fromkeys(k for r in self.rows for k in r))

    def csv_rows(self):
        keys = self.csv_header()
        return [[r.get(k, "") for k in keys] for r in self.rows]


@dataclass(frozen=True)
class QuadratureSpec:
    """Subordination quadrature for the inverse square root.

    The t-integral runs as u = sqrt(t) Gauss-Legendre on (0, 1], then
    per-decade Gauss-Legendre panels in log t up to t_cut; the remaining
    tail decays like 1/t_cut (gradient heat kernels decay like t^{-3/2}
    pointwise), so one Richardson step on the last decade estimates it.
    No command uses it: it is the tests' oracle for the Riesz kernel.
    """

    t_cut: float = 1e8

    def nodes(self):
        """(t, weight) pairs approximating (1/sqrt(pi)) int f(t) dt/sqrt(t)."""
        out = []
        xs, ws = leggauss(_INTERIOR_NODES)
        for xi, wi in zip(xs, ws):
            u = 0.5 * (xi + 1.0)
            out.append((u * u, 2.0 * 0.5 * wi / SQRT_PI, 0))
        # in s = log t the integrand is f(e^s) e^{s/2}
        xs, ws = leggauss(_PANELS_PER_DECADE)
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
    """The heat gradient kernel at time t, to HEAT_TOL; a kernel longer than
    DEFAULT_VERTEX_CAP (t above about 5e10) is refused before it is built."""
    nmax = heat_support_radius(t, HEAT_TOL)
    if nmax >= DEFAULT_VERTEX_CAP:
        raise TreeError(f"t = {t:g} needs a line kernel of {nmax + 1:,} entries, "
                        f"over the cap of {DEFAULT_VERTEX_CAP:,}")
    return heat_z_gradkernel(t, nmax)


@functools.lru_cache(maxsize=None)
def _riesz_gradkernels(spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """The quadrature's weighted sum of heat gradient kernels, and the part
    of that sum from the last decade (t_cut / 10 to t_cut), zero-padded to
    one length and read-only.

    The ancestor-profile formula is linear in the line kernel, so profiling
    these two sums equals profiling every node and summing the results.
    The sums run in extended precision and in node order: rounded once,
    they keep the Riesz values as close to the exact quadrature as the
    node-by-node sums were.
    """
    ndec = int(round(math.log10(spec.t_cut)))
    nodes = spec.nodes()
    # kernel lengths grow with t, so the longest fixes the sums' length
    size = heat_support_radius(max(t for t, _, _ in nodes), HEAT_TOL) + 1
    sums = np.zeros((2, size), dtype=np.longdouble)
    for t, w, block in nodes:
        g = w * _heat_gradk(t)
        sums[:1 + (block == ndec), :len(g)] += g   # row 1: the last decade
    sums = sums.astype(float)
    sums.setflags(write=False)
    return sums[0], sums[1]


def heat_kernel_column(window: TreeWindow, measure: FlowMeasure, t: float,
                       y: Vertex) -> KernelColumn:
    """Column of the heat operator at time t >= 0, from the ancestor-profile
    formula with closed-form line kernels: exact up to Bessel evaluation and
    any flagged chain truncation (at t = 0, exactly 1/m(y) at y)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return _profile_column(window, measure, _heat_gradk(t), y, "plain")


def heat_column_groups(chain_for: Callable[[int], flowkernel.AncestorChain],
                       t: float) -> EstimateReport:
    """The heat column at time t >= 0 at the anchor y whose chain for line
    kernels of largest index nmax is chain_for(nmax), one row per nonempty
    (level, meeting level) group: its distance from y, log10 of |value|
    (every vertex of the group has the value) and of the group's flow-
    equation mass, and value_mass, their product, in range where they are not.

    Only y's ancestor chain is read, so the rows cover the column's whole
    support in the flow tree.  The meta holds the column's mass (the sum
    of value_mass) and whether the chain was truncated.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    gradk = _heat_gradk(t)
    chain = chain_for(len(gradk) - 1)
    ly = chain.base_level
    lam, j, value_mass, log2_mass = flowkernel.column_masses(chain, gradk, "plain")
    value_mass = value_mass.real
    log10_mass = log2_mass * math.log10(2)
    with np.errstate(divide="ignore"):   # a group of value 0: -inf
        log10_value = np.log10(np.abs(value_mass)) - log10_mass
    rows = [{"level": l, "meeting_level": jj, "distance": 2 * jj - l - ly,
             "log10_value": lv, "log10_mass": lm, "value_mass": vm}
            for l, jj, lv, lm, vm in zip(lam.tolist(), j.tolist(), log10_value.tolist(),
                                         log10_mass.tolist(), value_mass.tolist())]
    return EstimateReport(rows, {}, {"mass": float(np.sum(value_mass)),
                                     "truncated": chain.truncated})


def _meeting_levels(window: TreeWindow, y: Vertex) -> tuple[np.ndarray, np.ndarray]:
    """level(x) and level(lca(x, y)) for every window vertex x, in window
    order, as int64 arrays.

    The levels and parent positions come from the window's cached arrays
    (the level array is that read-only array itself).  A vertex of y's
    ancestor line (y and the apex included) points at itself, any other at
    its parent, and pointer jumping (every pointer replaced by its target's)
    takes each vertex to its nearest ancestor on the line, where it meets
    y, in log2(depth) array steps.
    """
    arrays = window.arrays()
    up = arrays.parent.copy()
    line = arrays.positions(window.ancestors(y))
    up[line] = line
    while True:
        jumped = up[up]
        if np.array_equal(jumped, up):
            return arrays.level, arrays.level[up]
        up = jumped


def _profile_column(window, measure, gradk, y, variant) -> KernelColumn:
    """Column of a profile kernel at anchor y.

    Every term of the profile sum of a pair (x, y) sits at a common
    ancestor (levels J >= the meeting level), so y's chain serves every x,
    and the value depends on x only through level(x) and the meeting level:
    the arrays of _meeting_levels give every vertex one integer key, (level
    - low) span + (meeting level - low), ordered as the pairs are, and one
    array call evaluates the distinct keys.
    The column carries the fixed error estimate 1e-13 (not derived).
    """
    chain = flowkernel.chain_of(window, measure, y, len(gradk) - 1)
    level, meet = _meeting_levels(window, y)
    low = level.min()
    span = meet.max() - low + 1
    keys, key_of = np.unique((level - low) * span + (meet - low), return_inverse=True)
    lam, j = np.divmod(keys, span)
    at_key = flowkernel.variant_value(gradk, chain, lam + low, window.level[y],
                                      j + low, variant)
    vals = {x: v for x, v in zip(window.vertices, at_key[key_of].tolist()) if v}
    safe = window.all_vertices() if not chain.truncated else frozenset()
    return KernelColumn(y, vals, safe, 1e-13)


def level_sum_estimate(chain_for: Callable[[int], flowkernel.AncestorChain],
                       t_grid: Iterable[float], orientation: str = "x") -> EstimateReport:
    """Level-slice L1 mass of the gradient heat kernel against 1/(1+t), at
    the anchor whose chains chain_for gives (as in heat_column_groups).

    Scans the levels within a few diffusion lengths of the anchor and keeps
    the maximum: the decay rate of this supremum over levels is the
    quantity bounded by the level estimates.
    """
    if orientation not in ("x", "z"):
        raise ValueError("orientation must be 'x' or 'z'")
    ts = list(t_grid)
    if min(ts) < 0:
        raise ValueError("t must be >= 0")
    # orientation "x": the gradient acts on x, the column's fixed vertex
    variant = "gradstar_z" if orientation == "x" else "grad_x"
    gradks = [_heat_gradk(t) for t in ts]
    chain = chain_for(max(map(len, gradks)) - 1)
    lx = chain.base_level
    rows = []
    for t, gradk in zip(ts, gradks):
        lam, _, value_mass, _ = flowkernel.column_masses(chain, gradk, variant)
        span = int(3 * math.sqrt(t)) + 3
        near = np.abs(lam - lx) <= span
        per_level = np.bincount(lam[near] - (lx - span), np.abs(value_mass[near]),
                                minlength=2 * span + 1)
        best = int(np.argmax(per_level))
        rows.append({"t": t, "value": float(per_level[best]),
                     "level": lx - span + best if per_level[best] > 0 else None,
                     "chain_truncated": chain.truncated})
    fit = fit_loglog([1.0 + t for t in ts], [r["value"] for r in rows])
    return EstimateReport(rows, fit, {"orientation": orientation, "l": "sup",
                                      "abscissa": "log(1+t)"})


def riesz_kernel_values(window: TreeWindow, measure: FlowMeasure, pairs):
    """Batched Riesz kernel values (gradient in the first variable) and
    computed bounds on what they leave out.

    A value is the grad_x profile sum of the line kernel k = ktilde_z of
    L^(-1/2), profiled on n = 0..N (N = RIESZ_CUT) from the chain of the end
    more pairs share (either end's chain holds every common ancestor).

    Remainder: with s = level(x) + level(y), level J reads h(n) = k(n) -
    k(n - 1) at n = 2J - s + 1, and the profiled h ends with h(N + 1) =
    -k(N).  The omitted levels J >= J_a = ceil((N + s) / 2), with inverse
    measures w_J, add up to sum_i w_{J_a + i} e_i, where e = (k(N+1),
    k(N+3) - k(N+2), ...) if N - s is even, else (k(N+2) - k(N+1), k(N+4) -
    k(N+3), ...).  As k(n) = (sqrt(2)/pi) (1/(n - 1/2) + 1/(n + 1/2)), the
    sum over j >= 0 of (-1)^j k(n + j) telescopes to (sqrt(2)/pi)/(n - 1/2).
    So where w is constant from J_a up (growth law 1, J_a at or above the
    apex), the remainder is +-(sqrt(2)/pi) w_{J_a} / (N + 1/2), + if N - s
    is even: it is added, and the bound is 0.  Elsewhere w never increases
    going up and k falls, so |remainder| <= w_{J_a} k(N + 1), the bound: 0
    where w_{J_a} is below double range, inf on a truncated chain.
    Rounding is left out.  Pairs must lie at distance below N.
    """
    lx, ly, j0 = np.array([(window.level[x], window.level[y],
                            window.level[window.lca(x, y)]) for x, y in pairs]).T
    s = lx + ly
    if (2 * j0 - s >= RIESZ_CUT).any():
        raise ValueError(f"Riesz values need pairs at distance below {RIESZ_CUT}")
    first = (RIESZ_CUT + s + 1) // 2
    exact = (window.up_ratio == 1) & (first >= window.level[window.apex])
    tail = np.where(exact, (-1.0) ** (RIESZ_CUT - s) * math.sqrt(2.0) / math.pi
                    / (RIESZ_CUT + 0.5), 0.0)
    bound = np.where(exact, 0.0, ktilde_z(RIESZ_CUT + 1))
    uses = Counter(v for pair in pairs for v in pair)
    ends = np.array([x if uses[x] >= uses[y] else y for x, y in pairs])
    vals = np.zeros(len(pairs), dtype=complex)
    bounds = np.full(len(pairs), np.inf)
    for e in dict.fromkeys(ends.tolist()):
        chain = flowkernel.chain_of(window, measure, e, RIESZ_CUT)
        idx = np.flatnonzero(ends == e)
        vals[idx] = flowkernel.variant_value(_RIESZ_KERNEL, chain, lx[idx], ly[idx],
                                             j0[idx], "grad_x")
        if not chain.truncated:
            w = chain.inverse_measures(first[idx])
            vals[idx] += tail[idx] * w
            bounds[idx] = bound[idx] * w
    return [complex(v) for v in vals], [float(b) for b in bounds]


def riesz_skew_closed(window: TreeWindow, measure: FlowMeasure,
                      x: Vertex, y: Vertex) -> float:
    """Closed form of the skew Riesz kernel: ktilde of the level gap over the
    measure of the upper vertex on comparable pairs, zero otherwise."""
    a = window.lca(x, y)
    if x == y or a not in (x, y):
        return 0.0
    return float(ktilde_z(window.level[x] - window.level[y])) / measure.as_float(a)


def riesz_skew_check(window: TreeWindow, measure: FlowMeasure,
                     pairs) -> EstimateReport:
    """Antisymmetrized Riesz kernel against the closed form, with the sum of
    the two values' tail bounds."""
    n = len(pairs)
    vals, bounds = riesz_kernel_values(window, measure,
                                       list(pairs) + [(y, x) for x, y in pairs])
    rows = []
    for (x, y), kf, kr, b1, b2 in zip(pairs, vals, vals[n:], bounds, bounds[n:]):
        skew = kf - kr.conjugate()
        closed = riesz_skew_closed(window, measure, x, y)
        rows.append({"x": x, "y": y, "d": window.distance(x, y),
                     "skew_re": skew.real, "closed": closed,
                     "dev": abs(skew - closed), "tail_bound": b1 + b2})
    return EstimateReport(rows, {}, {"max_dev": max(r["dev"] for r in rows)})


def weighted_heat_sweep(eps: float, t_grid, q_grid) -> EstimateReport:
    """The four weighted L1 rows on homogeneous trees across (t, q).

    Weight exp(eps * d / sqrt(t)); rows: heat, gradient-heat, heat-adjoint
    gradient, and the two-sided gradient, with slope fits against log(1+t).
    A q of the grid may be any chain growth q >= 1 (abel's domain): at
    1/rho the rows are the column sums at an anchor whose ancestor chain
    keeps the ratio rho, and at 1 those of the line.
    """
    rows = []
    ts = sorted(set(float(t) for t in t_grid))
    if ts[0] <= 0:
        raise ValueError("t must be > 0")
    gradks = {t: _heat_gradk(t) for t in ts}
    for q in q_grid:
        for t, gradk in gradks.items():
            kmax = len(gradk) - 3
            rad = abel.radial_from_gradkernel(q, gradk, kmax)
            w = lambda d: math.exp(eps * d / math.sqrt(t))
            vals = {}
            for variant, name in (("plain", "heat"), ("grad_x", "grad_heat"),
                                  ("gradstar_z", "heat_gradstar"),
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


def mh_dyadic_norms(fn, l_grid, q: float) -> EstimateReport:
    """Weighted and gradient column sums of the dyadic multiplier pieces.

    Piece l applies the symbol cut to the dyadic shell at scale 2^-l via the
    fixed partition bump; the gradient sums track 2^{-l/2} (slope fit in
    log2 against l), while the weighted sums, with weight
    (1 + d / 2^{l/2})^{1/2}, stay bounded.  The fit needs at least two
    distinct l, each at least 0.  q may be any chain growth q >= 1, as in
    weighted_heat_sweep; on every chain the sums stop where the line
    kernel is cut.  The meta's cut_estimate gives, per piece, that cut (the
    line kernel's nmax) and each sum's last four sphere terms: an estimate,
    not a bound, of what the cut leaves out.
    """
    from .bumps import dyadic_phi
    from .zline import z_grad_multiplier_kernel

    l_grid = list(l_grid)
    if len(set(l_grid)) < 2 or min(l_grid) < 0:
        raise ValueError("mh_dyadic_norms needs at least two distinct l >= 0")
    eps = 0.5
    rows, cut = [], []
    for l in l_grid:
        piece = lambda lam, l=l: np.asarray(fn(lam)) * dyadic_phi((2.0 ** l) * np.asarray(lam))
        nmax = int(40 * 2 ** (l / 2) * 5 + 200)
        zk = z_grad_multiplier_kernel(piece, nmax)
        rad = abel.radial_from_gradkernel(q, zk.one_sided(), nmax - 3)
        wfun = lambda d, l=l: (1.0 + d / 2.0 ** (l / 2.0)) ** eps
        weighted, weighted_tail = abel.homog_weighted_opsum(q, rad, wfun, "plain",
                                                            tail_check=False)
        gradsum, gradsum_tail = abel.homog_weighted_opsum(q, rad, lambda d: 1.0,
                                                          "gradstar_z", tail_check=False)
        rows.append({"l": l, "weighted": weighted, "gradsum": gradsum})
        cut.append({"l": l, "nmax": nmax, "weighted_tail": weighted_tail,
                    "gradsum_tail": gradsum_tail})
    ls = [r["l"] for r in rows]
    gs = [r["gradsum"] for r in rows]
    slope = float(np.polyfit(ls, np.log2(gs), 1)[0])
    pairwise = [math.log2(gs[i + 1] / gs[i]) for i in range(len(gs) - 1)]
    return EstimateReport(rows, {"gradsum_slope_log2": slope,
                                 "pairwise": pairwise},
                          {"q": q, "eps": eps, "cut_estimate": cut})


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
        for k, v in sh.items():
            if t / 4 <= k + 1 <= t / 2:
                tot += (k + 1) * abs(v)
        rows.append({"t": t, "functional": tot})
    fit = fit_loglog([r["t"] for r in rows], [r["functional"] for r in rows])
    return EstimateReport(rows, fit, {"q": q})


def sobolev_growth(t_grid) -> dict:
    """Fitted growth exponents of the L2 Sobolev norms of the wave packet,
    for s = 1 and 2.

    Norms are computed spectrally from 2^15 samples of exp(i t lam)
    chi0(lam) on a period of 8: one transform per t, whose |f^|^2 gives
    both weighted norms.  The weights (1 + xi^2)^s are computed once, and
    exp(i t lam) only where chi0 is nonzero.  The exponent of t in
    ||F_t||_{L^2_s} should match s.
    """
    from .bumps import chi0
    grid, span = 1 << 15, 8.0
    lam = (np.arange(grid) - grid / 2) * (span / grid)
    xi = (np.arange(grid) - grid / 2) * (2 * np.pi / span)
    base = chi0(lam)
    on = base != 0
    lam_on, base_on = lam[on], base[on]
    weights = {s: (1 + xi ** 2) ** s for s in (1, 2)}
    norms = {s: [] for s in weights}
    f = np.zeros(grid, dtype=complex)
    for t in t_grid:
        f[on] = np.exp(1j * t * lam_on) * base_on
        power = np.abs(np.fft.fftshift(np.fft.fft(np.fft.ifftshift(f))) * (span / grid)) ** 2
        for s, vals in norms.items():
            vals.append(float(np.sqrt(np.sum(weights[s] * power)
                                      / (2 * np.pi) * (2 * np.pi / span))))
    return {s: fit_loglog(list(t_grid), vals) for s, vals in norms.items()}


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
