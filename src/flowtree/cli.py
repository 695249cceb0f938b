"""Command-line front end: build windows, run kernels and experiment sweeps.

Each subcommand writes CSV artifacts with a JSON metadata sidecar and exits
0 when its internal assertions pass, 1 on an assertion failure (with a
machine-readable failure record in the output directory), 2 on bad input.
A numerical failure (an aliasing guard, a consistency check, the
dominated-tail check of a weighted sum) also exits 1 with a failure
record.  ``READS`` lists the flags each command reads and their defaults;
an explicit flag the command does not read, or that the window route its
flags choose does not read, exits 2.  Configs are flat JSON
documents whose keys are flag names; a key for a flag the command does not
read is checked, then ignored, and explicit flags override config values.
Runs are sequential and deterministically ordered, so a rational-backend
rerun reproduces artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import abel, analysis, quotient, reports, zline
from .bumps import imaginary_power_cut, named_multiplier
from .flowkernel import chain_of
from .localops import kernel_column_lambda_poly, kernel_column_poly
from .ncpoly import NcPolynomial
from .trees import (TreeError, ball, ball_window, in_safe_region, load_window,
                    safe_region, spine_window)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_SCHEMA = 2

GOLDEN_RATIO = (math.sqrt(5) - 1) / 2  # heavier branch of the golden flow

# The flags each command reads, by parser dest, and their defaults (None:
# unset).  A grid's or a ratio list's default is its flag text, read by the
# same parser as a typed flag.  Every command also reads --out and --config.
CHAIN = {"tree": None, "window": "homog", "ratios": None, "backend": "rational"}
WINDOW = {**CHAIN, "depth": 140}  # make_window's flags; CHAIN: all but the spine's length
READS = {
    # kernel --multiplier: --degree is the Chebyshev degree and, plus one,
    # the window radius; --dmax is the line kernel's nmax
    "kernel": {**WINDOW, "q": 2, "degree": 8, "dmax": 16, "coeffs": None,
               "multiplier": None, "t_param": None, "k": None, "alpha": None},
    "heat": {**CHAIN, "q": 2, "t_param": 1.0, "tol": 1e-6},
    "riesz": {**WINDOW, "q": 2, "dmax": 6},
    "riesz-skew-check": {**WINDOW, "q": 2, "dmax": 8, "tol": 1e-6},
    "abel-check": {"q": 3, "degree": 5},
    "transfer-check": {"q": 4, "ratios": "3/4,1/4", "degree": 4, "trials": 20},
    "rationalize": {**WINDOW, "q": 64},  # --q is the denominator
    "weighted-sweep": {"epsilon": 1.0, "t_grid": "1,4,16,64", "q_grid": "2,3,5"},
    "level-sum": {**CHAIN, "q": 2, "t_grid": "1,2,4,8,16,32,64,128"},
    "mh-norms": {"alpha": 1.0, "q": 64, "l_grid": "0:6:7"},
    "sharpness": {"q": 2, "t_grid": "10:40:31"},
    "divergence": {"tree": None, "d_grid": "16,32,64"},
    "spectrum": {"theta_grid": "0,pi/3,pi", "d_grid": "25,50,100,200"},
}
# what a refusal adds, by (command, flag)
HINTS = {("heat", "--degree"): "a Chebyshev heat column is "
                               "kernel --multiplier 'exp(-t*x)' --t T --degree N"}


def parse_grid(text: str) -> list[float]:
    """a:b:n for linear, a:b:nlog for log-spaced, or comma-separated values;
    at least one value, every one finite."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad grid {text!r}")
        a, b = float(parts[0]), float(parts[1])
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"grid {text!r} has an end that is not finite")
        log = parts[2].endswith("log")
        n = int(parts[2][:-3] if log else parts[2])
        if log and min(a, b) <= 0:
            raise ValueError(f"log grid {text!r} needs positive ends")
        vals = (np.exp(np.linspace(np.log(a), np.log(b), n)) if log
                else np.linspace(a, b, n)).tolist()
    else:
        vals = [float(_eval_angle(tok)) for tok in text.split(",") if tok]
    if not vals:
        raise ValueError(f"empty grid {text!r}")
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"grid {text!r} has a value that is not finite")
    return vals


def _int_grid(text: str) -> list[int]:
    """A grid of integers; log-spaced points round to the nearest one."""
    vals = parse_grid(text)
    ints = [round(v) for v in vals]
    if any(abs(v - i) > 1e-9 * max(1.0, abs(v)) for v, i in zip(vals, ints)):
        raise ValueError(f"grid {text!r} must hold integers")
    return ints


def _distinct_int_grid(text: str) -> list[int]:
    """A grid of integers with at least two distinct values (a fit)."""
    ints = _int_grid(text)
    if len(set(ints)) < 2:
        raise ValueError(f"grid {text!r} needs two distinct values")
    return ints


def _positive_grid(text: str) -> list[float]:
    """A grid of positive values."""
    vals = parse_grid(text)
    if min(vals) <= 0:
        raise ValueError(f"grid {text!r} has a value that is not positive")
    return vals


def _grid(args, flag: str, read=parse_grid, least=None) -> list:
    """The values of grid flag `flag`, read by `read`, none below `least`.
    A grid refused for its form or its range is a ValueError that names the
    flag."""
    text = getattr(args, flag[2:].replace("-", "_"))
    try:
        vals = read(text)
        if least is not None and min(vals) < least:
            raise ValueError(f"grid {text!r} has a value below {least}")
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from exc
    return vals


@contextlib.contextmanager
def _grid_cap(flag: str):
    """A line kernel refused inside the block for passing the grid cap is a
    ValueError that names the flag whose value set its nmax."""
    try:
        yield
    except zline.GridCapError as exc:
        raise ValueError(f"{flag}: {exc}") from exc


def _eval_angle(tok: str) -> float:
    tok = tok.strip()
    if "pi" in tok:
        num, _, den = tok.partition("/")
        scale = float(den) if den else 1.0
        lead = num.replace("pi", "").replace("*", "").strip()
        return (float(lead) if lead else 1.0) * math.pi / scale
    return float(tok)


def parse_ratios(text: str) -> tuple:
    """Comma-separated fractions (branching ratios, Laplacian coefficients)."""
    try:
        return tuple(Fraction(tok) for tok in text.split(","))
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def _at_least(flag: str, value: int, least: int) -> int:
    """An integer flag's value, refused when it is below `least`."""
    if value < least:
        raise ValueError(f"{flag} must be >= {least}, not {value}")
    return value


# The window the flags choose: its name in refusals, its flow as ball_window
# takes it (None for a loaded file and the spine, which are not balls), the
# window flags it reads, by dest, and its window as a function of the radius.
_Route = collections.namedtuple("_Route", "name flow reads build")


def _route(args) -> _Route:
    """The one reader of the window flags: a loaded file, the spine
    (``--depth`` long, or as long as its default for a command that does
    not read ``--depth``), or the ball of ``--ratios``, the golden ratios,
    the line (radius at least 12) or the degree ``--q`` around its center."""
    if args.ratios and (args.tree or args.window != "homog"):
        other = "--tree" if args.tree else f"--window {args.window}"
        raise ValueError(f"--ratios and {other} both set the window")
    if args.tree:
        path = args.tree

        def loaded(radius):  # the middle vertex safe at radius, or as near as any is
            window, measure = load_window(path)
            deepest = max(window.defect_distances().values(), default=0)
            anchors = sorted(safe_region(window, min(radius, deepest)))
            return window, measure, anchors[len(anchors) // 2]
        return _Route("--tree", None, frozenset({"tree", "ratios"}), loaded)
    name = "--ratios" if args.ratios else f"--window {args.window}"
    reads = frozenset({"tree", "window", "ratios"})
    if args.window == "spine":
        depth = args.depth if "depth" in READS[args.command] else WINDOW["depth"]
        return _Route(name, None, reads | {"depth"}, lambda radius: spine_window(depth=depth))
    if args.window == "golden":
        flow = (GOLDEN_RATIO, 1 - GOLDEN_RATIO)
        return _Route(name, flow, reads, lambda radius: ball_window(
            flow, radius, center_level=-radius, backend="float"))
    if args.ratios:
        flow = parse_ratios(args.ratios)
    elif args.window == "zline":
        flow = 1
    else:
        flow, reads = args.q, reads | {"q"}
    backend = args.backend
    return _Route(name, flow, reads | {"backend"}, lambda radius: ball_window(
        flow, max(radius, 12) if flow == 1 else radius, backend=backend))


def _refuse(args, route: str, dests) -> None:
    """Exit 2 on an explicit flag among ``dests``, which ``route`` does not read."""
    for dest in dests:
        if dest in args.explicit:
            raise ValueError(f"{route} does not read {args.explicit[dest]}")


def make_window(args, route: _Route, radius: int):
    """The route's window of the given radius; an explicit window flag or
    ``--q`` the route does not read exits 2 before anything is built."""
    _refuse(args, f"{args.command} {route.name}",
            [d for d in (*WINDOW, "q") if d not in route.reads])
    return route.build(radius)


def _multiplier(args):
    if not args.multiplier:
        return None
    params = {}
    if args.t_param is not None:
        params["t"] = args.t_param
    if args.alpha is not None:
        params["alpha"] = args.alpha
    if args.k is not None:
        params["k"] = args.k
    try:
        return named_multiplier(args.multiplier, **params)
    except KeyError as exc:  # a parameter missing; each has a flag of its name
        raise ValueError(f"multiplier {args.multiplier!r} needs "
                         f"--{exc.args[0]}") from exc


def _window_meta(window) -> dict:
    return {"window_size": len(window),
            "apex_level": window.level[window.apex]}


def _write(out, name, header, rows, meta):
    """The artifact ``out/name``: its CSV rows and its .meta.json sidecar."""
    path = os.path.join(out, name)
    reports.write_csv(path, header, rows)
    reports.write_meta(path, meta)


def cmd_kernel(args, out):
    coeffs = list(parse_ratios(args.coeffs)) if args.coeffs else None
    if coeffs:  # the polynomial's degree is the column's, and no multiplier
        _refuse(args, "kernel --coeffs",
                ["degree", "multiplier", "t_param", "k", "alpha", "dmax"])
    route = _route(args)
    if args.multiplier and route.flow != 1:  # --dmax: the line kernel's nmax
        _refuse(args, "kernel --multiplier off the line", ["dmax"])
    deg = len(coeffs) - 1 if coeffs else args.degree
    window, measure, anchor = make_window(args, route, max(deg + 1, 4))
    failure = {}
    if coeffs is not None:
        col = kernel_column_lambda_poly(window, measure, coeffs, anchor)
        op_meta = {"lambda_coeffs": [str(c) for c in coeffs]}
    else:
        fn = _multiplier(args)
        if fn is None:
            raise ValueError("need --coeffs or --multiplier")
        from .chebyshev import cheb_approx, cheb_column
        model = cheb_approx(fn, deg)
        col = cheb_column(window, measure, model, anchor)
        op_meta = {"multiplier": args.multiplier, "sup_err": model.sup_err}
        if route.flow == 1:
            zmeta = {"multiplier": args.multiplier}
            if args.multiplier == "x^{i*alpha}":
                # lambda^(i alpha) is singular at 0, so no trapezoid grid
                # resolves it: the Gamma quotient, checked by quadrature
                zk, _, worst = zline.imaginary_power_kernel(args.alpha, args.dmax)
                zmeta["quad_discrepancy"] = worst
                if not worst <= zline.CONSISTENCY_TOL:
                    failure = {"check": "imaginary power quadrature",
                               "discrepancy": worst}
            else:
                with _grid_cap("--dmax"):
                    zk = zline.z_multiplier_kernel(fn, args.dmax)
            _write(out, "zkernel.csv", ["n", "re", "im"], zk.csv_rows(),
                   {**zmeta, "nmax": zk.nmax, "grid": zk.grid})
    _write(out, "kernel.csv",
           ["x_id", "value_re", "value_im", "distance", "level_x"],
           col.csv_rows(window),
           {**_window_meta(window), "anchor": col.anchor,
            "err_bound": col.err_bound, **op_meta})
    return failure


def cmd_heat(args, out):
    t = args.t_param
    route = _route(args)
    # the column's groups read the anchor's ancestor chain only: the radius-0 ball
    window, measure, anchor = make_window(args, route, 0)
    rep = analysis.heat_column_groups(functools.partial(chain_of, window, measure, anchor), t)
    if isinstance(route.flow, int) and route.flow >= 2:
        rad = abel.e_f_coefficients(route.flow,
                                    lambda lam: np.exp(-t * np.asarray(lam)),
                                    kmax=24)
        _write(out, "radial.csv", ["k", "E_re", "E_im", "tail_bound"], rad.csv_rows(),
               {"q": route.flow, "t": t, "kmax": 24, "tail_scaled": rad.tail_scaled,
                **rad.meta})
    _write(out, "heat.csv", rep.csv_header(), rep.csv_rows(),
           {"t": t, "anchor": anchor, **rep.meta, **_window_meta(window)})
    if abs(rep.meta["mass"] - 1.0) > args.tol:
        return {"check": "heat mass conservation", "mass": rep.meta["mass"]}
    return {}


def cmd_riesz(args, out):
    radius = args.dmax
    window, measure, anchor = make_window(args, _route(args), radius + 2)
    pairs = sorted((x, anchor) for x in ball(window, anchor, radius))
    vals, errs = analysis.riesz_kernel_values(window, measure, pairs)
    rows = [(x, y, v.real, v.imag, e) for (x, y), v, e in zip(pairs, vals, errs)]
    _write(out, "riesz.csv", ["x", "y", "re", "im", "tail_bound"], rows,
           {"pairs": len(pairs), "anchor": anchor, **_window_meta(window)})
    return {}


def cmd_riesz_skew_check(args, out):
    radius = _at_least("--dmax", args.dmax, 1)
    window, measure, anchor = make_window(args, _route(args), radius + 1)
    pairs = sorted((x, anchor) for x in ball(window, anchor, radius)
                   if x != anchor)
    rep = analysis.riesz_skew_check(window, measure, pairs)
    tol = args.tol
    _write(out, "riesz_skew_check.csv", rep.csv_header(), rep.csv_rows(),
           {"max_dev": rep.meta["max_dev"], "pairs": len(pairs), "tol": tol,
            **_window_meta(window)})
    if rep.meta["max_dev"] > tol:
        return {"check": "riesz skew identity", "max_dev": rep.meta["max_dev"],
                "tol": tol}
    return {}


def cmd_abel_check(args, out):
    q, deg = args.q, args.degree
    radius = deg + 1
    window, measure, center = ball_window(q, radius)
    rows = []
    exact = True
    for k in range(0, deg + 1):
        coeffs_k = [Fraction(0)] * k + [Fraction(1)]
        colk = kernel_column_lambda_poly(window, measure, coeffs_k, center)
        a_exact = abel.e_f_exact(q, coeffs_k, kmax=deg + 2)
        for x in sorted(colk.values):
            d = window.distance(x, center)
            direct = colk.values[x]
            radial = abel.homog_kernel_value_exact(
                q, a_exact, window.level[x], window.level[center], d)
            ok = direct == radial
            exact = exact and ok
            rows.append((k, x, d, str(direct), str(radial), int(ok)))
    _write(out, "abel_check.csv", ["degree", "x", "d", "direct", "radial", "match"],
           rows, {"q": q, "max_degree": deg, "exact": exact})
    if not exact:
        return {"check": "abel/direct equivalence", "q": q}
    return {}


def cmd_transfer_check(args, out):
    q, deg, trials = args.q, args.degree, args.trials
    ratios = parse_ratios(args.ratios)
    import random
    rng = random.Random(20240811)
    target, tmeas, t_anchor = ball_window(ratios, deg)
    sub = quotient.build_submersion_rational(target, tmeas, q)
    rep = quotient.validate_submersion(sub)
    rows = []
    ok_all = rep.ok
    src_anchor = next(s for s, t in sub.mapping.items()
                      if t == t_anchor and in_safe_region(sub.source, s, deg))
    for trial in range(trials):
        poly = NcPolynomial()
        for _ in range(rng.randint(1, 5)):
            word = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, deg)))
            poly = poly + NcPolynomial({word: Fraction(rng.randint(-3, 3), rng.randint(1, 3))})
        if poly.degree > deg or not poly.terms:
            poly = NcPolynomial({(1,) * min(deg, 1): Fraction(1)})
        src_col = kernel_column_poly(sub.source, sub.source_measure, poly, src_anchor)
        pushed = quotient.fiber_average_kernel(sub, src_col)
        direct = kernel_column_poly(target, tmeas, poly, t_anchor)
        agree = all(pushed.value(v) == direct.value(v)
                    for v in set(pushed.values) | set(direct.values)
                    if v in pushed.safe and v in direct.safe)
        ok_all = ok_all and agree
        rows.append((trial, poly.degree, int(agree)))
    _write(out, "transfer_check.csv", ["trial", "degree", "match"], rows,
           {"q": q, "ratios": [str(r) for r in ratios], "submersion_ok": rep.ok,
            "violations": rep.violations[:10]})
    _write(out, "submersion.csv", ["source_id", "target_id"], sub.csv_rows(),
           {"q": q, "source_size": len(sub.source), "target_size": len(sub.target),
            "level_shift": rep.level_shift})
    if not ok_all:
        return {"check": "transference exactness"}
    return {}


def cmd_rationalize(args, out):
    # --q is the denominator here, read on every route; a ball has degree 2
    ball = argparse.Namespace(**vars(args))
    ball.q, ball.explicit = 2, {d: f for d, f in args.explicit.items() if d != "q"}
    window, measure, _ = make_window(ball, _route(ball), 6)
    q = args.q
    mq, rows, max_err = quotient.rationalize_flow(window, measure, q)
    csv_rows = [(r.vertex, r.child_index, r.ratio.numerator, r.ratio.denominator,
                 r.error) for r in rows]
    _write(out, "rationalize.csv",
           ["vertex", "child_index", "ratio_num", "ratio_den", "error"], csv_rows,
           {"q": q, "max_error": max_err})
    return {}


def cmd_weighted_sweep(args, out):
    ts = _grid(args, "--t-grid", _positive_grid)
    qs = _grid(args, "--q-grid", _int_grid, least=2)
    rep = analysis.weighted_heat_sweep(args.epsilon, ts, qs)
    _write(out, "weighted_sweep.csv", rep.csv_header(), rep.csv_rows(),
           {"fits": rep.fit, **rep.meta})
    return {}


def cmd_level_sum(args, out):
    ts = _grid(args, "--t-grid", least=0)
    # the sums read the anchor's ancestor chain only: the radius-0 ball
    window, measure, x = make_window(args, _route(args), 0)
    rep = analysis.level_sum_estimate(functools.partial(chain_of, window, measure, x), ts)
    _write(out, "level_sum.csv", rep.csv_header(), rep.csv_rows(),
           {"fit": rep.fit, "anchor": x, **rep.meta, **_window_meta(window)})
    return {}


def cmd_mh_norms(args, out):
    alpha = args.alpha
    ls = _grid(args, "--l-grid", _distinct_int_grid, least=0)
    with _grid_cap("--l-grid"):
        rep = analysis.mh_dyadic_norms(imaginary_power_cut(alpha), ls,
                                       q=_at_least("--q", args.q, 2))
    _write(out, "mh_norms.csv", rep.csv_header(), rep.csv_rows(),
           {"fit": rep.fit, "alpha": alpha, **rep.meta})
    return {}


def cmd_sharpness(args, out):
    ts = _grid(args, "--t-grid", _int_grid, least=2)
    with _grid_cap("--t-grid"):
        rep = analysis.sharpness_fit(_at_least("--q", args.q, 2), ts)
    sob = analysis.sobolev_growth(list(np.exp(np.linspace(np.log(30.0), np.log(300.0), 12))))
    _write(out, "sharpness.csv", rep.csv_header(), rep.csv_rows(),
           {"fit": rep.fit, "sobolev": {s: f for s, f in sob.items()}, **rep.meta})
    return {}


def _probe_anchor(window, depth: int):
    """The highest vertex whose cone is complete `depth` levels down (every
    descendant above that level complete), the smallest id on ties."""
    full = {}  # vertex -> how many levels down its cone is complete
    best = None
    # children before parents, so one pass fills `full` and picks the anchor
    for v in sorted(window.vertices, key=window.level.__getitem__):
        kids = window.children(v)
        full[v] = (1 + min(full[c] for c in kids)
                   if kids and window.is_complete(v) else 0)
        if full[v] >= depth and (best is None or (-window.level[v], v)
                                 < (-window.level[best], best)):
            best = v
    if best is None:
        raise TreeError(f"no vertex of the window has a cone complete "
                        f"{depth} levels down")
    return best


def cmd_divergence(args, out):
    ds = _grid(args, "--d-grid", _int_grid, least=1)
    window, measure = (load_window(args.tree) if args.tree
                       else spine_window(depth=2 * max(ds) + 4)[:2])
    # the probe sums over 2 max(D) levels below its anchor
    x1 = _probe_anchor(window, 2 * max(ds))
    rep = analysis.divergence_probe(window, measure, x1, ds)
    _write(out, "divergence.csv", rep.csv_header(), rep.csv_rows(),
           {"fit": rep.fit, **rep.meta})
    return {}


def cmd_spectrum(args, out):
    thetas = _grid(args, "--theta-grid")
    ds = _grid(args, "--d-grid", _int_grid, least=1)
    window, measure, o = ball_window(1, max(ds) + 1)
    rep = analysis.spectrum_probe(window, measure, o, thetas, ds)
    small, smeas, _ = ball_window(2, 6)
    lo, hi = analysis.rayleigh_bounds(small, smeas)
    _write(out, "spectrum.csv", rep.csv_header(), rep.csv_rows(),
           {"fit": rep.fit, "rayleigh": [lo, hi]})
    if lo < -1e-10 or hi > 2 + 1e-10:
        return {"check": "rayleigh bounds", "eig_range": [lo, hi]}
    return {}


COMMANDS = {
    "kernel": cmd_kernel,
    "heat": cmd_heat,
    "riesz": cmd_riesz,
    "riesz-skew-check": cmd_riesz_skew_check,
    "abel-check": cmd_abel_check,
    "transfer-check": cmd_transfer_check,
    "rationalize": cmd_rationalize,
    "weighted-sweep": cmd_weighted_sweep,
    "level-sum": cmd_level_sum,
    "mh-norms": cmd_mh_norms,
    "sharpness": cmd_sharpness,
    "divergence": cmd_divergence,
    "spectrum": cmd_spectrum,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="flowtree",
                                description="flow-Laplacian kernel experiments")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--config", help="JSON config mirroring the flags")
    p.add_argument("--tree", help="tree-description JSON file")
    p.add_argument("--window", choices=["homog", "zline", "golden", "spine"])
    p.add_argument("--q", type=int)
    p.add_argument("--q-grid", dest="q_grid")
    p.add_argument("--depth", type=int)
    p.add_argument("--degree", type=int)
    p.add_argument("--dmax", type=int)
    p.add_argument("--coeffs", help="comma list: Laplacian polynomial")
    p.add_argument("--multiplier", help="exp(-t*x) | x^k | x^{i*alpha} | schrodinger")
    p.add_argument("--t", dest="t_param", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--t-grid", dest="t_grid")
    p.add_argument("--l-grid", dest="l_grid")
    p.add_argument("--d-grid", dest="d_grid")
    p.add_argument("--theta-grid", dest="theta_grid")
    p.add_argument("--ratios", help="comma list of rational branching ratios")
    p.add_argument("--trials", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--backend", choices=["rational", "float"])
    p.add_argument("--out", default="flowtree-out")
    return p


def _config_tokens(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """A flat JSON config as ``--flag=value`` tokens, one per non-null key.

    Keys are flag names (``q``, ``t``, ``t-grid`` or ``t_grid``).  The tokens
    go before the explicit arguments, so argparse checks their types and
    choices and a later explicit flag wins.
    """
    with open(path, "r", encoding="utf-8") as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        raise ValueError("config must be a JSON object")
    flags = set(parser._option_string_actions) - {"-h", "--help", "--config"}
    tokens = []
    for key, val in conf.items():
        flag = "--" + key.replace("_", "-")
        if flag not in flags:
            raise ValueError(f"unknown key {key!r}")
        if isinstance(val, (bool, list, dict)):
            raise ValueError(f"key {key!r} takes a number or a string, "
                             f"not {json.dumps(val)}")
        if val is not None:
            tokens.append(f"{flag}={val}")
    return tokens


def _check_numbers(parser: argparse.ArgumentParser, args) -> None:
    """Integer flags and --tol are non-negative, float flags finite."""
    for action in parser._actions:
        val = getattr(args, action.dest, None)
        if val is None:
            continue
        if action.type is int or action.dest == "tol":
            _at_least(action.option_strings[0], val, 0)
        if action.type is float and not math.isfinite(val):
            raise ValueError(f"{action.option_strings[0]} must be finite, not {val}")


def _options(parser: argparse.ArgumentParser) -> dict:
    """Parser dest -> flag, for every flag a command may read or refuse."""
    return {a.dest: a.option_strings[0] for a in parser._actions
            if a.option_strings and a.dest not in ("help", "config", "out")}


def _read_flags(parser: argparse.ArgumentParser, args, explicit: set) -> None:
    """Refuse an explicit flag the command does not read, and give each flag
    it reads its READS default when unset.  A config key the command does
    not read is ignored: the command never looks at it.  The explicit
    flags stay on ``args.explicit``, by dest, for the refusals of routes
    that leave a flag unread (``_refuse``)."""
    reads = READS[args.command]
    args.explicit = {d: f for d, f in _options(parser).items() if d in explicit}
    for dest, flag in _options(parser).items():
        if dest not in reads:
            if dest in explicit:
                hint = HINTS.get((args.command, flag))
                raise ValueError(f"{args.command} does not read {flag}"
                                 + (f"; {hint}" if hint else ""))
        elif getattr(args, dest) is None:
            setattr(args, dest, reads[dest])


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        explicit = {d for d in _options(parser) if getattr(args, d) is not None}
        if args.config:
            try:
                tokens = _config_tokens(parser, args.config)
            except (OSError, ValueError) as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return EXIT_SCHEMA
            args = parser.parse_args(tokens + argv)
    except SystemExit as exc:
        return EXIT_SCHEMA if exc.code else EXIT_OK
    out = args.out
    os.makedirs(out, exist_ok=True)
    try:
        _read_flags(parser, args, explicit)
        _check_numbers(parser, args)
        failure = COMMANDS[args.command](args, out)
    except zline.NumericalError as exc:
        failure = {"check": "numerical", "error": type(exc).__name__,
                   "message": str(exc)}
    except (TreeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    if failure:
        record = {"command": args.command, "failure": failure}
        with open(os.path.join(out, "failure.json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True, default=str)
        print(f"assertion failure: {failure}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
