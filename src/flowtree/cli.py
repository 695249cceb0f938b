"""Command-line front end: build windows, run kernels and experiment sweeps.

Each subcommand writes CSV artifacts with a JSON metadata sidecar and exits
0 when its internal assertions pass, 1 on an assertion failure (with a
machine-readable failure record in the output directory), 2 on bad input.
A numerical failure (an aliasing guard, a consistency check, the
dominated-tail check of a weighted sum) also exits 1 with a failure
record.  Configs are flat JSON documents whose keys are flag names;
explicit flags override config values.  Runs are sequential and
deterministically ordered, so a rational-backend rerun reproduces artifacts
byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional

import numpy as np

from . import abel, analysis, quotient, reports, zline
from .bumps import imaginary_power_cut, named_multiplier
from .localops import kernel_column_lambda_poly, kernel_column_poly
from .ncpoly import NcPolynomial
from .trees import (DEFAULT_VERTEX_CAP, TreeError, ball, ball_vertex_bound,
                    ball_window, in_safe_region, load_window, safe_region,
                    spine_window)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_SCHEMA = 2

GOLDEN_RATIO = (math.sqrt(5) - 1) / 2  # heavier branch of the golden flow

# `kernel --multiplier`: Chebyshev degree and, plus one, window radius
DEFAULT_KERNEL_DEGREE = 8


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


def _int_grid(text: str, least: Optional[int] = None) -> list[int]:
    """A grid of integers, none below `least`; log-spaced points round to
    the nearest one."""
    vals = parse_grid(text)
    ints = [round(v) for v in vals]
    if any(abs(v - i) > 1e-9 * max(1.0, abs(v)) for v, i in zip(vals, ints)):
        raise ValueError(f"grid {text!r} must hold integers")
    if least is not None and min(ints) < least:
        raise ValueError(f"grid {text!r} has a value below {least}")
    return ints


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


def _given(value, default):
    """A flag's value, or the default when the flag is unset (0 is a value)."""
    return default if value is None else value


def _at_least(flag: str, value: int, least: int) -> int:
    """An integer flag's value, refused when it is below `least`."""
    if value < least:
        raise ValueError(f"{flag} must be >= {least}, not {value}")
    return value


def make_window(args, radius: int = 10):
    """Window selection shared by the subcommands: a loaded file, or a
    built-in ball around the anchor it returns (the spine: ``--depth`` long)."""
    if getattr(args, "tree", None):
        window, measure = load_window(args.tree)
        anchors = sorted(safe_region(window, min(radius, 4))) or [window.apex]
        return window, measure, anchors[len(anchors) // 2]
    kind = getattr(args, "window", "homog") or "homog"
    backend = args.backend or "rational"
    if kind == "homog":
        return ball_window(_given(args.q, 2), radius, backend=backend)
    if kind == "zline":
        return ball_window(1, max(radius, 12), backend=backend)
    if kind == "golden":
        return ball_window((GOLDEN_RATIO, 1 - GOLDEN_RATIO), radius,
                           center_level=-radius, backend="float")
    if kind == "spine":
        return spine_window(depth=_given(args.depth, 140))
    raise ValueError(f"unknown window kind {kind!r}")


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


def cmd_kernel(args, out):
    coeffs = list(parse_ratios(args.coeffs)) if args.coeffs else None
    deg = len(coeffs) - 1 if coeffs else _given(args.degree, DEFAULT_KERNEL_DEGREE)
    window, measure, anchor = make_window(args, max(deg + 1, 4))
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
        if (args.window or "homog") == "zline" and not args.tree:
            zk = zline.z_multiplier_kernel(fn, _given(args.dmax, 16))
            zcsv = os.path.join(out, "zkernel.csv")
            reports.write_csv(zcsv, ["n", "re", "im"], zk.csv_rows())
            reports.write_meta(zcsv, {"multiplier": args.multiplier,
                                      "nmax": zk.nmax, "grid": zk.grid})
    pathcsv = os.path.join(out, "kernel.csv")
    reports.write_csv(pathcsv, ["x_id", "value_re", "value_im", "distance", "level_x"],
                      col.csv_rows(window),
                      comments=[f"anchor={col.anchor}", f"err_bound={col.err_bound!r}"])
    reports.write_meta(pathcsv, {**_window_meta(window), "anchor": col.anchor,
                                 "err_bound": col.err_bound, **op_meta})
    return {}


def cmd_heat(args, out):
    t = _given(args.t_param, 1.0)
    tol = _given(args.tol, 1e-6)  # window truncation leaks a little column mass
    q = _given(args.q, 2)
    homog = not args.tree and (args.window or "homog") == "homog"
    radius = 10
    if homog:
        # half the tolerance for the mass outside the ball
        radius = max(radius, analysis.heat_ball_radius(q, t, tol / 2))
        need = ball_vertex_bound(q, radius)
        if need > DEFAULT_VERTEX_CAP:
            raise TreeError(
                f"heat at t={t:g} on the {q}-ary tree needs a ball of radius "
                f"{radius} ({need:,} vertices, over the cap of "
                f"{DEFAULT_VERTEX_CAP:,}); use a smaller --t, or a window "
                "file with --tree")
    window, measure, anchor = make_window(args, radius)
    col = analysis.heat_kernel_column(window, measure, t, anchor, args.degree)
    if homog and q >= 2:
        rad = abel.e_f_coefficients(q,
                                    lambda lam: np.exp(-t * np.asarray(lam)),
                                    kmax=24)
        rcsv = os.path.join(out, "radial.csv")
        reports.write_csv(rcsv, ["k", "E_re", "E_im", "tail_bound"], rad.csv_rows())
        reports.write_meta(rcsv, {"q": q, "t": t, "kmax": 24,
                                  "tail_scaled": rad.tail_scaled, **rad.meta})
    mass = sum(v * measure.as_float(x) for x, v in col.values.items())
    pathcsv = os.path.join(out, "heat.csv")
    reports.write_csv(pathcsv, ["x_id", "value_re", "value_im", "distance", "level_x"],
                      col.csv_rows(window),
                      comments=[f"anchor={col.anchor}", f"err_bound={col.err_bound!r}"])
    reports.write_meta(pathcsv, {"t": t, "mass": complex(mass).real,
                                 **_window_meta(window)})
    if abs(complex(mass) - 1.0) > max(1e3 * col.err_bound * len(window) ** 0.5, tol):
        return {"check": "heat mass conservation", "mass": complex(mass).real}
    return {}


def cmd_riesz(args, out):
    radius = _given(args.dmax, 6)
    window, measure, anchor = make_window(args, radius + 2)
    pairs = sorted((x, anchor) for x in ball(window, anchor, radius))
    vals, errs = analysis.riesz_kernel_values(window, measure, pairs)
    rows = [(x, y, v.real, v.imag, e) for (x, y), v, e in zip(pairs, vals, errs)]
    pathcsv = os.path.join(out, "riesz.csv")
    reports.write_csv(pathcsv, ["x", "y", "re", "im", "err_est"], rows)
    reports.write_meta(pathcsv, {"pairs": len(pairs), "anchor": anchor,
                                 **_window_meta(window)})
    return {}


def cmd_riesz_skew_check(args, out):
    radius = _at_least("--dmax", _given(args.dmax, 8), 1)
    window, measure, anchor = make_window(args, radius + 1)
    pairs = sorted((x, anchor) for x in ball(window, anchor, radius)
                   if x != anchor)
    rep = analysis.riesz_skew_check(window, measure, pairs)
    pathcsv = os.path.join(out, "riesz_skew_check.csv")
    reports.write_csv(pathcsv, rep.csv_header(), rep.csv_rows())
    reports.write_meta(pathcsv, {"max_dev": rep.meta["max_dev"],
                                 "pairs": len(pairs), "tol": args.tol,
                                 **_window_meta(window)})
    tol = _given(args.tol, 1e-6)
    if rep.meta["max_dev"] > tol:
        return {"check": "riesz skew identity", "max_dev": rep.meta["max_dev"],
                "tol": tol}
    return {}


def cmd_abel_check(args, out):
    q = _given(args.q, 3)
    deg = _given(args.degree, 5)
    radius = deg + 1
    window, measure, center = ball_window(q, radius)
    rows = []
    exact = True
    col = None
    coeffs = [Fraction(0)] * (deg + 1)
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
    pathcsv = os.path.join(out, "abel_check.csv")
    reports.write_csv(pathcsv, ["degree", "x", "d", "direct", "radial", "match"],
                      rows)
    reports.write_meta(pathcsv, {"q": q, "max_degree": deg, "exact": exact})
    if not exact:
        return {"check": "abel/direct equivalence", "q": q}
    return {}


def cmd_transfer_check(args, out):
    q = _given(args.q, 4)
    ratios = parse_ratios(args.ratios) if args.ratios else (Fraction(3, 4), Fraction(1, 4))
    deg = _given(args.degree, 4)
    trials = _given(args.trials, 20)
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
    pathcsv = os.path.join(out, "transfer_check.csv")
    reports.write_csv(pathcsv, ["trial", "degree", "match"], rows)
    reports.write_meta(pathcsv, {"q": q, "ratios": [str(r) for r in ratios],
                                 "submersion_ok": rep.ok,
                                 "violations": rep.violations[:10]})
    subcsv = os.path.join(out, "submersion.csv")
    reports.write_csv(subcsv, ["source_id", "target_id"], sub.csv_rows())
    reports.write_meta(subcsv, {"q": q, "source_size": len(sub.source),
                                "target_size": len(sub.target),
                                "level_shift": rep.level_shift})
    if not ok_all:
        return {"check": "transference exactness"}
    return {}


def cmd_rationalize(args, out):
    window, measure, _ = make_window(args, radius=6)
    q = _given(args.q, 64)
    mq, rows, max_err = quotient.rationalize_flow(window, measure, q)
    csv_rows = [(r.vertex, r.child_index, r.ratio.numerator, r.ratio.denominator,
                 r.error) for r in rows]
    pathcsv = os.path.join(out, "rationalize.csv")
    reports.write_csv(pathcsv, ["vertex", "child_index", "ratio_num", "ratio_den",
                                "error"], csv_rows)
    reports.write_meta(pathcsv, {"q": q, "max_error": max_err})
    return {}


def cmd_weighted_sweep(args, out):
    ts = parse_grid(args.t_grid) if args.t_grid else [1.0, 4.0, 16.0, 64.0]
    qs = _int_grid(args.q_grid, least=1) if args.q_grid else [2, 3, 5]
    eps = _given(args.epsilon, 1.0)
    rep = analysis.weighted_heat_sweep(eps, ts, qs)
    pathcsv = os.path.join(out, "weighted_sweep.csv")
    reports.write_csv(pathcsv, rep.csv_header(), rep.csv_rows())
    reports.write_meta(pathcsv, {"fits": rep.fit, **rep.meta})
    return {}


def cmd_level_sum(args, out):
    ts = parse_grid(args.t_grid) if args.t_grid else [2.0 ** k for k in range(8)]
    flow = parse_ratios(args.ratios) if args.ratios else _given(args.q, 2)
    window, measure, x = ball_window(flow, 4)
    rep = analysis.level_sum_estimate(window, measure, ts, x)
    pathcsv = os.path.join(out, "level_sum.csv")
    reports.write_csv(pathcsv, rep.csv_header(), rep.csv_rows())
    reports.write_meta(pathcsv, {"fit": rep.fit, **rep.meta,
                                 **_window_meta(window)})
    return {}


def cmd_mh_norms(args, out):
    alpha = _given(args.alpha, 1.0)
    try:
        ls = _int_grid(args.l_grid, least=0) if args.l_grid else list(range(7))
        if len(set(ls)) < 2:
            raise ValueError(f"grid {args.l_grid!r} needs two distinct values")
    except ValueError as exc:
        raise ValueError(f"--l-grid: {exc}") from exc
    rep = analysis.mh_dyadic_norms(imaginary_power_cut(alpha), ls,
                                   q=_given(args.q, 64))
    pathcsv = os.path.join(out, "mh_norms.csv")
    reports.write_csv(pathcsv, rep.csv_header(), rep.csv_rows())
    reports.write_meta(pathcsv, {"fit": rep.fit, "alpha": alpha, **rep.meta})
    return {}


def cmd_sharpness(args, out):
    ts = _int_grid(args.t_grid, least=2) if args.t_grid \
        else list(range(10, 41))
    rep = analysis.sharpness_fit(_given(args.q, 2), ts)
    sob = analysis.sobolev_growth(list(np.exp(np.linspace(np.log(30.0), np.log(300.0), 12))))
    pathcsv = os.path.join(out, "sharpness.csv")
    reports.write_csv(pathcsv, rep.csv_header(), rep.csv_rows())
    reports.write_meta(pathcsv, {"fit": rep.fit,
                                 "sobolev": {s: f for s, f in sob.items()},
                                 **rep.meta})
    return {}


def cmd_divergence(args, out):
    ds = _int_grid(args.d_grid, least=1) if args.d_grid else [16, 32, 64]
    window, measure, x1 = (make_window(args) if getattr(args, "tree", None)
                           else spine_window(depth=2 * max(ds) + 4))
    if getattr(args, "tree", None):
        x1 = window.apex  # loaded windows: probe from the apex area
    rep = analysis.divergence_probe(window, measure, x1, ds)
    pathcsv = os.path.join(out, "divergence.csv")
    reports.write_csv(pathcsv, rep.csv_header(), rep.csv_rows())
    reports.write_meta(pathcsv, {"fit": rep.fit, **rep.meta})
    return {}


def cmd_spectrum(args, out):
    thetas = parse_grid(args.theta_grid) if args.theta_grid \
        else [0.0, math.pi / 3, math.pi]
    ds = _int_grid(args.d_grid, least=1) if args.d_grid \
        else [25, 50, 100, 200]
    window, measure, o = ball_window(1, max(ds) + 1)
    rep = analysis.spectrum_probe(window, measure, o, thetas, ds)
    small, smeas, _ = ball_window(2, 6)
    lo, hi = analysis.rayleigh_bounds(small, smeas)
    pathcsv = os.path.join(out, "spectrum.csv")
    reports.write_csv(pathcsv, rep.csv_header(), rep.csv_rows())
    reports.write_meta(pathcsv, {"fit": rep.fit, "rayleigh": [lo, hi]})
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
    """Integer flags are non-negative, float flags finite."""
    for action in parser._actions:
        val = getattr(args, action.dest, None)
        if val is None:
            continue
        if action.type is int:
            _at_least(action.option_strings[0], val, 0)
        if action.type is float and not math.isfinite(val):
            raise ValueError(f"{action.option_strings[0]} must be finite, not {val}")


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
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
