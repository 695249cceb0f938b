"""The three benchmark workloads: seeded inputs, flowtree calls and their oracles.

Each workload is a function ``build(seed, scratch)`` that does the set-up
(generates the inputs from the seed and builds the windows the library
calls need) and returns the operations of one pass, in their fixed order.
An operation calls flowtree, checks the output against an independent
route at the tolerance the test suite states, and returns ``(ok, output)``;
``output`` is what gets digested to compare passes and tracing modes.

README commands run in-process through ``flowtree.cli.main(argv)`` with
``--out`` pointed at a fresh directory under ``scratch``; they pass when
they exit 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

# Calls go through the module attributes, so that traced runs see them.
from flowtree import (abel, analysis, chebyshev, cli, localops, quotient, trees,
                      zline)
from flowtree.exactnum import QSurd
from flowtree.ncpoly import Z1, Z2, NcPolynomial

# Tolerances stated by the test suite for each independent route.
FLOAT_ROUTE_TOL = 1e-10   # radial vs window, profile vs radial
RIESZ_SKEW_TOL = 1e-6
FFT_BESSEL_TOL = 1e-12
IMAG_POWER_QUAD_TOL = 1e-8
IMAG_POWER_BAND = 1.2


@dataclass
class Op:
    """One operation of a pass.

    ``kind`` is "cli" for a README command (fails by exiting non-zero) or
    "lib" for a library call (fails by missing its oracle).
    """

    name: str
    call: Callable[[], tuple]
    kind: str = "lib"
    command: Optional[str] = None


def digest(obj) -> str:
    """Stable hash of an output; exact for Fractions, bit-exact for floats."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _digest_dir(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def cli_op(argv: list, scratch: str) -> Op:
    def call():
        out = tempfile.mkdtemp(dir=scratch)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(list(argv) + ["--out", out])
            return rc == 0, (rc, _digest_dir(out), err.getvalue().strip()[-200:])
        finally:
            shutil.rmtree(out, ignore_errors=True)
    return Op("cli " + " ".join(argv), call, "cli", argv[0])


def _column_items(col) -> list:
    return sorted(col.values.items())


def _ball(window, y, radius) -> set:
    """Vertices within graph distance ``radius`` of y, by breadth-first search
    over the stored predecessor and successor maps."""
    seen = {y}
    frontier = [y]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            p = window.pred.get(v)
            for w in ([p] if p is not None else []) + window.succ.get(v, []):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def _radial_check(window, col, rad, q, tol_of) -> bool:
    """Every vertex of the column's support and of the ball reaching the
    radial kernel's range agrees with K(x,y) = q^{-(lx+ly)/2} E(d)."""
    y = col.anchor
    ly = window.level[y]
    check = set(col.values) | _ball(window, y, rad.kmax)
    for x in check:
        d = window.distance(x, y)
        if d > rad.kmax:
            if col.value(x):
                return False
            continue
        want, tail = abel.homog_kernel_value(q, rad, window.level[x], ly, d)
        if abs(complex(col.value(x)) - want) > tol_of(tail):
            return False
    return True


# --------------------------------------------------------------------------
# exact_dense: rational L^k columns whose support fills the window.

def exact_dense(seed: int, scratch: str) -> list:
    rng = random.Random(seed)
    ops = []
    for q in (2, 3, 4):
        for k in range(7):
            w, m, c = trees.ball_window(q, k + 1)
            y = rng.choice(sorted(trees.safe_region(w, k)))
            ops.append(_lk_exact_op(q, k, w, m, y))
    for q in (2, 3, 5, 10):
        for i in range(10):
            psi = [Fraction(rng.randint(-99, 99), rng.randint(1, 23))
                   for _ in range(12)]
            ops.append(_abel_roundtrip_op(q, i, psi))
    ops.append(cli_op(["abel-check", "--q", "3", "--degree", "5"], scratch))
    ops.append(cli_op(["kernel", "--q", "2", "--coeffs", "0,1"], scratch))
    return ops


def _lk_exact_op(q, k, w, m, y) -> Op:
    coeffs = [Fraction(0)] * k + [Fraction(1)]

    def call():
        col = localops.kernel_column_lambda_poly(w, m, coeffs, y)
        a_exact = abel.e_f_exact(q, coeffs, 2 * k + 6)
        ly = w.level[y]
        ok = True
        for x in w.vertices:
            radial = abel.homog_kernel_value_exact(
                q, a_exact, w.level[x], ly, w.distance(x, y))
            if col.value(x) != radial:
                ok = False
        return ok, _column_items(col)
    return Op(f"L^{k} exact column q={q}", call)


def _abel_roundtrip_op(q, i, psi) -> Op:
    def call():
        back = abel.abel_forward(q, abel.abel_inverse(q, psi))
        ok = len(back) == len(psi) and all(
            QSurd(q, p) == b for p, b in zip(psi, back))
        return ok, [(b.a, b.b) for b in back]
    return Op(f"abel round trip q={q} #{i}", call)


# --------------------------------------------------------------------------
# window_sparse: small supports inside windows of 25k-87k vertices.

SPARSE_RATIOS = (Fraction(2, 3), Fraction(1, 3))
SPARSE_Q = 3
SPARSE_DEPTH = 9          # the 3-ary source window has 29,524 vertices
POLY_DEGREE = 4


def window_sparse(seed: int, scratch: str) -> list:
    rng = random.Random(seed)
    ops = [
        cli_op(["transfer-check", "--q", "4", "--ratios", "3/4,1/4",
                "--degree", "4"], scratch),
        cli_op(["rationalize", "--window", "golden", "--q", "64"], scratch),
    ]
    target, tmeas, _ = trees.constant_ratio_window(SPARSE_RATIOS, depth=SPARSE_DEPTH)
    t_anchors = sorted(trees.safe_region(target, POLY_DEGREE))
    state: dict = {}
    ops.append(_submersion_op(target, tmeas, state))
    for i in range(4):
        poly = _random_poly(rng)
        t_anchor = rng.choice(t_anchors)
        pick = random.Random(rng.random())
        ops.append(_transfer_op(i, poly, target, tmeas, t_anchor, pick, state))

    w, m, c = trees.ball_window(2, 13, backend="float")
    lk_anchors = sorted(trees.safe_region(w, 4))
    cheb_anchors = sorted(trees.safe_region(w, 12))
    for i in range(2):
        ops.append(_lk_float_op(i, w, m, rng.choice(lk_anchors)))
    for i in range(2):
        ops.append(_cheb_heat_op(i, w, m, rng.choice(cheb_anchors),
                                 rng.uniform(0.5, 2.0)))
    return ops


def _random_poly(rng) -> NcPolynomial:
    """Four words, one of each length 1..4, with random letters and nonzero
    rational coefficients: the letter count (and so the cost) is seed-free."""
    terms = {}
    for length in range(1, POLY_DEGREE + 1):
        word = tuple(rng.choice((Z1, Z2)) for _ in range(length))
        num = rng.choice([n for n in range(-3, 4) if n])
        terms[word] = Fraction(num, rng.randint(1, 3))
    return NcPolynomial(terms)


def _submersion_op(target, tmeas, state) -> Op:
    def call():
        sub = quotient.build_submersion_rational(target, tmeas, SPARSE_Q)
        rep = quotient.validate_submersion(sub)
        state["sub"] = sub
        state["safe"] = trees.safe_region(sub.source, POLY_DEGREE)
        state["fibers"] = sub.fibers()
        return rep.ok, (len(sub.source), rep.ok, rep.level_shift,
                        sorted(rep.checked.items()))
    return Op(f"quotient build+validate q={SPARSE_Q}", call)


def _transfer_op(i, poly, target, tmeas, t_anchor, pick, state) -> Op:
    def call():
        sub = state["sub"]
        cands = sorted(s for s in state["fibers"][t_anchor] if s in state["safe"])
        s_anchor = pick.choice(cands)
        src_col = localops.kernel_column_poly(sub.source, sub.source_measure, poly, s_anchor)
        pushed = quotient.fiber_average_kernel(sub, src_col)
        direct = localops.kernel_column_poly(target, tmeas, poly, t_anchor)
        both = [v for v in set(pushed.values) | set(direct.values)
                if v in pushed.safe and v in direct.safe]
        ok = (set(direct.support()) <= set(both)
              and all(pushed.value(v) == direct.value(v) for v in both))
        return ok, (s_anchor, _column_items(pushed))
    return Op(f"word polynomial transference #{i}", call)


def _lk_float_op(i, w, m, y) -> Op:
    coeffs = [0.0, 0.0, 0.0, 0.0, 1.0]

    def call():
        col = localops.kernel_column_lambda_poly(w, m, coeffs, y)
        rad = abel.e_f_coefficients(2, lambda lam: np.asarray(lam) ** 4, kmax=8)
        ok = _radial_check(w, col, rad, 2, lambda tail: FLOAT_ROUTE_TOL)
        return ok, _column_items(col)
    return Op(f"L^4 float column #{i}", call)


def _cheb_heat_op(i, w, m, y, t) -> Op:
    def heat(lam):
        return np.exp(-t * np.asarray(lam))

    def call():
        model = chebyshev.cheb_approx(heat, 12)
        col = chebyshev.cheb_column(w, m, model, y)
        rad = abel.e_f_coefficients(2, heat, kmax=12)
        ok = _radial_check(w, col, rad, 2,
                           lambda tail: col.err_bound + tail + 1e-12)
        return ok, (col.err_bound, _column_items(col))
    return Op(f"Chebyshev degree-12 heat column #{i}", call)


# --------------------------------------------------------------------------
# ancestor_profile: per-pair profile sums, Bessel kernels, the golden window,
# and the kernels of the line (q = 1): FFT trapezoid sums, radial assembly,
# closed-form operator sums.

SKEW_PAIRS = 128
PROFILE_HEAT_TIMES = (1.0, 2.5)


def ancestor_profile(seed: int, scratch: str) -> list:
    rng = random.Random(seed)
    ops = [
        cli_op(["riesz-skew-check", "--window", "golden", "--dmax", "8",
                "--tol", "1e-6"], scratch),
        cli_op(["riesz", "--window", "zline", "--dmax", "6"], scratch),
        cli_op(["heat", "--q", "2", "--t", "1"], scratch),
        cli_op(["heat", "--q", "2", "--t", "4"], scratch),
    ]
    wb, mb, cb = trees.ball_window(2, 9)
    ops.append(_binary_skew_op(wb, mb, cb, random.Random(rng.random())))
    w, m, c = trees.ball_window(2, 13, backend="float")
    anchors = sorted(trees.safe_region(w, 11))
    # fixed times: the length of the heat gradient kernel, and so the cost
    # of a profile column, grows with t
    for i, t in enumerate(PROFILE_HEAT_TIMES):
        ops.append(_profile_heat_op(i, w, m, rng.choice(anchors), t))
    return ops + _line_ops(rng, scratch)


def _binary_skew_op(w, m, c, pick) -> Op:
    """Criterion 4's binary-tree skew check on a seeded subset of its pairs."""
    def call():
        cand = sorted(x for x in w.vertices if 0 < w.distance(x, c) <= 8)
        pairs = sorted((x, c) for x in pick.sample(cand, SKEW_PAIRS))
        rep = analysis.riesz_skew_check(w, m, pairs)
        dev = rep.meta["max_dev"]
        return dev <= RIESZ_SKEW_TOL, [(r["x"], r["skew_re"]) for r in rep.rows]
    return Op(f"binary Riesz skew check ({SKEW_PAIRS} pairs)", call)


def _profile_heat_op(i, w, m, y, t) -> Op:
    def call():
        col = analysis.heat_kernel_column(w, m, t, y)
        rad = abel.e_f_coefficients(2, lambda lam: np.exp(-t * np.asarray(lam)),
                                    kmax=30)
        ok = _radial_check(w, col, rad, 2, lambda tail: FLOAT_ROUTE_TOL)
        return ok, _column_items(col)
    return Op(f"profile heat column #{i}", call)


def _line_ops(rng, scratch) -> list:
    """The line's README commands, FFT against Bessel heat gradient kernels
    at seeded times, and the imaginary-power kernel."""
    ops = [cli_op(argv.split(), scratch) for argv in (
        "weighted-sweep --epsilon 1 --t-grid 1:64:4log --q-grid 2,3,5",
        "level-sum --q 2 --t-grid 1:128:8log",
        "sharpness --q 2 --t-grid 10:40:31",
        "mh-norms --alpha 1 --q 64 --l-grid 0:6:7",
        "divergence --d-grid 16,32,64",
        "spectrum --theta-grid 0,pi/3,pi --d-grid 25:200:4log",
    )]
    for nmax in (1000, 10000):
        for _ in range(4):
            t = math.exp(rng.uniform(math.log(0.5), math.log(200.0)))
            ops.append(_fft_bessel_op(nmax, t))
    ops.append(_imaginary_power_op())
    return ops


def _fft_bessel_op(nmax, t) -> Op:
    def call():
        zk = zline.z_grad_multiplier_kernel(
            lambda lam: np.exp(-t * np.asarray(lam)), nmax)
        gk = zline.heat_z_gradkernel(t, nmax)
        fft = zk.one_sided()
        dev = float(np.max(np.abs(fft - gk)))
        return dev <= FFT_BESSEL_TOL, (fft.tolist(), gk.tolist())
    return Op(f"FFT vs Bessel gradient kernel nmax={nmax} t={t:.3f}", call)


def _imaginary_power_op() -> Op:
    def call():
        kern, _, worst = zline.imaginary_power_kernel(1.0, 200)
        band = [abs(kern.value(n)) * n for n in range(10, 201)]
        ok = worst <= IMAG_POWER_QUAD_TOL and max(band) / min(band) <= IMAG_POWER_BAND
        return ok, (kern.values.tolist(), worst)
    return Op("imaginary power kernel nmax=200", call)


# Every README command the workloads run, for the per-command cli metrics.
CLI_COMMANDS = ("abel-check", "kernel", "transfer-check", "rationalize",
                "riesz-skew-check", "riesz", "heat", "weighted-sweep",
                "level-sum", "sharpness", "mh-norms", "divergence", "spectrum")

WORKLOADS = {
    "exact_dense": exact_dense,
    "window_sparse": window_sparse,
    "ancestor_profile": ancestor_profile,
}
