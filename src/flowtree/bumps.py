"""Smooth cutoff functions used by the experiments.

All bumps are built from the standard exponential transition
psi(u) = exp(-1/u) glued as psi(u) / (psi(u) + psi(1-u)), which rises from 0
to 1 on [0, 1] with all derivatives vanishing at the ends.  The exact shapes
are a choice of this package (only support and plateau are constrained by
the estimates being probed), so they are pinned here once and documented:

* chi0: plateau [-1/4, 1/4], support (-1/2, 1/2)  (oscillating multipliers)
* low_cut: 1 on (-inf, 1/4], 0 on [1/2, inf)
* dyadic_phi: low_cut(lam/2) - low_cut(lam); support in (1/4, 1) and
  sum_{l >= 0} dyadic_phi(2^l lam) = 1 for lam in (0, 1/2).
"""

from __future__ import annotations

import numpy as np


def transition(u):
    """Smooth 0 -> 1 transition on [0, 1]."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return a / (a + b)


def chi0(lam):
    """Even bump: 1 on [-1/4, 1/4], supported in (-1/2, 1/2)."""
    return transition((0.5 - np.abs(np.asarray(lam, dtype=float))) / 0.25)


def low_cut(lam):
    """1 for lam <= 1/4, 0 for lam >= 1/2, smooth in between."""
    return transition((0.5 - np.asarray(lam, dtype=float)) / 0.25)


def dyadic_phi(lam):
    """Dyadic partition bump supported in (1/4, 1)."""
    lam = np.asarray(lam, dtype=float)
    return low_cut(lam / 2.0) - low_cut(lam)


def schrodinger_multiplier(t: float):
    """exp(i t lam) chi0(lam): the compactly supported wave packet."""
    def fn(lam):
        lam = np.asarray(lam, dtype=float)
        return np.exp(1j * t * lam) * chi0(lam)
    return fn


def imaginary_power_cut(alpha: float):
    """Bounded oscillating symbol lam^{i alpha}, zeroed at the origin."""
    def fn(lam):
        lam = np.asarray(lam, dtype=float)
        safe = np.maximum(lam, 1e-300)
        out = np.exp(1j * alpha * np.log(safe))
        return np.where(lam > 0, out, 0.0)
    return fn


def named_multiplier(name: str, **params):
    """CLI-facing registry: exp(-t*x), x^k, x^{i*alpha}, schrodinger(t)."""
    if name == "exp(-t*x)":
        t = float(params["t"])
        return lambda lam: np.exp(-t * np.asarray(lam, dtype=float))
    if name == "x^k":
        k = int(params["k"])
        return lambda lam: np.asarray(lam, dtype=float) ** k
    if name == "x^{i*alpha}":
        return imaginary_power_cut(float(params["alpha"]))
    if name == "schrodinger":
        return schrodinger_multiplier(float(params["t"]))
    raise ValueError(f"unknown multiplier {name!r}")
