"""Kernel values of functions of the flow Laplacian from ancestor profiles.

On any flow tree, the kernel of F(L) at a vertex pair depends only on the
two levels and on the measures of the common ancestors:

    K(x, z) = sum over common ancestors a of  gradk(2 level(a) - level(x)
              - level(z) + 1) / m(a),

where gradk is the symmetric-gradient kernel of F of the Laplacian on the
integer line.  On the q-ary canonical tree this reduces to the radial
formula (the ancestor measures are q**level), and the general case follows
from it by quotient transference plus rational perturbation of the measure;
the test-suite pins the identity exactly against direct window evaluation.

Because only the ancestor chain enters, heat-type kernels remain computable
at times far beyond what any materialized window could certify, and level
sums or weighted column sums collapse to sums over common-ancestor groups
whose masses the flow equation gives in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .trees import FlowMeasure, TreeError, TreeWindow, Vertex


@dataclass
class AncestorChain:
    """Inverse measures 1/m(a_J) along a vertex's ancestor line.

    Index i corresponds to the ancestor at level base_level + i.  Chains
    built from a window extend past the apex when the window carries an
    ambient growth law (up_ratio); otherwise `truncated` is set and the
    callers flag their results instead of silently stopping.
    """

    base_level: int
    inv: np.ndarray
    masses: Optional[list] = None  # exact measures when available
    truncated: bool = False

    @property
    def top_level(self) -> int:
        return self.base_level + len(self.inv) - 1


def chain_of(window: TreeWindow, measure: FlowMeasure, x: Vertex,
             top_level: Optional[int] = None,
             rel_floor: float = 1e-45) -> AncestorChain:
    """Ancestor chain of x, analytically extended above the apex if possible.

    The synthetic extension (driven by the window's ambient growth law) is
    float-only and stops once the inverse measure falls below rel_floor of
    its largest value: such ancestors contribute nothing at double
    precision, so stopping there is not a truncation.  Exact masses cover
    the in-window part only.
    """
    invs = []
    masses = []
    for v in window.ancestors(x):
        masses.append(measure.values[v])
        invs.append(1.0 / measure.as_float(v))
    lvl = window.level[x]
    truncated = False
    if top_level is not None:
        have = lvl + len(invs) - 1
        need = top_level - have
        if need > 0:
            if window.up_ratio is not None:
                growth = float(window.up_ratio)
                floor = invs[0] * rel_floor
                last = invs[-1]
                for _ in range(need):
                    last = last / growth
                    if last <= floor:
                        break
                    invs.append(last)
            else:
                truncated = True
    exact = None
    if measure.backend == "rational" and all(isinstance(m, (Fraction, int)) for m in masses):
        exact = masses
    return AncestorChain(lvl, np.asarray(invs, dtype=float), exact, truncated)


def profile_value(gradk: np.ndarray, chain: AncestorChain,
                  lx: int, lz: int, j0: int) -> complex:
    """sum_{J >= j0} gradk(2J - lx - lz + 1) / m(a_J), truncated at both the
    gradient-kernel support and the chain top."""
    if j0 < chain.base_level:
        raise TreeError("meeting level below the chain base")
    nmax = len(gradk) - 1
    jmax_kernel = (nmax - 1 + lx + lz) // 2
    j_hi = min(chain.top_level, jmax_kernel)
    if j_hi < j0:
        return 0.0 + 0.0j
    js = np.arange(j0, j_hi + 1)
    ns = 2 * js - lx - lz + 1
    inv = chain.inv[j0 - chain.base_level: j_hi - chain.base_level + 1]
    return complex(np.dot(inv, gradk[ns]))


def profile_value_exact(gradk: dict[int, Fraction], chain: AncestorChain,
                        lx: int, lz: int, j0: int) -> Fraction:
    if chain.masses is None:
        raise TreeError("chain lacks exact measures")
    total = Fraction(0)
    for i, m in enumerate(chain.masses):
        J = chain.base_level + i
        if J < j0:
            continue
        g = gradk.get(2 * J - lx - lz + 1)
        if g:
            total += g / m
    return total


_GRAD_VARIANTS = ("plain", "grad_x", "gradstar_z", "grad_both")


def variant_value(gradk: np.ndarray, chain: AncestorChain, lx: int, lz: int,
                  j0: int, variant: str = "plain") -> complex:
    """Kernel of F(L), grad F(L), F(L) grad*, or grad F(L) grad* at a pair
    described by (levels, meeting level).

    Replacing a vertex by its predecessor moves the meeting level to
    max(j0, level + 1); that single rule covers the comparable and
    incomparable cases alike.
    """
    if variant not in _GRAD_VARIANTS:
        raise ValueError(f"variant must be one of {_GRAD_VARIANTS}")
    v = profile_value(gradk, chain, lx, lz, j0)
    if variant == "plain":
        return v
    if variant in ("grad_x", "grad_both"):
        v = v - profile_value(gradk, chain, lx + 1, lz, max(j0, lx + 1))
    if variant in ("gradstar_z", "grad_both"):
        v = v - profile_value(gradk, chain, lx, lz + 1, max(j0, lz + 1))
    if variant == "grad_both":
        v = v + profile_value(gradk, chain, lx + 1, lz + 1, max(j0, lx + 1, lz + 1))
    return v


def level_sum(chain: AncestorChain, gradk: np.ndarray, lx: int, l: int,
              orientation: str = "x", variant: str = "grad_x",
              j0_cap: Optional[int] = None) -> float:
    """sum over the level-l slice of |K(x, .)| m(.), grouped by meeting level.

    orientation "x": gradient acts on the fixed vertex (kernel K(x, z));
    orientation "z": the roles are swapped (kernel K(z, x)).  The group at
    meeting level j collects the z with LCA(x, z) = a_j; its slice mass is
    m(a_j) - m(a_{j-1}) by the flow equation, with the bottom group carrying
    the full m at the meeting start.  j0_cap restricts the slice to the
    subtree below that ancestor level (kernel values still use the whole
    chain).
    """
    if orientation not in ("x", "z"):
        raise ValueError("orientation must be 'x' or 'z'")
    nmax = len(gradk) - 1
    j_start = max(lx, l)
    jmax_kernel = (nmax - 1 + lx + l) // 2 + 1
    j_hi = min(chain.top_level, jmax_kernel)
    if j0_cap is not None:
        j_hi = min(j_hi, j0_cap)
    total = 0.0
    prev_mass = 0.0
    for j0 in range(j_start, j_hi + 1):
        inv_m = chain.inv[j0 - chain.base_level]
        mass = (1.0 / inv_m) - prev_mass
        prev_mass = 1.0 / inv_m
        if mass <= 0:
            continue
        if orientation == "x":
            val = variant_value(gradk, chain, lx, l, j0, variant)
        else:
            val = variant_value(gradk, chain, l, lx, j0, variant)
        total += mass * abs(val)
    return total


def weighted_colsum(chain: AncestorChain, gradk: np.ndarray, ly: int,
                    weight: Callable[[int, int, int], float],
                    variant: str = "plain",
                    lmin: Optional[int] = None) -> float:
    """sum over x of w(d(x,y), level(x), level(y)) |K variant(x, y)| m(x).

    Grouped over (level(x), meeting level); the kernel's support truncates
    both ranges.  `lmin` optionally floors the level range (diagnostics).
    A weight that returns an array gives one sum per entry.
    """
    nmax = len(gradk) - 1
    total = 0.0
    for j0 in range(ly, chain.top_level + 1):
        if j0 - ly + 1 > nmax + 2:
            break  # even the nearest slice is past the kernel support
        inv_m = chain.inv[j0 - chain.base_level]
        inv_prev = chain.inv[j0 - 1 - chain.base_level] if j0 > ly else None
        lam_lo = 2 * j0 - ly - nmax - 2
        if lmin is not None:
            lam_lo = max(lam_lo, lmin)
        for lam in range(j0, lam_lo - 1, -1):
            d = (j0 - lam) + (j0 - ly)
            if j0 == ly:
                mass = 1.0 / inv_m  # every slice of Delta_y carries m(y)
            elif lam <= j0 - 1:
                mass = 1.0 / inv_m - 1.0 / inv_prev
            else:
                mass = 1.0 / inv_m  # the single vertex a_{j0} itself
            if mass <= 0:
                continue
            val = variant_value(gradk, chain, lam, ly, j0, variant)
            if val:
                total += weight(d, lam, ly) * abs(val) * mass
    return total
