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

One engine evaluates them: for fixed s = level(x) + level(z) the sums from
every meeting level at once are one cumulative sum down the chain, and one
group reader lists a column's groups (level, meeting level, value, mass) as
arrays for heat's rows and the column and level sums.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .trees import DEFAULT_VERTEX_CAP, FlowMeasure, TreeError, TreeWindow, Vertex
from .zline import NumericalError


@dataclass
class AncestorChain:
    """Inverse measures 1/m(a_J) along a vertex's ancestor line.

    Index i corresponds to the ancestor at level base_level + i.  A chain
    that must climb past the apex of a window with no ambient growth law
    (up_ratio) stops there with `truncated` set, and the callers flag their
    results instead of silently stopping.
    """

    base_level: int
    inv: np.ndarray
    truncated: bool = False

    @property
    def top_level(self) -> int:
        return self.base_level + len(self.inv) - 1


def chain_of(window: TreeWindow, measure: FlowMeasure, x: Vertex,
             nmax: Optional[int] = None) -> AncestorChain:
    """Ancestor chain of x, for line kernels whose largest index is nmax.

    A profile-sum term at level J with x as one end reads the kernel at
    index 2J - level(x) - level(z) + 1, at least J - level(x) + 1 as J >=
    level(z); the differenced variants read at most 2 past nmax, so no term
    above level(x) + nmax + 1 is nonzero, and column_masses reads measures
    up to level(x) + nmax + 2.  The chain climbs to that level: past the
    apex by the window's growth law, or, with no growth law, not past the
    apex, with `truncated` set.  With no nmax it stops at the apex.  It
    stops early only where the next inverse measure would fall below the
    smallest normal double; every pair-sum term there is below double
    range, so that is no truncation, and column_masses raises
    NumericalError where it needs those levels.
    """
    invs = [1.0 / measure.as_float(v) for v in window.ancestors(x)]
    lvl = window.level[x]
    need = 0 if nmax is None else nmax + 3 - len(invs)
    truncated = need > 0 and window.up_ratio is None
    if need > 0 and not truncated:
        growth = float(window.up_ratio)
        last = invs[-1]
        for _ in range(need):
            last = last / growth
            if last < sys.float_info.min:
                break
            invs.append(last)
    return AncestorChain(lvl, np.asarray(invs, dtype=float), truncated)


def profile_value_exact(gradk: dict[int, Fraction], window: TreeWindow,
                        measure: FlowMeasure, v: Vertex, lx: int, lz: int,
                        j0: int) -> Fraction:
    """The profile sum of a pair at levels lx, lz meeting at level j0, in
    exact arithmetic over the window ancestors of v at levels j0 and up,
    with their rational measures: the tests' oracle."""
    if measure.backend != "rational":
        raise TreeError("exact profile sums need the rational backend")
    total = Fraction(0)
    for a in window.ancestors(v):
        J = window.level[a]
        if J < j0:
            continue
        g = gradk.get(2 * J - lx - lz + 1)
        if g:
            total += g / measure.values[a]
    return total


def _at(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """a[n] for indices n >= 0, zero past the end of a."""
    return np.where(n < len(a), a[np.minimum(n, len(a) - 1)], 0)


_BLOCK_ENTRIES = 1 << 18   # table entries summed at once, to bound memory


def _suffix_sums(h: np.ndarray, chain: AncestorChain, s: np.ndarray,
                 j0: np.ndarray) -> np.ndarray:
    """sum_{J >= j0} h(2J - s + 1) / m(a_J) for 1-d arrays s, j0 (h is zero
    past its end).  One row per distinct s runs down from its top level (the
    last inside h and the chain); one cumulative sum gives every start, each
    added from the top down whatever else shares the call."""
    rows, row = np.unique(s, return_inverse=True)
    hi = np.minimum(chain.top_level, (len(h) - 2 + rows) // 2)
    k = hi[row] - j0
    width = max(k.max(initial=0), 0) + 1
    out = np.zeros(len(s), dtype=np.result_type(chain.inv, h))
    per_block = max(1, _BLOCK_ENTRIES // width)
    for first in range(0, len(rows), per_block):
        J = hi[first:first + per_block, None] - np.arange(width)
        # entries below a row's lowest j0 are never read; clip them into range
        terms = (chain.inv[np.maximum(J - chain.base_level, 0)]
                 * h[np.clip(2 * J - rows[first:first + per_block, None] + 1,
                             0, len(h) - 1)])
        at = np.flatnonzero((row >= first) & (row < first + per_block) & (k >= 0))
        out[at] = np.cumsum(terms, axis=1)[row[at] - first, k[at]]
    return out


# F(L), grad F(L), F(L) grad* and grad F(L) grad*; abel takes the same names
VARIANTS = ("plain", "grad_x", "gradstar_z", "grad_both")


def variant_value(gradk: np.ndarray, chain: AncestorChain, lx, lz, j0,
                  variant: str = "plain"):
    """Kernel of F(L), grad F(L), F(L) grad*, or grad F(L) grad* at pairs
    described by (levels, meeting level).

    lx, lz and j0 are integers (a complex result) or integer arrays,
    broadcast together (a complex array).  Replacing a vertex by its
    predecessor moves the meeting level to max(j0, level + 1) and the kernel
    index down by one.  So each gradient differences the line kernel once
    before summing (neighbours subtract exactly, leaving the sums no
    cancellation), and where the vertex is the meeting point the level-j0
    term, which its predecessor's sum skips, is added apart.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    lx, lz, j0 = np.broadcast_arrays(
        *(np.asarray(a, dtype=np.int64) for a in (lx, lz, j0)))
    shape = j0.shape
    lx, lz, j0 = lx.ravel(), lz.ravel(), j0.ravel()
    if (j0 < np.maximum(np.maximum(lx, lz), chain.base_level)).any():
        raise TreeError("meeting level below the chain base or a vertex's level")
    on_x = variant in ("grad_x", "grad_both")
    on_z = variant in ("gradstar_z", "grad_both")
    x_meets, z_meets = on_x & (j0 == lx), on_z & (j0 == lz)
    head = x_meets | z_meets
    order = on_x + on_z
    h = np.diff(gradk, order, prepend=np.zeros(order), append=np.zeros(order))
    v = _suffix_sums(h, chain, lx + lz, j0 + head)
    # level j0: plain, less a one-gradient part whose vertex does not meet
    n0 = 2 * j0 - lx - lz + 1
    at_j0 = np.where((on_x & ~x_meets) | (on_z & ~z_meets),
                     _at(np.diff(gradk, prepend=0, append=0), n0), _at(gradk, n0))
    v = v + np.where(head, _at(chain.inv, j0 - chain.base_level) * at_j0, 0)
    v = v.astype(complex).reshape(shape)
    return complex(v) if not shape else v


def column_masses(chain: AncestorChain, gradk: np.ndarray, ly: int,
                  variant: str):
    """The column of K variant(., y) at the chain's vertex y (level ly) as
    arrays of groups: level lam, meeting level j, the value K variant(x, y)
    that every vertex x of the group takes, and the group's mass.  A
    group's mass comes from the flow equation (a slice below the anchor:
    m(a_ly); a_j alone: m(a_j); the rest of a slice meeting at j: m(a_j) -
    m(a_{j-1})).  A level j > ly whose rest is empty (m(a_j) = m(a_{j-1}))
    gives the group of a_j only, and groups past the kernel's support for
    every variant (2j - lam - ly > nmax + 2) are left out.  A chain that is
    not truncated yet ends below ly + nmax + 2 lost the levels whose inverse
    measures leave double range: NumericalError.  A column of more than
    DEFAULT_VERTEX_CAP groups is refused before it is listed: TreeError.
    """
    nmax = len(gradk) - 1
    reach = ly + nmax + 2
    if chain.top_level < reach and not chain.truncated:
        raise NumericalError(
            f"group sums read ancestor measures up to level {reach}, but "
            f"the inverse measures leave double range above level "
            f"{chain.top_level}")
    j = np.arange(ly, min(chain.top_level, reach) + 1)
    m = 1.0 / chain.inv[j - chain.base_level]
    rest = np.diff(m, prepend=m[0])
    # levels j down to 2j - ly - nmax - 2, or a_j alone
    count = np.where((j == ly) | (rest > 0), nmax + 3 + ly - j, 1)
    total = int(count.sum())
    if total > DEFAULT_VERTEX_CAP:
        raise TreeError(
            f"the column has {total:,} (level, meeting level) groups, over "
            f"the cap of {DEFAULT_VERTEX_CAP:,}")
    J = np.repeat(j, count)
    lam = J - (np.arange(total) - np.repeat(np.cumsum(count) - count, count))
    mass = np.where((J == ly) | (lam == J), m[J - ly], rest[J - ly])
    return lam, J, variant_value(gradk, chain, lam, ly, J, variant), mass


def distance_masses(chain: AncestorChain, gradk: np.ndarray, ly: int,
                    variant: str = "plain") -> np.ndarray:
    """Entry d: sum over x at distance d from the chain's vertex y (level
    ly) of |K variant(x, y)| m(x); length nmax + 3, past which K vanishes."""
    lam, j, vals, mass = column_masses(chain, gradk, ly, variant)
    return np.bincount(2 * j - lam - ly, np.abs(vals) * mass,
                       minlength=len(gradk) + 2)


def weighted_colsum(chain: AncestorChain, gradk: np.ndarray, ly: int,
                    weight: Callable[[np.ndarray], np.ndarray],
                    variant: str = "plain") -> float:
    """sum over x of w(d(x,y)) |K variant(x, y)| m(x); the weight takes an
    integer array of the distances where the column has mass."""
    per_d = distance_masses(chain, gradk, ly, variant)
    ds = np.flatnonzero(per_d)
    return float(np.sum(weight(ds) * per_d[ds]))
