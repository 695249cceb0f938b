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
enumerator lists a column's groups (level, meeting level, mass) as arrays
for the column, level and ball sums.
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
             top_level: Optional[int] = None) -> AncestorChain:
    """Ancestor chain of x, analytically extended above the apex if possible.

    The synthetic extension (driven by the window's ambient growth law) is
    float-only and stops once the inverse measure falls below 1e-45 of its
    largest value: such ancestors contribute nothing at double precision,
    so stopping there is not a truncation.  Exact masses cover
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
                floor = invs[0] * 1e-45
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


def _at(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """a[n] for indices n >= 0, zero past the end of a."""
    return np.where(n < len(a), a[np.minimum(n, len(a) - 1)], 0)


_BLOCK_ENTRIES = 1 << 22   # table entries summed at once, to bound memory


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


_GRAD_VARIANTS = ("plain", "grad_x", "gradstar_z", "grad_both")


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
    if variant not in _GRAD_VARIANTS:
        raise ValueError(f"variant must be one of {_GRAD_VARIANTS}")
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


def _groups(chain: AncestorChain, ly: int, nmax: int):
    """The column at the chain's vertex (level ly) as arrays of groups:
    level lam, meeting level j, and mass from the flow equation (a slice
    below the anchor: m(a_ly); a_j alone: m(a_j); the rest of a slice
    meeting at j: m(a_j) - m(a_{j-1})).  Empty groups, and groups past the
    kernel's support for every variant (2j - lam - ly > nmax + 2), are left
    out."""
    j = np.arange(ly, min(chain.top_level, ly + nmax + 2) + 1)
    count = nmax + 3 + ly - j   # levels j down to 2j - ly - nmax - 2
    J = np.repeat(j, count)
    lam = J - (np.arange(len(J)) - np.repeat(np.cumsum(count) - count, count))
    m = 1.0 / chain.inv[J - chain.base_level]
    m_below = 1.0 / chain.inv[np.maximum(J - 1, ly) - chain.base_level]
    mass = np.where((J == ly) | (lam == J), m, m - m_below)
    keep = mass > 0
    return lam[keep], J[keep], mass[keep]


def level_sum(chain: AncestorChain, gradk: np.ndarray, lx: int, l: int,
              orientation: str = "x", j0_cap: Optional[int] = None) -> float:
    """sum over the level-l slice of |grad K(x, .)| m(.), by the groups of
    x's column at that level.

    orientation "x": gradient acts on the fixed vertex (kernel K(x, z));
    orientation "z": the roles are swapped (kernel K(z, x)).  j0_cap
    restricts the slice to the subtree below that ancestor level (kernel
    values still use the whole chain).
    """
    if orientation not in ("x", "z"):
        raise ValueError("orientation must be 'x' or 'z'")
    lam, j, mass = _groups(chain, lx, len(gradk) - 1)
    at = (lam == l) & (j <= (chain.top_level if j0_cap is None else j0_cap))
    a, b = (lx, l) if orientation == "x" else (l, lx)
    vals = variant_value(gradk, chain, a, b, j[at], "grad_x")
    return float(np.sum(mass[at] * np.abs(vals)))


def distance_masses(chain: AncestorChain, gradk: np.ndarray, ly: int,
                    variant: str = "plain") -> np.ndarray:
    """Entry d: sum over x at distance d from the chain's vertex y (level
    ly) of |K variant(x, y)| m(x); length nmax + 3, past which K vanishes."""
    nmax = len(gradk) - 1
    lam, j, mass = _groups(chain, ly, nmax)
    vals = variant_value(gradk, chain, lam, ly, j, variant)
    return np.bincount(2 * j - lam - ly, np.abs(vals) * mass, minlength=nmax + 3)


def weighted_colsum(chain: AncestorChain, gradk: np.ndarray, ly: int,
                    weight: Callable[[np.ndarray], np.ndarray],
                    variant: str = "plain") -> float:
    """sum over x of w(d(x,y)) |K variant(x, y)| m(x); the weight takes an
    integer array of the distances where the column has mass."""
    per_d = distance_masses(chain, gradk, ly, variant)
    ds = np.flatnonzero(per_d)
    return float(np.sum(weight(ds) * per_d[ds]))
