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
sums collapse to sums over common-ancestor groups whose masses the flow
equation gives in closed form.

One engine evaluates them: for fixed s = level(x) + level(z) the sums from
every meeting level at once are cumulative sums down the chain of ratios
m(a_j)/m(a_J) <= 1, which stay in double range where the measures leave
it; one group reader, column_masses, lists a column's groups as arrays for
heat's rows and the level sums, on chains whose ratio may change from
level to level.  On a chain of constant ratio rho, weighted column sums
have abel's radial closed form at q = 1/rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trees import DEFAULT_VERTEX_CAP, FlowMeasure, TreeError, TreeWindow, Vertex


@dataclass
class AncestorChain:
    """Measures m(a_J) = mantissa * 2**exponent along a vertex's ancestor
    line (index i: level base_level + i), with integer exponents: none
    leaves range, and one in range keeps its float bits.  A chain that must
    climb past the apex of a window with no ambient growth law (up_ratio)
    stops there with `truncated` set, and the callers flag their results.
    """

    base_level: int
    mantissa: np.ndarray
    exponent: np.ndarray
    rise: float            # the steepest growth of log2 m from a level to the next
    truncated: bool = False

    @property
    def top_level(self) -> int:
        return self.base_level + len(self.mantissa) - 1

    def ratio(self, i, k) -> np.ndarray:
        """m(a_J)/m(a_K) at chain indices i = J - base_level, k = K - base_level."""
        return np.ldexp(self.mantissa[i] / self.mantissa[k],
                        self.exponent[i] - self.exponent[k])

    def inverse_measures(self, levels) -> np.ndarray:
        """1/m(a_J) at integer levels J >= base_level, zero above the top."""
        n = np.asarray(levels) - self.base_level
        i = np.minimum(n, len(self.mantissa) - 1)
        return np.where(n < len(self.mantissa),
                        np.ldexp(1.0 / self.mantissa[i], -self.exponent[i]), 0.0)


def chain_of(window: TreeWindow, measure: FlowMeasure, x: Vertex,
             nmax: int) -> AncestorChain:
    """Ancestor chain of x, for line kernels whose largest index is nmax.

    A profile-sum term at level J with x as one end reads the kernel at
    index 2J - level(x) - level(z) + 1, at least J - level(x) + 1 as J >=
    level(z); the differenced variants read at most 2 past nmax, so no term
    above level(x) + nmax + 1 is nonzero, and column_masses reads measures
    up to level(x) + nmax + 2.  The chain climbs to that level: past the
    apex by the window's growth law, log2 m rising by log2(up_ratio) a
    level, or, with no growth law, not past the apex, with `truncated` set.
    """
    mantissa, exponent = np.frexp(list(map(measure.as_float, window.ancestors(x))))
    need = nmax + 3 - len(mantissa)
    truncated = need > 0 and window.up_ratio is None
    if need > 0 and not truncated:
        bits = np.log2(mantissa[-1]) + np.arange(1, need + 1) * np.log2(float(window.up_ratio))
        whole = np.floor(bits)
        mantissa = np.concatenate([mantissa, np.exp2(bits - whole)])
        exponent = np.concatenate([exponent, exponent[-1] + whole.astype(exponent.dtype)])
    rise = np.diff(np.log2(mantissa) + exponent).max(initial=0.0)
    return AncestorChain(window.level[x], mantissa, exponent, rise, truncated)


def _at(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """a[n] for indices n >= 0, zero past the end of a."""
    return np.where(n < len(a), a[np.minimum(n, len(a) - 1)], 0)


_BLOCK_ENTRIES = 1 << 18   # table entries summed at once, to bound memory
_SPAN_BITS = 864           # largest power of 2 a scaled sum forms (2^1024 overflows)


def _suffix_sums(h: np.ndarray, chain: AncestorChain, s: np.ndarray,
                 j0: np.ndarray, first: np.ndarray) -> np.ndarray:
    """sum_{J >= first} h(2J - s + 1) m(a_j0)/m(a_J) for 1-d arrays s and
    j0 <= first (h is zero past its end).  One row per distinct s runs down
    from its top level (the last inside h and the chain) in blocks over
    which log2 m rises by at most _SPAN_BITS: terms scaled to the measure at
    their block's top, one cumulative sum per block, and the blocks above
    carried down, rescaled block by block.  Rows are summed _BLOCK_ENTRIES
    table entries at a time, to bound memory.  Each value is added from the
    top down whatever else shares the call."""
    rows, row = np.unique(s, return_inverse=True)
    hi = np.minimum(chain.top_level, (len(h) - 2 + rows) // 2)
    k = hi[row] - first
    reach = max(k.max(initial=0), 0) + 1
    size = reach if chain.rise <= 0 else max(1, min(reach, int(_SPAN_BITS / chain.rise)))
    width = -(-reach // size) * size
    out = np.zeros(len(row), dtype=np.result_type(chain.mantissa, h))
    per_chunk = max(1, _BLOCK_ENTRIES // width)
    for lo in range(0, len(rows), per_chunk):
        J = hi[lo:lo + per_chunk, None] - np.arange(width)
        # entries below a row's lowest start are never read; clip them into range
        n = np.maximum(J - chain.base_level, 0)
        top = n[:, ::size]
        terms = (chain.ratio(np.repeat(top, size, axis=1), n)
                 * h[np.clip(2 * J - rows[lo:lo + per_chunk, None] + 1, 0, len(h) - 1)])
        part = np.cumsum(terms.reshape(len(J), -1, size), axis=2)
        for b in range(1, part.shape[1]):   # add the blocks above, rescaled
            part[:, b] += part[:, b - 1, -1:] * chain.ratio(top[:, b], top[:, b - 1])[:, None]
        at = np.flatnonzero((row >= lo) & (row < lo + per_chunk) & (k >= 0))
        i, b = row[at] - lo, k[at] // size
        out[at] = chain.ratio(j0[at] - chain.base_level, top[i, b]) * part[i, b, k[at] % size]
    return out


# F(L), grad F(L), F(L) grad* and grad F(L) grad*; abel takes the same names
VARIANTS = ("plain", "grad_x", "gradstar_z", "grad_both")


def _scaled_value(gradk: np.ndarray, chain: AncestorChain, lx, lz, j0,
                  variant: str) -> np.ndarray:
    """m(a_j0) times the kernel of a variant at 1-d arrays of levels lx, lz
    and meeting levels j0 (see variant_value)."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if (j0 < np.maximum(np.maximum(lx, lz), chain.base_level)).any():
        raise TreeError("meeting level below the chain base or a vertex's level")
    on_x = variant in ("grad_x", "grad_both")
    on_z = variant in ("gradstar_z", "grad_both")
    x_meets, z_meets = on_x & (j0 == lx), on_z & (j0 == lz)
    head = x_meets | z_meets
    order = on_x + on_z
    h = np.diff(gradk, order, prepend=np.zeros(order), append=np.zeros(order))
    v = _suffix_sums(h, chain, lx + lz, j0, j0 + head)
    # level j0: plain, less a one-gradient part whose vertex does not meet
    n0 = 2 * j0 - lx - lz + 1
    at_j0 = np.where((on_x & ~x_meets) | (on_z & ~z_meets),
                     _at(np.diff(gradk, prepend=0, append=0), n0), _at(gradk, n0))
    return v + np.where(head, at_j0, 0)


def variant_value(gradk: np.ndarray, chain: AncestorChain, lx, lz, j0,
                  variant: str):
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
    lx, lz, j0 = np.broadcast_arrays(*(np.asarray(a, dtype=np.int64) for a in (lx, lz, j0)))
    v = _scaled_value(gradk, chain, lx.ravel(), lz.ravel(), j0.ravel(), variant)
    v = (v * chain.inverse_measures(j0.ravel())).astype(complex).reshape(j0.shape)
    return complex(v) if not j0.shape else v


def column_masses(chain: AncestorChain, gradk: np.ndarray, variant: str):
    """The column of K variant(., y) at the chain's vertex y (level ly, the
    chain's base level) as arrays of groups: level lam, meeting level j,
    value_mass (the value K variant(x, y) of every vertex x of the group
    times the group's mass, in range wherever the column's mass is) and
    log2 of the mass, which comes from the flow equation (a slice below the
    anchor: m(a_ly); a_j alone: m(a_j); the rest of a slice meeting at j:
    m(a_j) - m(a_{j-1})).  A level j > ly whose rest is empty gives the
    group of a_j only; groups past the kernel's support for every variant
    (2j - lam - ly > nmax + 2) or the chain's top are left out.  A column
    of more than DEFAULT_VERTEX_CAP groups is refused before it is listed:
    TreeError.
    """
    nmax, ly = len(gradk) - 1, chain.base_level
    j = np.arange(ly, min(chain.top_level, ly + nmax + 2) + 1)
    # the share of m(a_j) off the chain: 1 - m(a_{j-1})/m(a_j)
    rest = 1.0 - chain.ratio(np.maximum(j - ly - 1, 0), j - ly)
    # levels j down to 2j - ly - nmax - 2, or a_j alone
    count = np.where((j == ly) | (rest > 0), nmax + 3 + ly - j, 1)
    total = int(count.sum())
    if total > DEFAULT_VERTEX_CAP:
        raise TreeError(
            f"the column has {total:,} (level, meeting level) groups, over "
            f"the cap of {DEFAULT_VERTEX_CAP:,}")
    J = np.repeat(j, count)
    lam = J - (np.arange(total) - np.repeat(np.cumsum(count) - count, count))
    n = J - ly
    share = np.where((J == ly) | (lam == J), 1.0, rest[n])
    return (lam, J, _scaled_value(gradk, chain, lam, ly, J, variant) * share,
            np.log2(chain.mantissa[n] * share) + chain.exponent[n])
