"""Density-of-states diagnostics: KS distance to the standard normal,
spectral moments, the block/link decomposition with its central-limit
(characteristic-function) bounds, and the conjectured Ising-with-fields
moment predictions.
"""

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonians import OperatorSum, hs_inner
from .spectra import diagonalize_dense

MAX_MOMENT = 8
#: slack of the characteristic-function bound
BOUND_SLACK = 1e-9

#: histogram layout for streaming mode: HIST_BINS bins of width 2 HIST_RANGE / HIST_BINS
HIST_BINS = 4096
HIST_RANGE = 8.0
EDGES = np.linspace(-HIST_RANGE, HIST_RANGE, HIST_BINS + 1)


def _power_sums(x, k_max):
    """``[len(x), sum x, sum x^2, ..., sum x^k_max]``, one in-place power per k."""
    x = np.asarray(x, dtype=float)
    out = np.empty(k_max + 1)
    out[0] = len(x)
    p = x.copy()
    for k in range(1, k_max + 1):
        if k > 1:
            np.multiply(p, x, out=p)
        out[k] = np.sum(p)
    return out


def power_sums(values, offsets=(0.0,)):
    """Raw power sums ``p_k``, k = 1..MAX_MOMENT, of the sum-set ``{o + v : o in offsets, v in values}``.

    ``p_k = sum_j C(k, j) B_{k-j} S_j``, where ``S_j`` and ``B_j`` are the
    power sums of ``values`` and of ``offsets``; with the default single
    offset 0.0 this is ``S_k`` bit for bit.
    """
    s = _power_sums(values, MAX_MOMENT)
    b = _power_sums(offsets, MAX_MOMENT)
    # sum() starts from the int 0, so an all-zero p_k is +0.0, never -0.0
    return np.array([sum(math.comb(k, j) * b[k - j] * s[j] for j in range(k + 1)) for k in range(1, MAX_MOMENT + 1)])


@dataclass(frozen=True)
class Histogram:
    """Counts of a sum-set in the bins ``[EDGES[i], EDGES[i+1])``, plus how many values lie below, above or are NaN."""

    counts: np.ndarray
    below: int
    above: int
    nan: int

    @classmethod
    def of(cls, values, offsets=(0.0,)):
        """Bin the sum-set ``{o + v : o in offsets, v in values}`` without materialising it.

        The larger of the two sets is sorted once; for each element ``o`` of
        the smaller one, ``o + sorted`` holds exactly the floats ``o + v`` in
        sorted order, so one ``searchsorted`` of the edges gives how many of
        them lie below each edge. Bins are as in ``np.histogram`` of the
        in-range values.
        """
        values = np.asarray(values, dtype=float)
        offsets = np.asarray(offsets, dtype=float)
        if len(offsets) > len(values):
            # o + v == v + o exactly, so loop over the smaller set
            values, offsets = offsets, values
        ordered = np.sort(values)
        buf = np.empty_like(ordered)
        # cum[i] counts the values below EDGES[i]; NaNs sort last and count nowhere
        cum = np.zeros(len(EDGES), dtype=np.int64)
        nan = 0
        for o in offsets:
            np.add(ordered, o, out=buf)
            if not math.isfinite(o):
                buf.sort()  # inf + -inf is NaN at the front
            # edges at or below the smallest value count none, above the largest all
            first, last = np.searchsorted(EDGES, buf[[0, -1]], side="right")
            cum[first:last] += np.searchsorted(buf, EDGES[first:last], side="left")
            cum[last:] += len(buf)
            nan += len(buf) - int(np.searchsorted(buf, np.nan, side="left"))
        above = len(values) * len(offsets) - nan - int(cum[-1])
        return cls(np.diff(cum), int(cum[0]), above, nan)

    @property
    def count(self):
        return int(self.counts.sum()) + self.below + self.above + self.nan


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted eigenvalue list (exact) or histogram (streaming), plus power sums."""

    count: int
    values: np.ndarray | None = None
    histogram: Histogram | None = None
    power_sums: np.ndarray | None = None

    @classmethod
    def from_values(cls, values):
        values = np.sort(np.asarray(values, dtype=float))
        if len(values) == 0:
            raise ValueError("empty distribution")
        return cls(len(values), values=values, power_sums=power_sums(values))

    @classmethod
    def from_sum_set(cls, low, offsets):
        """Streaming mode: histogram and power sums of ``{o + v : o in offsets, v in low}``."""
        hist = Histogram.of(low, offsets)
        if hist.count == 0:
            raise ValueError("empty distribution")
        return cls(hist.count, histogram=hist, power_sums=power_sums(low, offsets))

    @property
    def exact(self):
        return self.values is not None


@dataclass(frozen=True)
class KSResult:
    statistic: float
    uncertainty: float


def ks_distance(d):
    """``sup_x |F_n(x) - Phi(x)|`` against the standard normal CDF.

    Exact mode evaluates the sup over the sample; streaming mode evaluates
    it at bin edges, with the largest single-bin mass (plus any out-of-range
    mass) attached as the uncertainty.
    """
    # imported here: scipy.special alone takes about half of ``import spinchain.cli``
    from scipy.special import ndtr

    if d.exact:
        n = d.count
        cdf = ndtr(d.values)
        # one full-length buffer at a time: cdf - i / n, then (i + 1) / n - cdf
        buf = np.arange(n, dtype=float)
        np.divide(buf, n, out=buf)
        np.subtract(cdf, buf, out=buf)
        below = float(np.max(buf))
        del buf
        buf = np.arange(1, n + 1, dtype=float)
        np.divide(buf, n, out=buf)
        np.subtract(buf, cdf, out=buf)
        stat = max(below, float(np.max(buf)))
        return KSResult(stat, 0.0)
    hist = d.histogram
    total = hist.count
    cum = hist.below + np.concatenate([[0], np.cumsum(hist.counts)])
    emp = cum / total
    stat = float(np.max(np.abs(emp - ndtr(EDGES))))
    unc = float(hist.counts.max() + hist.below + hist.above + hist.nan) / total
    return KSResult(stat, unc)


def moments(d, k_max=MAX_MOMENT):
    """Raw moments ``m_k = (1/count) sum lambda^k`` for k = 1..k_max."""
    if k_max > MAX_MOMENT:
        raise ValueError(f"k_max limited to {MAX_MOMENT}")
    if d.power_sums is None:
        raise ValueError("no moment data recorded")
    return d.power_sums[:k_max] / d.count


# ---------------------------------------------------------------------------
# Block/link decomposition of a nearest-neighbour ring


@dataclass(frozen=True)
class BlockLinkSplit:
    blocks: tuple
    links: OperatorSum
    l: int
    k_count: int

    @property
    def block_sum(self):
        total = OperatorSum.zero(self.links.n)
        for b in self.blocks:
            total = total + b
        return total


def _bond_of_term(n, string):
    """Ring bond index 1..n of a nearest-neighbour term.

    Bond j couples sites (j, j+1); a single-site term at site m belongs to
    bond m-1 (cyclically), matching the a=0 slot of the chain builder.
    """
    sites = [j for j in range(1, n + 1) if (string.x_mask | string.z_mask) & (1 << (n - j))]
    if len(sites) == 1:
        return (sites[0] - 2) % n + 1
    if len(sites) == 2:
        p, q = sites
        if q == p + 1:
            return p
        if (p, q) == (1, n):
            return n
    raise ValueError(f"term {string.label} is not a nearest-neighbour ring term")


def block_link_split(h, l):
    """Split a ring chain into disjoint blocks of l sites plus removed links.

    Bond j goes to the links iff ``j mod l == 0`` (the wrap bond j=n plays
    the role of the zeroth link); block k keeps bonds (k-1)l+1 .. kl-1 and
    is supported on l consecutive sites.  Blocks + links reassemble the
    input exactly, term for term.
    """
    n = h.n
    if not 2 <= l <= n:
        raise ValueError(f"block length {l} out of range 2..{n}")
    k_count = -(-n // l)
    link_bonds = {n} | {k * l for k in range(1, k_count) if k * l < n}
    block_terms = [[] for _ in range(k_count)]
    link_terms = []
    for coeff, string in h.terms:
        bond = _bond_of_term(n, string)
        if bond in link_bonds:
            link_terms.append((coeff, string))
        else:
            block_terms[(bond - 1) // l].append((coeff, string))
    blocks = tuple(OperatorSum.from_terms(n, t) for t in block_terms)
    links = OperatorSum.from_terms(n, link_terms)
    return BlockLinkSplit(blocks, links, l, k_count)


def _block_spectrum(block):
    """Eigenvalues of the block on its support sites; scaled traces of the block are their means."""
    small, _ = block.compressed()
    return np.linalg.eigvalsh(small.to_dense())


@dataclass(frozen=True)
class CltRow:
    t: float
    lhs: float
    rhs: float
    rhs_coeff_bound: float | None

    def passes(self):
        return self.lhs <= self.rhs + BOUND_SLACK


def clt_bound_check(h, l, t_list, C=None):
    """Rows of ``|psi_n(t) - phi_n(t)| <= sqrt(t^2 <L, L>)`` per t.

    ``psi_n`` comes from the full dense spectrum, ``phi_n`` from the product
    of per-block characteristic functions.  When a coefficient bound C is
    recorded, the cruder bound ``sqrt(t^2 ceil(n/l) 12 C^2 / n)`` is also
    reported.
    """
    split = block_link_split(h, l)
    link_norm2 = float(hs_inner(split.links, split.links).real)
    full = diagonalize_dense(h, want_vectors=False)
    block_spectra = [_block_spectrum(b) for b in split.blocks]
    rows = []
    for t in t_list:
        t = float(t)
        psi = np.mean(np.exp(1j * t * full.eigenvalues))
        phi = 1.0 + 0j
        for vals in block_spectra:
            phi *= complex(np.mean(np.exp(1j * t * vals)))
        lhs = abs(psi - phi)
        rhs = float(np.sqrt(t**2 * link_norm2))
        coeff_bound = None
        if C is not None:
            coeff_bound = float(np.sqrt(t**2 * split.k_count * 12.0 * C**2 / h.n))
        rows.append(CltRow(t, float(lhs), rhs, coeff_bound))
    return rows


@dataclass(frozen=True)
class LyapunovReport:
    s_n2: float
    fourth_sum: float
    link_norm2: float
    genbound3_rhs: float | None


def lyapunov_quantities(h, l, C=None):
    """Block second/fourth trace moments entering the Lyapunov condition.

    ``s_n^2 + <L, L> = <H, H>`` exactly (Parseval split over disjoint
    blocks); traces are computed on each block's support, never on the full
    2^n space.
    """
    split = block_link_split(h, l)
    s_n2 = sum(float(np.dot(b.coeffs, b.coeffs)) for b in split.blocks)
    fourth = sum(float(np.mean(_block_spectrum(b) ** 4)) for b in split.blocks)
    link_norm2 = float(hs_inner(split.links, split.links).real)
    rhs = None
    if C is not None:
        n = h.n
        rhs = float(3**7 * 4**4 * C**4 * (l / n + l**2 / n**2))
    return LyapunovReport(s_n2, fourth, link_norm2, rhs)


# ---------------------------------------------------------------------------
# Moment predictions for the Ising ring with fields


def double_factorial_odd(k):
    """(2k-1)!! for k >= 1."""
    out = 1
    for j in range(1, 2 * k, 2):
        out *= j
    return out


def ba_prediction(alpha1, alpha3, k):
    """Limiting 2k-th spectral moment: ``sigma^{2k} (2k-1)!!``.

    This is the moment of a centred normal with variance
    ``sigma^2 = 1 + alpha1^2 + alpha3^2``, the variance the rescaling
    argument actually yields.  See :func:`ba_prediction_printed` for the
    alternative published reading, reported side by side and never
    silently corrected.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sigma2 = 1.0 + alpha1**2 + alpha3**2
    return sigma2**k * double_factorial_odd(k)


def ba_prediction_printed(alpha1, alpha3, k):
    """The published formula ``(1+a1^2+a3^2)^{2k} (2k)!/(2^k k!)`` verbatim."""
    sigma2 = 1.0 + alpha1**2 + alpha3**2
    return sigma2 ** (2 * k) * math.factorial(2 * k) / (2**k * math.factorial(k))
