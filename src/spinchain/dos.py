"""Density-of-states diagnostics: KS distance to the standard normal,
spectral moments, characteristic functions, the block/link decomposition
with its central-limit bounds, and the conjectured Ising-with-fields
moment predictions.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .free_fermion import EXACT_CAP
from .hamiltonians import DENSE_CAP, OperatorSum, hs_inner
from .spectra import diagonalize_dense

MAX_MOMENT = 8

#: default histogram layout for streaming mode
HIST_BINS = 4096
HIST_RANGE = 8.0


class MomentAccumulator:
    """Streaming raw power sums m1..m8 plus count; merges associatively."""

    def __init__(self, k_max=MAX_MOMENT):
        self.k_max = k_max
        self.count = 0
        self.power_sums = np.zeros(k_max)

    def __call__(self, values):
        self.count += len(values)
        p = np.ones_like(values)
        for k in range(self.k_max):
            p = p * values
            self.power_sums[k] += float(np.sum(p))

    def merge(self, other):
        self.count += other.count
        self.power_sums += other.power_sums
        return self

    def moments(self, k_max=None):
        k_max = self.k_max if k_max is None else k_max
        if self.count == 0:
            raise ValueError("empty accumulator")
        return self.power_sums[:k_max] / self.count


class HistogramAccumulator:
    """Fixed-bin streaming histogram with explicit under/overflow counts."""

    def __init__(self, bins=HIST_BINS, lo=-HIST_RANGE, hi=HIST_RANGE):
        self.edges = np.linspace(lo, hi, bins + 1)
        self.counts = np.zeros(bins, dtype=np.int64)
        self.below = 0
        self.above = 0

    def __call__(self, values):
        inside = (values >= self.edges[0]) & (values < self.edges[-1])
        self.below += int(np.sum(values < self.edges[0]))
        self.above += int(np.sum(values >= self.edges[-1]))
        hist, _ = np.histogram(values[inside], bins=self.edges)
        self.counts += hist

    def merge(self, other):
        self.counts += other.counts
        self.below += other.below
        self.above += other.above
        return self

    @property
    def count(self):
        return int(self.counts.sum()) + self.below + self.above


class SpectrumCollector:
    """Collects streamed chunks into one array (exact mode, <= 2^EXACT_CAP values)."""

    def __init__(self, limit=1 << EXACT_CAP):
        self.limit = limit
        self.chunks = []
        self.count = 0

    def __call__(self, values):
        self.count += len(values)
        if self.count > self.limit:
            raise ValueError(f"collector limit {self.limit} exceeded")
        self.chunks.append(np.asarray(values).copy())

    def values(self):
        return np.concatenate(self.chunks) if self.chunks else np.array([])


class MultiConsumer:
    def __init__(self, consumers):
        self.consumers = list(consumers)

    def __call__(self, values):
        for c in self.consumers:
            c(values)


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted eigenvalue list (exact) or histogram (streaming), plus moments."""

    count: int
    values: np.ndarray | None = None
    histogram: HistogramAccumulator | None = None
    power_sums: np.ndarray | None = None

    @classmethod
    def from_values(cls, values):
        values = np.sort(np.asarray(values, dtype=float))
        if len(values) == 0:
            raise ValueError("empty distribution")
        acc = MomentAccumulator()
        acc(values)
        return cls(len(values), values=values, power_sums=acc.power_sums)

    @classmethod
    def from_stream(cls, histogram, moment_acc):
        if histogram.count == 0:
            raise ValueError("empty distribution")
        return cls(histogram.count, histogram=histogram, power_sums=moment_acc.power_sums)

    @property
    def exact(self):
        return self.values is not None


@dataclass(frozen=True)
class KSResult:
    statistic: float
    uncertainty: float

    def __float__(self):
        return self.statistic


def ks_distance(d):
    """``sup_x |F_n(x) - Phi(x)|`` against the standard normal CDF.

    Exact mode evaluates the sup over the sample; streaming mode evaluates
    it at bin edges, with the largest single-bin mass (plus any out-of-range
    mass) attached as the uncertainty.
    """
    if d.exact:
        vals = d.values
        n = len(vals)
        cdf = ndtr(vals)
        i = np.arange(n)
        stat = max(float(np.max(cdf - i / n)), float(np.max((i + 1) / n - cdf)))
        return KSResult(stat, 0.0)
    hist = d.histogram
    total = hist.count
    cum = hist.below + np.concatenate([[0], np.cumsum(hist.counts)])
    emp = cum / total
    stat = float(np.max(np.abs(emp - ndtr(hist.edges))))
    unc = float(hist.counts.max() + hist.below + hist.above) / total
    return KSResult(stat, unc)


def moments(d, k_max=MAX_MOMENT):
    """Raw moments ``m_k = (1/count) sum lambda^k`` for k = 1..k_max."""
    if k_max > MAX_MOMENT:
        raise ValueError(f"k_max limited to {MAX_MOMENT}")
    if d.power_sums is None:
        raise ValueError("no moment data recorded")
    return d.power_sums[:k_max] / d.count


def characteristic_fn(d, t):
    """``(1/2^n) sum_k exp(i t lambda_k)``; exact mode only."""
    if not d.exact:
        raise ValueError("characteristic function requires exact mode")
    return complex(np.mean(np.exp(1j * float(t) * d.values)))


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


def _block_char_fn(block, t):
    """``(1/2^n) Tr exp(i t b)`` evaluated densely on the block's support."""
    small, sites = block.compressed()
    if not sites:
        return 1.0 + 0j
    vals = np.linalg.eigvalsh(small.to_dense())
    return complex(np.mean(np.exp(1j * t * vals)))


def _block_trace_moment(block, power):
    """``(1/2^n) Tr(b^power)`` via the support-restricted dense matrix."""
    small, sites = block.compressed()
    if not sites:
        return 0.0
    vals = np.linalg.eigvalsh(small.to_dense())
    return float(np.mean(vals**power))


@dataclass(frozen=True)
class CltRow:
    t: float
    lhs: float
    rhs: float
    rhs_coeff_bound: float | None

    def passes(self, slack=1e-9):
        return self.lhs <= self.rhs + slack


def clt_bound_check(h, l, t_list, C=None, cap=DENSE_CAP):
    """Rows of ``|psi_n(t) - phi_n(t)| <= sqrt(t^2 <L, L>)`` per t.

    ``psi_n`` comes from the full dense spectrum, ``phi_n`` from the product
    of per-block characteristic functions.  When a coefficient bound C is
    recorded, the cruder bound ``sqrt(t^2 ceil(n/l) 12 C^2 / n)`` is also
    reported.
    """
    split = block_link_split(h, l)
    link_norm2 = float(hs_inner(split.links, split.links).real)
    full = diagonalize_dense(h, cap=cap, want_vectors=False)
    rows = []
    for t in t_list:
        t = float(t)
        psi = np.mean(np.exp(1j * t * full.eigenvalues))
        phi = 1.0 + 0j
        for b in split.blocks:
            phi *= _block_char_fn(b, t)
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
    fourth = sum(_block_trace_moment(b, 4) for b in split.blocks)
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
    import math

    sigma2 = 1.0 + alpha1**2 + alpha3**2
    return sigma2 ** (2 * k) * math.factorial(2 * k) / (2**k * math.factorial(k))


# ---------------------------------------------------------------------------
# General-geometry partition diagnostics


@dataclass(frozen=True)
class GeometryReport:
    r: int
    m: int
    q: int
    r_over_n: float
    mq2_over_n2: float


def geometry_conditions(g, partition):
    """Crossing-link count and block statistics for a site partition.

    ``partition`` is a list of site collections covering 1..n disjointly;
    ``r`` counts graph edges crossing between blocks, ``m`` the block
    count, ``q`` the largest block.
    """
    n = g.n
    owner = {}
    for b, block in enumerate(partition):
        for site in block:
            if site in owner:
                raise ValueError(f"site {site} appears in two blocks")
            owner[site] = b
    if set(owner) != set(range(1, n + 1)):
        raise ValueError("partition must cover all sites exactly once")
    r = sum(1 for j, k, _ in g.edges if owner[j] != owner[k])
    m = len(partition)
    q = max(len(block) for block in partition)
    return GeometryReport(r, m, q, r / n, m * q**2 / n**2)
