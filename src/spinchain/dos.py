"""Density-of-states diagnostics: KS distance to the standard normal,
spectral moments, the block/link decomposition with its central-limit
(characteristic-function) bounds, and the conjectured Ising-with-fields
moment predictions.
"""

import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .free_fermion import EXACT_CAP
from .hamiltonians import bond_table, open_chain

#: highest spectral moment kept; the window sum of :func:`ring_moments` solves open chains of up to MAX_MOMENT + 1 sites
MAX_MOMENT = 6
#: slack of the characteristic-function bound
BOUND_SLACK = 1e-9

#: KS branch and bound: the value range is cut into KS_BINS intervals (where
#: it stops above 2^EXACT_CAP values), and an interval that may hold the sup
#: is cut into KS_SPLIT; one holding at most KS_LEAF values is gathered, in
#: batches of at most KS_BATCH values, and bounded in runs of KS_SPLIT values
KS_BINS = 4096
KS_SPLIT = 16
KS_LEAF = 1024
KS_BATCH = 1 << 15
#: covers last-ulp non-monotonicity of the float CDF in the interval and run bounds
KS_SLACK = 1e-12
#: most thresholds (offsets times grid points) one :func:`_ranks` call of
#: :meth:`EmpiricalDistribution.count_below` takes; each of its temporaries is
#: at most 8 bytes per threshold
RANKS_BATCH = 1 << 14


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


@np.errstate(over="ignore", invalid="ignore")
def power_sums(values, offsets=(0.0,)):
    """Raw power sums ``p_k``, k = 1..MAX_MOMENT, of the sum-set ``{o + v : o in offsets, v in values}``.

    ``p_k = sum_j C(k, j) B_{k-j} S_j``, where ``S_j`` and ``B_j`` are the
    power sums of ``values`` and of ``offsets``; with the default single
    offset 0.0 this is ``S_k`` bit for bit. An overflow gives inf or NaN
    without a warning; :func:`moments` refuses it.
    """
    s = _power_sums(values, MAX_MOMENT)
    b = _power_sums(offsets, MAX_MOMENT)
    # sum() starts from the int 0, so an all-zero p_k is +0.0, never -0.0
    return np.array([sum(math.comb(k, j) * b[k - j] * s[j] for j in range(k + 1)) for k in range(1, MAX_MOMENT + 1)])


@dataclass(frozen=True)
class EmpiricalDistribution:
    """The sum-set ``{o + v : o in offsets, v in low}`` and its power sums.

    ``low`` is the larger of the two sets; both are sorted. Every statistic is read
    from the pair through :meth:`count_below`; nothing the size of the
    sum-set is formed.
    """

    low: np.ndarray
    offsets: np.ndarray
    power_sums: np.ndarray

    @classmethod
    def from_sum_set(cls, low, offsets):
        """Takes ownership: sorts the larger set in place before the power sums, so they do not depend on its
        order, and the offsets after them, so they keep the offsets' given order."""
        low = np.asarray(low, dtype=float)
        offsets = np.asarray(offsets, dtype=float)
        if len(offsets) > len(low):
            # o + v == v + o exactly, so the counting loop runs over the smaller set
            low, offsets = offsets, low
        if len(low) * len(offsets) == 0:
            raise ValueError("empty distribution")
        low.sort()
        sums = power_sums(low, offsets)
        offsets.sort()
        return cls(low, offsets, sums)

    @classmethod
    def from_values(cls, values):
        """An explicit list of values, as the sum-set ``(values, (0.0,))``."""
        return cls.from_sum_set(values, (0.0,))

    @property
    def count(self):
        return len(self.low) * len(self.offsets)

    @property
    def exact(self):
        """Whether :func:`ks_distance` is exact: at most 2^EXACT_CAP values."""
        return self.count <= 1 << EXACT_CAP

    def count_below(self, points):
        """``#{o + v < x}`` at each x of ``points`` (any order, repeats allowed, no NaN), from :func:`_ranks` of runs of sorted offsets.

        Grid points (the distinct ``points``, sorted) at or below ``o + low[0]`` count none, those above
        ``o + low[-1]`` all. (With ``o = inf``, ``o + low[0]`` may be NaN; then every value is inf or NaN and
        nothing counts.) A run is ``RANKS_BATCH // widest range`` consecutive offsets, one at least, and spans
        the grid from the least first to the greatest last point of their ranges, with no assumption on their
        order (``o + low[0]`` is not monotone in o where it is NaN); past it every value of the run counts. The
        span is cut along the grid into calls of at most ``RANKS_BATCH`` thresholds.
        """
        grid, where = np.unique(points, return_inverse=True)
        firsts = np.searchsorted(grid, self.low[0] + self.offsets, side="right")
        lasts = np.searchsorted(grid, self.low[-1] + self.offsets, side="right")
        width = max(1, RANKS_BATCH // int(np.max(lasts - firsts, initial=1)))
        step = RANKS_BATCH // width
        starts = np.arange(0, len(self.offsets), width)
        los, his = np.minimum.reduceat(firsts, starts).tolist(), np.maximum.reduceat(lasts, starts).tolist()
        tails = np.zeros(len(grid) + 1, dtype=np.int64)
        np.add.at(tails, his, np.diff(starts, append=len(self.offsets)))
        calls = [(s, s + width, c, min(c + step, hi)) for s, lo, hi in zip(starts.tolist(), los, his)
                 for c in range(lo, hi, step)]
        cum = np.cumsum(tails[:-1]) * len(self.low)
        cum += _count_calls(self.low, self.offsets, grid, calls)
        return cum[where]

    def cdf(self, xs):
        """``F(x) = #{y <= x} / count`` at each finite x of ``xs``; a non-finite x is a ``ValueError``."""
        xs = np.asarray(xs, dtype=float)
        if not np.all(np.isfinite(xs)):
            raise ValueError("F(x) needs finite x")
        return self.count_below(np.nextafter(xs, np.inf)) / self.count


def _cpus():
    """The number of CPUs this process may run on (every CPU where the platform keeps no affinity mask)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _count_calls(low, offsets, grid, calls):
    """The counts below ``grid`` of the :func:`_ranks` calls ``(s, e, lo, hi)``: offsets s..e-1 at grid points lo..hi-1.

    The calls are dealt round-robin to one worker per CPU, the first on this thread and each other on a
    thread of its own; numpy releases the GIL in the searches, gathers and compares of :func:`_ranks`.
    Each worker adds into its own int64 counts, summed in place, so the sum does not depend on the dealing.
    An exception of any worker is raised here, once every thread has ended.
    """
    workers = max(1, min(_cpus(), len(calls)))
    parts, errors = [None] * workers, []

    def work(w):
        try:
            part = np.zeros(len(grid), dtype=np.int64)
            for s, e, lo, hi in calls[w::workers]:
                part[lo:hi] += _ranks(low, offsets[s:e, None], grid[lo:hi]).sum(axis=0)
            parts[w] = part
        except BaseException as exc:  # raised on the calling thread below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    for part in parts[1:]:
        parts[0] += part
    return parts[0]


@np.errstate(invalid="ignore")
def _ranks(low, o, x):
    """``#{v in low : fl(o + v) < x}`` at each x, for ``low`` sorted with NaN last.

    ``o`` is a scalar, with one rank per x, or a column ``(B, 1)`` of offsets, with a row of ranks per
    offset. The predicate is monotone in v. The guess ``searchsorted(low, fl(x - o))`` can miss its
    first failing index by rounding (at o = 1, x = nextafter(1, 2), v = 1.5 * 2^-53 is below ``x - o``,
    but ``o + v`` rounds to x), so it steps over whole tie groups of ``low`` until the predicate holds
    below it and fails at it. A NaN ``x - o`` (a NaN o, or x and o the same infinity) has no value
    below x. Each fix-up first tests every threshold at once, with ``o`` and ``x`` broadcast, and then
    tests again only the thresholds it stepped, on the flat ranks: threshold i is the point
    ``x[i % len(x)]`` and the offset ``o[i // len(x)]``. No copy of ``x`` or ``o`` per threshold is formed.
    """
    t = x - o
    r = np.searchsorted(low, t, side="left")
    r[np.isnan(t)] = 0
    del t
    n, flat, offs, m = len(low), r.reshape(-1), np.ravel(o), len(x)
    i = np.flatnonzero((low[np.minimum(r, n - 1)] + o < x) & (r < n))
    while len(i):
        flat[i] = np.searchsorted(low, low[flat[i]], side="right")
        i = i[flat[i] < n]
        i = i[low[flat[i]] + offs[i // m] < x[i % m]]
    i = np.flatnonzero(~(low[np.maximum(r - 1, 0)] + o < x) & (r > 0))
    while len(i):
        flat[i] = np.searchsorted(low, low[flat[i] - 1], side="left")
        i = i[flat[i] > 0]
        i = i[~(low[flat[i] - 1] + offs[i // m] < x[i % m])]
    return r


def normal_cdf(x):
    """The standard normal CDF ``Phi(x) = erfc(-x / sqrt(2)) / 2``, elementwise."""
    t = np.negative(x) / math.sqrt(2)
    return 0.5 * np.fromiter(map(math.erfc, t.ravel().tolist()), float, t.size).reshape(t.shape)


@dataclass(frozen=True)
class KSResult:
    statistic: float
    uncertainty: float


def ks_distance(d):
    """``sup_x |F_n(x) - Phi(x)|`` against the standard normal CDF, by branch and bound over intervals of the value range.

    Over the sorted values ``y``, the value of rank ``i`` contributes
    ``Phi(y_i) - i/N`` and ``(i+1)/N - Phi(y_i)``. The values in an interval
    [a, b) have the ranks ``c_lo = C(a)`` to ``c_hi - 1 = C(b) - 1``, with
    ``C(x)`` the count below x (:meth:`EmpiricalDistribution.count_below`),
    so none of them contributes more than ``max(Phi(b) - c_lo/N, c_hi/N -
    Phi(a))``, and the first and the last contribute at least ``Phi(a) -
    c_lo/N`` and ``c_hi/N - Phi(b)``.

    In exact mode (:attr:`EmpiricalDistribution.exact`) intervals whose
    upper bound falls below the best lower bound are dropped, the others are
    cut finer until they hold at most ``KS_LEAF`` values, and those are
    gathered with their global ranks (:func:`_gather_leaves`); a run of them
    is evaluated point by point where its bound from its two ends reaches the
    best contribution. Every contribution is the same float expression as
    over the materialised sorted values, so the statistic is the same float,
    with uncertainty 0. Above that size the search stops
    after the first ``KS_BINS`` intervals: the statistic is the best lower
    bound, and the uncertainty how far the largest upper bound lies above it.
    """
    n = d.count
    # o + v is monotone in both, so every value is finite iff both ends are (np.min/max carry a NaN)
    lo = float(d.low[0]) + float(np.min(d.offsets))
    hi = float(d.low[-1]) + float(np.max(d.offsets))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise RuntimeError("KS distance: the spectrum holds a non-finite value")
    floor = -math.inf
    leaves = []
    # [lo, hi+) holds every value
    a, b, parts = np.array([lo]), np.array([np.nextafter(hi, np.inf)]), KS_BINS
    while len(a):
        x = _cut(a, b, parts)
        parts = KS_SPLIT
        count, phi = d.count_below(x).reshape(x.shape), normal_cdf(x)
        a, b, c_lo, c_hi = x[:, :-1].ravel(), x[:, 1:].ravel(), count[:, :-1].ravel(), count[:, 1:].ravel()
        phi_a, phi_b = phi[:, :-1].ravel(), phi[:, 1:].ravel()
        full = c_hi > c_lo
        upper = np.maximum(phi_b - c_lo / n, c_hi / n - phi_a)
        lower = float(np.max(np.maximum(phi_a - c_lo / n, c_hi / n - phi_b)[full], initial=-math.inf))
        if not d.exact:
            return KSResult(lower, float(np.max(upper[full])) - lower)
        floor = max(floor, lower - KS_SLACK)
        keep = full & (upper + KS_SLACK >= floor)
        # an interval whose midpoint (a cut point) is no new float cannot be cut further
        mid = 0.5 * a + 0.5 * b
        leaf = keep & ((c_hi - c_lo <= KS_LEAF) | (mid <= a) | (mid >= b))
        leaves.append(np.column_stack([a, b, c_lo, c_hi, upper])[leaf])
        cut = keep & ~leaf
        a, b = a[cut], b[cut]
    return KSResult(_gather_leaves(d, np.concatenate(leaves), floor), 0.0)


def _cut(a, b, parts):
    """Rows of ``parts + 1`` sorted points from ``a[k]`` to ``b[k]``; convex combinations, so nothing overflows."""
    t = np.arange(parts + 1) / parts
    return np.sort(np.clip(np.outer(a, 1 - t) + np.outer(b, t), a[:, None], b[:, None]), axis=1)


def _gather_leaves(d, leaves, floor):
    """The largest contribution of the values in the leaf intervals, rows ``(a, b, c_lo, c_hi, upper bound)``.

    Leaves are taken in order of falling upper bound, in batches of at most
    ``KS_BATCH`` values (one leaf at least), and dropped once their bound
    falls below the best contribution found. Per offset, :func:`_ranks` finds
    the index range of each leaf's values in ``low``, and only those are
    gathered; a batch is sorted, so each leaf's values are contiguous and
    their global ranks start at its ``c_lo``. Phi is taken at both ends
    ``s``, ``e`` of each run of ``KS_SPLIT`` sorted values; as Phi (up to
    ``KS_SLACK``) and the ranks do not fall, no value of the run contributes
    more than ``max(Phi(y_e) - r_s/N, (r_e+1)/N - Phi(y_s))``. The ends' own
    contributions raise the floor, and only runs whose bound reaches it get
    Phi at every other value.
    """
    n = d.count
    best = -math.inf
    leaves = leaves[np.argsort(-leaves[:, 4], kind="stable")]
    while True:
        leaves = leaves[leaves[:, 4] + KS_SLACK >= floor]
        if not len(leaves):
            return best
        sizes = (leaves[:, 3] - leaves[:, 2]).astype(np.int64)
        take = max(1, int(np.searchsorted(np.cumsum(sizes), KS_BATCH, side="right")))
        batch, leaves = leaves[:take], leaves[take:]
        batch = batch[np.argsort(batch[:, 0])]
        sizes = (batch[:, 3] - batch[:, 2]).astype(np.int64)
        parts = []
        for o in d.offsets:
            first, last = _ranks(d.low, o, batch[:, :2].ravel()).reshape(-1, 2).T
            size = last - first
            total = int(size.sum())
            if total:
                parts.append(d.low[np.repeat(first - (np.cumsum(size) - size), size) + np.arange(total)] + o)
        y = np.sort(np.concatenate(parts)) if parts else np.empty(0)
        if len(y) != sizes.sum():
            raise RuntimeError(f"exact KS distance: gathered {len(y)} values where the counts give {sizes.sum()}")
        rank = np.repeat(batch[:, 2] - (np.cumsum(sizes) - sizes), sizes) + np.arange(len(y))
        s = np.arange(0, len(y), KS_SPLIT)
        e = np.minimum(s + KS_SPLIT, len(y)) - 1
        phi_s, phi_e = normal_cdf(y[s]), normal_cdf(y[e])
        best = max(best, _largest(phi_s, rank[s], n), _largest(phi_e, rank[e], n))
        upper = np.maximum(phi_e - rank[s] / n, (rank[e] + 1) / n - phi_s)
        run = np.repeat(upper + KS_SLACK >= max(floor, best), KS_SPLIT)[:len(y)]
        run[s] = run[e] = False
        best = max(best, _largest(normal_cdf(y[run]), rank[run], n))
        floor = max(floor, best)


def _largest(cdf, rank, n):
    """The largest contribution ``max(Phi(y) - rank/N, (rank+1)/N - Phi(y))`` of values ``y``; -inf of none."""
    return float(max(np.max(cdf - rank / n, initial=-math.inf), np.max((rank + 1) / n - cdf, initial=-math.inf)))


def moments(d, k_max=MAX_MOMENT):
    """Raw moments ``m_k = (1/count) sum lambda^k`` for k = 1..k_max; a non-finite one is a ``RuntimeError``."""
    if k_max > MAX_MOMENT:
        raise ValueError(f"k_max limited to {MAX_MOMENT}")
    return _finite(d.power_sums[:k_max] / d.count)


def _finite(m):
    if not np.all(np.isfinite(m)):
        raise RuntimeError(f"spectral moments: m_{1 + np.flatnonzero(~np.isfinite(m))[0]} is not finite")
    return m


def _cumulants(m):
    """Cumulants kappa_1..kappa_k of the raw moments m_1..m_k."""
    m = [1.0, *m]
    kappa = [None]
    for j in range(1, len(m)):
        kappa.append(m[j] - sum(math.comb(j - 1, i - 1) * kappa[i] * m[j - i] for i in range(1, j)))
    return kappa[1:]


def _raw_moments(kappa):
    """Raw moments m_1..m_k of the cumulants kappa_1..kappa_k, by ``m_j = sum_i C(j-1, i-1) kappa_i m_{j-i}``."""
    kappa = [None, *kappa]
    m = [1.0]
    for j in range(1, len(kappa)):
        m.append(sum(math.comb(j - 1, i - 1) * kappa[i] * m[j - i] for i in range(1, j + 1)))
    return m[1:]


def _chain_spectrum(rows):
    """Eigenvalues of the open chain of the bond rows ``rows``, on its own ``len(rows) + 1`` sites."""
    return np.linalg.eigvalsh(open_chain(rows).to_dense())


def ring_moments(n, alpha, scaled):
    """Raw spectral moments m_1..m_MAX_MOMENT of the ring of ``bond_table(n, alpha, scaled)``, exact for n > MAX_MOMENT.

    ``alpha`` is the ring's bond table, as :func:`~spinchain.hamiltonians.bond_table` takes it. Under
    the trace state the k-th cumulant of a sum of bond terms is the sum of the connected parts of
    the clusters of at most k bonds (Hartmann, Mahler & Hess, Lett. Math. Phys. 68, 103 (2004)),
    and on a ring of n > k bonds the connected clusters are the arcs. By inclusion-exclusion over
    its sub-arcs, the arc [a, b] has the part ``J_k[a, b] = kappa_k[a, b] - kappa_k[a+1, b] -
    kappa_k[a, b-1] + kappa_k[a+1, b-1]``, with ``kappa_k[.]`` the cumulant of the open chain of
    those bonds (as in the numerical linked-cluster expansion of Rigol, Bryant & Singh, PRL 97,
    187202 (2006)). Summed over every arc of at most k bonds, the parts telescope to
    ``kappa_k(H) = sum_a kappa_k[a, a+k-1] - sum_a kappa_k[a, a+k-2]``: the windows of k and of
    k - 1 bonds that start at each bond a. kappa_1 = Tr H / 2^n is exactly 0, since no bond term
    is the identity.

    A window is the open chain of its table rows, solved by ``eigvalsh`` on at most MAX_MOMENT + 1
    sites; windows with the same rows are solved once, so an invariant ring takes one solve per
    window length. No ring is built, so n has no cap; n < 3 is refused by ``bond_table``, and
    n <= MAX_MOMENT, where a window would wrap the ring, is a ``ValueError``.
    """
    table = bond_table(n, alpha, scaled)
    if n <= MAX_MOMENT:
        raise ValueError(f"the window sum is exact for n > {MAX_MOMENT}, not n={n}")
    solved = {}

    def cumulants(rows):
        """kappa_1..kappa_MAX_MOMENT of the open chain of ``rows``; kappa_1 = Tr / 2^n is exactly 0."""
        key = rows.tobytes()
        if key not in solved:
            vals = _chain_spectrum(rows)
            solved[key] = _cumulants([0.0, *(power_sums(vals)[1:] / len(vals)).tolist()])
        return solved[key]

    # windows[b][a, k - 1] = kappa_k of the window of b bonds that starts at bond a
    windows = {b: np.array([cumulants(rows) for rows in table[(np.arange(n)[:, None] + np.arange(b)) % n]])
               for b in range(1, MAX_MOMENT + 1)}
    kappa = [0.0]
    for k in range(2, MAX_MOMENT + 1):
        terms = np.concatenate([windows[k][:, k - 1], -windows[k - 1][:, k - 1]])
        # fsum refuses inf - inf; an overflowed window is refused below, as a moment that is not finite
        kappa.append(math.fsum(terms) if np.all(np.isfinite(terms)) else math.nan)
    return _finite(np.array(_raw_moments(kappa)))


# ---------------------------------------------------------------------------
# Block/link decomposition of a nearest-neighbour ring


@dataclass(frozen=True)
class BlockLinkSplit:
    """The ``(n, 4, 3)`` bond table of a ring cut into blocks of l sites joined by link bonds.

    Bond j (table row j - 1) is a link iff ``j mod l == 0`` or j = n (the wrap bond plays the role
    of the zeroth link). Block k keeps the rows of bonds (k-1)l+1 .. min(kl, n)-1 and is their open
    chain on sites (k-1)l+1 .. min(kl, n). Blocks and links share no row and hold every row.
    """

    table: np.ndarray
    l: int

    @property
    def n(self):
        return len(self.table)

    @property
    def k_count(self):
        return -(-self.n // self.l)

    @property
    def blocks(self):
        """The table rows of each block: rows (k-1)l .. min(kl, n) - 2 of block k."""
        return tuple(self.table[k * self.l : min((k + 1) * self.l, self.n) - 1] for k in range(self.k_count))

    @property
    def link_rows(self):
        """Indices of the table rows of the link bonds."""
        j = np.arange(1, self.n + 1)
        return np.flatnonzero((j % self.l == 0) | (j == self.n))

    @cached_property
    def link_norm2(self):
        """``<L, L> = Tr(L^2) / 2^n`` of the links L, the sum of their squared rows."""
        return _norm2(self.table[self.link_rows])

    @cached_property
    def block_spectra(self):
        """Eigenvalues of each block on its own sites, the window solve of :func:`ring_moments`; scaled traces of the block are their means."""
        return [_chain_spectrum(rows) for rows in self.blocks]


def _norm2(rows):
    """``Tr(B^2) / 2^n`` of the bonds ``rows``, the sum of their squared coefficients."""
    return float(np.sum(np.square(rows)))


def block_link_split(table, l):
    """Split the ring of the ``(n, 4, 3)`` bond ``table`` into blocks of l sites and links (:class:`BlockLinkSplit`)."""
    if not 2 <= l <= len(table):
        raise ValueError(f"block length {l} out of range 2..{len(table)}")
    return BlockLinkSplit(table, l)


@dataclass(frozen=True)
class CltRow:
    t: float
    lhs: float
    rhs: float
    rhs_coeff_bound: float | None

    def passes(self):
        return self.lhs <= self.rhs + BOUND_SLACK


def clt_bound_check(split, eigenvalues, t_list, C=None):
    """Rows of ``|psi_n(t) - phi_n(t)| <= sqrt(t^2 <L, L>)`` per t, for the :func:`block_link_split` of H.

    ``psi_n`` comes from ``eigenvalues``, the full spectrum of H, ``phi_n``
    from the product of per-block characteristic functions.  When a
    coefficient bound C is recorded, the cruder bound
    ``sqrt(t^2 ceil(n/l) 12 C^2 / n)`` is also reported.
    """
    rows = []
    for t in t_list:
        t = float(t)
        psi = np.mean(np.exp(1j * t * eigenvalues))
        phi = 1.0 + 0j
        for vals in split.block_spectra:
            phi *= complex(np.mean(np.exp(1j * t * vals)))
        lhs = abs(psi - phi)
        rhs = float(np.sqrt(t**2 * split.link_norm2))
        coeff_bound = None
        if C is not None:
            coeff_bound = float(np.sqrt(t**2 * split.k_count * 12.0 * C**2 / split.n))
        rows.append(CltRow(t, float(lhs), rhs, coeff_bound))
    return rows


@dataclass(frozen=True)
class LyapunovReport:
    s_n2: float
    fourth_sum: float
    link_norm2: float
    genbound3_rhs: float | None


def lyapunov_quantities(split, C=None):
    """Block second/fourth trace moments entering the Lyapunov condition, for the :func:`block_link_split` of H.

    ``s_n^2 + <L, L> = <H, H>`` exactly (Parseval split over disjoint
    blocks); traces are computed on each block's window, never on the full
    2^n space.
    """
    s_n2 = sum(_norm2(rows) for rows in split.blocks)
    fourth = sum(float(np.mean(vals**4)) for vals in split.block_spectra)
    rhs = None
    if C is not None:
        n, l = split.n, split.l
        rhs = float(3**7 * 4**4 * C**4 * (l / n + l**2 / n**2))
    return LyapunovReport(s_n2, fourth, split.link_norm2, rhs)


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
