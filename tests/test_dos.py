import math
import statistics
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import ndtr

from spinchain.dos import (
    KS_SLACK,
    MAX_MOMENT,
    EmpiricalDistribution,
    KSResult,
    ba_prediction,
    ba_prediction_printed,
    block_link_split,
    clt_bound_check,
    double_factorial_odd,
    ks_distance,
    lyapunov_quantities,
    moments,
    normal_cdf,
    power_sums,
    ring_moments,
)
from spinchain import dos, free_fermion, parallel
from spinchain.free_fermion import mode_energies, spectrum_sum_set, sum_set_values
from spinchain.hamiltonians import (
    OperatorSum,
    ba_bond,
    bond_table,
    build_ba,
    build_exyz,
    normalize,
    ring,
    sample_random,
    sample_table,
)
from spinchain.spectra import diagonalize_dense
from spinchain.symmetry import is_invariant, joint_eigenbasis

from oracles import commutator_norm, exact_ks_distance, parseval_moments


def field_chain_values(n):
    """(1/sqrt(n)) sum_j Z_j spectrum: (n-2r)/sqrt(n) with binomial multiplicity."""
    vals = [(n - 2 * r) / math.sqrt(n) for r in range(n + 1)]
    mult = [math.comb(n, r) for r in range(n + 1)]
    return np.repeat(vals, mult)


def test_ks_single_value():
    d = EmpiricalDistribution.from_values([0.0])
    assert ks_distance(d).statistic == pytest.approx(0.5)


def test_ks_field_chain_matches_binomial_oracle():
    """Exact-mode KS equals the hand-computed binomial-vs-normal sup distance."""
    n = 20
    d = EmpiricalDistribution.from_values(field_chain_values(n))
    got = ks_distance(d).statistic

    # oracle: evaluate the sup over atoms from the binomial CDF directly
    atoms = sorted((n - 2 * r) / math.sqrt(n) for r in range(n + 1))
    cdf = 0.0
    best = 0.0
    for x in atoms:
        r = round((n - x * math.sqrt(n)) / 2)
        mass = math.comb(n, r) / 2.0**n
        best = max(best, abs(cdf - ndtr(x)), abs(cdf + mass - ndtr(x)))
        cdf += mass
    assert got == pytest.approx(best, abs=1e-12)
    assert got < 2.0 / math.sqrt(n)  # order n^-1/2


def test_ks_streaming_consistent_with_exact(monkeypatch):
    n, eps = 16, 0.5
    scale = 1.0 / math.sqrt(n * (1 + eps**2))
    d = EmpiricalDistribution.from_sum_set(*spectrum_sum_set(n, eps, scale=scale))
    exact = ks_distance(d)
    monkeypatch.setattr(dos, "EXACT_CAP", n - 1)  # the bracket of the first counting pass
    stream = ks_distance(d)
    assert exact.uncertainty == 0.0 < stream.uncertainty
    assert stream.statistic - KS_SLACK <= exact.statistic <= stream.statistic + stream.uncertainty + KS_SLACK


#: branch-and-bound sizes so small that a dozen values take every branch: cuts, leaves, intervals too
#: narrow to cut, and several batches
TINY_KS = {"KS_BINS": 4, "KS_SPLIT": 2, "KS_LEAF": 2, "KS_BATCH": 3}


def _tiny_ks(d):
    with pytest.MonkeyPatch.context() as mp:
        for name, value in TINY_KS.items():
            mp.setattr(dos, name, value)
        return ks_distance(d)


def _cut_points(lo, hi, rounds):
    """Every point the exact KS can cut the values in [lo, hi] at, in its first ``rounds`` rounds under TINY_KS."""
    a, b, parts = np.array([lo]), np.array([np.nextafter(hi, np.inf)]), TINY_KS["KS_BINS"]
    points = []
    for _ in range(rounds):
        x = dos._cut(a, b, parts)
        parts = TINY_KS["KS_SPLIT"]
        points.append(x.ravel())
        a, b = x[:, :-1].ravel(), x[:, 1:].ravel()
    points = np.unique(np.concatenate(points))
    return points[(points >= lo) & (points <= hi)]


#: a few values drawn again and again make heavy ties, also between different (o, v) pairs
TIED = st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 1.5])


@given(
    st.lists(st.one_of(TIED, st.floats(-4.0, 4.0)), min_size=1, max_size=12),
    st.lists(st.one_of(st.sampled_from([0.0, 0.5, -1.0]), st.floats(-1.0, 1.0)), min_size=1, max_size=4),
)
def test_exact_ks_of_sum_set_equals_oracle(values, offsets):
    """The exact KS of a small tied sum-set is the oracle's float, at the real and at tiny branch-and-bound sizes.

    Both sets are held sorted; the power sums are those of the sorted larger set and the offsets in their given order.
    """
    want = exact_ks_distance(sum_set_values(np.array(values), offsets))
    d = EmpiricalDistribution.from_sum_set(values, offsets)
    low, given = (values, offsets) if len(offsets) <= len(values) else (offsets, values)
    assert np.array_equal(d.low, np.sort(low)) and np.array_equal(d.offsets, np.sort(given))
    assert d.power_sums.tobytes() == power_sums(np.sort(low), given).tobytes()
    assert ks_distance(d) == KSResult(want, 0.0)
    assert _tiny_ks(d) == KSResult(want, 0.0)


@given(
    st.lists(st.one_of(TIED, st.floats(-4.0, 4.0)), min_size=1, max_size=12),
    st.lists(st.one_of(st.sampled_from([0.0, 0.5, -1.0]), st.floats(-1.0, 1.0)), min_size=1, max_size=4),
)
def test_ks_bracket_above_exact_cap_holds_oracle(values, offsets):
    """Above EXACT_CAP, ``[ks, ks + ks_uncertainty]`` holds the oracle's value, at the real and at tiny sizes."""
    want = exact_ks_distance(sum_set_values(np.array(values), offsets))
    d = EmpiricalDistribution.from_sum_set(values, offsets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dos, "EXACT_CAP", 0)  # only a single value is exact
        for ks in (ks_distance(d), _tiny_ks(d)):
            assert ks.statistic - KS_SLACK <= want <= ks.statistic + ks.uncertainty + KS_SLACK


def test_ks_refuses_nan_above_exact_cap(monkeypatch):
    """A NaN is a numerical failure at every size; the bracket does not absorb it into its uncertainty."""
    monkeypatch.setattr(dos, "EXACT_CAP", 1)
    d = EmpiricalDistribution.from_values([-2.0, np.nan, 0.0, 5.0])
    assert not d.exact
    with pytest.raises(RuntimeError, match="non-finite"):
        ks_distance(d)


def test_normal_cdf_matches_scipy_ndtr():
    """Phi to within 2.3e-16 of scipy's ``ndtr`` over [-40, 40]; the infinities map to 1 and 0, NaN to NaN."""
    x = np.concatenate([np.linspace(-40.0, 40.0, 800_001), np.linspace(-1.0, 1.0, 20_001)])
    assert np.max(np.abs(normal_cdf(x) - ndtr(x))) <= 2.3e-16
    assert normal_cdf(0.0) == 0.5
    assert list(normal_cdf([np.inf, -np.inf])) == [1.0, 0.0]
    assert np.isnan(normal_cdf(np.nan))


@given(
    st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=6),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 6)), min_size=1, max_size=8),
)
def test_exact_ks_with_values_on_cut_points_equals_oracle(base, picks):
    """Values placed exactly on the points the branch and bound cuts at, with ties, give the oracle's float."""
    points = _cut_points(min(base), max(base), 4)
    values = base + [float(points[i % len(points)]) for i, times in picks for _ in range(times)]
    assert _tiny_ks(EmpiricalDistribution.from_values(values)).statistic == exact_ks_distance(values)


def _exyz_distribution(n, eps):
    return EmpiricalDistribution.from_sum_set(*spectrum_sum_set(n, eps, scale=1.0 / math.sqrt(n * (1 + eps**2))))


@pytest.mark.parametrize(
    "n, eps", [(12, 0.5), (16, 0.5), (20, 0.5), (20, 0.27), (20, 0.98)],
    ids=["12", "16", "20", "20-eps0.27", "20-eps0.98"],
)
def test_exact_ks_of_exyz_sum_set_equals_oracle(n, eps):
    scale = 1.0 / math.sqrt(n * (1 + eps**2))
    d = _exyz_distribution(n, eps)
    assert ks_distance(d) == KSResult(exact_ks_distance(sum_set_values(*spectrum_sum_set(n, eps, scale=scale))), 0.0)


def test_exact_ks_of_normal_quantiles_equals_oracle():
    """Normal quantiles, whose values all contribute alike, so no run of gathered values can be skipped."""
    quantiles = statistics.NormalDist()
    values = [quantiles.inv_cdf((i + 0.5) / 4096) for i in range(4096)]
    want = KSResult(exact_ks_distance(values), 0.0)
    d = EmpiricalDistribution.from_values(values)
    assert ks_distance(d) == want
    assert _tiny_ks(d) == want


def test_exact_ks_takes_phi_only_where_the_sup_can_be(monkeypatch):
    """The exact KS of exyz n = 20 takes Phi of fewer than 100,000 points (of 2^20 values); Phi of every gathered
    value, with no bound over runs of them, takes over 300,000."""
    d = _exyz_distribution(20, 0.5)
    points = []
    monkeypatch.setattr(dos, "normal_cdf", lambda x: points.append(np.size(x)) or normal_cdf(x))
    assert ks_distance(d).uncertainty == 0.0
    assert sum(points) < 100_000


def test_exact_ks_of_degenerate_ba_spectrum_equals_oracle():
    vals = joint_eigenbasis(normalize(build_ba(0.5, 0.25, 8))).eigenvalues
    assert len(np.unique(vals)) < len(vals)  # exact ties across momentum sectors
    assert ks_distance(EmpiricalDistribution.from_values(vals)) == KSResult(exact_ks_distance(vals), 0.0)


@pytest.mark.parametrize(
    "low, offsets",
    [([0.0, np.nan], [0.0]), ([0.0, 1.0], [0.0, np.inf]), ([1e308, 0.0], [0.0, 1e308])],
    ids=["nan", "inf", "overflowing-sum"],
)
def test_exact_ks_refuses_non_finite_values(low, offsets):
    with np.errstate(all="ignore"):  # the power sums of these sets overflow or are NaN
        d = EmpiricalDistribution.from_sum_set(low, offsets)
    with pytest.raises(RuntimeError, match="non-finite"):
        ks_distance(d)


def test_exact_dos_report_allocates_no_spectrum_sized_array():
    """KS, moments and one F(x) of the n=22 exyz spectrum peak below one array of 2^22 floats."""
    import tracemalloc

    n, eps = 22, 0.5
    tracemalloc.start()
    try:
        d = EmpiricalDistribution.from_sum_set(*spectrum_sum_set(n, eps, scale=1.0 / math.sqrt(n * (1 + eps**2))))
        ks_distance(d)
        moments(d, 6)
        d.cdf([0.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d.exact
    assert peak < (1 << n) * 8


#: 4097 fixed grid points from -8 to 8; some test values lie on them
GRID = np.linspace(-8.0, 8.0, 4097)


def test_count_below_counts_every_value_once():
    d = EmpiricalDistribution.from_values([-2.0, -1.0, 0.0, 0.999, 1.0, 5.0])
    assert list(d.count_below(np.array([-np.inf, -2.0, -1.0, 1.0, 5.0, 6.0]))) == [0, 0, 1, 4, 5, 6]
    assert list(d.cdf([-3.0, -1.0, 1.0, 5.0])) == [0.0, 2 / 6, 5 / 6, 1.0]
    assert d.count == 6


def test_count_below_counts_no_nan():
    """A NaN lies below no grid point, not even +inf; ``inf + -inf`` is such a NaN too."""
    d = EmpiricalDistribution.from_values([-2.0, np.nan, 0.0, 5.0])
    assert list(d.count_below(np.array([-np.inf, 0.0, 1.0, np.inf]))) == [0, 1, 2, 3]
    assert d.count == 4

    sums = EmpiricalDistribution.from_sum_set([0.25, np.nan], [0.0, 0.5, np.nan])
    assert list(sums.count_below(np.array([0.5, 1.0, np.inf]))) == [1, 2, 2] and sums.count == 6

    # inf + -inf is NaN and lands in front of the unsorted block
    with np.errstate(invalid="ignore"):
        infs = EmpiricalDistribution.from_sum_set([-np.inf, 0.0, 2.0], [np.inf, -0.5])
        assert list(infs.count_below(np.array([-np.inf, 0.0, np.inf]))) == [0, 2, 3]
        assert list(infs.cdf([-1.0, 2.0])) == [1 / 6, 3 / 6]


@pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan])
def test_cdf_refuses_non_finite_x(x):
    """F(inf) would be read from the counts below the float after inf, which is inf itself."""
    d = EmpiricalDistribution.from_values([0.0, np.inf])
    with pytest.raises(ValueError, match="finite"):
        d.cdf([0.0, x])


def _materialised_counts(values, grid):
    """``#{y < x}`` at each x of ``grid``, by ``searchsorted`` of the materialised sorted values (NaN last)."""
    return np.searchsorted(np.sort(values), grid, side="left")


#: finite floats around the grid, the grid's ends and neighbouring points, and NaN and +-inf
SUM_SET_ELEMENTS = st.one_of(
    st.floats(-12.0, 12.0),
    st.sampled_from([-8.0, 8.0, 0.0, float(GRID[1]), float(GRID[-2]), np.nan, np.inf, -np.inf]),
)


@pytest.mark.parametrize("ranks_batch", [dos.RANKS_BATCH, 8], ids=["batch_default", "batch8"])
@pytest.mark.parametrize("cpus", [1, 3], ids=["cpus1", "cpus3"])
@given(
    st.lists(SUM_SET_ELEMENTS, min_size=1, max_size=7),
    st.lists(SUM_SET_ELEMENTS, min_size=1, max_size=7),
)
@example([-np.inf, 0.0, 2.0], [np.inf, -0.5])  # inf + -inf is NaN in front of the unsorted block
@example([1.0, 1.0, 1.0, 2.0, -np.inf, np.nan], [0.5, 0.5, 0.0, np.inf])  # tie groups of values and offsets
def test_count_below_of_sum_set_matches_materialised(cpus, ranks_batch, values, offsets):
    """``count_below`` and ``cdf`` of the sum-set equal ``searchsorted`` of its materialised sorted values.

    The grid holds every value of the sum-set (ties included), the fixed
    grid and the infinities; ``count_below`` also takes it shuffled, with
    every third point repeated, and ``cdf`` is read at its finite points. The
    counting kernel sees 1 or 3 CPUs, and a batch cap of 8 thresholds cuts
    the grid ranges into many calls, dealt to several threads.
    """
    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):  # inf + -inf
        mp.setattr(parallel, "cpus", lambda: cpus)
        mp.setattr(dos, "RANKS_BATCH", ranks_batch)
        d = EmpiricalDistribution.from_sum_set(values, offsets)
        x = sum_set_values(np.array(values), offsets)
        grid = np.unique(np.concatenate([x[~np.isnan(x)], GRID, [-np.inf, np.inf]]))
        finite = grid[np.isfinite(grid)]
        assert np.array_equal(d.count_below(grid), _materialised_counts(x, grid))
        points = np.random.default_rng(len(grid)).permutation(np.concatenate([grid, grid[::3]]))
        assert np.array_equal(d.count_below(points), _materialised_counts(x, points))
        assert np.array_equal(d.cdf(finite), np.searchsorted(np.sort(x), finite, side="right") / len(x))
    assert d.count == len(values) * len(offsets)


def test_ranks_step_over_the_guess_where_the_threshold_rounds_wrong():
    """Counts where ``v < fl(x - o)`` and ``fl(o + v) < x`` disagree both ways, with ties and a huge offset.

    At o = 1 and x = nextafter(1, 2), v = 1.5 * 2^-53 is below ``x - o`` =
    2^-52, but ``1 + v`` rounds up to x: the guess counts one too many. At
    x = 2^-54, ``x - 1`` rounds to -1, so v = -1 is not below it, but
    ``1 + v`` = 0 is below x: the guess counts one too few. At o = 2^60 one
    ulp of the sum is 256, so 256 of the integer values round to each sum,
    and the guess is off by about 128 tie groups.
    """
    eps = 2.0**-53
    x1 = np.nextafter(1.0, 2.0)
    small = np.repeat([-1.0 - 2 * eps, -1.0, -1.0 + eps, -eps, 0.0, 0.5 * eps, eps, 1.5 * eps, 2 * eps, 3 * eps],
                      [1, 3, 2, 1, 3, 2, 4, 3, 2, 1])
    wide = np.repeat(np.arange(-600.0, 600.0), 2)
    under = over = 0
    for values, offsets in ((small, [1.0, 0.0, -1.0, x1]), (wide, [2.0**60, -(2.0**60), 0.0, 1e300])):
        d = EmpiricalDistribution.from_sum_set(values.copy(), offsets)
        x = sum_set_values(values, offsets)
        grid = np.unique(np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf), [x1, 2.0**-54]]))
        assert np.array_equal(d.count_below(grid), _materialised_counts(x, grid))
        for o in offsets:
            want = _materialised_counts(d.low + o, grid)
            assert np.array_equal(dos._ranks(d.low, o, grid), want)
            guess = np.searchsorted(d.low, grid - o)
            under += int(np.sum(guess < want))
            over += int(np.sum(guess > want))
        # a column of offsets gives the scalar call's ranks in each row; NaN and inf count nothing
        column = np.array([*offsets, np.nan, np.inf])
        rows = dos._ranks(d.low, column[:, None], grid)
        assert rows.shape == (len(column), len(grid)) and not np.any(rows[-2:])
        for o, row in zip(column, rows):
            assert np.array_equal(row, dos._ranks(d.low, o, grid))
    assert under and over  # the guess alone is wrong in both directions


def test_count_below_searches_each_distinct_value_and_offset_once(monkeypatch):
    """At exyz n = 20 the mirror-paired mode energies make the 2^18 values of ``low`` only 56,970 distinct ones.
    Each :func:`dos._ranks` call of ``count_below`` searches those, strictly increasing, at offsets with no repeat
    (also where the offsets repeat), and the 4097 counts are those of the 2^20 materialised values."""
    ranks, seen = dos._ranks, []

    def recorded(low, o, x):
        seen.append((low, np.ravel(o)))
        return ranks(low, o, x)

    monkeypatch.setattr(dos, "_ranks", recorded)
    d = _exyz_distribution(20, 0.5)
    assert np.array_equal(d.count_below(GRID), _materialised_counts(sum_set_values(d.low, d.offsets), GRID))
    assert seen and all(np.array_equal(low, np.unique(d.low)) for low, _ in seen)
    assert len(seen[0][0]) == 56_970 < len(d.low) == 1 << 18 and np.all(np.diff(seen[0][0]) > 0)
    tied = EmpiricalDistribution.from_sum_set(np.arange(8.0), [0.5, 0.0, 0.5, 0.5])
    assert list(tied.count_below(np.array([0.5, 1.0, 9.0]))) == [1, 4, 32]
    assert all(np.all(np.diff(o) > 0) for _, o in seen) and np.array_equal(seen[-1][1], [0.0, 0.5])


def test_count_below_raises_the_error_of_a_worker_thread(monkeypatch):
    """An exception in a counting thread reaches the caller of ``count_below``, after every thread has ended."""
    ranks = dos._ranks

    def fails_off_the_main_thread(low, o, x):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("worker")
        return ranks(low, o, x)

    monkeypatch.setattr(dos, "_ranks", fails_off_the_main_thread)
    monkeypatch.setattr(parallel, "cpus", lambda: 3)
    monkeypatch.setattr(dos, "RANKS_BATCH", 64)
    d = EmpiricalDistribution.from_sum_set(np.arange(100.0), np.arange(4.0))
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match="worker"):
        d.count_below(GRID)
    assert threading.active_count() == threads


def test_ranks_calls_stay_within_the_batch_cap(monkeypatch):
    """No :func:`dos._ranks` call of an exact KS distance and a long ``cdf`` takes more than ``RANKS_BATCH`` thresholds.

    With 2^12 low values, 256 offsets are batched several to a call, and the
    40001 points of the ``cdf`` give single offsets grid ranges longer than
    the cap, which are cut along the grid.
    """
    monkeypatch.setattr(free_fermion, "CHUNK_BITS", 12)
    ranks, sizes = dos._ranks, []

    def recorded(low, o, x):
        sizes.append((np.size(o), len(x)))
        return ranks(low, o, x)

    monkeypatch.setattr(dos, "_ranks", recorded)
    n, eps = 20, 0.5
    d = EmpiricalDistribution.from_sum_set(*spectrum_sum_set(n, eps, scale=1.0 / math.sqrt(n * (1 + eps**2))))
    assert d.exact and len(d.offsets) == 256
    ks = ks_distance(d)
    xs = np.linspace(-4.0, 4.0, 40001)
    values = np.sort(sum_set_values(d.low, d.offsets))
    assert np.array_equal(d.cdf(xs), np.searchsorted(values, xs, side="right") / d.count)
    assert ks == KSResult(exact_ks_distance(values), 0.0)
    assert max(b * m for b, m in sizes) <= dos.RANKS_BATCH
    assert max(b for b, _ in sizes) > 1 and max(m for _, m in sizes) == dos.RANKS_BATCH


@given(
    st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=7),
    st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=7),
)
def test_power_sums_of_sum_set_match_materialised(values, offsets):
    """Binomial power sums equal the direct ones to 1e-12 of ``sum (|o| + |v|)^k``, their rounding scale."""
    got = power_sums(values, offsets)
    x = sum_set_values(np.array(values), offsets)
    size = sum_set_values(np.abs(values), np.abs(offsets))
    for k in range(1, MAX_MOMENT + 1):
        assert abs(got[k - 1] - np.sum(x**k)) <= 1e-12 * max(np.sum(size**k), 1e-300), k


@pytest.mark.parametrize("chunk_bits", [3, 9, 16, 18])
def test_sum_set_histogram_matches_np_histogram(monkeypatch, chunk_bits):
    """Counts below each point of GRID, and the bin counts between them, equal those of the materialised values."""
    monkeypatch.setattr(free_fermion, "CHUNK_BITS", chunk_bits)
    # the narrow ranges put values below and above the grid; at eps=0, scale=1/2 every value
    # is an integer and lies exactly on a grid point
    for eps, scale in ((0.6, 3.2 / math.sqrt(20 * (1 + 0.6**2))), (0.0, 0.5)):
        d = EmpiricalDistribution.from_sum_set(*spectrum_sum_set(20, eps, scale=scale))
        values = sum_set_values(d.low, d.offsets)
        cum = d.count_below(GRID)
        assert np.array_equal(cum, _materialised_counts(values, GRID))
        inside = (values >= GRID[0]) & (values < GRID[-1])
        assert np.array_equal(np.diff(cum), np.histogram(values[inside], bins=GRID)[0])
        assert cum[0] == int(np.sum(values < -8.0)) > 0
        assert d.count - cum[-1] == int(np.sum(values >= 8.0)) > 0 and d.count == 1 << 20
        if eps == 0.0:
            assert np.all(np.isin(values[inside], GRID)) and d.count - cum[-1] == int(np.sum(values > 7.5))


@pytest.mark.parametrize("chunk_bits", [3, 9, 16, 18])
def test_sum_set_power_sums_match_collected(monkeypatch, chunk_bits):
    monkeypatch.setattr(free_fermion, "CHUNK_BITS", chunk_bits)
    n, eps = 20, 0.6
    low, offsets = spectrum_sum_set(n, eps, scale=1.0 / math.sqrt(n * (1 + eps**2)))
    got = power_sums(low, offsets)
    values = sum_set_values(low, offsets)
    want = EmpiricalDistribution.from_values(values).power_sums
    # odd power sums are ~0, so the scale is the sum of |value|^k
    scale = np.array([np.sum(np.abs(values) ** k) for k in range(1, MAX_MOMENT + 1)])
    assert len(low) * len(offsets) == 1 << 20
    assert np.max(np.abs(got - want) / scale) < 1e-12


def test_streamed_moments_match_rademacher_cumulants_n28():
    """m1..m6 of sum_j (+-delta_j) at n=28, streamed, against its exact cumulants.

    The values are ``c sum_j s_j delta_j`` with independent uniform signs, so
    the 2r-th cumulant is ``kappa_2r(Rademacher) c^2r sum_j delta_j^2r`` with
    Rademacher cumulants 1, -2, 16; odd cumulants vanish.
    """
    n, eps = 28, 0.5
    scale = 1.0 / math.sqrt(n * (1 + eps**2))
    low, offsets = spectrum_sum_set(n, eps, scale=scale)
    assert len(low) * len(offsets) == 1 << n
    delta = mode_energies(n, eps).delta * scale
    kappa = {2 * r: c * float(np.sum(delta ** (2 * r))) for r, c in ((1, 1), (2, -2), (3, 16))}
    m = [1.0]
    for k in range(1, 7):
        m.append(sum(math.comb(k - 1, j - 1) * kappa.get(j, 0.0) * m[k - j] for j in range(1, k + 1)))
    got = power_sums(low, offsets) / (1 << n)
    for k in (2, 4, 6):
        assert got[k - 1] == pytest.approx(m[k], rel=1e-12), k
    for k in (1, 3, 5):
        assert abs(got[k - 1]) < 1e-12 * m[k + 1], k


def test_moments_field_chain():
    d = EmpiricalDistribution.from_values(np.repeat([2.0, 1.0, 0.0, -1.0, -2.0], [1, 4, 6, 4, 1]))
    m = moments(d, 4)
    assert m[3] == pytest.approx(2.5)


def random_ring(kind, seed):
    """``n -> (sample_random(kind, n, seed), its bond table, scaled)``; the table is ``sample_table``'s, already scaled."""
    def random(n):
        table = sample_table(kind, n, seed)
        return ring(table), table, False
    return random


def exyz_ring(eps):
    return lambda n: (build_exyz(eps, n), exyz_bond(eps), False)


def exyz_bond(eps):
    return np.array([[0.0, 0.0, 1.0], [0.0, eps, 0.0], [0.0] * 3, [0.0] * 3])


RINGS = [pytest.param(lambda n, a=a: (build_ba(*a, n), ba_bond(*a), True), id=f"ba{a}")
         for a in ((0.0, 0.0), (0.5, 0.5), (0.25, 1.0), (1.0, 0.25), (0.7139, 0.3311))]
RINGS += [pytest.param(random_ring("invariant", s), id=f"invariant{s}") for s in range(5)]
RINGS += [pytest.param(random_ring(kind, s), id=f"{kind}{s}") for kind in ("nn", "pair_only") for s in range(2)]
RINGS += [pytest.param(exyz_ring(eps), id=f"exyz{eps}") for eps in (0.5, 1.3)]


def even_moment_scale(m):
    """An upper bound of ``<|lambda|^k>`` from the even moments: m_k for even k, sqrt(m_{k-1} m_{k+1}) for odd k."""
    even = np.concatenate([[1.0], m[1::2]])
    return np.array([m[k - 1] if k % 2 == 0 else math.sqrt(even[k // 2] * even[k // 2 + 1]) for k in range(1, MAX_MOMENT + 1)])


@pytest.mark.parametrize("ring", RINGS)
def test_extensive_moments_match_sector_ed(ring):
    """The window sum gives m1..m6 of the solved spectrum at n = 7 (the first size it takes) to 13.

    The moments of a translation-invariant ring come from its sector spectrum. A site-dependent
    ring is solved densely up to n = 10; above, a dense solve would form a 2^n x 2^n complex
    matrix of 64 MiB and more, and its moments come from the Pauli expansions of H, H^2 and H^3.
    Odd moments may vanish, so each is held to 1e-12 of ``sqrt(m_{k-1} m_{k+1})``, at least
    ``<|lambda|^k>``; an even moment is held to 1e-12 of itself.
    """
    for n in range(MAX_MOMENT + 1, 14):
        h, alpha, scaled = ring(n)
        got = ring_moments(n, alpha, scaled)
        if is_invariant(h) or n <= 10:
            want = moments(EmpiricalDistribution.from_values(joint_eigenbasis(h).eigenvalues))
        else:
            want = parseval_moments(h)
        assert np.all(np.abs(got - want) <= 1e-12 * even_moment_scale(want)), n


def test_parseval_moments_match_dense_ed():
    """The Pauli-expansion moments of the oracle equal those of a dense solve, on rings small enough for one."""
    for kind in ("nn", "pair_only", "invariant"):
        for n in (3, 5, 8):
            h = sample_random(kind, n, 1)
            vals = np.linalg.eigvalsh(h.to_dense())
            scale = np.array([np.mean(np.abs(vals) ** k) for k in range(1, MAX_MOMENT + 1)])
            want = moments(EmpiricalDistribution.from_values(vals))
            assert np.all(np.abs(parseval_moments(h) - want) <= 1e-12 * scale), (kind, n)


def test_extensive_moments_of_field_ring_at_large_n():
    """``(1/sqrt(n)) sum_j Z_j``, one bond row, has the binomial spectrum (n - 2r)/sqrt(n); its moments are exact sums at any n."""
    field = np.zeros((4, 3))
    field[0, 2] = 1.0  # a = 0, right factor Z: Z_{j+1} alone
    for n in (9, 50, 1000):
        got = ring_moments(n, field, scaled=True)
        want = [sum(math.comb(n, r) * (n - 2 * r) ** k for r in range(n + 1)) / (2**n * n ** (k // 2))
                / (math.sqrt(n) if k % 2 else 1) for k in range(1, MAX_MOMENT + 1)]
        assert got[1::2] == pytest.approx(want[1::2], rel=1e-12)
        assert np.all(np.abs(got[0::2]) <= 1e-12 * np.array(want[1::2])), n


@pytest.mark.parametrize("n", [7, 50, 1000])
def test_ring_moments_of_exyz_match_its_mode_energies(n):
    """``sum_j (eps X_j Y_{j+1} + Z_j)`` has the spectrum ``sum_j (+-delta_j)``, every sign pattern once.

    So its 2r-th cumulant is the coin cumulant 1, -2, 16 (r = 1, 2, 3) times ``sum_j delta_j^2r``,
    and its odd cumulants vanish.
    """
    eps = 0.5
    delta = mode_energies(n, eps).delta
    kappa = [0.0 if k % 2 else c * math.fsum(delta**k) for k, c in zip(range(1, 7), (0, 1, 0, -2, 0, 16))]
    want = np.array(dos._raw_moments(kappa))
    got = ring_moments(n, exyz_bond(eps), scaled=False)
    assert got[1::2] == pytest.approx(want[1::2], rel=1e-12)
    assert np.all(np.abs(got[0::2]) <= 1e-12 * even_moment_scale(want)[0::2])


def test_ring_moments_solve_each_window_of_an_invariant_ring_once(monkeypatch):
    """An invariant ring takes one solve per window length, 1..MAX_MOMENT bonds, at any n."""
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        solves.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    ring_moments(1000, ba_bond(0.5, 0.5), scaled=True)
    assert sorted(solves) == [1 << (bonds + 1) for bonds in range(1, MAX_MOMENT + 1)]


@pytest.mark.parametrize("n", [-1, 2, MAX_MOMENT])
def test_ring_moments_refuse_rings_a_window_would_wrap(n):
    with pytest.raises(ValueError, match="ring builders need n >= 3|exact for n > 6"):
        ring_moments(n, ba_bond(0.5, 0.5), scaled=True)


def test_moments_refuse_overflowed_power_sums():
    """Power sums of values near 1e154 overflow to inf and NaN without a warning; the moments refuse them."""
    d = EmpiricalDistribution.from_sum_set([1e154, -1e154], [0.0, 2e154])
    assert not np.all(np.isfinite(d.power_sums))
    assert list(moments(d, 1)) == [1e154]
    with pytest.raises(RuntimeError, match="m_2 is not finite"):
        moments(d, 6)


def test_moments_normalized_builders_unit_second_moment():
    for kind in ("nn", "invariant", "pair_only"):
        h = normalize(sample_random(kind, 8, 0))
        e = diagonalize_dense(h, want_vectors=False)
        m = moments(EmpiricalDistribution.from_values(e.eigenvalues), 2)
        assert abs(m[1] - 1.0) < 1e-10, kind


def test_normal_reference_moments():
    assert [double_factorial_odd(k) for k in (1, 2, 3)] == [1, 3, 15]


def unit_table(n, seed):
    """``sample_table("nn", n, seed)`` scaled to unit ``Tr(H^2) / 2^n``, the sum of its squares."""
    table = sample_table("nn", n, seed)
    return table / np.sqrt(np.sum(table**2))


def embedded(split, k):
    """The ring of a zero n-row table that holds block k's rows (k = 0..k_count-1) or the link rows (k = None) at their places."""
    table = np.zeros((split.n, 4, 3))
    if k is None:
        table[split.link_rows] = split.table[split.link_rows]
    else:
        table[k * split.l : k * split.l + len(split.blocks[k])] = split.blocks[k]
    return ring(table)


def test_block_link_split_n6_l3():
    split = block_link_split(sample_table("nn", 6, 1), 3)
    assert split.k_count == 2
    # link bonds 3 and 6 carry 12 random terms each
    assert list(split.link_rows) == [2, 5]
    assert embedded(split, None).num_terms == 24
    # block k acts on every site of its window, sites 3k-2 .. 3k, and on no other
    for k, window in enumerate((0b111000, 0b000111)):
        b = embedded(split, k)
        support = np.bitwise_or.reduce(b.xs | b.zs)
        assert support == window


def test_block_link_split_n5_l2():
    split = block_link_split(sample_table("nn", 5, 1), 2)
    assert split.k_count == 3
    link_bonds = {2, 4, 5}
    assert set(split.link_rows + 1) == link_bonds
    assert embedded(split, None).num_terms == 12 * len(link_bonds)


def test_blocks_commute_pairwise():
    split = block_link_split(sample_table("nn", 6, 2), 2)
    for i in range(split.k_count):
        for j in range(i + 1, split.k_count):
            assert commutator_norm(embedded(split, i), embedded(split, j)) < 1e-12


@given(nl=st.integers(3, 10).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n))),
       seed=st.integers(0, 2**32 - 1))
def test_split_reassembles_random_rings_term_for_term(nl, seed):
    """Every row of a random nn table lands in exactly one block or the links, and the rings of the parts,
    each embedded in a zero table of n rows, sum to the ring of the table term for term."""
    n, l = nl
    table = sample_table("nn", n, seed)
    split = block_link_split(table, l)
    placed = [k * l + i for k, rows in enumerate(split.blocks) for i in range(len(rows))] + list(split.link_rows)
    assert sorted(placed) == list(range(n))
    total = OperatorSum.zero(n)
    for k in [*range(split.k_count), None]:
        total = total + embedded(split, k)
    assert (total - ring(table)).num_terms == 0


@pytest.mark.parametrize("n", range(3, 9))
def test_block_spectra_equal_the_dense_spectra_of_the_embedded_blocks(n):
    """Block k's spectrum on its w = min(kl, n) - (k-1)l sites, each value 2^(n-w) times, is that of the block on all n sites."""
    table = sample_table("nn", n, n)
    for l in range(2, n + 1):
        split = block_link_split(table, l)
        assert len(split.block_spectra) == split.k_count == -(-n // l)
        for k, vals in enumerate(split.block_spectra):
            w = min((k + 1) * l, n) - k * l
            want = np.linalg.eigvalsh(embedded(split, k).to_dense())
            assert np.max(np.abs(np.sort(np.repeat(vals, 1 << (n - w))) - want)) < 1e-12, (l, k)


def test_clt_rows_t_zero_and_positive():
    table = unit_table(8, 0)
    rows = clt_bound_check(block_link_split(table, 2), joint_eigenbasis(ring(table)).eigenvalues, [0.0, 0.5, 1.0])
    assert rows[0].lhs == pytest.approx(0.0, abs=1e-12)
    for row in rows:
        assert row.passes()


def open_chain(n, seed):
    """A random nn table, scaled to unit norm, whose wrap row (bond n, 1) and single-site (a=0) rows are zero: a chain of two-site terms."""
    table = np.random.default_rng(seed).standard_normal((n, 4, 3))
    table[n - 1] = 0.0
    table[:, 0, :] = 0.0
    return table / np.sqrt(np.sum(table**2))


def test_clt_single_block_open_chain():
    """An open chain inside one block has L = 0, so lhs vanishes for all t."""
    n = 5
    table = open_chain(n, 4)
    split = block_link_split(table, n)
    assert split.link_norm2 == 0.0
    rows = clt_bound_check(split, joint_eigenbasis(ring(table)).eigenvalues, [0.5, 1.0, 2.0])
    for row in rows:
        assert row.lhs < 1e-9 and row.rhs < 1e-12


def test_clt_random_sample_passes():
    table = unit_table(10, 5)
    for row in clt_bound_check(block_link_split(table, 3), joint_eigenbasis(ring(table)).eigenvalues, [0.5, 1.0, 2.0]):
        assert row.passes()


def test_lyapunov_parseval_split():
    table = unit_table(8, 6)
    for l in (2, 3, 4):
        rep = lyapunov_quantities(block_link_split(table, l))
        assert abs(rep.s_n2 + rep.link_norm2 - 1.0) < 1e-10


def test_lyapunov_single_block():
    n = 5
    table = open_chain(n, 7)
    rep = lyapunov_quantities(block_link_split(table, n))
    assert rep.s_n2 == pytest.approx(1.0)
    e = diagonalize_dense(ring(table), want_vectors=False)
    m4 = float(np.mean(e.eigenvalues**4))
    assert rep.fourth_sum == pytest.approx(m4, abs=1e-10)


def test_lyapunov_ising_bound():
    alpha = np.zeros((8, 4, 3))
    alpha[:, 3, 2] = 1.0
    rep = lyapunov_quantities(block_link_split(bond_table(8, alpha, scaled=True), 4), C=1.0)
    assert rep.fourth_sum <= rep.genbound3_rhs


def test_ba_predictions():
    assert [ba_prediction(0.0, 0.0, k) for k in (1, 2, 3)] == [1, 3, 15]
    assert ba_prediction(0.5, 0.5, 1) == pytest.approx(1.5)
    assert ba_prediction(0.5, 0.5, 2) == pytest.approx(6.75)
    # published reading, reported verbatim alongside
    assert ba_prediction_printed(0.5, 0.5, 1) == pytest.approx(1.5**2 * 1.0)
    assert ba_prediction_printed(0.5, 0.5, 2) == pytest.approx(1.5**4 * 3.0)
