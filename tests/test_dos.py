import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import ndtr

from spinchain.dos import (
    EDGES,
    MAX_MOMENT,
    BlockLinkSplit,
    EmpiricalDistribution,
    Histogram,
    ba_prediction,
    ba_prediction_printed,
    block_link_split,
    characteristic_fn,
    clt_bound_check,
    double_factorial_odd,
    geometry_conditions,
    ks_distance,
    lyapunov_quantities,
    moments,
    power_sums,
)
from spinchain import free_fermion
from spinchain.free_fermion import collect_spectrum, mode_energies, spectrum_sum_set, sum_set_values
from spinchain.hamiltonians import (
    InteractionGraph,
    build_general,
    hs_inner,
    normalize,
    sample_random,
)
from spinchain.pauli import PauliString
from spinchain.spectra import commutator_norm, diagonalize_dense


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


def test_ks_streaming_consistent_with_exact():
    n, eps = 16, 0.5
    scale = 1.0 / math.sqrt(n * (1 + eps**2))
    exact = ks_distance(EmpiricalDistribution.from_values(collect_spectrum(n, eps, scale=scale)))
    stream = ks_distance(EmpiricalDistribution.from_sum_set(*spectrum_sum_set(n, eps, scale=scale)))
    assert abs(stream.statistic - exact.statistic) <= stream.uncertainty + 1e-12


# the inputs below are scaled by 8 onto EDGES: [-1, 1) in 8 bins becomes [-8, 8) in 4096


def test_histogram_counts_every_value_once():
    hist = Histogram.of(8.0 * np.array([-2.0, -1.0, 0.0, 0.999, 1.0, 5.0]))
    assert hist.count == 6
    assert hist.below == 1 and hist.above == 2


def test_histogram_counts_nan_once():
    """A NaN is neither in range, below nor above; it is counted once, as NaN."""
    values = 8.0 * np.array([-2.0, np.nan, 0.0, 5.0])
    d = EmpiricalDistribution.from_sum_set(values, (0.0,))
    hist = d.histogram
    assert hist.nan == 1 and hist.below == 1 and hist.above == 1 and int(hist.counts.sum()) == 1
    assert hist.count == d.count == 4
    ks = ks_distance(d)
    assert ks.uncertainty == pytest.approx(1.0)  # max bin 1 + below 1 + above 1 + NaN 1 of 4

    sums = Histogram.of(8.0 * np.array([0.25, np.nan]), offsets=8.0 * np.array([0.0, 0.5, np.nan]))
    assert sums.nan == 4 and int(sums.counts.sum()) == 2 and sums.count == 6

    # inf + -inf is NaN and lands in front of the sorted block
    with np.errstate(invalid="ignore"):
        infs = Histogram.of(8.0 * np.array([-np.inf, 0.0, 2.0]), offsets=8.0 * np.array([np.inf, -0.5]))
    assert (infs.nan, infs.below, infs.above, int(infs.counts.sum())) == (1, 1, 3, 1)


def _materialised_histogram(values):
    """``Histogram`` fields of an explicit value array, from ``np.histogram`` of its in-range part."""
    inside = (values >= EDGES[0]) & (values < EDGES[-1])
    counts, _ = np.histogram(values[inside], bins=EDGES)
    nan = int(np.sum(np.isnan(values)))
    return counts, int(np.sum(values < EDGES[0])), int(np.sum(values >= EDGES[-1])), nan


#: finite floats around the histogram range, the range's ends, and NaN and +-inf
SUM_SET_ELEMENTS = st.one_of(
    st.floats(-12.0, 12.0),
    st.sampled_from([-8.0, 8.0, 0.0, float(EDGES[1]), float(EDGES[-2]), np.nan, np.inf, -np.inf]),
)


@given(
    st.lists(SUM_SET_ELEMENTS, min_size=1, max_size=7),
    st.lists(SUM_SET_ELEMENTS, min_size=1, max_size=7),
)
@example([-np.inf, 0.0, 2.0], [np.inf, -0.5])  # inf + -inf is NaN in front of the sorted block
def test_histogram_of_sum_set_matches_materialised(values, offsets):
    """Counts, below, above and NaN of the sum-set equal those of its materialised values."""
    with np.errstate(invalid="ignore"):
        hist = Histogram.of(values, offsets)
        want = _materialised_histogram(sum_set_values(np.array(values), offsets))
    assert np.array_equal(hist.counts, want[0])
    assert (hist.below, hist.above, hist.nan) == want[1:]
    assert hist.count == len(values) * len(offsets)


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


@pytest.mark.parametrize("chunk_bits", [3, 9, 16])
def test_sum_set_histogram_matches_np_histogram(monkeypatch, chunk_bits):
    """Counts, below and above of the sum-set equal np.histogram of the materialised values."""
    monkeypatch.setattr(free_fermion, "CHUNK_BITS", chunk_bits)
    # the narrow ranges make below/above nonzero; at eps=0, scale=1/2 every value
    # is an integer and lies exactly on a bin edge
    for eps, scale in ((0.6, 3.2 / math.sqrt(20 * (1 + 0.6**2))), (0.0, 0.5)):
        low, offsets = spectrum_sum_set(20, eps, scale=scale)
        hist = Histogram.of(low, offsets)
        values = sum_set_values(low, offsets)
        counts, below, above, nan = _materialised_histogram(values)
        assert np.array_equal(hist.counts, counts)
        assert hist.below == below > 0
        assert hist.above == above > 0
        assert hist.nan == nan == 0 and hist.count == 1 << 20
        if eps == 0.0:
            inside = (values >= EDGES[0]) & (values < EDGES[-1])
            assert np.all(np.isin(values[inside], EDGES)) and hist.above == int(np.sum(values > 7.5))


@pytest.mark.parametrize("chunk_bits", [3, 9, 16])
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
    """m2..m8 of sum_j (+-delta_j) at n=28, streamed, against its exact cumulants.

    The values are ``c sum_j s_j delta_j`` with independent uniform signs, so
    the 2r-th cumulant is ``kappa_2r(Rademacher) c^2r sum_j delta_j^2r`` with
    Rademacher cumulants 1, -2, 16, -272; odd cumulants vanish.
    """
    n, eps = 28, 0.5
    scale = 1.0 / math.sqrt(n * (1 + eps**2))
    low, offsets = spectrum_sum_set(n, eps, scale=scale)
    assert len(low) * len(offsets) == 1 << n
    delta = mode_energies(n, eps).delta * scale
    kappa = {2 * r: c * float(np.sum(delta ** (2 * r))) for r, c in ((1, 1), (2, -2), (3, 16), (4, -272))}
    m = [1.0]
    for k in range(1, 9):
        m.append(sum(math.comb(k - 1, j - 1) * kappa.get(j, 0.0) * m[k - j] for j in range(1, k + 1)))
    got = power_sums(low, offsets) / (1 << n)
    for k in (2, 4, 6, 8):
        assert got[k - 1] == pytest.approx(m[k], rel=1e-12), k
    for k in (1, 3, 5, 7):
        assert abs(got[k - 1]) < 1e-12 * m[k + 1], k


def test_moments_field_chain():
    d = EmpiricalDistribution.from_values(np.repeat([2.0, 1.0, 0.0, -1.0, -2.0], [1, 4, 6, 4, 1]))
    m = moments(d, 4)
    assert m[3] == pytest.approx(2.5)


def test_moments_normalized_builders_unit_second_moment():
    for kind in ("nn", "invariant", "pair_only", "general"):
        h = sample_random(kind, 8, 0, normalize_output=True)
        e = diagonalize_dense(h, want_vectors=False)
        m = moments(EmpiricalDistribution.from_values(e.eigenvalues), 2)
        assert abs(m[1] - 1.0) < 1e-10, kind


def test_normal_reference_moments():
    assert [double_factorial_odd(k) for k in (1, 2, 3)] == [1, 3, 15]


def test_characteristic_fn_basics():
    d = EmpiricalDistribution.from_values([math.pi])
    assert characteristic_fn(d, 0.0) == pytest.approx(1.0)
    assert characteristic_fn(d, 1.0) == pytest.approx(-1.0)


def test_characteristic_fn_field_chain_product_formula():
    n = 12
    d = EmpiricalDistribution.from_values(field_chain_values(n))
    for t in (0.3, 1.0, 2.7):
        want = math.cos(t / math.sqrt(n)) ** n
        assert characteristic_fn(d, t) == pytest.approx(want, abs=1e-12)


def test_block_link_split_n6_l3():
    h = sample_random("nn", 6, 1)
    split = block_link_split(h, 3)
    assert split.k_count == 2
    # link bonds 3 and 6 carry 12 random terms each
    assert split.links.num_terms == 24
    for b in split.blocks:
        assert len(b.support_sites()) == 3


def test_block_link_split_n5_l2():
    h = sample_random("nn", 5, 1)
    split = block_link_split(h, 2)
    assert split.k_count == 3
    link_bonds = {2, 4, 5}
    assert split.links.num_terms == 12 * len(link_bonds)


def test_blocks_commute_pairwise():
    h = sample_random("nn", 6, 2)
    split = block_link_split(h, 2)
    for i in range(len(split.blocks)):
        for j in range(i + 1, len(split.blocks)):
            assert commutator_norm(split.blocks[i], split.blocks[j]) < 1e-12


def test_split_reassembles_exactly():
    h = sample_random("nn", 7, 3)
    split = block_link_split(h, 3)
    diff = h - (split.block_sum + split.links)
    assert diff.num_terms == 0


@given(nl=st.integers(3, 10).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n))),
       seed=st.integers(0, 2**32 - 1))
def test_split_reassembles_random_rings_term_for_term(nl, seed):
    """Every term of a random nn ring lands in exactly one block or the links, with its coefficient."""
    n, l = nl
    h = sample_random("nn", n, seed)
    split = block_link_split(h, l)
    parts = [t for part in split.blocks + (split.links,) for t in part.terms]
    key = lambda t: (t[1].x_mask, t[1].z_mask)
    assert sorted(parts, key=key) == sorted(h.terms, key=key)


def test_clt_rows_t_zero_and_positive():
    h = sample_random("nn", 8, 0, normalize_output=True)
    rows = clt_bound_check(h, 2, [0.0, 0.5, 1.0])
    assert rows[0].lhs == pytest.approx(0.0, abs=1e-12)
    for row in rows:
        assert row.passes()


def test_clt_single_block_open_chain():
    """An open chain inside one block has L = 0, so lhs vanishes for all t."""
    n = 5
    g = InteractionGraph.random(n, [(j, j + 1) for j in range(1, n)], np.random.default_rng(4))
    g = InteractionGraph(n, g.edges, np.zeros((n, 3)))
    h = normalize(build_general(g))
    rows = clt_bound_check(h, n, [0.5, 1.0, 2.0])
    for row in rows:
        assert row.lhs < 1e-9 and row.rhs < 1e-12


def test_clt_random_sample_passes():
    h = sample_random("nn", 10, 5, normalize_output=True)
    for row in clt_bound_check(h, 3, [0.5, 1.0, 2.0]):
        assert row.passes()


def test_lyapunov_parseval_split():
    h = sample_random("nn", 8, 6, normalize_output=True)
    for l in (2, 3, 4):
        rep = lyapunov_quantities(h, l)
        assert abs(rep.s_n2 + rep.link_norm2 - 1.0) < 1e-10


def test_lyapunov_single_block():
    n = 5
    g = InteractionGraph.random(n, [(j, j + 1) for j in range(1, n)], np.random.default_rng(7))
    g = InteractionGraph(n, g.edges, np.zeros((n, 3)))
    h = normalize(build_general(g))
    rep = lyapunov_quantities(h, n)
    assert rep.s_n2 == pytest.approx(1.0)
    e = diagonalize_dense(h, want_vectors=False)
    m4 = float(np.mean(e.eigenvalues**4))
    assert rep.fourth_sum == pytest.approx(m4, abs=1e-10)


def test_lyapunov_ising_bound():
    from spinchain.hamiltonians import ChainCoefficients, build_nn_chain

    c = ChainCoefficients.zero(8)
    c.alpha[:, 3, 2] = 1.0
    h = build_nn_chain(c)
    rep = lyapunov_quantities(h, 4, C=1.0)
    assert rep.fourth_sum <= rep.genbound3_rhs


def test_ba_predictions():
    assert [ba_prediction(0.0, 0.0, k) for k in (1, 2, 3)] == [1, 3, 15]
    assert ba_prediction(0.5, 0.5, 1) == pytest.approx(1.5)
    assert ba_prediction(0.5, 0.5, 2) == pytest.approx(6.75)
    # published reading, reported verbatim alongside
    assert ba_prediction_printed(0.5, 0.5, 1) == pytest.approx(1.5**2 * 1.0)
    assert ba_prediction_printed(0.5, 0.5, 2) == pytest.approx(1.5**4 * 3.0)


def torus_graph(p):
    def site(i, j):
        return (i % p) * p + (j % p) + 1

    edges = set()
    for i in range(p):
        for j in range(p):
            for a, b in ((i, j + 1), (i + 1, j)):
                u, v = site(i, j), site(a, b)
                edges.add((min(u, v), max(u, v)))
    return InteractionGraph.zero(p * p, sorted(edges))


def test_geometry_torus_partition():
    p, l = 4, 2
    g = torus_graph(p)
    partition = []
    for bi in range(0, p, l):
        for bj in range(0, p, l):
            partition.append(
                [i * p + j + 1 for i in range(bi, bi + l) for j in range(bj, bj + l)]
            )
    rep = geometry_conditions(g, partition)
    assert rep.r == 2 * p * math.ceil(p / l)
    assert rep.q == l * l


def test_geometry_single_block():
    g = torus_graph(3)
    rep = geometry_conditions(g, [list(range(1, 10))])
    assert (rep.r, rep.m, rep.q) == (0, 1, 9)


def test_geometry_ring():
    n = 12
    edges = sorted({(min(j, j % n + 1), max(j, j % n + 1)) for j in range(1, n + 1)})
    g = InteractionGraph.zero(n, edges)
    partition = [list(range(1, 5)), list(range(5, 9)), list(range(9, 13))]
    rep = geometry_conditions(g, partition)
    assert (rep.r, rep.m, rep.q) == (3, 3, 4)


def test_geometry_rejects_bad_partition():
    g = torus_graph(3)
    with pytest.raises(ValueError):
        geometry_conditions(g, [[1, 2], [2, 3]])
