import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinchain import entanglement, parallel
from spinchain.entanglement import (
    build_M,
    epsilon_fraction,
    pair_only_checks,
    sector_purities,
)
from spinchain.hamiltonians import (
    OperatorSum,
    build_ba,
    sample_random,
)
from spinchain.pauli import PauliString
from spinchain.spectra import EigenDecomposition, diagonalize_dense
from spinchain.symmetry import MomentumSector, build_momentum_basis, joint_eigenbasis

from oracles import (
    StateVector,
    apply_sum,
    average_purity,
    full_space_residual,
    from_terms,
    hs_inner,
    joint_eigenbasis_lifted,
    pauli_coefficients,
    reduce_contiguous,
    terms,
    to_label,
)


_SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def kron_pauli_coefficients(v, l):
    """Oracle: ``Tr(rho sigma^(a_1) x ... x sigma^(a_l))`` from one Kronecker product per tuple."""
    rho = reduce_contiguous(v, l)
    out = np.zeros((4,) * l)
    for codes in itertools.product(range(4), repeat=l):
        m = _SIGMA[codes[0]]
        for c in codes[1:]:
            m = np.kron(m, _SIGMA[c])
        out[codes] = np.trace(rho @ m).real
    return out


def bell():
    return StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))


def w_state():
    amps = np.zeros(8)
    amps[[0b100, 0b010, 0b001]] = 1 / np.sqrt(3)
    return StateVector(3, amps)


def purity(rho):
    return float(np.sum(np.abs(rho) ** 2))


def test_bell_reduction():
    rho = reduce_contiguous(bell(), 1)
    assert np.max(np.abs(rho - np.eye(2) / 2)) < 1e-12
    assert abs(purity(rho) - 0.5) < 1e-12


def test_product_state_purity_one():
    for n, l in ((4, 1), (4, 2), (5, 3)):
        rho = reduce_contiguous(StateVector.basis_state(n, 0), l)
        assert abs(purity(rho) - 1.0) < 1e-12
        # rank-1 projector onto |0..0>
        want = np.zeros((1 << l, 1 << l))
        want[0, 0] = 1.0
        assert np.max(np.abs(rho - want)) < 1e-12


def test_w_state_reduction():
    """Hand partial trace: site 1 of the W state is |1> with probability 1/3."""
    rho = reduce_contiguous(w_state(), 1)
    assert np.max(np.abs(rho - np.diag([2 / 3, 1 / 3]))) < 1e-12
    assert abs(purity(rho) - 5 / 9) < 1e-12


def test_reduction_block_size_range():
    with pytest.raises(ValueError):
        reduce_contiguous(bell(), 2)


def test_purity_linear_entropy_pairs():
    p = purity(reduce_contiguous(bell(), 1))
    assert (p, 1 - p) == pytest.approx((0.5, 0.5))
    p1 = purity(reduce_contiguous(StateVector.basis_state(3, 0), 1))
    assert (p1, 1 - p1) == pytest.approx((1.0, 0.0))
    p_w = purity(reduce_contiguous(w_state(), 1))
    assert (p_w, 1 - p_w) == pytest.approx((5 / 9, 4 / 9))


def test_unnormalized_states_fail_the_trace_check():
    """A reduced density matrix off unit trace is a numerical fault, not a usage error."""
    v = StateVector.random(4, np.random.default_rng(0))
    with pytest.raises(RuntimeError, match="trace check"):
        reduce_contiguous(StateVector(4, 1.01 * v.amplitudes), 2)
    columns = np.eye(16)[:, :4].copy()
    columns[:, 2] *= 1.01
    with pytest.raises(RuntimeError, match="state 2 fails its trace check"):
        average_purity(EigenDecomposition(np.zeros(4), columns), 1)
    with pytest.raises(RuntimeError, match="sites 4..4 of state 2 fails its trace check"):
        average_purity(EigenDecomposition(np.zeros(4), columns), 3)
    columns[:, 2] = np.nan
    with pytest.raises(RuntimeError, match="state 2 fails its trace check"):
        average_purity(EigenDecomposition(np.zeros(4), columns), 1)


@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_reduced_states_match_einsum_partial_trace(n, seed):
    """For every l: the reduced state is the explicit partial trace, and the batched purity obeys Parseval."""
    rng = np.random.default_rng(seed)
    states = [StateVector.random(n, rng) for _ in range(3)]
    basis = EigenDecomposition(np.zeros(3), np.stack([v.amplitudes for v in states], axis=1))
    for l in range(1, n):
        batched = average_purity(basis, l).per_state
        for v, p in zip(states, batched):
            psi = v.amplitudes.reshape(1 << l, 1 << (n - l))
            want = np.einsum("ab,cb->ac", psi, psi.conj())
            assert np.max(np.abs(reduce_contiguous(v, l) - want)) < 1e-14
            assert abs(p - 2.0**-l * np.sum(pauli_coefficients(v, l) ** 2)) < 1e-14


def test_pauli_coefficients_basis_state():
    coeffs = pauli_coefficients(StateVector.basis_state(4, 0), 1)
    assert np.allclose(coeffs, [1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_pauli_coefficients_bell():
    coeffs = pauli_coefficients(bell(), 1)
    assert np.allclose(coeffs, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_pauli_coefficients_parseval():
    rng = np.random.default_rng(0)
    v = StateVector.random(5, rng)
    coeffs = pauli_coefficients(v, 2)
    assert abs(0.25 * np.sum(coeffs**2) - purity(reduce_contiguous(v, 2))) < 1e-10


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_pauli_coefficients_match_kronecker_oracle(l):
    rng = np.random.default_rng(10 + l)
    for n in (l + 1, l + 3):
        v = StateVector.random(n, rng)
        got = pauli_coefficients(v, l)
        assert got.shape == (4,) * l and got.dtype == np.float64
        assert np.max(np.abs(got - kron_pauli_coefficients(v, l))) < 1e-14


def test_build_M_single_z():
    m = build_M((3,), 5)
    want = from_terms(
        5, [(1 / np.sqrt(5), PauliString.from_sites(5, {j: 3})) for j in range(1, 6)]
    )
    assert np.allclose(m.coeffs, want.coeffs)
    assert list(m.xs) == list(want.xs) and list(m.zs) == list(want.zs)
    assert abs(hs_inner(m, m).real - 1.0) < 1e-12


def test_build_M_xx_pairs():
    m = build_M((1, 1), 5)
    assert m.num_terms == 5
    assert all(to_label(s).count("I") == 3 for _, s in terms(m))
    assert abs(hs_inner(m, m).real - 1.0) < 1e-12


def test_build_M_rejects_bad_input():
    with pytest.raises(ValueError):
        build_M((0, 0), 7)
    with pytest.raises(ValueError):
        build_M((1, 1, 1), 6)  # needs 2l < n


def test_build_M_expectation_identity():
    """On T eigenvectors, <psi|sigma_1^(a)|psi> = (1/sqrt(n)) <psi|M|psi>."""
    h = sample_random("invariant", 9, 0)
    e = joint_eigenbasis_lifted(h)
    m = build_M((1,), 9)
    sigma1 = PauliString.from_sites(9, {1: 1})
    for j in (0, 17, 100, 511):
        v = StateVector(9, e.eigenvectors[:, j])
        lhs = np.vdot(v.amplitudes, apply_sum(from_terms(9, [(1.0, sigma1)]), v).amplitudes)
        rhs = np.vdot(v.amplitudes, apply_sum(m, v).amplitudes) / np.sqrt(9)
        assert abs(lhs - rhs) < 1e-10


def test_average_purity_lower_bound_floor():
    e = diagonalize_dense(sample_random("nn", 6, 3))
    for l in (1, 2):
        res = average_purity(e, l)
        assert res.mean >= 2.0**-l - 1e-10


def test_average_purity_theorem_bound():
    h = sample_random("invariant", 10, 5)
    e = joint_eigenbasis_lifted(h)
    res = average_purity(e, 2)
    assert res.bound_claimed
    assert res.mean <= 0.25 + 4 / 10 + 1e-9
    assert res.bound_holds()


def test_average_purity_needs_joint_basis():
    """The computational eigenbasis of a degenerate sum-Z violates the bound
    and is correctly flagged as outside the theorem's hypotheses."""
    n = 6
    terms = [(1.0, PauliString.from_sites(n, {j: 3})) for j in range(1, n + 1)]
    h = from_terms(n, terms)
    vals = np.sort(np.diag(h.to_dense()).real)
    e = EigenDecomposition(vals, np.eye(1 << n)[:, np.argsort(np.diag(h.to_dense()).real)])
    res = average_purity(e, 1)
    assert abs(res.mean - 1.0) < 1e-12
    assert not res.bound_claimed


def test_epsilon_fraction_trivial():
    res = epsilon_fraction(np.array([0.5, 0.9, 1.0]), 1, 1.0, 10)
    assert res.fraction == 0.0


def test_epsilon_fraction_markov():
    h = sample_random("invariant", 12, 0)
    e = joint_eigenbasis_lifted(h)
    res_purity = average_purity(e, 1)
    loose = epsilon_fraction(res_purity.per_state, 1, 0.1, 12)
    assert loose.markov_bound == pytest.approx((2 / 12) / 0.1)
    tight = epsilon_fraction(res_purity.per_state, 1, 0.5, 12)
    assert tight.markov_bound == pytest.approx(1 / 3)
    assert tight.bound_holds()


def test_epsilon_fraction_bound_halves_with_n():
    a = epsilon_fraction(np.array([0.5]), 2, 0.3, 10)
    b = epsilon_fraction(np.array([0.5]), 2, 0.3, 20)
    assert b.markov_bound == pytest.approx(a.markov_bound / 2)


def test_epsilon_fraction_rejects_nonpositive_epsilon():
    with pytest.raises(ValueError):
        epsilon_fraction(np.array([0.5]), 1, 0.0, 8)


def test_pair_only_l1_purity_half():
    e = diagonalize_dense(sample_random("pair_only", 8, 1))
    rep = pair_only_checks(e, 1)
    assert not rep.degenerate
    assert rep.max_purity_deviation < 1e-10
    assert rep.passes()


def test_pair_only_l2_odd_coefficients_vanish():
    e = diagonalize_dense(sample_random("pair_only", 8, 2))
    rep = pair_only_checks(e, 2)
    assert rep.max_odd_weight_coeff < 1e-10
    assert rep.passes()


def test_pair_only_even_coefficients_survive():
    """Even-weight coefficients like (X, X) are generically nonzero."""
    e = diagonalize_dense(sample_random("pair_only", 8, 3))
    biggest = 0.0
    for j in range(0, 256, 16):
        coeffs = pauli_coefficients(StateVector(8, e.eigenvectors[:, j]), 2)
        biggest = max(biggest, abs(float(coeffs[1, 1])))
    assert biggest > 1e-3


def test_pair_only_checks_match_per_state_coefficients():
    """The stacked coefficients give the same largest odd-weight coefficient as one state at a time.

    A ring with fields, so the odd-weight coefficients do not vanish.
    """
    n = 6
    e = diagonalize_dense(sample_random("nn", n, 4))
    for l in (1, 2, 3):
        rep = pair_only_checks(e, l)
        coeffs = [pauli_coefficients(StateVector(n, e.eigenvectors[:, k]), l) for k in range(1 << n)]
        odd = np.count_nonzero(np.indices((4,) * l), axis=0) % 2 == 1
        assert abs(rep.max_odd_weight_coeff - max(float(np.max(np.abs(c[odd]))) for c in coeffs)) < 1e-14
        assert np.array_equal(rep.purities, average_purity(e, l).per_state)


@pytest.mark.parametrize("n", [8, 10, 12])
def test_sector_purities_equal_lifted_eigenbasis(n):
    """The sector stream reproduces the lifted path bit for bit: values, order and means.

    ``eigvalsh`` and ``eigh`` round differently in the last bits, so the
    eigenvalues-only path is matched to 1e-12 and on the momentum order.
    The real ``ba`` ring takes its mirrored sectors n-k through the stream.
    The lifted oracle takes its vectors from the same sector solve, so up to
    n = 10 every lifted column is also held against dense H and T.
    """
    for h in (sample_random("invariant", n, 4), build_ba(0.3, 0.7, n)):
        spectrum, results = sector_purities(h, (1, 2, 3))
        values_only = joint_eigenbasis(h)
        assert spectrum.eigenvectors is None
        assert np.max(np.abs(spectrum.eigenvalues - values_only.eigenvalues)) < 1e-12
        assert np.array_equal(spectrum.momenta, values_only.momenta)
        lifted = joint_eigenbasis_lifted(h)
        if n <= 10:
            assert full_space_residual(h, lifted) < 1e-10
        assert np.array_equal(spectrum.eigenvalues, lifted.eigenvalues)
        assert np.array_equal(spectrum.momenta, lifted.momenta)
        assert spectrum.residual == lifted.residual < 1e-10
        for l in (1, 2, 3):
            want = average_purity(lifted, l, (1, 2, 3))
            got = results[l]
            assert np.array_equal(got.per_state, want.per_state)
            assert got.mean == want.mean
            assert (got.l, got.n, got.bound_claimed) == (want.l, want.n, want.bound_claimed)


@pytest.mark.parametrize("n", [7, 10])
def test_purities_of_a_block_and_its_complement_agree(n):
    """For l > n/2 the purity is read from the smaller rho of sites l+1..n.

    In a joint (H, T) eigenstate sites l+1..n and sites 1..n-l have the same
    reduced state, so per state the purity of block l equals that of block
    n-l.
    """
    ls = tuple(range(1, n))
    for h in (sample_random("invariant", n, 6), build_ba(0.3, 0.7, n)):
        _, results = sector_purities(h, ls)
        for l in ls:
            assert np.max(np.abs(results[l].per_state - results[n - l].per_state)) <= 1e-12, l


def test_sector_purities_match_dense_eigenbasis():
    """Non-degenerate spectrum: the stream and a dense eigh hold the same states up to phase."""
    n = 8
    h = sample_random("invariant", n, 3)
    spectrum, results = sector_purities(h, (1, 2, 3))
    assert np.min(np.diff(spectrum.eigenvalues)) > 1e-6
    dense = diagonalize_dense(h)
    assert np.max(np.abs(spectrum.eigenvalues - dense.eigenvalues)) < 1e-9
    for l in (1, 2, 3):
        ref = average_purity(dense, l)
        assert np.max(np.abs(results[l].per_state - ref.per_state)) < 1e-9
        assert abs(results[l].mean - ref.mean) < 1e-9


@pytest.mark.parametrize("model", ["nn", "pair_only"])
def test_sector_purities_of_non_invariant_ring_are_the_dense_ones(model):
    """A non-invariant ring takes one dense eigh: eigenvalues and purities bit for bit, no momenta, no bound claimed."""
    n = 7
    h = sample_random(model, n, 2)
    spectrum, results = sector_purities(h, (1, 2, 3))
    dense = diagonalize_dense(h)
    assert np.array_equal(spectrum.eigenvalues, dense.eigenvalues)
    assert spectrum.momenta is None and spectrum.eigenvectors is None
    assert spectrum.residual == dense.residual
    for l in (1, 2, 3):
        want = average_purity(dense, l, (1, 2, 3))
        assert np.array_equal(results[l].per_state, want.per_state)
        assert results[l].mean == want.mean
        assert not results[l].bound_claimed


@pytest.mark.parametrize("ls", [(1, 1), (2, 1, 2), (0,), (7,)])
def test_sector_purities_refuse_bad_block_sizes_before_solving(monkeypatch, ls):
    """Duplicate block sizes, or one outside 1..n-1, are refused before any eigensolver runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for model in ("invariant", "nn"):
        with pytest.raises(ValueError, match="block sizes"):
            sector_purities(sample_random(model, 7, 0), ls)


def test_sector_purities_lift_one_sector_at_a_time(monkeypatch):
    """No 2^n x 2^n array: no dense H, one gather map per sector, one Gram product per chunk and side.

    Every chunk of states and every buffer of reduced states is within the
    byte budget; buffers run on across chunks, and each is checked once,
    whatever ``len(ls)`` is. Each sector is tiled by full buffers, then its
    remainder: no buffer spans two sectors. One worker solves every sector,
    so the calls come in the sectors' order.
    """
    n = 9
    budget = 8 << (n + 4)  # 8 states per chunk
    maps, grams, checks = [], [], []
    gather_map = MomentumSector.gather_map
    gram = entanglement._gram
    check_rhos = entanglement._check_rhos

    def recording_map(self):
        maps.append(self.k)
        return gather_map(self)

    def recording_gram(states, conj, n, l, trailing):
        grams.append((trailing, l, len(states), states.nbytes))
        return gram(states, conj, n, l, trailing)

    def recording_check(rhos, sites, first):
        checks.append((first, len(rhos), rhos.nbytes))
        return check_rhos(rhos, sites, first)

    def refuse(*args, **kwargs):
        raise AssertionError("full-space operator built")

    monkeypatch.setattr(parallel, "cpus", lambda: 1)
    monkeypatch.setattr(entanglement, "CHUNK_BYTES", budget)
    monkeypatch.setattr(MomentumSector, "gather_map", recording_map)
    monkeypatch.setattr(entanglement, "_gram", recording_gram)
    monkeypatch.setattr(entanglement, "_check_rhos", recording_check)
    monkeypatch.setattr(OperatorSum, "to_dense", refuse)
    h = sample_random("invariant", n, 1)
    dims = [s.dim for s in build_momentum_basis(n)]
    chunks = [min(8, dim - start) for dim in dims for start in range(0, dim, 8)]
    for ls in ((2,), (1, 2), (1, 2, 3, 6, 7, 8)):
        for recorded in (maps, grams, checks):
            recorded.clear()
        _, results = sector_purities(h, ls)
        assert maps == list(range(n))
        for trailing in (False, True):
            side = [l for l in ls if (2 * l > n) == trailing]
            calls = [call for call in grams if call[0] == trailing]
            # the largest block of the side: sites 1..max, or sites min+1..n
            largest = (min(side) if trailing else max(side)) if side else None
            assert [(l, size) for _, l, size, _ in calls] == [(largest, size) for size in chunks if side]
            assert all(nbytes <= budget for *_, nbytes in calls)
        capacity = budget // sum(16 << 2 * min(l, n - l) for l in ls)
        buffers = [(int(first) + start, min(capacity, dim - start))
                   for first, dim in zip(np.cumsum([0] + dims[:-1]), dims) for start in range(0, dim, capacity)]
        assert [(first, size) for first, size, _ in checks] == [buffer for buffer in buffers for _ in ls]
        for f, _ in buffers:
            assert sum(nbytes for first, _, nbytes in checks if first == f) <= budget
        assert any(size > max(chunks) for _, size in buffers)  # a buffer spans chunks
        assert results[2].bound_holds()


def test_sector_purities_do_not_depend_on_the_workers(monkeypatch):
    """One, two or three workers give the same spectrum, momenta and purities bit for bit, and a buffer never spans two workers' sectors.

    The complex ring solves every sector and the real ``ba`` ring each
    ±k pair once; a small byte budget makes several buffers per sector.
    """
    run, counts, firsts = parallel.run, [], []
    check_rhos = entanglement._check_rhos

    def counted(workers, work):
        counts.append(workers)
        return run(workers, work)

    def recording_check(rhos, sites, first):
        firsts.append((first, len(rhos)))
        return check_rhos(rhos, sites, first)

    monkeypatch.setattr(parallel, "run", counted)
    monkeypatch.setattr(entanglement, "_check_rhos", recording_check)
    monkeypatch.setattr(entanglement, "CHUNK_BYTES", 8 << 13)
    n = 9
    for h in (sample_random("invariant", n, 4), build_ba(0.5, 0.25, n)):
        runs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(parallel, "cpus", lambda: cpus)
            counts.clear()
            firsts.clear()
            runs.append((sector_purities(h, (1, 2, 7)), joint_eigenbasis(h)))
            assert counts == [cpus, cpus]
            # each state checked once per l, in buffers that stay within one sector's solve when dealt
            starts = sorted(set(firsts))
            assert sum(size for _, size in starts) == 1 << n
            assert [first for first, _ in starts] == list(np.cumsum([0] + [size for _, size in starts[:-1]]))
        (spectrum, results), e = runs[0]
        for (other, other_results), other_e in runs[1:]:
            assert np.array_equal(other.eigenvalues, spectrum.eigenvalues)
            assert np.array_equal(other.momenta, spectrum.momenta) and other.residual == spectrum.residual
            for l in (1, 2, 7):
                assert np.array_equal(other_results[l].per_state, results[l].per_state)
                assert other_results[l].mean == results[l].mean
            assert np.array_equal(other_e.eigenvalues, e.eigenvalues)
            assert np.array_equal(other_e.momenta, e.momenta)


@pytest.mark.parametrize("n", [9, 10])
def test_sector_purities_do_not_depend_on_the_chunk_size(monkeypatch, n):
    """Chunks and buffers of any size give the same purities bit for bit.

    The budgets give chunks of one state and buffers of a few, buffers of
    one state, buffers of half a sector, chunks of a whole sector, and
    whole-sector chunks into buffers that could hold the whole spectrum.
    """
    h = sample_random("invariant", n, 5)
    largest = max(s.dim for s in build_momentum_basis(n))
    per_state = 16 * (4 + 16 + 64)  # the rho of sites 1..1, 1..2 and 1..3
    per_state_runs = []
    whole = max(per_state << n, largest << (n + 4))
    for budget in (16 << n, per_state, per_state * (largest // 2), largest << (n + 4), whole):
        monkeypatch.setattr(entanglement, "CHUNK_BYTES", budget)
        per_state_runs.append(sector_purities(h, (1, 2, 3))[1])
    assert whole >> (n + 4) >= largest  # whole sectors per chunk
    for l in (1, 2, 3):
        for run in per_state_runs[1:]:
            assert np.array_equal(per_state_runs[0][l].per_state, run[l].per_state)


def test_sector_purities_peak_below_one_sector_lift():
    """Traced peak of one invariant ring at n=11 stays below a single 2^n x dim_k complex block."""
    n = 11
    h = sample_random("invariant", n, 0)
    block = (1 << n) * max(s.dim for s in build_momentum_basis(n)) * 16
    tracemalloc.start()
    try:
        _, results = sector_purities(h, (1, 2, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert results[1].bound_holds()
    assert peak < block, (peak, block)


def _eigenvalue_check(rhos, sites, first):
    """The three rho checks with an eigenvalue test for positivity and no Cholesky gate."""
    for name, dev in (
        ("trace", np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0)),
        ("Hermitian", np.max(np.abs(rhos - rhos.conj().transpose(0, 2, 1)), axis=(1, 2))),
        ("positivity", -np.linalg.eigvalsh(rhos)[:, 0]),
    ):
        bad = np.flatnonzero(~(dev <= entanglement.RDM_TOL))
        if len(bad):
            raise RuntimeError(
                f"reduced density matrix of sites {sites} of state {first + bad[0]} fails its "
                f"{name} check: deviation {dev[bad[0]]:.3g} > {entanglement.RDM_TOL}"
            )


def _verdict(check, rhos):
    try:
        check(rhos, "1..2", 5)
    except RuntimeError as exc:
        return str(exc)
    return None


_TOL = entanglement.RDM_TOL
#: smallest eigenvalues on a grid over [-3 RDM_TOL, RDM_TOL] and close to ±RDM_TOL/2
_LOWEST = [k * _TOL / 8 for k in range(-24, 9)] + [
    sign * _TOL / 2 * (1 + rel) for sign in (1, -1) for rel in (-1e-3, -1e-6, 0.0, 1e-6, 1e-3)
]


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([2, 4, 8]),
    lowest=st.lists(st.one_of(st.floats(-3 * _TOL, _TOL), st.sampled_from(_LOWEST)), min_size=1, max_size=4),
)
def test_cholesky_gate_decides_as_the_eigenvalues(seed, d, lowest):
    """The gated positivity check accepts and refuses exactly the stacks the eigenvalue test does.

    Each rho is ``U diag(lambda) U^H`` with a random unitary U, unit trace
    and its smallest eigenvalue placed in [-3 RDM_TOL, RDM_TOL] or close to
    ±RDM_TOL/2, where the Cholesky factor of ``rho + (RDM_TOL/2) I`` may or
    may not exist. A refusal names the same first state and deviation.
    """
    rng = np.random.default_rng(seed)
    rhos = []
    for lam_min in lowest:
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        rest = rng.uniform(0.1, 1.0, d - 1)
        lam = np.concatenate([[lam_min], (1.0 - lam_min) * rest / rest.sum()])
        rhos.append((u * lam) @ u.conj().T)
    rhos = np.array(rhos)
    assert _verdict(entanglement._check_rhos, rhos) == _verdict(_eigenvalue_check, rhos)


def test_cholesky_gate_sees_both_sides_and_leaves_nan_to_the_trace_check():
    """A refused and an accepted stack behind the gate, and a NaN rho, which fails the trace check first."""
    u, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    ok = (u * [0.5, 0.3, 0.2, 0.0]) @ u.T
    slightly = (u * [0.5, 0.3, 0.2 + 0.75 * _TOL, -0.75 * _TOL]) @ u.T
    negative = (u * [0.5, 0.3, 0.2 + 2 * _TOL, -2 * _TOL]) @ u.T
    assert _verdict(entanglement._check_rhos, np.array([ok, slightly, ok])) is None
    message = _verdict(entanglement._check_rhos, np.array([ok, slightly, negative, negative]))
    assert message.startswith("reduced density matrix of sites 1..2 of state 7 fails its positivity check")
    assert message == _verdict(_eigenvalue_check, np.array([ok, slightly, negative, negative]))
    nan = np.full((4, 4), np.nan)
    message = _verdict(entanglement._check_rhos, np.array([ok, ok, nan, negative]))
    assert message == "reduced density matrix of sites 1..2 of state 7 fails its trace check: deviation nan > 1e-10"
