import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinchain.entanglement import (
    average_purity,
    build_M,
    epsilon_fraction,
    pair_only_checks,
    pauli_coefficients,
    reduce_contiguous,
    sector_purities,
)
from spinchain.hamiltonians import (
    ChainCoefficients,
    OperatorSum,
    build_pair_only,
    hs_inner,
    sample_random,
)
from spinchain.pauli import PauliString, StateVector
from spinchain.spectra import EigenDecomposition, diagonalize_dense
from spinchain.symmetry import joint_eigenbasis


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
    want = OperatorSum.from_terms(
        5, [(1 / np.sqrt(5), PauliString.single(5, j, 3)) for j in range(1, 6)]
    )
    assert np.allclose(m.coeffs, want.coeffs)
    assert list(m.xs) == list(want.xs) and list(m.zs) == list(want.zs)
    assert abs(hs_inner(m, m).real - 1.0) < 1e-12


def test_build_M_xx_pairs():
    m = build_M((1, 1), 5)
    assert m.num_terms == 5
    assert all(s.weight == 2 for _, s in m.terms)
    assert abs(hs_inner(m, m).real - 1.0) < 1e-12


def test_build_M_rejects_bad_input():
    with pytest.raises(ValueError):
        build_M((0, 0), 7)
    with pytest.raises(ValueError):
        build_M((1, 1, 1), 6)  # needs 2l < n


def test_build_M_expectation_identity():
    """On T eigenvectors, <psi|sigma_1^(a)|psi> = (1/sqrt(n)) <psi|M|psi>."""
    h = sample_random("invariant", 9, 0)
    e = joint_eigenbasis(h)
    m = build_M((1,), 9)
    sigma1 = PauliString.single(9, 1, 1)
    for j in (0, 17, 100, 511):
        v = StateVector(9, e.eigenvectors[:, j])
        lhs = np.vdot(v.amplitudes, OperatorSum.from_terms(9, [(1.0, sigma1)]).apply(v).amplitudes)
        rhs = np.vdot(v.amplitudes, m.apply(v).amplitudes) / np.sqrt(9)
        assert abs(lhs - rhs) < 1e-10


def test_average_purity_lower_bound_floor():
    e = diagonalize_dense(sample_random("nn", 6, 3))
    for l in (1, 2):
        res = average_purity(e, l)
        assert res.mean >= 2.0**-l - 1e-10


def test_average_purity_theorem_bound():
    h = sample_random("invariant", 10, 5)
    e = joint_eigenbasis(h)
    res = average_purity(e, 2)
    assert res.bound_claimed
    assert res.mean <= 0.25 + 4 / 10 + 1e-9
    assert res.bound_holds()


def test_average_purity_needs_joint_basis():
    """The computational eigenbasis of a degenerate sum-Z violates the bound
    and is correctly flagged as outside the theorem's hypotheses."""
    n = 6
    terms = [(1.0, PauliString.single(n, j, 3)) for j in range(1, n + 1)]
    h = OperatorSum.from_terms(n, terms)
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
    e = joint_eigenbasis(h)
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
    c = ChainCoefficients.random(8, np.random.default_rng(1), pair_only=True)
    e = diagonalize_dense(build_pair_only(c))
    rep = pair_only_checks(e, 1)
    assert not rep.degenerate
    assert rep.max_purity_deviation < 1e-10
    assert rep.passes()


def test_pair_only_l2_odd_coefficients_vanish():
    c = ChainCoefficients.random(8, np.random.default_rng(2), pair_only=True)
    e = diagonalize_dense(build_pair_only(c))
    rep = pair_only_checks(e, 2)
    assert rep.max_odd_weight_coeff < 1e-10
    assert rep.passes()


def test_pair_only_even_coefficients_survive():
    """Even-weight coefficients like (X, X) are generically nonzero."""
    c = ChainCoefficients.random(8, np.random.default_rng(3), pair_only=True)
    e = diagonalize_dense(build_pair_only(c))
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
    """
    h = sample_random("invariant", n, 4)
    spectrum, results = sector_purities(h, (1, 2, 3))
    values_only = joint_eigenbasis(h, want_vectors=False)
    assert spectrum.eigenvectors is None
    assert np.max(np.abs(spectrum.eigenvalues - values_only.eigenvalues)) < 1e-12
    assert np.array_equal(spectrum.momenta, values_only.momenta)
    lifted = joint_eigenbasis(h)
    assert np.array_equal(spectrum.eigenvalues, lifted.eigenvalues)
    assert np.array_equal(spectrum.momenta, lifted.momenta)
    assert spectrum.residual == lifted.residual < 1e-10
    for l in (1, 2, 3):
        want = average_purity(lifted, l)
        got = results[l]
        assert np.array_equal(got.per_state, want.per_state)
        assert got.mean == want.mean
        assert (got.l, got.n, got.bound_claimed) == (want.l, want.n, want.bound_claimed)


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


def test_sector_purities_lift_one_sector_at_a_time(monkeypatch):
    """No 2^n x 2^n array: no dense H, no full basis, each lift at most one sector wide."""
    from spinchain.symmetry import MomentumSector

    n = 9
    widths = []
    lift = MomentumSector.lift

    def recording_lift(self, vecs):
        widths.append(vecs.shape[1])
        return lift(self, vecs)

    def refuse(*args, **kwargs):
        raise AssertionError("full-space operator built")

    monkeypatch.setattr(MomentumSector, "lift", recording_lift)
    monkeypatch.setattr(OperatorSum, "to_dense", refuse)
    _, results = sector_purities(sample_random("invariant", n, 1), (1, 2))
    assert len(widths) == n and sum(widths) == 1 << n
    assert max(widths) < 1 << (n - 2)
    assert results[2].bound_holds()
