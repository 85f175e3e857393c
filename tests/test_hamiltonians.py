import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinchain.hamiltonians import (
    ChainCoefficients,
    DENSE_CAP,
    InteractionGraph,
    OperatorSum,
    SizeLimitError,
    build_ba,
    build_exyz,
    build_general,
    build_invariant,
    build_nn_chain,
    build_pair_only,
    hs_inner,
    normalize,
    sample_random,
)
from spinchain.pauli import PauliString, StateVector


def term_dict(h):
    return {(int(x), int(z)): float(c) for x, z, c in zip(h.xs, h.zs, h.coeffs)}


def test_nn_chain_zz_ring():
    """alpha_{3,3,j} = 1 for all bonds, n=4 -> (1/2)(Z1Z2 + Z2Z3 + Z3Z4 + Z4Z1)."""
    c = ChainCoefficients.zero(4)
    c.alpha[:, 3, 2] = 1.0
    h = build_nn_chain(c)
    want = {
        PauliString.from_label(lbl): 0.5
        for lbl in ("ZZII", "IZZI", "IIZZ", "ZIIZ")
    }
    got = {s: c for c, s in h.terms}
    assert got == want


def test_nn_chain_pure_field_via_a0():
    c = ChainCoefficients.zero(4)
    c.alpha[:, 0, 2] = 1.0
    h = build_nn_chain(c)
    got = {s: c for c, s in h.terms}
    want = {PauliString.single(4, j, 3): 0.5 for j in range(1, 5)}
    assert got == want


def test_nn_chain_parseval():
    """hs_inner(H, H) = (1/n) sum alpha^2, cross-checked against dense Tr(H^2)/2^n."""
    rng = np.random.default_rng(0)
    c = ChainCoefficients.random(4, rng)
    h = build_nn_chain(c)
    want = float(np.sum(c.alpha**2)) / 4
    assert abs(hs_inner(h, h).real - want) < 1e-12
    dense = h.to_dense()
    assert abs(np.trace(dense @ dense).real / 16 - want) < 1e-10


def test_invariant_heisenberg_commutes_with_translation():
    from spinchain.spectra import commutator_norm
    from spinchain.symmetry import translation_permutation

    alpha = np.zeros((4, 3))
    alpha[1, 0] = alpha[2, 1] = alpha[3, 2] = 1.0
    h = build_invariant(alpha, 4)
    assert commutator_norm(h, translation_permutation(4)) < 1e-12


def test_invariant_zero():
    assert build_invariant(np.zeros((4, 3)), 5).num_terms == 0


def test_invariant_spectrum_shift_invariant():
    """Spectrum is unchanged under conjugation by the translation permutation."""
    rng = np.random.default_rng(1)
    h = build_invariant(rng.standard_normal((4, 3)), 6)
    from spinchain.symmetry import translation_permutation

    dense = h.to_dense()
    perm = translation_permutation(6)
    shifted = dense[np.ix_(perm, perm)]
    a = np.sort(np.linalg.eigvalsh(dense))
    b = np.sort(np.linalg.eigvalsh(shifted))
    assert np.max(np.abs(a - b)) < 1e-10


def test_pair_only_structure():
    c = ChainCoefficients.zero(5)
    c.alpha[:, 1, 1] = 1.0  # a=1 (X), b=2 (Y)
    h = build_pair_only(c)
    assert h.num_terms == 5
    assert all(s.weight == 2 and coeff == 1.0 for coeff, s in h.terms)


def test_pair_only_zero_and_rejects_fields():
    assert build_pair_only(ChainCoefficients.zero(5)).num_terms == 0
    c = ChainCoefficients.zero(5)
    c.alpha[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        build_pair_only(c)


def test_pair_only_antiunitary_conjugation():
    """S H S = conjugate(H) with S = Y tensor-power, on dense matrices (n=8)."""
    h = build_pair_only(ChainCoefficients.random(8, np.random.default_rng(2), pair_only=True))
    s = PauliString.from_label("Y" * 8).to_dense()
    dense = h.to_dense()
    assert np.max(np.abs(s @ dense @ s - dense.conj())) < 1e-10


def test_general_single_edge():
    g = InteractionGraph.zero(4, [(1, 3)])
    g.edges[0][2][0, 0] = 1.0
    h = build_general(g)
    got = {s: c for c, s in h.terms}
    assert got == {PauliString.from_sites(4, {1: 1, 3: 1}): 0.5}


def test_general_rejects_duplicate_edges():
    with pytest.raises(ValueError):
        InteractionGraph.zero(4, [(1, 2), (1, 2)])


def test_general_path_equals_chain_without_wrap():
    """A path graph reproduces the ring builder with the wrap-bond row zeroed."""
    rng = np.random.default_rng(3)
    c = ChainCoefficients.random(3, rng)
    c.alpha[2, :, :] = 0.0  # drop bond 3 = (3, 1)
    ring = build_nn_chain(c)

    edges = tuple((j, j + 1, c.alpha[j - 1, 1:, :]) for j in (1, 2))
    fields = np.zeros((3, 3))
    for j in (1, 2):  # a=0 slot of bond j is a field on site j+1
        fields[j] = c.alpha[j - 1, 0, :]
    path = build_general(InteractionGraph(3, edges, fields))
    assert term_dict(ring) == pytest.approx(term_dict(path))


def test_ba_ising_special_case():
    h = build_ba(0.0, 0.0, 4)
    assert h.num_terms == 4
    assert all(s.label.replace("I", "").replace("X", "") == "" for _, s in h.terms)


def test_ba_parseval():
    for a1, a3 in ((0.5, 0.5), (0.2, 0.9)):
        h = build_ba(a1, a3, 6)
        assert abs(hs_inner(h, h).real - (1 + a1**2 + a3**2)) < 1e-12
    dense = build_ba(0.5, 0.5, 4).to_dense()
    assert abs(np.trace(dense @ dense).real / 16 - 1.5) < 1e-10


def test_ba_term_count():
    assert build_ba(0.0, 1.0, 4).num_terms == 8


def test_exyz_eps_zero_field_spectrum():
    h = build_exyz(0.0, 4)
    vals = np.sort(np.linalg.eigvalsh(h.to_dense()))
    want = np.sort(np.repeat([4 - 2 * r for r in range(5)], [1, 4, 6, 4, 1]))
    assert np.max(np.abs(vals - want)) < 1e-12


def test_exyz_term_count():
    assert build_exyz(1.0, 3).num_terms == 6


def test_exyz_matches_streaming_enumeration():
    from spinchain.free_fermion import collect_spectrum

    vals = np.sort(np.linalg.eigvalsh(build_exyz(0.3, 5).to_dense()))
    analytic = np.sort(collect_spectrum(5, 0.3))
    assert np.max(np.abs(vals - analytic)) < 1e-9


def test_normalize_ising_unchanged():
    c = ChainCoefficients.zero(6)
    c.alpha[:, 3, 2] = 1.0
    h = build_nn_chain(c)
    assert abs(hs_inner(h, h).real - 1.0) < 1e-12
    assert term_dict(normalize(h)) == pytest.approx(term_dict(h))


def test_normalize_scale_invariant():
    h = sample_random("nn", 5, 11)
    assert term_dict(normalize(2.0 * h)) == pytest.approx(term_dict(normalize(h)))


def test_normalize_ba():
    h = build_ba(0.5, 0.5, 5)
    hn = normalize(h)
    assert np.allclose(hn.coeffs * np.sqrt(1.5), h.coeffs)


def test_normalize_zero_rejected():
    with pytest.raises(ValueError):
        normalize(OperatorSum.zero(3))


def test_sample_random_deterministic():
    for kind in ("nn", "invariant", "pair_only", "general"):
        a = sample_random(kind, 5, 7)
        b = sample_random(kind, 5, 7)
        assert term_dict(a) == term_dict(b)


def test_sample_random_invariant_structure():
    """Invariant samples replicate 12 coefficient values once per bond."""
    h = sample_random("invariant", 6, 0)
    values, counts = np.unique(np.round(h.coeffs, 12), return_counts=True)
    assert len(values) == 12
    assert np.all(counts == 6)


def test_sampled_coefficient_statistics():
    rng = np.random.default_rng(0)
    c = ChainCoefficients.random(834, rng)  # 834 * 12 > 1e4 coefficients
    flat = c.alpha.ravel()
    assert abs(flat.mean()) < 0.05
    assert abs(flat.var() - 1.0) < 0.1


def test_to_dense_small_cases():
    z = OperatorSum.from_terms(1, [(1.0, PauliString.from_label("Z"))])
    assert np.allclose(z.to_dense(), np.diag([1.0, -1.0]))
    xx = OperatorSum.from_terms(2, [(1.0, PauliString.from_label("XX"))])
    assert np.allclose(xx.to_dense(), np.fliplr(np.eye(4)))


BUILDERS = {
    "nn": lambda n: sample_random("nn", n, 9),
    "general": lambda n: sample_random("general", n, 5),
    "invariant": lambda n: sample_random("invariant", n, 3),
    "ba": lambda n: build_ba(0.5, 0.25, n),
    "exyz": lambda n: build_exyz(0.5, n),
}


@pytest.mark.parametrize("kind", BUILDERS)
@pytest.mark.parametrize("n", [5, 8])
def test_apply_matches_dense(kind, n):
    rng = np.random.default_rng(4)
    h = BUILDERS[kind](n)
    v = StateVector.random(n, rng)
    got = h.apply(v).amplitudes
    want = h.to_dense() @ v.amplitudes
    assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize("kind", BUILDERS)
def test_apply_matrix_matches_term_sum(kind):
    """Oracle: the sum over terms of ``c * PauliString.to_dense() @ M``."""
    n = 6
    h = BUILDERS[kind](n)
    rng = np.random.default_rng(11)
    mat = rng.standard_normal((1 << n, 3)) + 1j * rng.standard_normal((1 << n, 3))
    want = sum(c * (p.to_dense() @ mat) for c, p in h.terms)
    assert np.max(np.abs(h.apply_matrix(mat) - want)) < 1e-12


@st.composite
def operator_sums(draw):
    n = draw(st.integers(1, 6))
    masks = st.integers(0, (1 << n) - 1)
    coeff = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    terms = draw(st.lists(st.tuples(coeff, masks, masks), max_size=12))
    return OperatorSum.from_terms(n, [(c, PauliString(n, x, z)) for c, x, z in terms])


@given(h=operator_sums(), seed=st.integers(0, 2**32 - 1))
def test_operator_forms_agree(h, seed):
    """Dense, matrix-free block and matrix-free vector forms of one sum agree."""
    dense = h.to_dense()
    assert np.max(np.abs(h.apply_matrix(np.eye(1 << h.n)) - dense), initial=0.0) < 1e-12
    v = StateVector.random(h.n, np.random.default_rng(seed))
    assert np.max(np.abs(h.apply(v).amplitudes - dense @ v.amplitudes)) < 1e-12


def test_dense_cap_enforced():
    # the check runs before the 2^n index array is allocated
    with pytest.raises(SizeLimitError):
        build_exyz(0.5, DENSE_CAP + 1).to_dense()


def test_real_dense_when_no_y():
    c = ChainCoefficients.zero(4)
    c.alpha[:, 3, 2] = 1.0
    assert build_nn_chain(c).to_dense().dtype == np.float64
    assert build_exyz(0.5, 4).to_dense().dtype == np.complex128


def test_compressed_preserves_spectrum_density():
    h = OperatorSum.from_terms(5, [(0.7, PauliString.from_sites(5, {2: 1, 3: 3}))])
    small, sites = h.compressed()
    assert sites == [2, 3]
    full = np.linalg.eigvalsh(h.to_dense())
    tiny = np.linalg.eigvalsh(small.to_dense())
    assert np.allclose(np.sort(np.repeat(tiny, 8)), np.sort(full))


def test_ring_builders_reject_tiny_n():
    with pytest.raises(ValueError):
        build_exyz(0.5, 2)
    with pytest.raises(ValueError):
        build_ba(0.1, 0.1, 2)


def test_operator_sum_merges_duplicates():
    p = PauliString.from_label("XZI")
    h = OperatorSum.from_terms(3, [(1.0, p), (2.0, p), (-3.0, p)])
    assert h.num_terms == 0
