import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinchain.entanglement import average_purity
from spinchain.hamiltonians import (
    ChainCoefficients,
    DENSE_CAP,
    OperatorSum,
    SizeLimitError,
    build_ba,
    build_exyz,
    build_invariant,
    build_nn_chain,
    normalize,
    sample_random,
)
from spinchain.pauli import PauliString
from spinchain.spectra import commutator_norm, diagonalize_dense
from spinchain.symmetry import (
    OrbitTable,
    build_momentum_basis,
    joint_eigenbasis,
    momentum_blocks,
    sector_eigensystems,
    translate_index,
    translation_defect,
    translation_permutation,
)


def test_translate_index_example():
    # |011> -> |101> for n=3 (site n wraps to site 1)
    assert translate_index(0b011, 3) == 0b101


def test_translate_fixed_points():
    assert translate_index(0, 6) == 0
    assert translate_index((1 << 6) - 1, 6) == (1 << 6) - 1


def test_translate_n_applications_is_identity():
    n = 5
    for b in range(1 << n):
        t = b
        for _ in range(n):
            t = translate_index(t, n)
        assert t == b


def test_translate_index_range_check():
    with pytest.raises(ValueError):
        translate_index(8, 3)


def test_permutation_matches_scalar_map():
    perm = translation_permutation(4)
    assert [translate_index(b, 4) for b in range(16)] == list(perm)


def test_sector_dims_n3():
    dims = [s.dim for s in build_momentum_basis(3)]
    assert dims == [4, 2, 2]


def test_sector_dims_n1():
    sectors = build_momentum_basis(1)
    assert len(sectors) == 1 and sectors[0].dim == 2


def test_sector_dims_n5():
    dims = [s.dim for s in build_momentum_basis(5)]
    assert dims == [8, 6, 6, 6, 6]
    assert sum(dims) == 32


def test_sector_vectors_are_t_eigenvectors():
    n = 6
    perm = translation_permutation(n)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    for sector in build_momentum_basis(n):
        basis = sector.dense_basis()
        phase = np.exp(2j * np.pi * sector.k / n)
        assert np.max(np.abs(basis[inv] - phase * basis)) < 1e-12


def test_sector_bases_orthonormal_and_complete():
    n = 5
    full = np.concatenate([s.dense_basis() for s in build_momentum_basis(n)], axis=1)
    assert full.shape == (32, 32)
    assert np.max(np.abs(full.conj().T @ full - np.eye(32))) < 1e-12


def test_joint_eigenbasis_ising():
    alpha = np.zeros((4, 3))
    alpha[3, 2] = 1.0
    h = build_invariant(alpha, 4)
    e = joint_eigenbasis(h)
    perm = translation_permutation(4)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    # every eigenvector is a T eigenvector with the reported momentum
    for j in range(e.size):
        v = e.eigenvectors[:, j]
        phase = np.exp(2j * np.pi * e.momenta[j] / 4)
        assert np.max(np.abs(v[inv] - phase * v)) < 1e-10


def test_joint_eigenbasis_zero_operator():
    e = joint_eigenbasis(OperatorSum.zero(3))
    assert np.allclose(e.eigenvalues, 0.0)
    assert e.size == 8


def test_joint_eigenbasis_matches_dense_spectrum():
    h = sample_random("invariant", 6, 0)
    e = joint_eigenbasis(h)
    dense = diagonalize_dense(h, want_vectors=False)
    assert np.max(np.abs(e.eigenvalues - dense.eigenvalues)) < 1e-9
    assert e.residual < 1e-10


def test_joint_eigenbasis_rejects_non_invariant():
    h = sample_random("nn", 5, 0)
    with pytest.raises(ValueError):
        joint_eigenbasis(h)


def test_joint_eigenbasis_columns_orthonormal():
    h = sample_random("invariant", 5, 4)
    e = joint_eigenbasis(h)
    gram = e.eigenvectors.conj().T @ e.eigenvectors
    assert np.max(np.abs(gram - np.eye(e.size))) < 1e-10


def test_translation_conjugates_strings_cyclically():
    """Conjugating by the index permutation moves single-site support by one site."""
    n = 4
    perm = translation_permutation(n)
    for code in (1, 2, 3):
        a = PauliString.single(n, 1, code).to_dense()
        b = PauliString.single(n, 2, code).to_dense()
        assert np.max(np.abs(b[np.ix_(perm, perm)] - a)) < 1e-12


def test_orbit_table_matches_scalar_rotation():
    n = 6
    table = OrbitTable.build(n)
    for b in range(1 << n):
        orbit = [b]
        while translate_index(orbit[-1], n) != b:
            orbit.append(translate_index(orbit[-1], n))
        rep = min(orbit)
        assert table.rep[b] == rep and table.length[b] == len(orbit)
        t = rep
        for _ in range(table.shift[b]):
            t = translate_index(t, n)
        assert t == b and 0 <= table.shift[b] < len(orbit)


RINGS = {
    "nn": lambda n: sample_random("nn", n, 5),
    "general": lambda n: sample_random("general", n, 5),
    "invariant": lambda n: sample_random("invariant", n, 5),
    "ba": lambda n: build_ba(0.3, 0.7, n),
    "exyz": lambda n: build_exyz(0.4, n),
}


@pytest.mark.parametrize("kind", sorted(RINGS))
@pytest.mark.parametrize("n", [3, 6, 9])
def test_translation_defect_matches_dense_commutator(kind, n):
    h = RINGS[kind](n)
    defect = translation_defect(h)
    assert abs(defect - commutator_norm(h, translation_permutation(n))) < 1e-12
    if kind in ("invariant", "ba", "exyz"):
        assert defect == 0.0
    else:
        assert defect > 1e-6


COUPLINGS = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
RING_N = st.integers(3, 8)


@given(n=RING_N, alpha=st.lists(COUPLINGS, min_size=12, max_size=12))
def test_translation_defect_zero_on_sampled_invariant_rings(n, alpha):
    assert translation_defect(build_invariant(np.reshape(alpha, (4, 3)), n)) == 0.0


@given(n=RING_N, alpha1=COUPLINGS, alpha3=COUPLINGS)
def test_translation_defect_zero_on_sampled_ba_rings(n, alpha1, alpha3):
    assert translation_defect(build_ba(alpha1, alpha3, n)) == 0.0


@given(n=RING_N, seed=st.integers(0, 2**32 - 1))
def test_translation_defect_equals_commutator_on_random_nn_rings(n, seed):
    h = build_nn_chain(ChainCoefficients.random(n, np.random.default_rng(seed)))
    assert abs(translation_defect(h) - commutator_norm(h, translation_permutation(n))) < 1e-12


def test_translation_defect_exact_after_normalize():
    assert translation_defect(normalize(sample_random("invariant", 7, 2))) == 0.0
    assert translation_defect(OperatorSum.zero(4)) == 0.0


@pytest.mark.parametrize("n", [6, 8, 9])
def test_momentum_blocks_match_projected_dense(n):
    """Direct H_k equals B_k^dagger H B_k, short orbits included."""
    for h in (sample_random("invariant", n, 11), build_ba(0.5, 0.25, n)):
        dense = h.to_dense()
        seen = []
        for sector, block in momentum_blocks(h):
            basis = sector.dense_basis()
            assert np.max(np.abs(block - basis.conj().T @ dense @ basis)) < 1e-12
            seen.append(sector.k)
        assert seen == list(range(n))


def test_momentum_blocks_real_where_phases_are():
    blocks = {s.k: b for s, b in momentum_blocks(build_ba(0.5, 0.25, 8))}
    assert not np.iscomplexobj(blocks[0]) and not np.iscomplexobj(blocks[4])
    assert np.iscomplexobj(blocks[1])


def test_spectrum_only_path_matches_vector_path():
    for n in (6, 9):
        h = sample_random("invariant", n, 7)
        full = joint_eigenbasis(h)
        vals_only = joint_eigenbasis(h, want_vectors=False)
        assert vals_only.eigenvectors is None
        assert np.max(np.abs(full.eigenvalues - vals_only.eigenvalues)) < 1e-12
        assert np.array_equal(full.momenta, vals_only.momenta)
        dense = diagonalize_dense(h, want_vectors=False)
        assert np.max(np.abs(vals_only.eigenvalues - dense.eigenvalues)) < 1e-10


def test_joint_eigenbasis_cap():
    with pytest.raises(SizeLimitError):
        joint_eigenbasis(build_ba(0.5, 0.5, DENSE_CAP + 1), want_vectors=False)


def test_joint_purities_match_dense_eigenbasis():
    """Non-degenerate spectrum: both bases hold the same states up to phase."""
    n = 8
    h = sample_random("invariant", n, 3)
    e = joint_eigenbasis(h)
    assert np.min(np.diff(e.eigenvalues)) > 1e-6
    dense = diagonalize_dense(h)
    for l in (1, 2, 3):
        ours = average_purity(e, l).per_state
        ref = average_purity(dense, l).per_state
        assert np.max(np.abs(ours - ref)) < 1e-9


def _full_space_residual(h, e):
    """Largest full-space residual of H and of T over the lifted eigenvectors."""
    n = h.n
    vecs = e.eigenvectors
    perm = translation_permutation(n)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    res_h = h.to_dense() @ vecs - vecs * e.eigenvalues
    res_t = vecs[inv] - np.exp(2j * np.pi * e.momenta / n) * vecs
    return max(float(np.max(np.linalg.norm(r, axis=0))) for r in (res_h, res_t))


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
def test_sector_residual_equals_full_space_residual(n):
    """||H_k v - lambda v|| in sector space is the full-space H and T residual of B_k v."""
    h = sample_random("invariant", n, 2)
    e = joint_eigenbasis(h)
    full = _full_space_residual(h, e)
    assert abs(e.residual - full) < 1e-12
    assert e.residual < 1e-10 and full < 1e-10
    sector_max = max(res for _, _, _, res in sector_eigensystems(h))
    assert sector_max == e.residual


def test_values_only_sectors_use_eigvalsh(monkeypatch):
    """The eigenvalues-only path never calls ``eigh``, which also forms the eigenvectors."""
    def refuse(*args, **kwargs):
        raise AssertionError("eigh called on the eigenvalues-only path")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    stream = list(sector_eigensystems(build_ba(0.5, 0.25, 7), want_vectors=False))
    assert all(vecs is None and res == 0.0 for _, _, vecs, res in stream)
    assert joint_eigenbasis(build_ba(0.5, 0.25, 7), want_vectors=False).size == 128


def test_lift_is_fortran_ordered():
    sector = build_momentum_basis(6)[1]
    block = sector.lift(np.eye(sector.dim)[:, :3])
    assert block.flags.f_contiguous and block.shape == (64, 3)
