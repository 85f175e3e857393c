import csv

import numpy as np
import pytest

from spinchain.hamiltonians import (
    build_exyz,
    sample_random,
)
from spinchain.spectra import (
    EigenDecomposition,
    diagonalize_dense,
    min_gap,
    spectrum_table,
)
from oracles import commutator_norm, from_label, from_terms, translation_permutation


def op(n, label, coeff=1.0):
    return from_terms(n, [(coeff, from_label(label))])


def cluster_sizes(vals, rel_tol):
    """Sizes of the runs of ascending eigenvalues whose consecutive gaps are below ``rel_tol * range``."""
    breaks = np.flatnonzero(np.diff(vals) >= rel_tol * (vals[-1] - vals[0]))
    return tuple(int(s) for s in np.diff(np.concatenate([[0], breaks + 1, [len(vals)]])))


def test_diagonalize_z():
    e = diagonalize_dense(op(1, "Z"))
    assert np.allclose(e.eigenvalues, [-1.0, 1.0])


def test_diagonalize_field_chain():
    h = op(3, "ZII") + op(3, "IZI") + op(3, "IIZ")
    e = diagonalize_dense(h, want_vectors=False)
    assert np.allclose(e.eigenvalues, [-3, -1, -1, -1, 1, 1, 1, 3])


def test_diagonalize_exyz_matches_free_fermion():
    from spinchain.free_fermion import collect_spectrum

    e = diagonalize_dense(build_exyz(0.3, 5), want_vectors=False)
    assert np.max(np.abs(e.eigenvalues - np.sort(collect_spectrum(5, 0.3)))) < 1e-9


def test_diagonalize_residual_small():
    e = diagonalize_dense(sample_random("nn", 6, 0))
    assert e.residual < 1e-10


def test_detect_degeneracy_clusters():
    vals = np.array([-3.0, -1, -1, -1, 1, 1, 1, 3])
    assert cluster_sizes(vals, 1e-10) == (1, 3, 3, 1)
    assert min_gap(vals) == 0.0
    assert min_gap(np.array([-3.0, -1, 1.5])) == 2.0
    assert min_gap(np.array([1.0])) == float("inf")


def test_generic_invariant_samples_nondegenerate():
    """Random invariant chains with local terms show no near-degeneracy (20 seeds)."""
    for seed in range(20):
        e = diagonalize_dense(sample_random("invariant", 5, seed), want_vectors=False)
        assert max(cluster_sizes(e.eigenvalues, 1e-8)) == 1, f"seed {seed}"


def test_pair_only_odd_n_double_degeneracy():
    """Pair-only chains at odd n carry an exact two-fold degeneracy throughout."""
    for seed in range(5):
        e = diagonalize_dense(sample_random("pair_only", 5, seed), want_vectors=False)
        assert set(cluster_sizes(e.eigenvalues, 1e-8)) == {2}, f"seed {seed}"


def test_commutator_invariant_with_translation():
    h = sample_random("invariant", 5, 1)
    assert commutator_norm(h, translation_permutation(5)) < 1e-12


def test_commutator_noninvariant_with_translation():
    h = sample_random("nn", 5, 1)
    assert commutator_norm(h, translation_permutation(5)) > 1e-6


def test_commutator_zx():
    # ||[Z, X]||_F / sqrt(2) = ||2iY||_F / sqrt(2) = 2
    assert abs(commutator_norm(op(1, "Z"), op(1, "X")) - 2.0) < 1e-12


def test_commutator_disjoint_support():
    assert commutator_norm(op(2, "ZI"), op(2, "IZ")) < 1e-12


def test_commutator_refuses_a_dense_matrix():
    a = op(1, "Z")
    with pytest.raises(ValueError, match="permutation of 2 basis indices"):
        commutator_norm(a, op(1, "X").to_dense())


def test_eigendecomposition_rejects_unsorted():
    with pytest.raises(ValueError):
        EigenDecomposition(np.array([1.0, 0.0]))


def test_spectrum_csv_round_trip(tmp_path):
    e = diagonalize_dense(sample_random("invariant", 4, 2), want_vectors=False)
    path = tmp_path / "spec.csv"
    header, rows = spectrum_table(e)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[:2] == ["index", "eigenvalue"]
    vals = [float(row.split(",")[1]) for row in lines[1:]]
    assert np.allclose(vals, e.eigenvalues)
