import numpy as np
import pytest

from spinchain import free_fermion
from spinchain.free_fermion import (
    EXACT_CAP,
    STREAM_CAP,
    collect_spectrum,
    min_gap_scan,
    mode_energies,
    resolve_parity_map,
    sector_parity,
    spectrum_sum_set,
    sum_set_values,
)
from spinchain.hamiltonians import SizeLimitError


def test_modes_eps_zero():
    modes = mode_energies(6, 0.0)
    assert np.allclose(modes.delta, -1.0)


def test_mode_first_at_n4():
    modes = mode_energies(4, 0.7)
    assert modes.mu[0] == pytest.approx(1.0)
    assert modes.delta[0] == pytest.approx(0.7 - np.sqrt(0.7**2 + 1.0))


def test_mode_product_identity():
    # delta = chi_-, and chi_+ = 2 eps mu - delta is its partner root: chi_+ chi_- = -1 mode by mode
    modes = mode_energies(5, 0.7)
    assert np.allclose(modes.delta * (2 * modes.epsilon * modes.mu - modes.delta), -1.0)


def test_last_mode_exactly_zero():
    assert mode_energies(9, 0.4).mu[-1] == 0.0


def test_spectrum_eps_zero_binomial():
    vals = np.sort(collect_spectrum(3, 0.0))
    assert np.allclose(vals, [-3, -1, -1, -1, 1, 1, 1, 3])


def test_spectrum_matches_dense_ed():
    from spinchain.hamiltonians import build_exyz

    for eps in (0.3, 1.0):
        analytic = np.sort(collect_spectrum(5, eps))
        dense = np.sort(np.linalg.eigvalsh(build_exyz(eps, 5).to_dense()))
        assert np.max(np.abs(analytic - dense)) < 1e-9


def test_spectrum_sums_to_zero():
    for n, eps in ((6, 0.4), (9, 1.3)):
        assert abs(np.sum(collect_spectrum(n, eps))) < 1e-8


def test_gray_walk_independent_of_chunking(monkeypatch):
    """Splitting the modes between the two halves of the sum-set must not change the multiset."""
    direct = np.sort(collect_spectrum(10, 0.6))
    for chunk_bits in (3, 5, 9):
        monkeypatch.setattr(free_fermion, "CHUNK_BITS", chunk_bits)
        values = sum_set_values(*spectrum_sum_set(10, 0.6))
        assert len(values) == 1 << 10
        assert np.max(np.abs(np.sort(values) - direct)) < 1e-10


def test_collect_spectrum_index_is_occupation(monkeypatch):
    """Entry i occupies mode j exactly when bit j-1 of i is set, across the split of the sum-set."""
    monkeypatch.setattr(free_fermion, "CHUNK_BITS", 3)
    n, eps = 8, 0.6
    delta = mode_energies(n, eps).delta
    i = np.arange(1 << n)
    signs = 2.0 * ((i[:, None] >> np.arange(n)) & 1) - 1.0
    assert np.max(np.abs(collect_spectrum(n, eps) - signs @ delta)) < 1e-12


def test_stream_scale():
    a = np.sort(collect_spectrum(5, 0.3, scale=0.25))
    b = 0.25 * np.sort(collect_spectrum(5, 0.3))
    assert np.allclose(a, b)


def test_stream_cap(monkeypatch):
    def expand_block(deltas):
        raise AssertionError("expanded a block above the streaming cap")

    monkeypatch.setattr(free_fermion, "_expand_block", expand_block)
    with pytest.raises(SizeLimitError):
        spectrum_sum_set(STREAM_CAP + 1, 0.5)
    with pytest.raises(SizeLimitError):
        collect_spectrum(EXACT_CAP + 1, 0.5)


def test_sector_parity():
    assert sector_parity((0, 0, 0)) == 0
    assert sector_parity((0, 1, 0)) == 1
    x = [1, 0, 1, 1]
    p = sector_parity(x)
    x[1] ^= 1
    assert sector_parity(x) == 1 - p


def test_resolve_parity_map_partitions_spectrum():
    mapping = resolve_parity_map(5, 0.4)
    assert set(mapping.values()) == {-1, 1}
    assert set(mapping) == {0, 1}


def test_min_gap_eps_zero():
    results, odd_prime = min_gap_scan(5, [0.0])
    assert odd_prime
    assert results[0].min_gap == pytest.approx(0.0, abs=1e-12)


def test_min_gap_generic_eps_positive():
    results, _ = min_gap_scan(5, [0.1 * k for k in range(1, 11)])
    for r in results:
        assert r.min_gap > 0.0, f"eps={r.epsilon}"

