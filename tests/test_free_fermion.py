import numpy as np
import pytest

from spinchain.free_fermion import (
    EXACT_CAP,
    STREAM_CAP,
    StreamCapExceededError,
    collect_spectrum,
    enumerate_spectrum,
    min_gap_scan,
    mode_energies,
    resolve_parity_map,
    sector_parity,
    sum_set_values,
)


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


def test_gray_walk_independent_of_chunking():
    """The Gray-code streaming path must emit the same multiset as direct expansion."""
    direct = np.sort(collect_spectrum(10, 0.6))
    for chunk_bits in (3, 5, 9):
        out = []
        count = enumerate_spectrum(10, 0.6, lambda *s: out.append(sum_set_values(*s)), chunk_bits=chunk_bits)
        assert count == 1 << 10
        assert np.max(np.abs(np.sort(out[0]) - direct)) < 1e-10


def test_stream_scale():
    a = np.sort(collect_spectrum(5, 0.3, scale=0.25))
    b = 0.25 * np.sort(collect_spectrum(5, 0.3))
    assert np.allclose(a, b)


def test_stream_cap():
    calls = []
    with pytest.raises(StreamCapExceededError):
        enumerate_spectrum(STREAM_CAP + 1, 0.5, lambda values, offsets: calls.append(len(offsets)))
    assert calls == []
    with pytest.raises(StreamCapExceededError):
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


def test_min_gap_warns_for_composite_n():
    with pytest.warns(UserWarning):
        _, odd_prime = min_gap_scan(4, [0.5])
    assert not odd_prime
