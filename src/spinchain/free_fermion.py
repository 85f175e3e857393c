"""Analytic spectrum of the epsilon-XY+Z ring via its free-fermion modes.

The full 2^n spectrum is ``lambda_x = sum_j (2 x_j - 1) delta_j`` with
``delta_j = eps*mu_j - sqrt(eps^2 mu_j^2 + 1)`` and ``mu_j = sin(2 pi j/n)``.
Enumeration hands over the 2^n values without 2^n memory, as a sum-set: the
low ``chunk_bits`` modes are expanded once into a block ``low`` of 2^chunk
signed sums, and the remaining modes are walked in Gray-code order with an
O(1) running-sum update per step, giving 2^(n - chunk) offsets. The spectrum
is ``{o + v : o in offsets, v in low}``, and the density-of-states statistics
are computed on that pair instead of on materialised chunks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonians import build_exyz
from .spectra import diagonalize_dense

#: largest n whose spectrum is streamed (2^28 values); checked by ``spectrum_sum_set``
STREAM_CAP = 28
#: largest n whose full spectrum is collected into one array (2^24 values);
#: checked by ``collect_spectrum``; above it the density of states is streamed
EXACT_CAP = 24
#: refresh the incrementally maintained running sum this often (in values)
RECOMPUTE_PERIOD = 1 << 20


class StreamCapExceededError(ValueError):
    """Raised before allocation when n exceeds :data:`STREAM_CAP` (stream) or :data:`EXACT_CAP` (collect)."""


@dataclass(frozen=True)
class FreeFermionModes:
    """Mode data: ``mu[j-1] = sin(2 pi j / n)``, ``delta[j-1] < 0`` always."""

    n: int
    epsilon: float
    mu: np.ndarray
    delta: np.ndarray


def mode_energies(n, epsilon):
    if n < 3:
        raise ValueError("need n >= 3")
    j = np.arange(1, n + 1)
    mu = np.sin(2.0 * np.pi * j / n)
    mu[-1] = 0.0  # sin(2 pi) exactly
    delta = epsilon * mu - np.sqrt(epsilon**2 * mu**2 + 1.0)
    return FreeFermionModes(n, float(epsilon), mu, delta)


def _expand_block(deltas):
    """All 2^m signed subset sums ``sum_j (2 x_j - 1) delta_j`` of the given modes."""
    vals = np.zeros(1)
    for d in deltas:
        vals = np.concatenate([vals - d, vals + d])
    return vals


def sum_set_values(values, offsets):
    """The sum-set ``{o + v}`` as one array, offset-major: ``o_0 + values``, ``o_1 + values``, ..."""
    return (np.asarray(offsets, dtype=float)[:, None] + values).ravel()


def spectrum_sum_set(n, epsilon, scale=1.0, chunk_bits=16):
    """All 2^n eigenvalues (times ``scale``) as one sum-set ``(low, offsets)``.

    ``low`` holds the 2^k signed sums of the lowest ``k = min(chunk_bits, n)``
    modes and ``offsets`` the 2^(n-k) Gray-walk running sums of the others;
    together they stand for the values ``{o + v : o in offsets, v in low}``,
    each exactly once. The running sum is recomputed from scratch every
    :data:`RECOMPUTE_PERIOD` values to bound float drift. Memory is
    O(2^k + 2^(n-k)).
    """
    if n > STREAM_CAP:
        raise StreamCapExceededError(f"n={n} exceeds streaming cap {STREAM_CAP}")
    modes = mode_energies(n, epsilon)
    deltas = modes.delta * scale
    k = min(chunk_bits, n)
    low = _expand_block(deltas[:k])
    high = deltas[k:]
    m = n - k
    offsets = np.empty(1 << m)
    base = -float(np.sum(high))
    gray = 0
    refresh_every = max(1, RECOMPUTE_PERIOD >> k)
    for h in range(1 << m):
        if h and h % refresh_every == 0:
            # exact recomputation of the running sum at the current Gray word
            signs = np.array([1.0 if gray >> b & 1 else -1.0 for b in range(m)])
            base = float(np.dot(signs, high))
        offsets[h] = base
        if h == (1 << m) - 1:
            break
        step = h + 1
        bit = (step & -step).bit_length() - 1
        gray ^= 1 << bit
        base += 2.0 * high[bit] if gray >> bit & 1 else -2.0 * high[bit]
    return low, offsets


def collect_spectrum(n, epsilon, scale=1.0):
    """The full spectrum as one array, offset-major (exact mode; at most 2^EXACT_CAP values)."""
    if n > EXACT_CAP:
        raise StreamCapExceededError(f"n={n} exceeds exact cap {EXACT_CAP}")
    return sum_set_values(*spectrum_sum_set(n, epsilon, scale=scale))


def sector_parity(x):
    """Fermion-number parity ``r mod 2`` of an occupation multi-index."""
    return int(sum(x)) % 2


def resolve_parity_map(n, epsilon):
    """Match occupation parities to eigenvalues of the ring's Z-parity operator.

    The analytic construction fixes the parity classes only up to a global
    sign that depends on the parity of the fermionic vacuum; it is resolved
    here numerically by comparing the two analytic parity sub-multisets with
    the dense spectrum split by the Z-parity expectation of each eigenvector.
    Returns ``{0: eta_even, 1: eta_odd}``.
    """
    # the dense solve checks DENSE_CAP before anything of size 2^n exists
    e = diagonalize_dense(build_exyz(epsilon, n))
    parities = np.bitwise_count(np.arange(1 << n)) & 1
    spectrum = collect_spectrum(n, epsilon)
    even = np.sort(spectrum[parities == 0])
    odd = np.sort(spectrum[parities == 1])

    eta_diag = 1.0 - 2.0 * parities
    eta_exp = np.einsum("ij,i,ij->j", e.eigenvectors.conj(), eta_diag, e.eigenvectors).real
    if np.max(np.abs(np.abs(eta_exp) - 1.0)) > 1e-6:
        raise RuntimeError("eigenvectors are not parity eigenstates (degenerate spectrum?)")
    plus = np.sort(e.eigenvalues[eta_exp > 0])
    minus = np.sort(e.eigenvalues[eta_exp < 0])

    if len(plus) == len(even) and np.allclose(plus, even, atol=1e-8):
        if not (len(minus) == len(odd) and np.allclose(minus, odd, atol=1e-8)):
            raise RuntimeError("inconsistent parity assignment")
        return {0: +1, 1: -1}
    if len(minus) == len(even) and np.allclose(minus, even, atol=1e-8):
        if not (len(plus) == len(odd) and np.allclose(plus, odd, atol=1e-8)):
            raise RuntimeError("inconsistent parity assignment")
        return {0: -1, 1: +1}
    raise RuntimeError("analytic parity classes do not match the dense spectrum")


@dataclass(frozen=True)
class MinGapResult:
    epsilon: float
    min_gap: float


def min_gap_scan(n, epsilon_grid, scale=1.0):
    """Minimum spectral gap for each epsilon, and whether n is an odd prime (non-degeneracy is predicted only then)."""
    results = []
    for eps in epsilon_grid:
        vals = np.sort(collect_spectrum(n, eps, scale=scale))
        gap = float(np.min(np.diff(vals))) if len(vals) > 1 else float("inf")
        results.append(MinGapResult(float(eps), gap))
    return results, _is_odd_prime(n)


def _is_odd_prime(n):
    if n < 3 or n % 2 == 0:
        return False
    return all(n % d for d in range(3, int(math.isqrt(n)) + 1, 2))
