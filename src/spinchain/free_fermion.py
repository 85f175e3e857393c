"""Analytic spectrum of the epsilon-XY+Z ring via its free-fermion modes.

The full 2^n spectrum is ``lambda_x = sum_j (2 x_j - 1) delta_j`` with
``delta_j = eps*mu_j - sqrt(eps^2 mu_j^2 + 1)`` and ``mu_j = sin(2 pi j/n)``.
Enumeration hands over the 2^n values without 2^n memory, as a sum-set: the
signed sums of the low ``CHUNK_BITS`` modes form a block ``low`` and the
signed sums of the remaining modes form the ``offsets``, both in binary
occupation order. The spectrum is ``{o + v : o in offsets, v in low}``, and
the density-of-states statistics are computed on that pair instead of on
materialised values.
"""

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonians import SizeLimitError
from .spectra import min_gap

#: largest n whose spectrum is streamed (2^28 values); checked by ``spectrum_sum_set``
STREAM_CAP = 28
#: largest n whose full spectrum is collected into one array (2^24 values);
#: checked by ``collect_spectrum``; above it the density of states is streamed
EXACT_CAP = 24
#: modes expanded into the ``low`` half of the sum-set (2 MiB at 18); the rest give the offsets
CHUNK_BITS = 18


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
    """All 2^m signed subset sums ``sum_j (2 x_j - 1) delta_j`` of the given modes, in one array filled in place."""
    vals = np.zeros(1 << len(deltas))
    for j, d in enumerate(deltas):
        head = vals[: 1 << j]
        np.add(head, d, out=vals[1 << j : 2 << j])
        np.subtract(head, d, out=head)
    return vals


def sum_set_values(values, offsets):
    """The sum-set ``{o + v}`` as one array, offset-major: ``o_0 + values``, ``o_1 + values``, ..."""
    return (np.asarray(offsets, dtype=float)[:, None] + values).ravel()


def check_size(n):
    """Refuse an n whose spectrum :func:`spectrum_sum_set` cannot give, before anything is built."""
    if n > STREAM_CAP:
        raise SizeLimitError(f"n={n} exceeds streaming cap {STREAM_CAP}")
    if n < 3:
        raise ValueError("need n >= 3")


def spectrum_sum_set(n, epsilon, scale=1.0):
    """All 2^n eigenvalues (times ``scale``) as one sum-set ``(low, offsets)``.

    ``low`` holds the 2^k signed sums of the lowest ``k = min(CHUNK_BITS, n)``
    modes and ``offsets`` the 2^(n-k) signed sums of the others, both in
    binary occupation order; together they stand for the values
    ``{o + v : o in offsets, v in low}``, each exactly once. Memory is
    O(2^k + 2^(n-k)).
    """
    check_size(n)
    deltas = mode_energies(n, epsilon).delta * scale
    k = min(CHUNK_BITS, n)
    return _expand_block(deltas[:k]), _expand_block(deltas[k:])


def collect_spectrum(n, epsilon):
    """The full spectrum as one array (exact mode; at most 2^EXACT_CAP values).

    Entry ``i`` is the eigenvalue whose mode ``j`` is occupied exactly when
    bit ``j - 1`` of ``i`` is set.
    """
    if n > EXACT_CAP:
        raise SizeLimitError(f"n={n} exceeds exact cap {EXACT_CAP}")
    return sum_set_values(*spectrum_sum_set(n, epsilon))


@dataclass(frozen=True)
class MinGapResult:
    epsilon: float
    min_gap: float


def min_gap_scan(n, epsilon_grid):
    """Minimum spectral gap for each epsilon, and whether n is an odd prime (non-degeneracy is predicted only then)."""
    results = []
    for eps in epsilon_grid:
        results.append(MinGapResult(float(eps), min_gap(np.sort(collect_spectrum(n, eps)))))
    return results, _is_odd_prime(n)


def _is_odd_prime(n):
    if n < 3 or n % 2 == 0:
        return False
    return all(n % d for d in range(3, int(math.isqrt(n)) + 1, 2))
