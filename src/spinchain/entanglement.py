"""Partial traces onto leading blocks, purity statistics and the exactness
checks for pair-only chains.

Block A is always the contiguous sites ``1..l``; for translation-invariant
Hamiltonians the starting site is irrelevant (asserted in the tests, not
assumed here).
"""

from dataclasses import dataclass

import numpy as np

from .hamiltonians import OperatorSum
from .pauli import PauliString, StateVector
from .spectra import EigenDecomposition
from .symmetry import sector_eigensystems, sorted_spectrum

RDM_TOL = 1e-10

#: row a holds ``sigma^a[j, i]`` at column ``2 i + j``, so that for one qubit
#: ``Tr(rho sigma^a) = sum_p _PAULI_TRACE[a, p] * rho.ravel()[p]``
_PAULI_TRACE = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])


@dataclass(frozen=True)
class ReducedDensityMatrix:
    """2^l x 2^l Hermitian, PSD (to tolerance), unit-trace matrix."""

    l: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        dim = 1 << self.l
        if m.shape != (dim, dim):
            raise ValueError(f"expected shape {(dim, dim)}")
        if abs(np.trace(m).real - 1.0) > RDM_TOL or abs(np.trace(m).imag) > RDM_TOL:
            raise ValueError("trace differs from 1 beyond tolerance")
        if np.max(np.abs(m - m.conj().T)) > RDM_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        object.__setattr__(self, "matrix", m)

    @property
    def purity(self):
        # Tr(rho^2) = sum |rho_ij|^2 for Hermitian rho
        return float(np.sum(np.abs(self.matrix) ** 2))


def reduce_contiguous(v, l):
    """``Tr_B |v><v|`` for B = sites l+1..n, via the l-side Gram matrix.

    Site 1 is the most significant index bit, so the reshape to
    ``(2^l, 2^(n-l))`` puts block A on the first axis directly.
    """
    if not 1 <= l < v.n:
        raise ValueError(f"block size {l} out of range for n={v.n}")
    a = v.amplitudes.reshape(1 << l, 1 << (v.n - l))
    rho = a @ a.conj().T
    psd_floor = float(np.linalg.eigvalsh(rho)[0])
    if psd_floor < -RDM_TOL:
        raise ValueError(f"reduced matrix has eigenvalue {psd_floor} < -{RDM_TOL}")
    return ReducedDensityMatrix(l, rho)


#: columns per batch in :func:`_batched_purities`; bounds its temporaries
PURITY_CHUNK = 256


def _batched_purities(columns, n, l):
    """Purity of sites 1..l for every column of a (2^n, m) array.

    Columns go through in chunks, so neither memory layout copies the whole
    array: a chunk of a Fortran-ordered array reshapes as a view.
    """
    m = columns.shape[1]
    out = np.empty(m)
    for start in range(0, m, PURITY_CHUNK):
        chunk = columns[:, start:start + PURITY_CHUNK]
        blocks = chunk.T.reshape(chunk.shape[1], 1 << l, 1 << (n - l))
        rhos = blocks @ blocks.conj().transpose(0, 2, 1)
        out[start:start + chunk.shape[1]] = np.sum(np.abs(rhos) ** 2, axis=(1, 2)).real
    return out


def pauli_coefficients(v, l):
    """Expectation ``<v| sigma^(a_1) ... sigma^(a_l) |v>`` for all index tuples.

    Returned as a real array of shape (4,)*l; the identity entry is 1 and
    ``purity = 2^-l * sum(coeffs^2)`` (Parseval).

    The trace factorises over the qubits: the row and column bits of each
    qubit are paired into one index of size 4 and :data:`_PAULI_TRACE` is
    applied to each such index in turn, O(l 4^l) in total.
    """
    rho = reduce_contiguous(v, l).matrix
    # axes (i_1..i_l, j_1..j_l) -> (i_1 j_1, ..., i_l j_l)
    pairs = [axis for k in range(l) for axis in (k, l + k)]
    out = rho.reshape((2,) * (2 * l)).transpose(pairs).reshape((4,) * l)
    for _ in range(l):
        # contracts the leading qubit index and appends its Pauli code last
        out = np.tensordot(out, _PAULI_TRACE, axes=(0, 1))
    return out.real


def build_M(a, n):
    """Translation average ``(1/sqrt(n)) sum_j T^j sigma_1^(a_1)..sigma_l^(a_l) T^-j``.

    Requires ``a != 0`` and ``2l < n`` so the n translated strings are
    distinct; then ``hs_inner(M, M) = 1`` exactly.
    """
    codes = tuple(a)
    l = len(codes)
    if all(c == 0 for c in codes):
        raise ValueError("a must not be the all-zero tuple")
    if 2 * l >= n:
        raise ValueError(f"need 2l < n for distinct translates (l={l}, n={n})")
    pref = 1.0 / np.sqrt(n)
    terms = []
    for j in range(n):
        sites = {(i + j) % n + 1: c for i, c in enumerate(codes) if c != 0}
        terms.append((pref, PauliString.from_sites(n, sites)))
    return OperatorSum.from_terms(n, terms)


@dataclass(frozen=True)
class AveragePurityResult:
    mean: float
    per_state: np.ndarray
    l: int
    n: int
    bound_claimed: bool

    @property
    def bound_lower(self):
        return 2.0**-self.l

    @property
    def bound_upper(self):
        return 2.0**-self.l + 2.0**self.l / self.n

    def bound_holds(self, slack=1e-9):
        return self.bound_lower - slack <= self.mean <= self.bound_upper + slack


def average_purity(basis, l, n=None):
    """Mean purity of sites 1..l over every state of an eigenbasis.

    The theorem-backed bound ``2^-l <= mean <= 2^-l + 2^l/n`` is only
    claimed for joint (H, T) eigenbases with ``2l < n``; results from other
    bases are flagged ``bound_claimed=False`` rather than rejected.
    """
    if basis.eigenvectors is None:
        raise ValueError("eigenvectors are required")
    if n is None:
        n = int(np.log2(basis.eigenvectors.shape[0]))
    per_state = _batched_purities(basis.eigenvectors, n, l)
    claimed = basis.momenta is not None and 2 * l < n
    # pairwise summation via np.mean keeps the reduction deterministic
    return AveragePurityResult(float(np.mean(per_state)), per_state, l, n, claimed)


def sector_purities(h, ls):
    """Eigenvalues, momenta and mean purities of the joint (H, T) eigenbasis, one sector at a time.

    Each momentum sector of :func:`symmetry.sector_eigensystems` is lifted
    into a Fortran-ordered (2^n x dim_k) block, its purities of sites 1..l
    are taken for every l in ``ls``, and the block is dropped, so no 2^n x
    2^n array is formed. The purities are then put in the global state
    order of :func:`symmetry.joint_eigenbasis` and averaged over that order,
    so every value equals ``average_purity(joint_eigenbasis(h), l)``.

    Returns an :class:`EigenDecomposition` without eigenvectors (its
    ``residual`` is the largest sector residual) and a dict mapping each l
    to its :class:`AveragePurityResult`.
    """
    n = h.n
    solved, residual = [], 0.0
    per_sector = {l: [] for l in ls}
    for sector, vals, vecs, res in sector_eigensystems(h):
        block = sector.lift(vecs)
        for l, parts in per_sector.items():
            parts.append(_batched_purities(block, n, l))
        del block
        solved.append((sector, vals))
        residual = max(residual, res)
    vals, ks, order = sorted_spectrum(solved)
    results = {}
    for l, parts in per_sector.items():
        per_state = np.concatenate(parts)[order]
        results[l] = AveragePurityResult(float(np.mean(per_state)), per_state, l, n, 2 * l < n)
    return EigenDecomposition(vals, None, residual, ks), results


@dataclass(frozen=True)
class EpsilonFractionResult:
    fraction: float
    markov_bound: float
    epsilon: float

    def bound_holds(self, slack=1e-9):
        return self.fraction <= self.markov_bound + slack


def epsilon_fraction(per_state, l, epsilon, n):
    """Fraction of states with purity >= 2^-l + epsilon, with its Markov bound."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    per_state = np.asarray(per_state)
    frac = float(np.mean(per_state >= 2.0**-l + epsilon))
    bound = (2.0**l / n) / epsilon
    return EpsilonFractionResult(frac, bound, epsilon)


@dataclass(frozen=True)
class PairOnlyReport:
    l: int
    degenerate: bool
    min_gap: float
    purities: np.ndarray | None
    max_purity_deviation: float | None
    max_odd_weight_coeff: float | None

    def passes(self, tol=1e-8):
        if self.degenerate:
            return False
        if self.l == 1 and self.max_purity_deviation is not None:
            if self.max_purity_deviation > tol:
                return False
        if self.max_odd_weight_coeff is not None and self.max_odd_weight_coeff > tol:
            return False
        return True


def pair_only_checks(e, l, n=None, gap_rtol=1e-8):
    """Exactness checks for pair-only chains.

    For l=1 every per-state purity must equal 1/2; for general l every
    Pauli coefficient with an odd number of non-identity factors must
    vanish.  Both claims need a non-degenerate spectrum; if the observed
    minimum gap is below ``gap_rtol * range`` the report is informational.
    """
    if e.eigenvectors is None:
        raise ValueError("eigenvectors are required")
    if n is None:
        n = int(np.log2(e.eigenvectors.shape[0]))
    gaps = np.diff(e.eigenvalues)
    min_gap = float(gaps.min()) if len(gaps) else float("inf")
    degenerate = min_gap < gap_rtol * (e.eigenvalues[-1] - e.eigenvalues[0])

    purities = _batched_purities(e.eigenvectors, n, l)
    max_dev = float(np.max(np.abs(purities - 0.5))) if l == 1 else None

    odd = _odd_weight_mask(l)
    max_odd = 0.0
    for k in range(e.eigenvectors.shape[1]):
        coeffs = pauli_coefficients(StateVector(n, e.eigenvectors[:, k]), l)
        max_odd = max(max_odd, float(np.max(np.abs(coeffs[odd]))))

    return PairOnlyReport(l, degenerate, min_gap, purities, max_dev, max_odd)


def _odd_weight_mask(l):
    """Index tuples of shape (4,)*l with an odd number of non-identity codes."""
    return np.count_nonzero(np.indices((4,) * l), axis=0) % 2 == 1
