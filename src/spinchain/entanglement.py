"""Partial traces onto leading blocks, purity statistics and the exactness
checks for pair-only chains.

Block A is always the contiguous sites ``1..l``; for translation-invariant
Hamiltonians the starting site is irrelevant (asserted in the tests, not
assumed here). Every reduced density matrix comes from :func:`_reduced_states`,
which checks each one before it is used.
"""

from dataclasses import dataclass

import numpy as np

from .hamiltonians import OperatorSum
from .pauli import PauliString
from .spectra import EigenDecomposition
from .symmetry import sector_eigensystems, sorted_spectrum

#: trace, Hermitian and positivity tolerance of every reduced density matrix
RDM_TOL = 1e-10
#: slack of the theorem-backed purity and Markov bounds
BOUND_SLACK = 1e-9
#: largest |purity - 1/2| and odd-weight coefficient a pair-only report passes with
EXACTNESS_TOL = 1e-8
#: gaps below this fraction of the spectral range make a pair-only spectrum degenerate
GAP_RTOL = 1e-8

#: row a holds ``sigma^a[j, i]`` at column ``2 i + j``, so that for one qubit
#: ``Tr(rho sigma^a) = sum_p _PAULI_TRACE[a, p] * rho.ravel()[p]``
_PAULI_TRACE = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])


#: columns per stack in :func:`_reduced_states`; bounds its temporaries
PURITY_CHUNK = 256


def _reduced_states(columns, n, l):
    """Yield ``(start, rhos)``: the reduced density matrices of sites 1..l of columns ``start..`` of a (2^n, m) array.

    Site 1 is the most significant index bit, so a column reshapes to
    ``(2^l, 2^(n-l))`` with block A on the first axis and ``rho = A A^H``.
    Columns go through PURITY_CHUNK at a time; a chunk of a Fortran-ordered
    array reshapes as a view. Every rho is checked before its stack is
    yielded (unit trace, Hermitian, no eigenvalue below ``-RDM_TOL``); a
    failure is numerical, so it raises ``RuntimeError``.
    """
    if not 1 <= l < n:
        raise ValueError(f"block size {l} out of range for n={n}")
    for start in range(0, columns.shape[1], PURITY_CHUNK):
        chunk = columns[:, start:start + PURITY_CHUNK]
        blocks = chunk.T.reshape(chunk.shape[1], 1 << l, 1 << (n - l))
        rhos = blocks @ blocks.conj().transpose(0, 2, 1)
        for name, dev in (
            ("trace", np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0)),
            ("Hermitian", np.max(np.abs(rhos - rhos.conj().transpose(0, 2, 1)), axis=(1, 2))),
            ("positivity", -np.linalg.eigvalsh(rhos)[:, 0]),
        ):
            bad = np.flatnonzero(~(dev <= RDM_TOL))  # a NaN fails too
            if len(bad):
                raise RuntimeError(
                    f"reduced density matrix of sites 1..{l} of state {start + bad[0]} fails its "
                    f"{name} check: deviation {dev[bad[0]]:.3g} > {RDM_TOL}"
                )
        yield start, rhos


def _purity(rhos):
    # Tr(rho^2) = sum |rho_ij|^2 for Hermitian rho
    return np.sum(np.abs(rhos) ** 2, axis=(1, 2))


def _purities(columns, n, l):
    """Purity of sites 1..l for every column of a (2^n, m) array."""
    out = np.empty(columns.shape[1])
    for start, rhos in _reduced_states(columns, n, l):
        out[start:start + len(rhos)] = _purity(rhos)
    return out


def reduce_contiguous(v, l):
    """The checked 2^l x 2^l reduced density matrix ``Tr_B |v><v|`` of sites 1..l."""
    _, rhos = next(_reduced_states(v.amplitudes[:, None], v.n, l))
    return rhos[0]


def _pauli_stack(rhos, l):
    """Pauli coefficients of a (c, 2^l, 2^l) stack, shape (c,) + (4,)*l.

    The trace factorises over the qubits: the row and column bits of each
    qubit are paired into one index of size 4 and :data:`_PAULI_TRACE` is
    applied to each such index in turn, O(l 4^l) per matrix.
    """
    c = len(rhos)
    # axes (batch, i_1..i_l, j_1..j_l) -> (batch, i_1 j_1, ..., i_l j_l)
    pairs = [0] + [axis for k in range(1, l + 1) for axis in (k, l + k)]
    out = rhos.reshape((c,) + (2,) * (2 * l)).transpose(pairs).reshape((c,) + (4,) * l)
    for _ in range(l):
        # contracts the leading qubit index and appends its Pauli code last
        out = np.tensordot(out, _PAULI_TRACE, axes=(1, 1))
    return out.real


def pauli_coefficients(v, l):
    """Expectation ``<v| sigma^(a_1) ... sigma^(a_l) |v>`` for all index tuples.

    Returned as a real array of shape (4,)*l; the identity entry is 1 and
    ``purity = 2^-l * sum(coeffs^2)`` (Parseval).
    """
    return _pauli_stack(reduce_contiguous(v, l)[None], l)[0]


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

    def bound_holds(self):
        return self.bound_lower - BOUND_SLACK <= self.mean <= self.bound_upper + BOUND_SLACK


def average_purity(basis, l):
    """Mean purity of sites 1..l over every state of an eigenbasis.

    The theorem-backed bound ``2^-l <= mean <= 2^-l + 2^l/n`` is only
    claimed for joint (H, T) eigenbases with ``2l < n``; results from other
    bases are flagged ``bound_claimed=False`` rather than rejected.
    """
    if basis.eigenvectors is None:
        raise ValueError("eigenvectors are required")
    n = int(np.log2(basis.eigenvectors.shape[0]))
    per_state = _purities(basis.eigenvectors, n, l)
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
            parts.append(_purities(block, n, l))
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

    def bound_holds(self):
        return self.fraction <= self.markov_bound + BOUND_SLACK


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

    def passes(self):
        if self.degenerate:
            return False
        if self.l == 1 and self.max_purity_deviation is not None:
            if self.max_purity_deviation > EXACTNESS_TOL:
                return False
        if self.max_odd_weight_coeff is not None and self.max_odd_weight_coeff > EXACTNESS_TOL:
            return False
        return True


def pair_only_checks(e, l):
    """Exactness checks for pair-only chains.

    For l=1 every per-state purity must equal 1/2; for general l every
    Pauli coefficient with an odd number of non-identity factors must
    vanish.  Both claims need a non-degenerate spectrum; if the observed
    minimum gap is below ``GAP_RTOL * range`` the report is informational.
    Purities and coefficients are read from the same reduced states.
    """
    if e.eigenvectors is None:
        raise ValueError("eigenvectors are required")
    n = int(np.log2(e.eigenvectors.shape[0]))
    gaps = np.diff(e.eigenvalues)
    min_gap = float(gaps.min()) if len(gaps) else float("inf")
    degenerate = min_gap < GAP_RTOL * (e.eigenvalues[-1] - e.eigenvalues[0])

    purities = np.empty(e.eigenvectors.shape[1])
    # index tuples of shape (4,)*l with an odd number of non-identity codes
    odd = np.count_nonzero(np.indices((4,) * l), axis=0) % 2 == 1
    max_odd = 0.0
    for start, rhos in _reduced_states(e.eigenvectors, n, l):
        purities[start:start + len(rhos)] = _purity(rhos)
        max_odd = max(max_odd, float(np.max(np.abs(_pauli_stack(rhos, l)[:, odd]))))
    max_dev = float(np.max(np.abs(purities - 0.5))) if l == 1 else None

    return PairOnlyReport(l, degenerate, min_gap, purities, max_dev, max_odd)
