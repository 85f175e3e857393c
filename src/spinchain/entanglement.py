"""Partial traces onto leading blocks, purity statistics and the exactness
checks for pair-only chains.

Block A is always the contiguous sites ``1..l``; for translation-invariant
Hamiltonians the starting site is irrelevant (asserted in the tests, not
assumed here). Every reduced density matrix comes from one purity loop,
:func:`_rho_buffers`, which checks each one before it is used.
"""

from dataclasses import dataclass

import numpy as np

from .hamiltonians import OperatorSum
from .pauli import _CODE_BITS
from .spectra import EigenDecomposition, min_gap
from .symmetry import _rotate, eigensystems, sorted_spectrum

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


#: bytes of one chunk of states, a (c, 2^n) complex array, and of one buffer of
#: reduced states; a purity loop holds a chunk, its conjugate and a buffer at once,
#: and loops that run side by side share these bytes
CHUNK_BYTES = 1 << 20


def _gram(states, conj, n, l, trailing):
    """rho of sites 1..l, or with ``trailing`` of sites l+1..n, of each row of ``states``.

    Site 1 is the most significant index bit, so a row reshapes to ``psi`` of
    shape ``(2^l, 2^(n-l))``: ``rho = psi psi^H``, or ``psi^T conj(psi)``.
    """
    shape = (len(states), 1 << l, 1 << (n - l))
    if trailing:
        return states.reshape(shape).transpose(0, 2, 1) @ conj.reshape(shape)
    return states.reshape(shape) @ conj.reshape(shape).transpose(0, 2, 1)


def _chunk_rhos(states, n, sides):
    """``{l: rhos}`` of a chunk for every l of ``sides`` (l -> whether rho is that of sites l+1..n).

    Each side takes one Gram product, of its largest block; each smaller
    block is the partial trace of the next larger one, a site at a time.
    """
    conj, rhos = states.conj(), {}
    for trailing in (False, True):
        # largest block first: sites 1..l for l descending, sites l+1..n for l ascending
        side = sorted((l for l, t in sides.items() if t == trailing), reverse=not trailing)
        for l in side:
            if l == side[0]:
                rho, at = _gram(states, conj, n, l, trailing), l
            for _ in range(abs(l - at)):
                c, d = len(rho), rho.shape[1] // 2
                if trailing:  # trace out the block's first site
                    r = rho.reshape(c, 2, d, 2, d)
                    rho = r[:, 0, :, 0] + r[:, 1, :, 1]
                else:  # its last site
                    r = rho.reshape(c, d, 2, d, 2)
                    rho = r[:, :, 0, :, 0] + r[:, :, 1, :, 1]
            rhos[l], at = rho, l
    return rhos


def _check_rhos(rhos, sites, first):
    """Check a stack for unit trace, Hermiticity, then no eigenvalue below ``-RDM_TOL``.

    A failure is numerical: ``RuntimeError`` names rho i as state ``first + i``.
    If ``rho + (RDM_TOL/2) I`` has a Cholesky factor for every rho, no
    eigenvalue is below ``-RDM_TOL/2``; only if not are the eigenvalues taken.
    """
    def fail_first(dev, name):
        bad = np.flatnonzero(~(dev <= RDM_TOL))  # a NaN fails too
        if len(bad):
            raise RuntimeError(
                f"reduced density matrix of sites {sites} of state {first + bad[0]} fails its "
                f"{name} check: deviation {dev[bad[0]]:.3g} > {RDM_TOL}"
            )

    fail_first(np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0), "trace")
    fail_first(np.max(np.abs(rhos - rhos.conj().transpose(0, 2, 1)), axis=(1, 2)), "Hermitian")
    try:
        np.linalg.cholesky(rhos + (RDM_TOL / 2) * np.eye(rhos.shape[1]))
    except np.linalg.LinAlgError:
        fail_first(-np.linalg.eigvalsh(rhos)[:, 0], "positivity")


def _rho_buffers(vecs, n, sides, gather_map=None, first=0, share=1):
    """Yield ``(first, {l: rhos})`` for runs of consecutive columns of ``vecs``, counted from state ``first``.

    The columns are full-space states, or with a sector's ``(src, amps)``
    (:meth:`symmetry.MomentumSector.gather_map`) sector coordinates, which
    are lifted a chunk at a time. A chunk is as many states as fit in
    ``CHUNK_BYTES / share`` as (c, 2^n) arrays, and its rho
    (:func:`_chunk_rhos`) fill one buffer of at most ``CHUNK_BYTES / share``.
    Each full buffer, and the last, is checked stack by stack
    (:func:`_check_rhos`, which names a failing state by its index) and
    yielded; the next buffer overwrites it.
    """
    if not all(1 <= l < n for l in sides):
        raise ValueError(f"block sizes {list(sides)} out of range for n={n}")
    dims = {l: 1 << (n - l if trailing else l) for l, trailing in sides.items()}
    capacity = max(1, CHUNK_BYTES // share // sum(16 * d * d for d in dims.values()))
    buffer = {l: np.empty((capacity, d, d), dtype=complex) for l, d in dims.items()}
    width = max(1, (CHUNK_BYTES // share) >> (n + 4))
    rows = vecs.T  # one state per row, C-ordered when vecs is Fortran-ordered
    src, amps = gather_map or (None, None)
    filled = 0

    def checked():
        for l, trailing in sides.items():
            _check_rhos(buffer[l][:filled], f"{l + 1}..{n}" if trailing else f"1..{l}", first)
        return {l: b[:filled] for l, b in buffer.items()}

    for start in range(0, len(rows), width):
        states = rows[start:start + width]
        if src is not None:
            # a real chunk is made complex before the gather, a chunk at a time
            states = states.astype(complex, copy=False).take(src, axis=1)
            # amplitudes first, as in the scatter lift: swapped operands round differently
            np.multiply(amps, states, out=states)
        c, rhos, done = len(states), _chunk_rhos(states, n, sides), 0
        del states  # before the next chunk is gathered
        while done < c:
            take = min(capacity - filled, c - done)
            for l, b in buffer.items():
                b[filled:filled + take] = rhos[l][done:done + take]
            filled, done = filled + take, done + take
            if filled == capacity:
                yield first, checked()
                first, filled = first + filled, 0
    if filled:
        yield first, checked()


def _purity(rhos):
    # Tr(rho^2) = sum |rho_ij|^2 for Hermitian rho
    return np.sum(np.abs(rhos) ** 2, axis=(1, 2))


def _purities(vecs, n, out, gather_map=None, first=0, share=1):
    """Write the purity of sites 1..l of each state of ``vecs`` to ``out[l]`` at the state's index, for every l of ``out``.

    For l > n/2 it is read from the smaller rho of sites l+1..n: the same
    purity (Schmidt). The other arguments are as in :func:`_rho_buffers`.
    """
    for first, rhos in _rho_buffers(vecs, n, {l: 2 * l > n for l in out}, gather_map, first, share):
        for l, stack in rhos.items():
            out[l][first:first + len(stack)] = _purity(stack)


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


def build_M(a, n):
    """Translation average ``(1/sqrt(n)) sum_j T^j sigma_1^(a_1)..sigma_l^(a_l) T^-j``.

    Requires ``a != 0`` and ``2l < n`` so the n translated strings are
    distinct; then ``Tr(M^2) / 2^n = 1`` exactly.
    """
    codes = tuple(a)
    l = len(codes)
    if all(c == 0 for c in codes):
        raise ValueError("a must not be the all-zero tuple")
    if 2 * l >= n:
        raise ValueError(f"need 2l < n for distinct translates (l={l}, n={n})")
    # the x and z masks of sigma_1^(a_1)..sigma_l^(a_l); site j is bit n - j
    xs, zs = ([sum(_CODE_BITS[c][b] << (n - j) for j, c in enumerate(codes, start=1))] for b in (0, 1))
    for _ in range(n - 1):  # T^j S T^-j: the masks rotated j times, as T rotates the basis indices
        xs.append(_rotate(xs[-1], n))
        zs.append(_rotate(zs[-1], n))
    return OperatorSum._canonical(n, np.array(xs), np.array(zs), np.full(n, 1.0 / np.sqrt(n)))


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


def sector_purities(h, ls):
    """Eigenvalues and mean purities of sites 1..l, for each l in ``ls``, of the eigenbasis of H.

    ``ls`` must hold distinct sizes in 1..n-1 (``ValueError`` before any
    solve). H is solved a block at a time by the workers of
    :func:`symmetry.eigensystems`: one momentum sector of a
    translation-invariant H, whose eigenvectors go through one purity loop
    by the sector's gather map in the worker that solved them, before it
    builds its next sector, so no 2^n x 2^n or 2^n x dim_k array is formed; any
    other H is one dense ``eigh``, with no momenta and no bound claimed. The
    purities are averaged in the state order of :func:`symmetry.sorted_spectrum`.
    The workers' loops share :data:`CHUNK_BYTES`, and each writes the
    purities of its states in place.

    Returns an :class:`EigenDecomposition` without eigenvectors (its
    ``residual`` is the largest eigen residual) and a dict mapping each l
    to its :class:`AveragePurityResult`.
    """
    n = h.n
    if len(set(ls)) != len(ls) or not all(1 <= l < n for l in ls):
        raise ValueError(f"block sizes {list(ls)} must be distinct and in 1..{n - 1}")
    per_state = {l: np.empty(1 << n) for l in ls}

    def each(first, sector, vecs, workers):
        _purities(vecs, n, per_state, sector and sector.gather_map(), first, workers)

    solved = eigensystems(h, each)
    vals, ks, order = sorted_spectrum(solved)
    results = {}
    for l, p in per_state.items():
        p = p[order]
        # pairwise summation via np.mean keeps the reduction deterministic
        results[l] = AveragePurityResult(float(np.mean(p)), p, l, n, ks is not None and 2 * l < n)
    return EigenDecomposition(vals, None, max(r for *_, r in solved), ks), results


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
    gap = min_gap(e.eigenvalues)
    degenerate = gap < GAP_RTOL * (e.eigenvalues[-1] - e.eigenvalues[0])

    # index tuples of shape (4,)*l with an odd number of non-identity codes
    odd = np.count_nonzero(np.indices((4,) * l), axis=0) % 2 == 1
    parts, max_odd = [], 0.0
    for _, rhos in _rho_buffers(e.eigenvectors, n, {l: False}):
        parts.append(_purity(rhos[l]))
        max_odd = max(max_odd, float(np.max(np.abs(_pauli_stack(rhos[l], l)[:, odd]))))
    purities = np.concatenate(parts)
    max_dev = float(np.max(np.abs(purities - 0.5))) if l == 1 else None

    return PairOnlyReport(l, degenerate, gap, purities, max_dev, max_odd)
