"""Translation operator, momentum-sector bases and joint (H, T) eigenbases.

Phase convention: with T the rotate-right of index bits (site n moves to
site 1), every sector-k basis vector satisfies ``T v = exp(+2 pi i k / n) v``.

Sector blocks are built straight from the Pauli term list and a table of
translation orbits (Sandvik, arXiv:1101.3281, section 4) and solved one at
a time by :func:`sector_eigensystems`; only :func:`joint_eigenbasis` with
eigenvectors forms a 2^n x 2^n array.
"""

from dataclasses import dataclass

import numpy as np

from .hamiltonians import DENSE_CAP, OperatorSum, SizeLimitError
from .spectra import EigenDecomposition, eigensystem

COMMUTATION_TOL = 1e-10


def translate_index(b, n):
    """Rotate-right of the n-bit basis index: ``|x_1..x_n> -> |x_n x_1..x_{n-1}>``."""
    if not 0 <= b < (1 << n):
        raise ValueError(f"index {b} out of range for n={n}")
    return (b >> 1) | ((b & 1) << (n - 1))


def _rotate(masks, n):
    """Rotate-right of n-bit index or mask arrays."""
    return (masks >> 1) | ((masks & 1) << (n - 1))


def translation_permutation(n):
    """Index array ``perm`` with ``T|b> = |perm[b]>``."""
    return _rotate(np.arange(1 << n), n)


def translation_defect(h):
    """``||[H, T]||_F * 2^{-n/2}`` computed exactly from the Pauli term list.

    ``T P T^dagger`` is the string whose x and z masks are rotated like the
    basis indices, with the same coefficient. Since T is unitary and the
    strings are orthogonal, the scaled Frobenius norm of the commutator is
    the Euclidean distance between the coefficients of H and of ``T H
    T^dagger`` (Parseval); it is exactly 0.0 when the rotated term list
    reproduces H bit for bit.
    """
    rotated = OperatorSum(h.n, _rotate(h.xs, h.n), _rotate(h.zs, h.n), h.coeffs)
    diff = (h - rotated).coeffs
    return float(np.sqrt(np.dot(diff, diff)))


def _roots_of_unity(n):
    """``exp(2 pi i j / n)`` for j = 0..n-1, exact at quarter turns."""
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    for j in range(n):
        if (4 * j) % n == 0:
            roots[j] = 1j ** (4 * j // n)
    return roots


@dataclass(frozen=True)
class OrbitTable:
    """Translation orbit of every basis index b: ``b = T^shift[b] rep[b]``.

    ``rep[b]`` is the minimal index of the orbit, ``shift[b]`` the smallest
    such power and ``length[b]`` the orbit length d.
    """

    n: int
    rep: np.ndarray
    shift: np.ndarray
    length: np.ndarray

    @classmethod
    def build(cls, n):
        """One vectorised pass over the n rotations of all 2^n indices."""
        idx = np.arange(1 << n, dtype=np.int64)
        rep = idx.copy()
        shift = np.zeros_like(idx)
        length = np.zeros_like(idx)
        cur = idx
        for t in range(1, n + 1):
            cur = _rotate(cur, n)
            length[(cur == idx) & (length == 0)] = t
            # cur = T^t b is a smaller representative, and b = T^(n-t) cur
            smaller = cur < rep
            rep[smaller] = cur[smaller]
            shift[smaller] = n - t
        return cls(n, rep, shift % length, length)

    @property
    def reps(self):
        """Ascending representatives of all orbits."""
        return np.flatnonzero(self.rep == np.arange(len(self.rep)))


@dataclass(frozen=True)
class MomentumSector:
    """Orthonormal basis of the momentum-k eigenspace of T, one vector per orbit.

    Column j belongs to the orbit of representative ``reps[j]`` and length
    d; it carries ``exp(-2 pi i k t / n) / sqrt(d)`` on index ``T^t reps[j]``.
    Only orbits with ``k d = 0 mod n`` contribute.
    """

    table: OrbitTable
    k: int
    reps: np.ndarray

    @property
    def n(self):
        return self.table.n

    @property
    def dim(self):
        return len(self.reps)

    def lift(self, vecs):
        """Full-space vectors ``B_k @ vecs`` of sector coordinates ``vecs`` (dim x m).

        The result is Fortran-ordered, so each column is contiguous. The
        product is formed row-major and copied once: numpy's complex multiply
        rounds differently for different operand layouts, and this one keeps
        the lifted bits, and with them the purities, fixed.
        """
        t = self.table
        rows = np.flatnonzero((self.k * t.length) % t.n == 0)
        amps = _roots_of_unity(t.n)[(-self.k * t.shift[rows]) % t.n] / np.sqrt(t.length[rows])
        out = np.zeros((1 << t.n, vecs.shape[1]), dtype=complex)
        out[rows] = amps[:, None] * vecs[np.searchsorted(self.reps, t.rep[rows])]
        return np.asfortranarray(out)

    def dense_basis(self):
        """2^n x dim complex matrix ``B_k`` of the sector basis vectors (test oracle)."""
        return self.lift(np.eye(self.dim))


def build_momentum_basis(n):
    """All momentum sectors; an orbit of length d feeds every k with kd = 0 mod n."""
    if n < 1:
        raise ValueError("n must be positive")
    table = OrbitTable.build(n)
    reps = table.reps
    d = table.length[reps]
    return [MomentumSector(table, k, reps[(k * d) % n == 0]) for k in range(n)]


def _transitions(h, table):
    """Action of H between orbit representatives, shared by every sector.

    H = sum_x X^x D_x with D_x diagonal (:meth:`OperatorSum.x_groups`). Each
    x-mask sends representative r to ``b = r ^ x = T^l r'``; the entry is
    ``(all-orbit index of r', of r, D_x(r) sqrt(d_r / d_r'), l)``. The Bloch
    phase ``exp(2 pi i k l / n)`` is applied per sector.
    """
    reps = table.reps
    d = table.length[reps]
    rows, cols, amps, shifts = [], [], [], []
    for x, diag in h.x_groups(reps):
        target = reps ^ x
        rows.append(np.searchsorted(reps, table.rep[target]))
        cols.append(np.arange(len(reps)))
        amps.append(diag * np.sqrt(d / table.length[target]))
        shifts.append(table.shift[target])
    if not rows:
        empty = np.array([], dtype=np.int64)
        return empty, empty, np.array([], dtype=complex), empty
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(amps), np.concatenate(shifts)


def momentum_blocks(h):
    """Yield ``(sector, H_k)`` for every non-empty momentum sector of H.

    ``H_k[r', r] = sum_x D_x(r) exp(2 pi i k l / n) sqrt(d_r / d_r')`` over
    the x-masks with ``r ^ x = T^l r'``; it equals ``B_k^dagger H B_k`` for
    the basis ``B_k`` of :meth:`MomentumSector.dense_basis`. A block is real
    when every entry is. Raises ``ValueError`` when H is not translation
    invariant to within :data:`COMMUTATION_TOL` (see :func:`translation_defect`).
    """
    n = h.n
    defect = translation_defect(h)
    if defect > COMMUTATION_TOL:
        raise ValueError(f"H does not commute with T (scaled norm {defect:.3e} > {COMMUTATION_TOL:.1e})")
    sectors = build_momentum_basis(n)
    table = sectors[0].table
    rows, cols, amps, shifts = _transitions(h, table)
    d = table.length[table.reps]
    roots = _roots_of_unity(n)
    for sector in sectors:
        m = sector.dim
        if m == 0:
            continue
        member = (sector.k * d) % n == 0
        pos = np.cumsum(member) - 1
        keep = member[rows] & member[cols]
        flat = pos[rows[keep]] * m + pos[cols[keep]]
        vals = amps[keep] * roots[(sector.k * shifts[keep]) % n]
        block = np.bincount(flat, vals.real, m * m).reshape(m, m)
        if np.any(vals.imag):
            block = block + 1j * np.bincount(flat, vals.imag, m * m).reshape(m, m)
        yield sector, block


def sector_eigensystems(h, want_vectors=True):
    """Yield ``(sector, vals, vecs, residual)`` for every non-empty momentum sector of H.

    Each block of :func:`momentum_blocks` is diagonalized by
    :func:`spectra.eigensystem` (``eigvalsh`` when ``want_vectors`` is false;
    then ``vecs`` is None and ``residual`` 0.0). ``residual`` is the largest
    sector-space residual ``||H_k v - lambda v||`` of the block. It equals
    the full-space residual of the lifted eigenvector ``B_k v``: H maps
    sector k into itself, because invariance is checked exactly on the term
    list, and ``B_k`` is an isometry. The lifted vectors are T eigenvectors
    by construction.
    """
    n = h.n
    if n > DENSE_CAP:
        raise SizeLimitError(f"n={n} exceeds dense cap {DENSE_CAP}")
    for sector, block in momentum_blocks(h):
        yield sector, *eigensystem(block, want_vectors, f"sector eigensolver failed for n={n}, k={sector.k}")


def sorted_spectrum(solved):
    """Global order of the states of ``(sector, vals)`` pairs, taken in sector order.

    Eigenvalues ascend, with a stable tie-break on the momentum label k.
    Returns the sorted eigenvalues, their momenta and ``order``: global
    state i is state ``order[i]`` of the sectors' concatenation.
    """
    vals = np.concatenate([v for _, v in solved])
    ks = np.concatenate([np.full(s.dim, s.k) for s, _ in solved])
    order = np.lexsort((ks, vals))
    return vals[order], ks[order], order


def joint_eigenbasis(h, want_vectors=True):
    """Diagonalize a translation-invariant H sector by sector.

    Per-sector diagonalization guarantees T-eigenvectors even when H is
    degenerate across momenta; a plain dense eigensolver would not.
    Eigenvalues are globally sorted as in :func:`sorted_spectrum`. With
    ``want_vectors`` the lifted eigenvectors come back as one
    Fortran-ordered 2^n x 2^n array, with the largest residual of
    :func:`sector_eigensystems` as ``residual``; without, only eigenvalues
    and momenta are computed.
    """
    solved = list(sector_eigensystems(h, want_vectors=want_vectors))
    vals, ks, order = sorted_spectrum([(s, v) for s, v, _, _ in solved])
    if not want_vectors:
        return EigenDecomposition(vals, None, 0.0, ks)

    column = np.empty_like(order)
    column[order] = np.arange(len(order))
    lifted = np.zeros((1 << h.n, 1 << h.n), dtype=complex, order="F")
    start = 0
    for sector, _, vecs, _ in solved:
        lifted[:, column[start:start + sector.dim]] = sector.lift(vecs)
        start += sector.dim
    residual = max(r for _, _, _, r in solved)
    return EigenDecomposition(vals, lifted, residual, ks)
