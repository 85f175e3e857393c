"""Translation operator, momentum-sector bases and joint (H, T) eigenbases.

Phase convention: with T the rotate-right of index bits (site n moves to
site 1), every sector-k basis vector satisfies ``T v = exp(+2 pi i k / n) v``.

Sector blocks are built straight from the Pauli term list and a table of
translation orbits (Sandvik, arXiv:1101.3281, section 4) and solved side by
side, one per worker thread, by :func:`eigensystems`; no 2^n x 2^n array is
formed. A real H solves only the sectors k <= n/2 and takes each sector n-k
as the conjugate of sector k. :func:`check_size` decides, once per H, whether it
takes this path (:func:`is_invariant`) or one dense solve.
"""

import threading
from dataclasses import dataclass

import numpy as np

from . import parallel
from .hamiltonians import DENSE_CAP, OperatorSum, SizeLimitError
from .spectra import EigenDecomposition, diagonalize_dense, eigensystem

#: largest n of a per-sector solve, checked by :func:`check_size`; no sector
#: path forms a 2^n x 2^n matrix
SECTOR_CAP = 15
#: copies of its complex block one sector solve holds (the block, eigh's copy, its work arrays and the
#: vectors), which bound the workers of :func:`eigensystems` by the available memory
SOLVE_COPIES = 6


def _rotate(masks, n):
    """Rotate-right of n-bit index or mask arrays."""
    return (masks >> 1) | ((masks & 1) << (n - 1))


def is_invariant(h):
    """True when H commutes with T, read exactly from the Pauli term list.

    ``T P T^dagger`` is the string whose x and z masks are rotated like the
    basis indices, with the same coefficient. So H is invariant when the
    rotated term list is H's own: each coefficient then cancels its own
    copy to an exact 0.0, which the canonical form drops.
    """
    rotated = OperatorSum(h.n, _rotate(h.xs, h.n), _rotate(h.zs, h.n), h.coeffs)
    return (h - rotated).num_terms == 0


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
    def dim(self):
        return len(self.reps)

    def gather_map(self):
        """``(src, amps)`` over all 2^n indices, with ``(B_k @ vecs)[b] = amps[b] * vecs[src[b]]`` for ``vecs`` (dim x m).

        ``src[b]`` is the row of the orbit of b, or row 0 when that orbit is
        not in the sector, where ``amps[b]`` is 0.
        """
        t = self.table
        member = (self.k * t.length) % t.n == 0
        src = np.where(member, np.searchsorted(self.reps, t.rep), 0)
        amps = np.where(member, _roots_of_unity(t.n)[(-self.k * t.shift) % t.n] / np.sqrt(t.length), 0)
        return src, amps


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


def _momentum_blocks(h):
    """The non-empty momentum sectors of an invariant H that need a solve, and ``block(sector)``, which builds H_k.

    ``H_k[r', r] = sum_x D_x(r) exp(2 pi i k l / n) sqrt(d_r / d_r')`` over
    the x-masks with ``r ^ x = T^l r'``; it equals ``B_k^dagger H B_k`` for
    the basis ``B_k`` of the sector (:meth:`MomentumSector.gather_map`). A block is real
    when every entry is. A real H (:attr:`OperatorSum.is_real`) lists only
    k <= n/2: the basis of sector n-k is the conjugate of that of sector k,
    so ``H_{n-k} = conj(H_k)`` and its block is never built. ``block`` only
    reads the transitions that every sector shares, so threads may call it at once.
    """
    n = h.n
    sectors = build_momentum_basis(n)
    if h.is_real:
        sectors = sectors[:n // 2 + 1]
    table = sectors[0].table
    rows, cols, amps, shifts = _transitions(h, table)
    d = table.length[table.reps]
    roots = _roots_of_unity(n)

    def block(sector):
        m = sector.dim
        member = (sector.k * d) % n == 0
        pos = np.cumsum(member) - 1
        keep = member[rows] & member[cols]
        flat = pos[rows[keep]] * m + pos[cols[keep]]
        vals = amps[keep] * roots[(sector.k * shifts[keep]) % n]
        if not np.any(vals.imag):
            return np.bincount(flat, vals.real, m * m).reshape(m, m)
        out = np.bincount(flat, vals.real, m * m).astype(complex)  # no real block is kept beside it
        out.imag = np.bincount(flat, vals.imag, m * m)
        return out.reshape(m, m)

    return [s for s in sectors if s.dim], block


def check_size(h):
    """Pick the eigen path of H and refuse H above its cap, before anything of size 2^n is built or solved.

    Returns True for the momentum-sector path of an invariant H
    (:func:`is_invariant`), capped at :data:`SECTOR_CAP`, and False for one
    dense solve, capped at ``DENSE_CAP``; above the cap it raises
    ``SizeLimitError``. :func:`eigensystems` decides by it, and a command
    with several sizes calls it on each before its first solve.
    """
    invariant = is_invariant(h)
    cap, path = (SECTOR_CAP, "sector") if invariant else (DENSE_CAP, "dense")
    if h.n > cap:
        raise SizeLimitError(f"n={h.n} exceeds {path} cap {cap}")
    return invariant


def eigensystems(h, consume=None, want_vectors=True):
    """Solve the eigen path of H that :func:`check_size` picks, handing each worker's blocks to ``consume`` in the worker.

    Returns ``(solved, consumed)``. ``solved`` lists ``(sector, vals, residual)`` of every block in
    the sectors' order. ``consumed`` holds ``consume(blocks, workers)`` of each worker (default
    ``list(blocks)``): ``blocks`` is the lazy iterator of that worker's ``(first, sector, vecs)`` in
    the sectors' order, and ``workers`` the number of workers, which share any byte budget of the
    consumers. ``first`` is the index of the block's first state in the concatenation of
    ``solved``. A block is solved as its item is taken, so ``consume`` must take every item.

    An H that is not translation invariant is one dense block (:func:`spectra.diagonalize_dense`)
    with ``sector`` None, solved and consumed on this thread. An invariant H has every non-empty
    momentum sector, each block built and diagonalized by :func:`spectra.eigensystem` in its worker
    (``eigvalsh`` when ``want_vectors`` is false; then ``vecs`` is None and ``residual`` 0.0).
    ``residual`` is the largest residual ``||M v - lambda v||`` of the block. For a sector it equals
    the full-space residual of the lifted eigenvector ``B_k v``: H maps sector k into itself,
    because invariance is exact on the term list, and ``B_k`` is an isometry. The lifted vectors
    are T eigenvectors by construction.

    The solves go to one worker per CPU (:func:`parallel.run`), but no more workers than
    :data:`SOLVE_COPIES` copies of the largest block per worker fit in the available memory;
    each solve is taken by the first worker that is free, so a slower CPU takes fewer. OpenBLAS
    is held at one thread until every worker has ended (:func:`parallel.one_blas_thread`): on
    blocks of a few hundred rows two one-thread solves side by side beat one two-thread solve,
    and the bits of every solve and of every consumer's BLAS call do not depend on the CPU count
    or the BLAS thread setting, nor on which worker took it. Where OpenBLAS has no thread
    setter, or the memory cannot be read, one worker solves every block.

    A real H solves only k <= n/2. Right after each solved 0 < k < n/2 comes
    its mirror n-k, whose block is ``conj(H_k)``: the same eigenvalues and
    residual, and the conjugate eigenvectors. So sectors come in the order
    0, 1, n-1, 2, n-2, ..., and a worker holds one solve's vectors at a time.
    """
    n = h.n
    if consume is None:
        def consume(blocks, workers):
            return list(blocks)

    if not check_size(h):
        e = diagonalize_dense(h, want_vectors)
        return [(None, e.eigenvalues, e.residual)], [consume(iter([(0, None, e.eigenvectors)]), 1)]
    sectors, block = _momentum_blocks(h)
    # a solve is one sector, with its mirror right after it for a real H
    solves = [[s] + ([MomentumSector(s.table, n - s.k, s.reps)] if h.is_real and 0 < 2 * s.k < n else [])
              for s in sectors]
    slots = np.cumsum([0] + [len(pair) for pair in solves]).tolist()
    order = [s for pair in solves for s in pair]
    firsts = np.cumsum([0] + [s.dim for s in order]).tolist()
    solved = [None] * len(order)

    pending, lock = iter(range(len(solves))), threading.Lock()

    def blocks():
        while True:
            with lock:  # each solve goes to the first worker that is free
                i = next(pending, None)
            if i is None:
                return
            k = solves[i][0].k
            matrix = block(solves[i][0])
            vals, vecs, residual = eigensystem(matrix, want_vectors, f"sector eigensolver failed for n={n}, k={k}")
            del matrix  # before the lift
            for slot, sector in enumerate(solves[i], start=slots[i]):
                if sector.k != k and vecs is not None:
                    vecs = vecs.conj()  # the mirror's, rebound so that only they stay held
                solved[slot] = sector, vals, residual
                yield firsts[slot], sector, vecs
            del vecs  # before the next block is built

    with parallel.one_blas_thread() as pinned:
        memory = parallel.available_bytes() if pinned else None
        per_worker = SOLVE_COPIES * 16 * max(s.dim for s in sectors) ** 2
        workers = 1 if memory is None else max(1, min(parallel.cpus(), len(solves), memory // per_worker))
        consumed = [None] * workers

        def work(w):
            consumed[w] = consume(blocks(), workers)

        parallel.run(workers, work)
    return solved, consumed


def sorted_spectrum(solved):
    """Global order of the states of the ``(sector, vals)`` pairs of :func:`eigensystems`, taken in the order given.

    Eigenvalues ascend, with a stable tie-break on the momentum label k, so
    the sorted values and momenta do not depend on the sectors' order. The
    ±k sectors of a real H share their eigenvalues bit for bit, so each such
    tie is exact and the smaller k comes first. Returns the sorted eigenvalues,
    their momenta and ``order``: global state i is state ``order[i]`` of the
    sectors' concatenation. The one dense block of a non-invariant H is
    already ascending and has no momenta (None).
    """
    if solved[0][0] is None:
        vals = solved[0][1]
        return vals, None, np.arange(len(vals))
    vals = np.concatenate([v for _, v in solved])
    ks = np.concatenate([np.full(s.dim, s.k) for s, _ in solved])
    order = np.lexsort((ks, vals))
    return vals[order], ks[order], order


def joint_eigenbasis(h):
    """Eigenvalues of H; with momenta, sector by sector, when H is translation invariant.

    Per-sector diagonalization labels every state with its momentum even
    when H is degenerate across momenta, and the eigenvalues are sorted as
    in :func:`sorted_spectrum`. Any other H takes one dense ``eigvalsh`` and
    has no momenta. No eigenvectors are kept.
    """
    solved, _ = eigensystems(h, want_vectors=False)
    vals, ks, _ = sorted_spectrum([(s, v) for s, v, _ in solved])
    return EigenDecomposition(vals, None, 0.0, ks)
