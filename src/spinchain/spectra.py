"""Dense Hermitian diagonalization, degeneracy detection and spectral diagnostics."""

from dataclasses import dataclass

import numpy as np

from .hamiltonians import OperatorSum

#: default relative tolerance (vs spectral range) for degeneracy clustering
DEGENERACY_RTOL = 1e-10


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues, optional orthonormal eigenvectors and momenta."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None
    residual: float = 0.0
    momenta: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(vals) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "eigenvalues", vals)
        if self.momenta is not None:
            object.__setattr__(self, "momenta", np.asarray(self.momenta, dtype=int))

    @property
    def size(self):
        return len(self.eigenvalues)

    @property
    def spectral_range(self):
        if self.size < 2:
            return 0.0
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


@dataclass(frozen=True)
class DegeneracyReport:
    min_gap: float
    spectral_range: float
    cluster_sizes: tuple
    rel_tol: float

    @property
    def has_degeneracy(self):
        return any(s > 1 for s in self.cluster_sizes)

    @property
    def all_doubly_degenerate(self):
        """True when the whole spectrum splits into exact pairs (Kramers style)."""
        return all(s == 2 for s in self.cluster_sizes)


def eigensystem(matrix, want_vectors, failure):
    """``(vals, vecs, residual)`` of a Hermitian matrix; shared by the dense and the sector path.

    Uses ``eigh``, or ``eigvalsh`` when ``want_vectors`` is false (then
    ``vecs`` is None and ``residual`` 0.0). A ``LinAlgError`` is raised again
    as ``RuntimeError(failure)``. ``residual`` is the largest
    ``||M v - lambda v||`` over the eigenvectors.
    """
    try:
        if want_vectors:
            vals, vecs = np.linalg.eigh(matrix)
        else:
            vals, vecs = np.linalg.eigvalsh(matrix), None
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(failure) from exc
    residual = 0.0
    if vecs is not None:
        residual = float(np.max(np.linalg.norm(matrix @ vecs - vecs * vals, axis=0)))
    return vals, vecs, residual


def diagonalize_dense(h, want_vectors=True):
    """Full decomposition of a dense Hermitian matrix built from ``h``."""
    return EigenDecomposition(*eigensystem(h.to_dense(), want_vectors, f"dense eigensolver failed for n={h.n}"))


def detect_degeneracy(e, rel_tol=DEGENERACY_RTOL):
    """Cluster eigenvalues whose consecutive gaps fall below ``rel_tol * range``."""
    vals = e.eigenvalues
    if len(vals) == 0:
        raise ValueError("empty spectrum")
    gaps = np.diff(vals)
    rng = e.spectral_range
    threshold = rel_tol * rng
    sizes = []
    current = 1
    for g in gaps:
        if g < threshold:
            current += 1
        else:
            sizes.append(current)
            current = 1
    sizes.append(current)
    min_gap = float(gaps.min()) if len(gaps) else float("inf")
    return DegeneracyReport(min_gap, rng, tuple(sizes), rel_tol)


def commutator_norm(a, b):
    """Frobenius norm of ``AB - BA`` scaled by ``2^{-n/2}``.

    ``b`` may be an :class:`OperatorSum`, a dense matrix, or a basis
    permutation given as an index array ``perm`` (``B|i> = |perm[i]>``),
    as produced by :func:`spinchain.symmetry.translation_permutation`.
    """
    da = a.to_dense()
    if isinstance(b, OperatorSum):
        if b.n != a.n:
            raise ValueError("site counts differ")
        db = b.to_dense()
        comm = da @ db - db @ da
    elif isinstance(b, np.ndarray) and b.ndim == 1:
        # B|i> = |perm[i]>: (AB)[i,j] = A[i, perm[j]], (BA)[i,j] = A[inv[i], j]
        perm = b.astype(np.intp)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(perm))
        comm = da[:, perm] - da[inv, :]
    else:
        db = np.asarray(b)
        comm = da @ db - db @ da
    return float(np.linalg.norm(comm) / 2 ** (a.n / 2))


def spectrum_table(e, min_gap_rtol=DEGENERACY_RTOL):
    """CSV header and ``(index, eigenvalue, momentum_k?, min_gap_flag)`` rows.

    A state is flagged when its gap to either neighbour is below
    ``min_gap_rtol`` times the spectral range.
    """
    vals = e.eigenvalues
    tight = np.diff(vals) < min_gap_rtol * e.spectral_range
    flags = np.zeros(len(vals), dtype=bool)
    flags[:-1] |= tight
    flags[1:] |= tight
    header = ["index", "eigenvalue"] + (["momentum_k"] if e.momenta is not None else []) + ["min_gap_flag"]
    rows = []
    for i, val in enumerate(vals):
        row = [i, repr(float(val))]
        if e.momenta is not None:
            row.append(int(e.momenta[i]))
        row.append(int(flags[i]))
        rows.append(row)
    return header, rows
