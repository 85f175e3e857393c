"""Dense Hermitian diagonalization, minimum gaps and the CSV spectrum table."""

from dataclasses import dataclass

import numpy as np

#: gaps below this fraction of the spectral range are flagged by ``spectrum_table``
DEGENERACY_RTOL = 1e-10
#: slices of columns the eigen residual is taken over: M is read that many times, and each
#: temporary is that fraction of its size
RESIDUAL_SLICES = 8


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


def eigensystem(matrix, want_vectors, failure):
    """``(vals, vecs, residual)`` of a Hermitian matrix; shared by the dense and the sector path.

    Uses ``eigh``, or ``eigvalsh`` when ``want_vectors`` is false (then
    ``vecs`` is None and ``residual`` 0.0). A ``LinAlgError`` is raised again
    as ``RuntimeError(failure)``. ``residual`` is the largest
    ``||M v - lambda v||`` over the eigenvectors, taken over :data:`RESIDUAL_SLICES` slices of
    columns, so that no temporary as large as ``M`` is formed.
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
        width = max(1, -(-len(vals) // RESIDUAL_SLICES))
        for start in range(0, len(vals), width):
            cols = vecs[:, start:start + width]
            r = matrix @ cols
            r -= cols * vals[start:start + width]
            residual = max(residual, float(np.max(np.linalg.norm(r, axis=0))))
    return vals, vecs, residual


def diagonalize_dense(h, want_vectors=True):
    """Full decomposition of a dense Hermitian matrix built from ``h``."""
    return EigenDecomposition(*eigensystem(h.to_dense(), want_vectors, f"dense eigensolver failed for n={h.n}"))


def min_gap(vals):
    """Smallest gap between consecutive ascending eigenvalues; ``inf`` for fewer than two."""
    gaps = np.diff(vals)
    return float(gaps.min()) if len(gaps) else float("inf")


def spectrum_table(e):
    """CSV header and ``(index, eigenvalue, momentum_k?, min_gap_flag)`` rows.

    A state is flagged when its gap to either neighbour is below
    :data:`DEGENERACY_RTOL` times the spectral range.
    """
    vals = e.eigenvalues
    tight = np.diff(vals) < DEGENERACY_RTOL * e.spectral_range
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
