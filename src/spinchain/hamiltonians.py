"""The spin-chain Hamiltonian families as real Pauli-string sums, each the :func:`ring` of its bond table.

Bond table layout: ``alpha[j, a, b]`` with ``j = 0..n-1`` the bond
index (bond ``j`` couples sites ``j+1`` and ``j+2``, cyclically),
``a = 0..3`` the left Pauli code and ``b = 0..2`` standing for the right
Pauli code ``b+1`` (the right factor is never the identity).
"""

import math
from dataclasses import dataclass

import numpy as np

from .pauli import _CODE_BITS, DimensionMismatchError, _z_signs

#: largest n of a 2^n x 2^n matrix: checked by ``to_dense`` before it is formed
DENSE_CAP = 13


class SizeLimitError(ValueError):
    """Raised before allocation when n exceeds a size cap.

    The caps are :data:`DENSE_CAP` for dense and ``symmetry.SECTOR_CAP`` for
    per-sector exact diagonalization (``symmetry.check_size`` picks which
    one an H is held to), and ``free_fermion.EXACT_CAP`` and
    ``free_fermion.STREAM_CAP`` for the collected and the sum-set exyz
    spectrum.
    """


@dataclass(frozen=True)
class OperatorSum:
    """A real-coefficient sum of distinct Pauli strings on n qubits.

    Strings are stored as parallel mask arrays, canonically sorted on
    ``(x_mask, z_mask)`` with duplicates merged and zero coefficients
    dropped.  Real coefficients make the represented operator Hermitian.
    """

    n: int
    xs: np.ndarray
    zs: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.int64)
        zs = np.asarray(self.zs, dtype=np.int64)
        coeffs = np.asarray(self.coeffs, dtype=float)
        if not (xs.shape == zs.shape == coeffs.shape) or xs.ndim != 1:
            raise ValueError("term arrays must be 1-d and of equal length")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("non-finite coefficient")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "zs", zs)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, n):
        empty = np.array([], dtype=np.int64)
        return cls(n, empty, empty, np.array([], dtype=float))

    @classmethod
    def _canonical(cls, n, xs, zs, coeffs):
        if len(xs) == 0:
            return cls.zero(n)
        order = np.lexsort((zs, xs))
        xs, zs, coeffs = xs[order], zs[order], coeffs[order]
        new_group = np.ones(len(xs), dtype=bool)
        new_group[1:] = (xs[1:] != xs[:-1]) | (zs[1:] != zs[:-1])
        group = np.cumsum(new_group) - 1
        merged = np.zeros(group[-1] + 1)
        np.add.at(merged, group, coeffs)
        xs, zs = xs[new_group], zs[new_group]
        keep = merged != 0.0
        return cls(n, xs[keep], zs[keep], merged[keep])

    @property
    def num_terms(self):
        return len(self.coeffs)

    @property
    def is_real(self):
        """True when no term has an odd number of Y factors, so the matrix of the sum is real."""
        return not np.any(np.bitwise_count(self.xs & self.zs) & 1)

    def __add__(self, other):
        if not isinstance(other, OperatorSum):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatchError(f"site counts differ: {self.n} != {other.n}")
        return OperatorSum._canonical(
            self.n,
            np.concatenate([self.xs, other.xs]),
            np.concatenate([self.zs, other.zs]),
            np.concatenate([self.coeffs, other.coeffs]),
        )

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        return OperatorSum(self.n, self.xs, self.zs, float(scalar) * self.coeffs)

    def x_groups(self, idx):
        """Yield ``(x, D_x(idx))`` for each distinct x-mask, in canonical order.

        ``H = sum_x X^x D_x`` with ``D_x`` diagonal, so ``H|b> = sum_x D_x(b)
        |b ^ x>``. A term ``c P`` adds ``c i^{|x&z|} (-1)^{|b&z|}`` to
        ``D_x(b)``; terms are accumulated in canonical z order. ``D_x`` is
        real unless a term of the group has an odd number of Y factors.
        """
        _, starts = np.unique(self.xs, return_index=True)
        stops = np.append(starts[1:], self.num_terms)
        for lo, hi in zip(starts, stops):
            x = int(self.xs[lo])
            powers = [int(x & int(z)).bit_count() % 4 for z in self.zs[lo:hi]]
            real = all(p % 2 == 0 for p in powers)
            diag = np.zeros(len(idx), dtype=float if real else complex)
            for c, z, p in zip(self.coeffs[lo:hi], self.zs[lo:hi], powers):
                phase = c * 1j**p
                diag += (phase.real if real else phase) * _z_signs(idx, int(z))
            yield x, diag

    def to_dense(self):
        """Dense Hermitian matrix; real-valued unless a term has an odd number of Y factors."""
        if self.n > DENSE_CAP:
            raise SizeLimitError(f"n={self.n} exceeds dense cap {DENSE_CAP}")
        dim = 1 << self.n
        idx = np.arange(dim)
        m = np.zeros((dim, dim), dtype=float if self.is_real else complex)
        for x, diag in self.x_groups(idx):
            m[idx ^ x, idx] = diag
        return m


def _check_ring_size(n):
    if n < 3:
        raise ValueError("ring builders need n >= 3 (a 2-ring duplicates bonds)")


def bond_table(n, alpha, scaled):
    """The ``(n, 4, 3)`` bond table of a ring on n sites; n < 3 is a ``ValueError``.

    ``alpha`` is an ``(n, 4, 3)`` table, or one ``(4, 3)`` table for every bond; ``scaled`` multiplies
    it by ``1/sqrt(n)``.
    """
    _check_ring_size(n)
    alpha = np.broadcast_to(alpha, (n, 4, 3))
    return (1.0 / np.sqrt(n)) * alpha if scaled else alpha


def ring(table):
    """The ring ``sum_j sum_{a,b} table[j, a, b] sigma_j^(a) sigma_{j+1}^(b+1)`` of an ``(n, 4, 3)`` bond table."""
    return _bonds(len(table), table)


def open_chain(rows):
    """The open chain of the bond rows ``rows[0..L-1]`` (an ``(L, 4, 3)`` table) on L + 1 sites: a ring's layout without its wrap bond."""
    return _bonds(len(rows) + 1, rows)


def _bonds(n, alpha):
    """``sum_j sum_{a,b} alpha[j, a, b] sigma_j^(a) sigma_{j+1}^(b+1)`` over the rows j of ``alpha``, on n sites.

    This is the one place that lays out the bonds: bond j couples sites j and j+1 (cyclically), and its
    a=0 terms act on site j+1 alone. n rows make the ring, n - 1 rows the open chain.
    """
    left = np.left_shift(1, n - 1 - np.arange(n))  # site j of bond j = 1..n is bit n-j
    left, right = (m[: len(alpha), None, None] for m in (left, np.roll(left, -1)))
    x_bits, z_bits = np.array(_CODE_BITS).T
    xs = left * x_bits[:, None] | right * x_bits[1:]
    zs = left * z_bits[:, None] | right * z_bits[1:]
    keep = alpha != 0.0
    return OperatorSum._canonical(n, xs[keep], zs[keep], alpha[keep])


def ba_bond(alpha1, alpha3):
    """The ``(4, 3)`` bond table ``X_j X_{j+1} + alpha1 X_{j+1} + alpha3 Z_{j+1}`` of the Ising ring with fields."""
    return np.array([[alpha1, 0.0, alpha3], [1.0, 0.0, 0.0], [0.0] * 3, [0.0] * 3])


def build_ba(alpha1, alpha3, n):
    """Ising ring with transverse and longitudinal fields, 1/sqrt(n) prefactor."""
    return ring(bond_table(n, ba_bond(alpha1, alpha3), scaled=True))


def build_exyz(epsilon, n):
    """``sum_j (epsilon X_j Y_{j+1} + Z_j)``; no prefactor, free-fermion solvable."""
    return ring(bond_table(n, [[0.0, 0.0, 1.0], [0.0, epsilon, 0.0], [0.0] * 3, [0.0] * 3], scaled=False))


def normalization_scale(norm2):
    """``1 / sqrt(norm2)``, the factor that takes ``Tr(H^2) / 2^n = norm2`` to 1.

    A zero or non-finite ``norm2`` (the zero operator, or coefficients whose
    squares overflow) has no such factor and is a ``ValueError``.
    """
    if not 0.0 < norm2 < math.inf:
        raise ValueError(f"cannot normalize an operator of squared norm {norm2!r}")
    return 1.0 / np.sqrt(norm2)


def normalize(h):
    """Scale so that ``Tr(H^2) / 2^n``, the sum of the squared coefficients, is 1 (unit spectral second moment)."""
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        norm2 = float(np.dot(h.coeffs, h.coeffs))
    return normalization_scale(norm2) * h


def sample_table(kind, n, seed):
    """Seeded random bond table with i.i.d. standard normal coefficients.

    The generator is numpy's ``default_rng`` (PCG64) seeded with ``seed``;
    identical seeds give identical tables. ``kind`` is one of
    ``nn | invariant | pair_only``: ``nn`` draws all ``(n, 4, 3)``
    couplings, ``invariant`` one ``(4, 3)`` row for every bond, both times
    ``1/sqrt(n)``; ``pair_only`` draws like ``nn``, zeroes the a=0 (one-site)
    terms and keeps no prefactor (every term weight 2).
    """
    rng = np.random.default_rng(seed)
    if kind == "invariant":
        return bond_table(n, rng.standard_normal((4, 3)), scaled=True)
    if kind not in ("nn", "pair_only"):
        raise ValueError(f"unknown kind {kind!r}")
    _check_ring_size(n)  # before the draw, which refuses a negative n with numpy's own message
    alpha = rng.standard_normal((n, 4, 3))
    if kind == "pair_only":
        alpha[:, 0, :] = 0.0
    return bond_table(n, alpha, scaled=kind == "nn")


def sample_random(kind, n, seed):
    """The ring of :func:`sample_table`."""
    return ring(sample_table(kind, n, seed))
