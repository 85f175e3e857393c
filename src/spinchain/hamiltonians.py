"""Builders for the spin-chain Hamiltonian families as real Pauli-string sums.

Coefficient array layout: ``alpha[j, a, b]`` with ``j = 0..n-1`` the bond
index (bond ``j`` couples sites ``j+1`` and ``j+2``, cyclically),
``a = 0..3`` the left Pauli code and ``b = 0..2`` standing for the right
Pauli code ``b+1`` (the right factor is never the identity).
"""

from dataclasses import dataclass

import numpy as np

from .pauli import DimensionMismatchError, PauliString, StateVector, _z_signs

#: largest n for which a 2^n x 2^n matrix is formed: checked by ``to_dense``
#: for the dense path and by ``symmetry.sector_eigensystems`` for the sector
#: path, which also serves the per-sector purities that form no such matrix
DENSE_CAP = 13


class SizeLimitError(ValueError):
    """Raised before allocation when n exceeds a size cap.

    The caps are :data:`DENSE_CAP` for 2^n x 2^n matrices, and
    ``free_fermion.EXACT_CAP`` and ``free_fermion.STREAM_CAP`` for the
    collected and the sum-set exyz spectrum.
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
    def from_terms(cls, n, terms):
        """Build from ``(coefficient, PauliString)`` pairs, merging duplicates."""
        xs, zs, cs = [], [], []
        for coeff, string in terms:
            if string.n != n:
                raise DimensionMismatchError(f"term on {string.n} sites, expected {n}")
            xs.append(string.x_mask)
            zs.append(string.z_mask)
            cs.append(coeff)
        return cls._canonical(n, np.array(xs, dtype=np.int64), np.array(zs, dtype=np.int64), np.array(cs, dtype=float))

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
    def terms(self):
        return [
            (float(c), PauliString(self.n, int(x), int(z)))
            for c, x, z in zip(self.coeffs, self.xs, self.zs)
        ]

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

    def apply(self, v):
        """Matrix-free action on a :class:`StateVector`."""
        if v.n != self.n:
            raise DimensionMismatchError(f"site counts differ: {self.n} != {v.n}")
        return StateVector(self.n, self.apply_matrix(v.amplitudes[:, None])[:, 0])

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

    def apply_matrix(self, mat):
        """Matrix-free action on the columns of a (2^n, m) array."""
        dim = 1 << self.n
        if mat.shape[0] != dim:
            raise DimensionMismatchError(f"expected leading dimension {dim}")
        idx = np.arange(dim)
        out = np.zeros(mat.shape, dtype=complex)
        for x, diag in self.x_groups(idx):
            out[idx ^ x] += diag[:, None] * mat
        return out

    def to_dense(self):
        """Dense Hermitian matrix; real-valued unless a term has an odd number of Y factors."""
        if self.n > DENSE_CAP:
            raise SizeLimitError(f"n={self.n} exceeds dense cap {DENSE_CAP}")
        dim = 1 << self.n
        idx = np.arange(dim)
        is_real = not np.any(np.bitwise_count(self.xs & self.zs) & 1)
        m = np.zeros((dim, dim), dtype=float if is_real else complex)
        for x, diag in self.x_groups(idx):
            m[idx ^ x, idx] = diag
        return m

    def support_sites(self):
        """Sorted 1-based list of sites touched by any term."""
        mask = 0
        for x, z in zip(self.xs, self.zs):
            mask |= int(x) | int(z)
        return [j for j in range(1, self.n + 1) if mask & (1 << (self.n - j))]

    def compressed(self):
        """The same operator re-indexed onto its support sites only.

        Traces over untouched sites factor out, so spectra-per-site and
        scaled traces on the compressed operator match the full one.
        """
        sites = self.support_sites()
        if not sites:
            return OperatorSum.zero(1), sites
        m = len(sites)
        terms = []
        for c, s in self.terms:
            codes = {i + 1: s.code(site) for i, site in enumerate(sites)}
            terms.append((c, PauliString.from_sites(m, codes)))
        return OperatorSum.from_terms(m, terms), sites


def hs_inner(a, b):
    """Scaled Hilbert-Schmidt inner product for sums and/or Pauli strings.

    For canonically stored sums this is the Parseval sum over matching
    strings of products of coefficients.
    """
    from . import pauli

    if not isinstance(a, OperatorSum) and not isinstance(b, OperatorSum):
        return pauli.hs_inner(a, b)
    if isinstance(a, PauliString):
        a = OperatorSum.from_terms(a.n, [(1.0, a)])
    if isinstance(b, PauliString):
        b = OperatorSum.from_terms(b.n, [(1.0, b)])
    if a.n != b.n:
        raise DimensionMismatchError(f"site counts differ: {a.n} != {b.n}")
    keys_a = {(int(x), int(z)): c for x, z, c in zip(a.xs, a.zs, a.coeffs)}
    total = 0.0
    for x, z, c in zip(b.xs, b.zs, b.coeffs):
        total += keys_a.get((int(x), int(z)), 0.0) * c
    return complex(total)


@dataclass(frozen=True)
class ChainCoefficients:
    """Per-bond couplings ``alpha[j, a, b]`` of a nearest-neighbour ring."""

    n: int
    alpha: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.shape != (self.n, 4, 3):
            raise ValueError(f"expected alpha shape {(self.n, 4, 3)}, got {alpha.shape}")
        if not np.all(np.isfinite(alpha)):
            raise ValueError("non-finite coefficient")
        object.__setattr__(self, "alpha", alpha)

    @classmethod
    def zero(cls, n):
        return cls(n, np.zeros((n, 4, 3)))

    @classmethod
    def random(cls, n, rng, pair_only=False):
        alpha = rng.standard_normal((n, 4, 3))
        if pair_only:
            alpha[:, 0, :] = 0.0
        return cls(n, alpha)

    @classmethod
    def invariant(cls, alpha12, n):
        alpha12 = np.asarray(alpha12, dtype=float).reshape(4, 3)
        return cls(n, np.broadcast_to(alpha12, (n, 4, 3)).copy())


@dataclass(frozen=True)
class InteractionGraph:
    """Arbitrary two-body interaction geometry plus local fields.

    ``edges`` maps site pairs ``(j, k)`` with ``j < k`` to 3x3 coupling
    arrays ``alpha[a-1, b-1]``; ``local_fields`` has shape (n, 3).
    """

    n: int
    edges: tuple
    local_fields: np.ndarray

    def __post_init__(self):
        fields = np.asarray(self.local_fields, dtype=float)
        if fields.shape != (self.n, 3):
            raise ValueError(f"expected local fields shape {(self.n, 3)}")
        seen = set()
        norm_edges = []
        for j, k, alpha in self.edges:
            if not (1 <= j < k <= self.n):
                raise ValueError(f"invalid edge ({j}, {k}) for n={self.n}")
            if (j, k) in seen:
                raise ValueError(f"duplicate edge ({j}, {k})")
            seen.add((j, k))
            alpha = np.asarray(alpha, dtype=float)
            if alpha.shape != (3, 3):
                raise ValueError("edge couplings must be 3x3")
            norm_edges.append((j, k, alpha))
        object.__setattr__(self, "edges", tuple(norm_edges))
        object.__setattr__(self, "local_fields", fields)

    @classmethod
    def zero(cls, n, edge_list):
        return cls(n, tuple((j, k, np.zeros((3, 3))) for j, k in edge_list), np.zeros((n, 3)))

    @classmethod
    def random(cls, n, edge_list, rng):
        edges = tuple((j, k, rng.standard_normal((3, 3))) for j, k in edge_list)
        return cls(n, edges, rng.standard_normal((n, 3)))


def _check_ring_n(n):
    if n < 3:
        raise ValueError("ring builders need n >= 3 (a 2-ring duplicates bonds)")


def _bond_term(n, bond, a, b):
    """Pauli string sigma_{bond}^{(a)} sigma_{bond+1}^{(b)} (1-based, cyclic)."""
    right = bond % n + 1
    codes = {}
    if a != 0:
        codes[bond] = a
    codes[right] = b
    return PauliString.from_sites(n, codes)


def build_nn_chain(c):
    """Nearest-neighbour ring ``(1/sqrt(n)) sum_j sum_{a,b} alpha sigma_j sigma_{j+1}``."""
    _check_ring_n(c.n)
    n = c.n
    pref = 1.0 / np.sqrt(n)
    terms = []
    for j in range(n):
        for a in range(4):
            for b in range(1, 4):
                coeff = c.alpha[j, a, b - 1]
                if coeff != 0.0:
                    terms.append((pref * coeff, _bond_term(n, j + 1, a, b)))
    return OperatorSum.from_terms(n, terms)


def build_invariant(alpha12, n):
    """Translation-invariant ring: site-independent couplings (12 reals)."""
    return build_nn_chain(ChainCoefficients.invariant(alpha12, n))


def build_pair_only(c):
    """Ring with two-site terms only; no 1/sqrt(n) prefactor (every term weight 2)."""
    _check_ring_n(c.n)
    if np.any(c.alpha[:, 0, :] != 0.0):
        raise ValueError("pair-only chain must have zero a=0 coefficients")
    n = c.n
    terms = []
    for j in range(n):
        for a in range(1, 4):
            for b in range(1, 4):
                coeff = c.alpha[j, a, b - 1]
                if coeff != 0.0:
                    terms.append((coeff, _bond_term(n, j + 1, a, b)))
    return OperatorSum.from_terms(n, terms)


def build_general(g):
    """Graph Hamiltonian: two-body edge terms plus local fields, 1/sqrt(n) prefactor.

    The nearest-neighbour ring is the special case of ring edges plus
    matching fields.
    """
    n = g.n
    pref = 1.0 / np.sqrt(n)
    terms = []
    for j, k, alpha in g.edges:
        for a in range(1, 4):
            for b in range(1, 4):
                coeff = alpha[a - 1, b - 1]
                if coeff != 0.0:
                    terms.append((pref * coeff, PauliString.from_sites(n, {j: a, k: b})))
    for j in range(1, n + 1):
        for a in range(1, 4):
            coeff = g.local_fields[j - 1, a - 1]
            if coeff != 0.0:
                terms.append((pref * coeff, PauliString.from_sites(n, {j: a})))
    return OperatorSum.from_terms(n, terms)


def build_ba(alpha1, alpha3, n):
    """Ising ring with transverse and longitudinal fields, 1/sqrt(n) prefactor."""
    _check_ring_n(n)
    pref = 1.0 / np.sqrt(n)
    terms = []
    for j in range(1, n + 1):
        terms.append((pref, _bond_term(n, j, 1, 1)))
        if alpha1 != 0.0:
            terms.append((pref * alpha1, PauliString.single(n, j, 1)))
        if alpha3 != 0.0:
            terms.append((pref * alpha3, PauliString.single(n, j, 3)))
    return OperatorSum.from_terms(n, terms)


def build_exyz(epsilon, n):
    """``sum_j (epsilon X_j Y_{j+1} + Z_j)``; no prefactor, free-fermion solvable."""
    _check_ring_n(n)
    terms = []
    for j in range(1, n + 1):
        if epsilon != 0.0:
            terms.append((float(epsilon), _bond_term(n, j, 1, 2)))
        terms.append((1.0, PauliString.single(n, j, 3)))
    return OperatorSum.from_terms(n, terms)


def normalize(h):
    """Scale so that ``hs_inner(H, H) = 1`` (unit spectral second moment)."""
    norm2 = float(np.dot(h.coeffs, h.coeffs))
    if norm2 == 0.0:
        raise ValueError("cannot normalize the zero operator")
    return (1.0 / np.sqrt(norm2)) * h


def sample_random(kind, n, seed, normalize_output=False):
    """Seeded random Hamiltonian with i.i.d. standard normal coefficients.

    The generator is numpy's ``default_rng`` (PCG64) seeded with ``seed``;
    identical seeds give identical term lists.  ``kind`` is one of
    ``nn | invariant | pair_only | general`` (``general`` samples a ring
    graph with fields, as the simplest valid geometry).
    """
    rng = np.random.default_rng(seed)
    if kind == "nn":
        h = build_nn_chain(ChainCoefficients.random(n, rng))
    elif kind == "invariant":
        h = build_invariant(rng.standard_normal((4, 3)), n)
    elif kind == "pair_only":
        h = build_pair_only(ChainCoefficients.random(n, rng, pair_only=True))
    elif kind == "general":
        edge_list = [(j, j % n + 1) if j < n else (1, n) for j in range(1, n + 1)]
        edge_list = sorted({(min(j, k), max(j, k)) for j, k in edge_list})
        h = build_general(InteractionGraph.random(n, edge_list, rng))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return normalize(h) if normalize_output else h

