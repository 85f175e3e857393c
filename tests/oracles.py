"""Independent references the tests hold the library's fast paths against.

No CLI path runs any of these; each is the slow, direct form of one path:

* :func:`from_codes` and :func:`from_label` spell Pauli strings site by
  site, :func:`to_label` reads one back, and :func:`pauli_to_dense` forms
  the 2^n x 2^n matrix of one string, the oracle of ``pauli.multiply``;
* :func:`from_terms` builds an operator sum from ``(coefficient,
  PauliString)`` pairs and :func:`terms` lists one as such pairs, and
  :func:`hs_inner` takes the Hilbert-Schmidt inner product of two sums by
  matching their strings one by one;
* :func:`commutator_norm` forms the dense commutator with a second sum or
  with the translation as the basis permutation of
  :func:`translation_permutation`, the oracle of the exact term-list test
  ``symmetry.is_invariant``;
* :func:`parseval_moments` takes m1..m6 of an operator sum from the Pauli
  expansions of H, H^2 and H^3, with no eigensolve, the oracle of
  ``dos.ring_moments`` on rings too large for a dense solve;
* :class:`StateVector`, :func:`apply`, :func:`expectation` and
  :func:`apply_sum` act with one Pauli string at a time, the per-string
  oracle of ``OperatorSum.x_groups``;
* :func:`lift`, :func:`dense_basis` and :func:`joint_eigenbasis_lifted`
  scatter sector vectors into full space and form the 2^n x dim
  momentum-sector bases and the 2^n x 2^n lifted joint (H, T) eigenbasis,
  the oracle of ``MomentumSector.gather_map``, the sector blocks of
  ``symmetry.eigensystems`` and ``entanglement.sector_purities``;
  :func:`full_space_residual` holds the lifted columns against dense H and
  T, since they come from ``symmetry.eigensystems`` itself;
* :func:`average_purity` takes the mean purity of a full eigenbasis, such
  as the lifted one, through the library's purity loop with the identity
  map, the oracle of the sector stream of ``entanglement.sector_purities``;
* :func:`reduce_contiguous` and :func:`pauli_coefficients` give one state's
  reduced density matrix and Pauli coefficients, the per-state oracle of
  the batched reduced states;
* :func:`resolve_parity_map` matches the analytic parity classes of the
  ``eps*XY + Z`` ring to a dense eigensolve;
* :func:`expand_block` doubles a list of signed mode sums by concatenation,
  the oracle of the in-place ``free_fermion._expand_block``;
* :func:`exact_ks_distance` sorts the materialised values and scans them,
  the oracle of ``dos.ks_distance`` of a sum-set: its value in exact mode,
  and what its bracket holds above ``EXACT_CAP``.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from spinchain.dos import normal_cdf
from spinchain.entanglement import AveragePurityResult, _pauli_stack, _purities, _rho_buffers
from spinchain.free_fermion import collect_spectrum
from spinchain.hamiltonians import OperatorSum, build_exyz
from spinchain.pauli import DimensionMismatchError, PauliString, PhasedString
from spinchain.spectra import EigenDecomposition, diagonalize_dense
from spinchain.symmetry import _roots_of_unity, _rotate, eigensystems, sorted_spectrum


def from_codes(codes):
    """The Pauli string with site codes ``codes`` (0..3 for I, X, Y, Z), ``codes[0]`` being site 1."""
    return PauliString.from_sites(len(codes), {j: int(c) for j, c in enumerate(codes, start=1)})


def from_label(label):
    """Parse a textual literal like ``"XZIIY"``; any other character, or none, is a ``ValueError``."""
    return from_codes(["IXYZ".index(c) for c in label])


def to_label(s):
    """The textual literal of a Pauli string, site 1 first: the inverse of :func:`from_label`."""
    return "".join("IZXY"[2 * (s.x_mask >> (s.n - j) & 1) + (s.z_mask >> (s.n - j) & 1)] for j in range(1, s.n + 1))


def y_count(s):
    """Number of sites of a Pauli string that carry Y."""
    return int(s.x_mask & s.z_mask).bit_count()


def pauli_to_dense(s):
    """Dense 2^n x 2^n matrix of a Pauli string: one ``i^{y_count} (-1)^{|b & z|}`` per column b."""
    idx = np.arange(1 << s.n)
    m = np.zeros((1 << s.n, 1 << s.n), dtype=complex)
    m[idx ^ s.x_mask, idx] = (1j ** y_count(s)) * (1.0 - 2.0 * (np.bitwise_count(idx & s.z_mask) & 1))
    return m


def from_terms(n, pairs):
    """The operator sum of ``(coefficient, PauliString)`` pairs on n sites, duplicate strings merged."""
    for _, s in pairs:
        if s.n != n:
            raise DimensionMismatchError(f"term on {s.n} sites, expected {n}")
    xs = np.array([s.x_mask for _, s in pairs], dtype=np.int64)
    zs = np.array([s.z_mask for _, s in pairs], dtype=np.int64)
    return OperatorSum._canonical(n, xs, zs, np.array([c for c, _ in pairs], dtype=float))


def terms(h):
    """The ``(coefficient, PauliString)`` pairs of an operator sum, in its canonical order."""
    return [(float(c), PauliString(h.n, int(x), int(z))) for c, x, z in zip(h.coeffs, h.xs, h.zs)]


def hs_inner(a, b):
    """Scaled Hilbert-Schmidt inner product ``(1/2^n) Tr(A B^dagger)`` of two operator sums.

    For canonically stored sums this is the Parseval sum over matching
    strings of products of coefficients.
    """
    if a.n != b.n:
        raise DimensionMismatchError(f"site counts differ: {a.n} != {b.n}")
    keys_a = {(int(x), int(z)): c for x, z, c in zip(a.xs, a.zs, a.coeffs)}
    total = 0.0
    for x, z, c in zip(b.xs, b.zs, b.coeffs):
        total += keys_a.get((int(x), int(z)), 0.0) * c
    return complex(total)


def translation_permutation(n):
    """Index array ``perm`` with ``T|b> = |perm[b]>``."""
    return _rotate(np.arange(1 << n), n)


def commutator_norm(a, b):
    """Frobenius norm of ``AB - BA`` scaled by ``2^{-n/2}``.

    ``b`` is an :class:`OperatorSum` or a basis permutation given as an
    index array ``perm`` (``B|i> = |perm[i]>``), as produced by
    :func:`translation_permutation`.
    """
    da = a.to_dense()
    if isinstance(b, OperatorSum):
        if b.n != a.n:
            raise ValueError("site counts differ")
        db = b.to_dense()
        comm = da @ db - db @ da
    else:
        # B|i> = |perm[i]>: (AB)[i,j] = A[i, perm[j]], (BA)[i,j] = A[inv[i], j]
        perm = np.asarray(b, dtype=np.intp)
        if perm.shape != (len(da),):
            raise ValueError(f"expected an OperatorSum or a permutation of {len(da)} basis indices")
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(perm))
        comm = da[:, perm] - da[inv, :]
    return float(np.linalg.norm(comm) / 2 ** (a.n / 2))


def _product(a, b, n):
    """``(xs, zs, coeffs)`` of ``A B`` for ``A``, ``B`` given as ``(xs, zs, complex coeffs)``, every pair of strings at once.

    With ``P(x, z) = i^{|x&z|} X^x Z^z``, moving ``Z^{z_a}`` past ``X^{x_b}`` gives
    ``P_a P_b = i^{|x_a&z_a| + |x_b&z_b| + 2|z_a&x_b| - |x&z|} P(x_a^x_b, z_a^z_b)``.
    """
    xa, za, ca = (v[:, None] for v in a)
    xb, zb, cb = b
    x, z = xa ^ xb, za ^ zb
    power = np.bitwise_count(xa & za) + np.bitwise_count(xb & zb) + 2 * np.bitwise_count(za & xb) - np.bitwise_count(x & z)
    keys, where = np.unique((x << n | z).ravel(), return_inverse=True)
    c = (ca * cb * np.array([1, 1j, -1, -1j])[power % 4]).ravel()
    return keys >> n, keys & ((1 << n) - 1), np.bincount(where, c.real) + 1j * np.bincount(where, c.imag)


def parseval_moments(h):
    """``m_k = Tr(H^k) / 2^n`` for k = 1..6, as ``hs_inner(H^i, H^j)`` with i + j = k, i, j <= 3.

    H^2 and H^3 are expanded in Pauli strings (:func:`_product`), and each moment is
    the sum over the strings two expansions share of their coefficient products.
    """
    n = h.n
    powers = [((np.zeros(1, dtype=np.int64),) * 2 + (np.ones(1, dtype=complex),)), (h.xs, h.zs, h.coeffs.astype(complex))]
    powers += [_product(powers[1], powers[1], n)]
    powers += [_product(powers[1], powers[2], n)]

    def inner(i, j):
        (xa, za, ca), (xb, zb, cb) = powers[i], powers[j]
        _, ia, ib = np.intersect1d(xa << n | za, xb << n | zb, assume_unique=True, return_indices=True)
        return float(np.sum(ca[ia] * np.conj(cb[ib])).real)

    return np.array([inner(k // 2, k - k // 2) for k in range(1, 7)])


@dataclass(frozen=True)
class StateVector:
    """2^n complex amplitudes; index b encodes ``|x_1 ... x_n>``, x_1 as MSB."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes, got {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis_state(cls, n, index):
        amps = np.zeros(1 << n, dtype=complex)
        amps[index] = 1.0
        return cls(n, amps)

    @classmethod
    def random(cls, n, rng):
        dim = 1 << n
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return cls(n, amps / np.linalg.norm(amps))

    @property
    def norm(self):
        return float(np.linalg.norm(self.amplitudes))


def apply(p, v):
    """A (phased) Pauli string applied to a state vector: bit flips from the x-mask, signs from the z-mask."""
    if isinstance(p, PauliString):
        p = PhasedString(0, p)
    s = p.string
    if s.n != v.n:
        raise DimensionMismatchError(f"site counts differ: {s.n} != {v.n}")
    idx = np.arange(1 << v.n)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & s.z_mask) & 1)
    out = np.empty_like(v.amplitudes)
    out[idx ^ s.x_mask] = 1j ** ((p.phase_power + y_count(s)) % 4) * signs * v.amplitudes
    return StateVector(v.n, out)


def expectation(p, v):
    """``<v|P|v>`` for a (phased) Pauli string; warns when v is not normalized."""
    if abs(v.norm - 1.0) > 1e-9:
        warnings.warn("state vector is not normalized", stacklevel=2)
    return complex(np.vdot(v.amplitudes, apply(p, v).amplitudes))


def apply_sum(h, v):
    """``H v`` as the sum over terms of ``c P v``, one string at a time."""
    out = np.zeros(1 << h.n, dtype=complex)
    for c, p in terms(h):
        out += c * apply(p, v).amplitudes
    return StateVector(h.n, out)


def lift(sector, vecs):
    """Full-space vectors ``B_k @ vecs`` of sector coordinates ``vecs`` (dim x m), by row scatter.

    The result is Fortran-ordered, so each column is contiguous. The
    product is formed row-major and copied once: numpy's complex multiply
    rounds differently for different operand layouts, and this one gives
    the bits of the library's gather lift in ``entanglement.sector_purities``.
    """
    t = sector.table
    rows = np.flatnonzero((sector.k * t.length) % t.n == 0)
    amps = _roots_of_unity(t.n)[(-sector.k * t.shift[rows]) % t.n] / np.sqrt(t.length[rows])
    out = np.zeros((1 << t.n, vecs.shape[1]), dtype=complex)
    out[rows] = amps[:, None] * vecs[np.searchsorted(sector.reps, t.rep[rows])]
    return np.asfortranarray(out)


def dense_basis(sector):
    """2^n x dim matrix ``B_k`` of a momentum sector's basis vectors."""
    return lift(sector, np.eye(sector.dim))


def joint_eigenbasis_lifted(h):
    """Joint (H, T) eigenbasis with every sector's eigenvectors lifted into one 2^n x 2^n array.

    States are in the global order of :func:`symmetry.sorted_spectrum`;
    ``residual`` is the largest sector residual.
    """
    blocks = []
    solved = eigensystems(h, lambda first, sector, vecs, workers: blocks.append((first, sector, vecs)))
    vals, ks, order = sorted_spectrum(solved)
    column = np.empty_like(order)
    column[order] = np.arange(len(order))
    lifted = np.zeros((1 << h.n, 1 << h.n), dtype=complex, order="F")
    for first, sector, vecs in blocks:
        lifted[:, column[first:first + sector.dim]] = lift(sector, vecs)
    return EigenDecomposition(vals, lifted, max(r for _, _, r in solved), ks)


def full_space_residual(h, e):
    """Largest residual of H and of T over the columns of a lifted joint eigenbasis.

    H is the dense matrix and T the index permutation, so a wrong sector
    vector shows here whatever ``symmetry`` did to produce it.
    """
    n = h.n
    vecs = e.eigenvectors
    perm = translation_permutation(n)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    res_h = h.to_dense() @ vecs - vecs * e.eigenvalues
    res_t = vecs[inv] - np.exp(2j * np.pi * e.momenta / n) * vecs
    return max(float(np.max(np.linalg.norm(r, axis=0))) for r in (res_h, res_t))


def average_purity(basis, l, ls=None):
    """Mean purity of sites 1..l over every column of an eigenbasis, as an ``AveragePurityResult``.

    The columns go through the library's purity loop with the identity map,
    with the block sizes ``ls`` (default ``(l,)``) read in one pass, as
    ``entanglement.sector_purities`` reads them: a smaller block's rho is a
    partial trace of the largest one on its side, so a per-state value
    equals the library's bit for bit only for the same ``ls``. The
    theorem-backed bound ``2^-l <= mean <= 2^-l + 2^l/n`` is only claimed for
    joint (H, T) eigenbases with ``2l < n``; results from other bases are
    flagged ``bound_claimed=False`` rather than rejected.
    """
    if basis.eigenvectors is None:
        raise ValueError("eigenvectors are required")
    n = int(np.log2(basis.eigenvectors.shape[0]))
    per_state = {m: np.empty(basis.eigenvectors.shape[1]) for m in ((l,) if ls is None else ls)}
    _purities(basis.eigenvectors, n, per_state)
    per_state = per_state[l]
    claimed = basis.momenta is not None and 2 * l < n
    return AveragePurityResult(float(np.mean(per_state)), per_state, l, n, claimed)


def reduce_contiguous(v, l):
    """The checked 2^l x 2^l reduced density matrix ``Tr_B |v><v|`` of sites 1..l."""
    _, rhos = next(_rho_buffers(v.amplitudes[:, None], v.n, {l: False}))
    return rhos[l][0].copy()


def pauli_coefficients(v, l):
    """Real array of shape (4,)*l of ``<v| sigma^(a_1) ... sigma^(a_l) |v>``; the identity entry is 1."""
    return _pauli_stack(reduce_contiguous(v, l)[None], l)[0]


def resolve_parity_map(n, epsilon):
    """Match occupation parities to eigenvalues of the ring's Z-parity operator.

    The analytic construction fixes the parity classes only up to a global
    sign that depends on the parity of the fermionic vacuum; it is resolved
    here numerically by comparing the two analytic parity sub-multisets with
    the dense spectrum split by the Z-parity expectation of each eigenvector.
    Returns ``{0: eta_even, 1: eta_odd}``.
    """
    e = diagonalize_dense(build_exyz(epsilon, n))
    parities = np.bitwise_count(np.arange(1 << n)) & 1
    spectrum = collect_spectrum(n, epsilon)
    even = np.sort(spectrum[parities == 0])
    odd = np.sort(spectrum[parities == 1])

    eta_diag = 1.0 - 2.0 * parities
    eta_exp = np.einsum("ij,i,ij->j", e.eigenvectors.conj(), eta_diag, e.eigenvectors).real
    if np.max(np.abs(np.abs(eta_exp) - 1.0)) > 1e-6:
        raise RuntimeError("eigenvectors are not parity eigenstates (degenerate spectrum?)")
    plus = np.sort(e.eigenvalues[eta_exp > 0])
    minus = np.sort(e.eigenvalues[eta_exp < 0])

    if len(plus) == len(even) and np.allclose(plus, even, atol=1e-8):
        if not (len(minus) == len(odd) and np.allclose(minus, odd, atol=1e-8)):
            raise RuntimeError("inconsistent parity assignment")
        return {0: +1, 1: -1}
    if len(minus) == len(even) and np.allclose(minus, even, atol=1e-8):
        if not (len(plus) == len(odd) and np.allclose(plus, odd, atol=1e-8)):
            raise RuntimeError("inconsistent parity assignment")
        return {0: -1, 1: +1}
    raise RuntimeError("analytic parity classes do not match the dense spectrum")


def expand_block(deltas):
    """All 2^m signed subset sums of ``deltas``: each mode puts ``vals - d`` before ``vals + d``."""
    vals = np.zeros(1)
    for d in deltas:
        vals = np.concatenate([vals - d, vals + d])
    return vals


def exact_ks_distance(values):
    """``max_i max(Phi(y_i) - i/N, (i+1)/N - Phi(y_i))`` over the sorted values ``y``.

    The KS distance to the standard normal CDF, evaluated over the whole
    materialised sample, one full-length buffer at a time. Phi is the
    library's ``dos.normal_cdf`` (itself checked against scipy's ``ndtr``),
    so an exact-mode KS equals this value bit for bit.
    """
    y = np.sort(np.asarray(values, dtype=float))
    n = len(y)
    cdf = normal_cdf(y)
    buf = np.arange(n, dtype=float)
    np.divide(buf, n, out=buf)
    np.subtract(cdf, buf, out=buf)
    below = float(np.max(buf))
    buf = np.arange(1, n + 1, dtype=float)
    np.divide(buf, n, out=buf)
    np.subtract(buf, cdf, out=buf)
    return max(below, float(np.max(buf)))
