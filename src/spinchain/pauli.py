"""Bit-mask Pauli strings, their group algebra and matrix-free action on state vectors.

Conventions used throughout the library:

* Site ``j`` (1-based, ``1..n``) corresponds to bit ``n - j`` of every mask
  and of every basis index, i.e. site 1 is the most significant bit.  The
  basis index ``b`` encodes the computational state ``|x_1 ... x_n>``.
* A ``PauliString`` is the plain tensor product of ``I/X/Y/Z`` factors (no
  phase); a site holds ``Y`` iff both its x-bit and z-bit are set.
* Phases are tracked as integer powers of ``i`` modulo 4, never as floats.
"""

from dataclasses import dataclass

import numpy as np

#: default absolute tolerance for floating point identities
ATOL = 1e-12

_CODE_TO_CHAR = "IXYZ"
_CHAR_TO_CODE = {c: a for a, c in enumerate(_CODE_TO_CHAR)}
#: (x_bit, z_bit) per Pauli code 0..3
_CODE_BITS = ((0, 0), (1, 0), (1, 1), (0, 1))

_PHASE_TOKENS = {"+1": 0, "+i": 1, "-1": 2, "-i": 3}
_PHASE_VALUES = (1, 1j, -1, -1j)


class DimensionMismatchError(ValueError):
    """Raised when two objects live on different numbers of qubits."""


def _check_same_n(a, b):
    if a.n != b.n:
        raise DimensionMismatchError(f"site counts differ: {a.n} != {b.n}")


@dataclass(frozen=True)
class PauliString:
    """An n-site tensor product of Pauli matrices in two-bit-mask form.

    ``x_mask`` bit ``n-j`` is set iff site ``j`` carries an X component
    (codes 1 or 2), ``z_mask`` iff it carries a Z component (codes 2 or 3).
    """

    n: int
    x_mask: int
    z_mask: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one site")
        full = (1 << self.n) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask uses bits beyond the low n bits")

    @classmethod
    def identity(cls, n):
        return cls(n, 0, 0)

    @classmethod
    def from_codes(cls, codes):
        """Build from a sequence of site codes, ``codes[0]`` being site 1."""
        n = len(codes)
        x = z = 0
        for code in codes:
            xb, zb = _CODE_BITS[code]
            x = (x << 1) | xb
            z = (z << 1) | zb
        return cls(n, x, z)

    @classmethod
    def from_label(cls, label):
        """Parse a textual literal like ``"XZIIY"``."""
        try:
            codes = [_CHAR_TO_CODE[c] for c in label]
        except KeyError as exc:
            raise ValueError(f"invalid Pauli character {exc.args[0]!r}") from exc
        if not codes:
            raise ValueError("empty Pauli label")
        return cls.from_codes(codes)

    @classmethod
    def single(cls, n, site, code):
        """A single non-identity factor ``code`` at ``site`` (1-based)."""
        return cls.from_sites(n, {site: code})

    @classmethod
    def from_sites(cls, n, site_codes):
        """Build from a ``{site: code}`` mapping; omitted sites are identity."""
        x = z = 0
        for site, code in site_codes.items():
            if not 1 <= site <= n:
                raise ValueError(f"site {site} out of range 1..{n}")
            xb, zb = _CODE_BITS[code]
            bit = 1 << (n - site)
            if xb:
                x |= bit
            if zb:
                z |= bit
        return cls(n, x, z)

    def code(self, site):
        """Pauli code 0..3 at ``site`` (1-based)."""
        bit = 1 << (self.n - site)
        xb = bool(self.x_mask & bit)
        zb = bool(self.z_mask & bit)
        return _CODE_BITS.index((xb, zb))

    @property
    def codes(self):
        return tuple(self.code(j) for j in range(1, self.n + 1))

    @property
    def label(self):
        return "".join(_CODE_TO_CHAR[a] for a in self.codes)

    @property
    def weight(self):
        """Number of non-identity sites."""
        return int(self.x_mask | self.z_mask).bit_count()

    @property
    def y_count(self):
        return int(self.x_mask & self.z_mask).bit_count()

    def __mul__(self, other):
        return multiply(self, other)

    def to_dense(self):
        """Dense 2^n x 2^n matrix (small n only; used by tests and oracles)."""
        dim = 1 << self.n
        idx = np.arange(dim)
        rows = idx ^ self.x_mask
        vals = (1j ** self.y_count) * _z_signs(idx, self.z_mask)
        m = np.zeros((dim, dim), dtype=complex)
        m[rows, idx] = vals
        return m


@dataclass(frozen=True)
class PhasedString:
    """A Pauli string together with a phase from ``{1, i, -1, -i}``.

    The phase is stored as ``phase_power``, the exponent of ``i`` modulo 4.
    """

    phase_power: int
    string: PauliString

    def __post_init__(self):
        object.__setattr__(self, "phase_power", self.phase_power % 4)

    @property
    def phase(self):
        return _PHASE_VALUES[self.phase_power]

    @property
    def n(self):
        return self.string.n

    @classmethod
    def from_label(cls, label):
        """Parse e.g. ``"-i XZY"`` or ``"XZY"`` (optional phase token)."""
        parts = label.split()
        if len(parts) == 2:
            token, body = parts
            if token not in _PHASE_TOKENS:
                raise ValueError(f"invalid phase token {token!r}")
            return cls(_PHASE_TOKENS[token], PauliString.from_label(body))
        return cls(0, PauliString.from_label(label))

    @property
    def label(self):
        token = ("+1", "+i", "-1", "-i")[self.phase_power]
        return f"{token} {self.string.label}"

    def to_dense(self):
        return self.phase * self.string.to_dense()


def multiply(a, b):
    """Matrix product of two Pauli strings as ``phase x canonical string``.

    Writing each string canonically as ``i^{|x&z|} X^x Z^z`` per site, the
    product phase follows from ``Z X = -X Z``; the result phase is exact.
    """
    _check_same_n(a, b)
    xc = a.x_mask ^ b.x_mask
    zc = a.z_mask ^ b.z_mask
    power = (
        int(a.x_mask & a.z_mask).bit_count()
        + int(b.x_mask & b.z_mask).bit_count()
        + 2 * int(a.z_mask & b.x_mask).bit_count()
        - int(xc & zc).bit_count()
    )
    return PhasedString(power, PauliString(a.n, xc, zc))


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

    def is_normalized(self, atol=ATOL):
        return abs(self.norm - 1.0) <= atol


def _z_signs(indices, z_mask):
    """(-1)^popcount(index & z_mask) as a float array."""
    return 1.0 - 2.0 * (np.bitwise_count(indices & z_mask) & 1)


def apply(p, v):
    """Apply a (phased) Pauli string to a state vector, matrix-free.

    Bit-flips come from the x-mask, sign/phase flips from the z-mask; the
    Euclidean norm is preserved exactly.
    """
    if isinstance(p, PauliString):
        p = PhasedString(0, p)
    if p.string.n != v.n:
        raise DimensionMismatchError(f"site counts differ: {p.string.n} != {v.n}")
    s = p.string
    idx = np.arange(1 << v.n)
    out = np.empty_like(v.amplitudes)
    phase = _PHASE_VALUES[(p.phase_power + s.y_count) % 4]
    out[idx ^ s.x_mask] = phase * _z_signs(idx, s.z_mask) * v.amplitudes
    return StateVector(v.n, out)


def expectation(p, v):
    """<v|P|v> for a (phased) Pauli string; real when P is Hermitian."""
    if not v.is_normalized(atol=1e-9):
        import warnings

        warnings.warn("state vector is not normalized", stacklevel=2)
    return complex(np.vdot(v.amplitudes, apply(p, v).amplitudes))


def hs_inner(a, b):
    """Scaled Hilbert-Schmidt inner product ``(1/2^n) Tr(A B^dagger)``.

    Accepts plain or phased Pauli strings; operator sums are handled by
    :func:`spinchain.hamiltonians.hs_inner`, which delegates here.
    """
    if isinstance(a, PauliString):
        a = PhasedString(0, a)
    if isinstance(b, PauliString):
        b = PhasedString(0, b)
    _check_same_n(a.string, b.string)
    if (a.string.x_mask, a.string.z_mask) != (b.string.x_mask, b.string.z_mask):
        return 0j
    return complex(a.phase * np.conj(b.phase))
