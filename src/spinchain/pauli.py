"""Bit-mask Pauli strings and their group algebra.

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

#: (x_bit, z_bit) per Pauli code 0..3
_CODE_BITS = ((0, 0), (1, 0), (1, 1), (0, 1))

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


def _z_signs(indices, z_mask):
    """(-1)^popcount(index & z_mask) as a float array."""
    return 1.0 - 2.0 * (np.bitwise_count(indices & z_mask) & 1)
