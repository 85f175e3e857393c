import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinchain.pauli import (
    DimensionMismatchError,
    PauliString,
    PhasedString,
    multiply,
)

from oracles import (
    StateVector, apply, expectation, from_codes, from_label, from_terms, hs_inner, pauli_to_dense, to_label,
)

# independent dense oracle: kron products built from explicit 2x2 matrices
SIGMA = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def dense_of(codes):
    m = SIGMA[codes[0]]
    for c in codes[1:]:
        m = np.kron(m, SIGMA[c])
    return m


def test_multiply_single_site():
    r = multiply(from_label("X"), from_label("Y"))
    assert r.phase == 1j and to_label(r.string) == "Z"


def test_multiply_identity():
    p = from_label("XY")
    r = multiply(from_label("II"), p)
    assert r.phase == 1 and r.string == p


def test_multiply_two_site():
    r = multiply(from_label("XZ"), from_label("ZZ"))
    assert r.phase == -1j and to_label(r.string) == "YI"


def test_involution():
    for label in ("X", "Y", "Z", "XZY", "IYXI"):
        p = from_label(label)
        r = multiply(p, p)
        assert r.phase == 1 and r.string == PauliString(p.n, 0, 0)


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        multiply(from_label("X"), from_label("XX"))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_multiply_matches_dense_products(n):
    rng = np.random.default_rng(42 + n)
    for _ in range(30):
        ca = rng.integers(0, 4, n)
        cb = rng.integers(0, 4, n)
        a, b = from_codes(ca), from_codes(cb)
        r = multiply(a, b)
        expected = dense_of(ca) @ dense_of(cb)
        assert np.allclose(r.phase * dense_of(["IXYZ".index(c) for c in to_label(r.string)]), expected)


def test_multiply_associative_on_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        a, b, c = (from_codes(rng.integers(0, 4, n)) for _ in range(3))
        ab = multiply(a, b)
        bc = multiply(b, c)
        left = multiply(ab.string, c)
        right = multiply(a, bc.string)
        assert (ab.phase_power + left.phase_power) % 4 == (bc.phase_power + right.phase_power) % 4
        assert left.string == right.string


def test_apply_examples():
    v0 = StateVector.basis_state(1, 0)
    v1 = StateVector.basis_state(1, 1)
    assert np.allclose(apply(from_label("X"), v0).amplitudes, [0, 1])
    assert np.allclose(apply(from_label("Z"), v1).amplitudes, [0, -1])
    assert np.allclose(apply(from_label("Y"), v0).amplitudes, [0, 1j])


def test_apply_matches_dense():
    rng = np.random.default_rng(3)
    for n in (2, 4, 6):
        codes = rng.integers(0, 4, n)
        p = PhasedString(int(rng.integers(0, 4)), from_codes(codes))
        v = StateVector.random(n, rng)
        got = apply(p, v).amplitudes
        want = p.phase * dense_of(codes) @ v.amplitudes
        assert np.max(np.abs(got - want)) < 1e-12


def test_apply_preserves_norm():
    rng = np.random.default_rng(11)
    for n in (3, 8, 12):
        p = from_codes(rng.integers(0, 4, n))
        v = StateVector.random(n, rng)
        assert abs(apply(p, v).norm - 1.0) < 1e-12


def as_sum(s):
    return from_terms(s.n, [(1.0, s)])


def test_hs_inner_examples():
    x, z = as_sum(from_label("X")), as_sum(from_label("Z"))
    assert hs_inner(x, x) == 1
    assert hs_inner(x, z) == 0
    xz = as_sum(from_label("XZ"))
    assert hs_inner(xz, xz) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hs_inner_gram_identity(n):
    strings = [as_sum(from_codes(c)) for c in itertools.product(range(4), repeat=n)]
    for i, a in enumerate(strings):
        for j, b in enumerate(strings):
            assert hs_inner(a, b) == (1 if i == j else 0)


@st.composite
def string_pairs(draw):
    n = draw(st.integers(1, 5))
    masks = st.integers(0, (1 << n) - 1)
    return PauliString(n, draw(masks), draw(masks)), PauliString(n, draw(masks), draw(masks))


@given(pair=string_pairs())
def test_multiply_is_the_dense_product(pair):
    a, b = pair
    r = multiply(a, b)
    assert np.array_equal(r.phase * pauli_to_dense(r.string), pauli_to_dense(a) @ pauli_to_dense(b))


def test_expectation_examples():
    v0 = StateVector.basis_state(1, 0)
    plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    assert abs(expectation(from_label("Z"), v0) - 1) < 1e-12
    assert abs(expectation(from_label("X"), plus) - 1) < 1e-12
    assert abs(expectation(from_label("X"), v0)) < 1e-12


def test_expectation_matches_dense():
    rng = np.random.default_rng(5)
    for n in (2, 4, 6):
        codes = rng.integers(0, 4, n)
        v = StateVector.random(n, rng)
        got = expectation(from_codes(codes), v)
        want = np.vdot(v.amplitudes, dense_of(codes) @ v.amplitudes)
        assert abs(got - want) < 1e-12


def test_expectation_warns_on_unnormalized():
    v = StateVector(1, np.array([2.0, 0.0]))
    with pytest.warns(UserWarning):
        expectation(from_label("Z"), v)


def test_label_round_trip():
    for label in ("XZIIY", "I", "ZZZZ"):
        assert to_label(from_label(label)) == label


def test_mask_validation():
    with pytest.raises(ValueError):
        PauliString(2, 0b100, 0)
