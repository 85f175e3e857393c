import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinchain.hamiltonians import (
    DENSE_CAP,
    OperatorSum,
    SizeLimitError,
    bond_table,
    build_ba,
    build_exyz,
    normalize,
    ring,
    sample_random,
    sample_table,
)
from spinchain.pauli import PauliString

from oracles import (
    StateVector,
    apply_sum,
    commutator_norm,
    from_label,
    from_terms,
    hs_inner,
    pauli_to_dense,
    terms,
    to_label,
    translation_permutation,
)


def term_dict(h):
    return {(int(x), int(z)): float(c) for x, z, c in zip(h.xs, h.zs, h.coeffs)}


def test_nn_chain_zz_ring():
    """alpha_{3,3,j} = 1 for all bonds, n=4 -> (1/2)(Z1Z2 + Z2Z3 + Z3Z4 + Z4Z1)."""
    alpha = np.zeros((4, 4, 3))
    alpha[:, 3, 2] = 1.0
    h = ring(bond_table(4, alpha, scaled=True))
    want = {
        from_label(lbl): 0.5
        for lbl in ("ZZII", "IZZI", "IIZZ", "ZIIZ")
    }
    got = {s: c for c, s in terms(h)}
    assert got == want


def test_nn_chain_pure_field_via_a0():
    alpha = np.zeros((4, 4, 3))
    alpha[:, 0, 2] = 1.0
    h = ring(bond_table(4, alpha, scaled=True))
    got = {s: c for c, s in terms(h)}
    want = {PauliString.from_sites(4, {j: 3}): 0.5 for j in range(1, 5)}
    assert got == want


def test_nn_chain_parseval():
    """hs_inner(H, H) = (1/n) sum alpha^2, cross-checked against dense Tr(H^2)/2^n."""
    alpha = np.random.default_rng(0).standard_normal((4, 4, 3))
    h = ring(bond_table(4, alpha, scaled=True))
    want = float(np.sum(alpha**2)) / 4
    assert abs(hs_inner(h, h).real - want) < 1e-12
    dense = h.to_dense()
    assert abs(np.trace(dense @ dense).real / 16 - want) < 1e-10


def test_invariant_heisenberg_commutes_with_translation():
    alpha = np.zeros((4, 3))
    alpha[1, 0] = alpha[2, 1] = alpha[3, 2] = 1.0
    h = ring(bond_table(4, alpha, scaled=True))
    assert commutator_norm(h, translation_permutation(4)) < 1e-12


def test_invariant_zero():
    assert ring(bond_table(5, np.zeros((4, 3)), scaled=True)).num_terms == 0


def test_invariant_spectrum_shift_invariant():
    """Spectrum is unchanged under conjugation by the translation permutation."""
    rng = np.random.default_rng(1)
    h = ring(bond_table(6, rng.standard_normal((4, 3)), scaled=True))
    dense = h.to_dense()
    perm = translation_permutation(6)
    shifted = dense[np.ix_(perm, perm)]
    a = np.sort(np.linalg.eigvalsh(dense))
    b = np.sort(np.linalg.eigvalsh(shifted))
    assert np.max(np.abs(a - b)) < 1e-10


def test_pair_only_structure():
    alpha = np.zeros((5, 4, 3))
    alpha[:, 1, 1] = 1.0  # a=1 (X), b=2 (Y)
    h = ring(bond_table(5, alpha, scaled=False))
    assert h.num_terms == 5
    assert all(to_label(s).count("I") == 3 and coeff == 1.0 for coeff, s in terms(h))


def test_pair_only_zero_and_rejects_fields():
    """The zero table gives no terms; a sampled pair-only table holds no one-site (a=0) coupling."""
    assert ring(bond_table(5, np.zeros((5, 4, 3)), scaled=False)).num_terms == 0
    table = sample_table("pair_only", 5, 0)
    assert not np.any(table[:, 0]) and np.all(table[:, 1:])


def test_pair_only_antiunitary_conjugation():
    """S H S = conjugate(H) with S = Y tensor-power, on dense matrices (n=8)."""
    h = sample_random("pair_only", 8, 2)
    s = pauli_to_dense(from_label("Y" * 8))
    dense = h.to_dense()
    assert np.max(np.abs(s @ dense @ s - dense.conj())) < 1e-10


def test_ba_ising_special_case():
    h = build_ba(0.0, 0.0, 4)
    assert h.num_terms == 4
    assert all(to_label(s).replace("I", "").replace("X", "") == "" for _, s in terms(h))


def test_ba_parseval():
    for a1, a3 in ((0.5, 0.5), (0.2, 0.9)):
        h = build_ba(a1, a3, 6)
        assert abs(hs_inner(h, h).real - (1 + a1**2 + a3**2)) < 1e-12
    dense = build_ba(0.5, 0.5, 4).to_dense()
    assert abs(np.trace(dense @ dense).real / 16 - 1.5) < 1e-10


def test_ba_term_count():
    assert build_ba(0.0, 1.0, 4).num_terms == 8


def test_exyz_eps_zero_field_spectrum():
    h = build_exyz(0.0, 4)
    vals = np.sort(np.linalg.eigvalsh(h.to_dense()))
    want = np.sort(np.repeat([4 - 2 * r for r in range(5)], [1, 4, 6, 4, 1]))
    assert np.max(np.abs(vals - want)) < 1e-12


def test_exyz_term_count():
    assert build_exyz(1.0, 3).num_terms == 6


def test_exyz_matches_streaming_enumeration():
    from spinchain.free_fermion import collect_spectrum

    vals = np.sort(np.linalg.eigvalsh(build_exyz(0.3, 5).to_dense()))
    analytic = np.sort(collect_spectrum(5, 0.3))
    assert np.max(np.abs(vals - analytic)) < 1e-9


def test_normalize_ising_unchanged():
    alpha = np.zeros((6, 4, 3))
    alpha[:, 3, 2] = 1.0
    h = ring(bond_table(6, alpha, scaled=True))
    assert abs(hs_inner(h, h).real - 1.0) < 1e-12
    assert term_dict(normalize(h)) == pytest.approx(term_dict(h))


def test_normalize_scale_invariant():
    h = sample_random("nn", 5, 11)
    assert term_dict(normalize(2.0 * h)) == pytest.approx(term_dict(normalize(h)))


def test_normalize_ba():
    h = build_ba(0.5, 0.5, 5)
    hn = normalize(h)
    assert np.allclose(hn.coeffs * np.sqrt(1.5), h.coeffs)


def test_normalize_zero_rejected():
    with pytest.raises(ValueError):
        normalize(OperatorSum.zero(3))


def test_sample_random_deterministic():
    for kind in ("nn", "invariant", "pair_only"):
        a = sample_random(kind, 5, 7)
        b = sample_random(kind, 5, 7)
        assert term_dict(a) == term_dict(b)


@pytest.mark.parametrize("kind", ["general", "invarient"])
def test_sample_random_rejects_unknown_kinds(kind):
    with pytest.raises(ValueError, match="unknown kind"):
        sample_random(kind, 5, 7)


def test_sample_random_invariant_structure():
    """Invariant samples replicate 12 coefficient values once per bond."""
    h = sample_random("invariant", 6, 0)
    values, counts = np.unique(np.round(h.coeffs, 12), return_counts=True)
    assert len(values) == 12
    assert np.all(counts == 6)


def test_sampled_coefficient_statistics():
    flat = np.sqrt(834) * sample_table("nn", 834, 0).ravel()  # 834 * 12 > 1e4 coefficients
    assert abs(flat.mean()) < 0.05
    assert abs(flat.var() - 1.0) < 0.1


def test_to_dense_small_cases():
    z = from_terms(1, [(1.0, from_label("Z"))])
    assert np.allclose(z.to_dense(), np.diag([1.0, -1.0]))
    xx = from_terms(2, [(1.0, from_label("XX"))])
    assert np.allclose(xx.to_dense(), np.fliplr(np.eye(4)))


BUILDERS = {
    "nn": lambda n: sample_random("nn", n, 9),
    "invariant": lambda n: sample_random("invariant", n, 3),
    "ba": lambda n: build_ba(0.5, 0.25, n),
    "exyz": lambda n: build_exyz(0.5, n),
}


@pytest.mark.parametrize("kind", BUILDERS)
@pytest.mark.parametrize("n", [5, 8])
def test_apply_matches_dense(kind, n):
    rng = np.random.default_rng(4)
    h = BUILDERS[kind](n)
    v = StateVector.random(n, rng)
    got = apply_sum(h, v).amplitudes
    want = h.to_dense() @ v.amplitudes
    assert np.max(np.abs(got - want)) < 1e-10


@st.composite
def operator_sums(draw):
    n = draw(st.integers(1, 6))
    masks = st.integers(0, (1 << n) - 1)
    coeff = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    terms = draw(st.lists(st.tuples(coeff, masks, masks), max_size=12))
    return from_terms(n, [(c, PauliString(n, x, z)) for c, x, z in terms])


@given(h=operator_sums(), seed=st.integers(0, 2**32 - 1))
def test_operator_forms_agree(h, seed):
    """The dense form of a sum and its per-string action on a vector agree."""
    dense = h.to_dense()
    v = StateVector.random(h.n, np.random.default_rng(seed))
    assert np.max(np.abs(apply_sum(h, v).amplitudes - dense @ v.amplitudes)) < 1e-12


def test_dense_cap_enforced():
    # the check runs before the 2^n index array is allocated
    with pytest.raises(SizeLimitError):
        build_exyz(0.5, DENSE_CAP + 1).to_dense()


def test_real_dense_when_no_y():
    alpha = np.zeros((4, 4, 3))
    alpha[:, 3, 2] = 1.0
    assert ring(bond_table(4, alpha, scaled=True)).to_dense().dtype == np.float64
    assert build_exyz(0.5, 4).to_dense().dtype == np.complex128


def test_ring_builders_reject_tiny_n():
    """The size is checked before anything is computed from it: no 1/sqrt(0) warning, no broadcast or negative-draw error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (0, -1, 2):
            with pytest.raises(ValueError, match="ring builders need n >= 3"):
                build_exyz(0.5, n)
            with pytest.raises(ValueError, match="ring builders need n >= 3"):
                build_ba(0.1, 0.1, n)
            for kind in ("nn", "pair_only", "invariant"):
                with pytest.raises(ValueError, match="ring builders need n >= 3"):
                    sample_table(kind, n, 0)


def reference_ring(alpha, pref):
    """The ring of an ``(n, 4, 3)`` table term by term: bond j couples sites j and j+1, its a=0 terms act on j+1."""
    n = len(alpha)
    terms = [
        (pref * alpha[j - 1, a, b - 1], PauliString.from_sites(n, {j: a, j % n + 1: b}))
        for j in range(1, n + 1) for a in range(4) for b in range(1, 4)
    ]
    return from_terms(n, terms)


def same_arrays(h, g):
    return h.n == g.n and all(np.array_equal(a, b) for a, b in ((h.xs, g.xs), (h.zs, g.zs), (h.coeffs, g.coeffs)))


@pytest.mark.parametrize("n", [3, 4, 7])
def test_builders_match_the_term_by_term_ring(n):
    """Every builder gives the same arrays, bit for bit, as the term-by-term reference of its table.

    The samplers draw their table as ``default_rng(seed).standard_normal`` of its shape, which pins
    the random stream of every seeded ring.
    """
    pref = 1.0 / np.sqrt(n)
    for seed in (n, [n, 1]):
        nn = np.random.default_rng(seed).standard_normal((n, 4, 3))
        pair = nn.copy()
        pair[:, 0] = 0.0
        row = np.random.default_rng(seed).standard_normal((4, 3))
        for kind, alpha, p in (("nn", nn, pref), ("pair_only", pair, 1.0),
                               ("invariant", np.broadcast_to(row, (n, 4, 3)), pref)):
            assert np.array_equal(sample_table(kind, n, seed), p * alpha), kind
            assert same_arrays(sample_random(kind, n, seed), reference_ring(alpha, p)), kind
    ba = np.zeros((n, 4, 3))
    ba[:, 0], ba[:, 1, 0] = [0.3, 0.0, -0.7], 1.0
    assert same_arrays(build_ba(0.3, -0.7, n), reference_ring(ba, pref))
    exyz = np.zeros((n, 4, 3))
    exyz[:, 0, 2], exyz[:, 1, 1] = 1.0, 0.4
    assert same_arrays(build_exyz(0.4, n), reference_ring(exyz, 1.0))


def test_operator_sum_merges_duplicates():
    p = from_label("XZI")
    h = from_terms(3, [(1.0, p), (2.0, p), (-3.0, p)])
    assert h.num_terms == 0
