import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinchain import parallel, symmetry
from spinchain.hamiltonians import (
    OperatorSum,
    SizeLimitError,
    bond_table,
    build_ba,
    build_exyz,
    normalize,
    ring,
    sample_random,
)
from spinchain.pauli import PauliString
from spinchain.spectra import diagonalize_dense
from spinchain.symmetry import (
    SECTOR_CAP,
    MomentumSector,
    OrbitTable,
    _momentum_blocks,
    build_momentum_basis,
    eigensystems,
    is_invariant,
    joint_eigenbasis,
)

from oracles import (
    average_purity,
    commutator_norm,
    dense_basis,
    full_space_residual,
    joint_eigenbasis_lifted,
    lift,
    pauli_to_dense,
    translation_permutation,
)


def translate_index(b, n):
    """Scalar oracle of T: ``|x_1..x_n> -> |x_n x_1..x_{n-1}>`` on one basis index."""
    bits = format(b, f"0{n}b")
    return int(bits[-1] + bits[:-1], 2)


def test_translate_index_example():
    # |011> -> |101> for n=3 (site n wraps to site 1)
    assert translation_permutation(3)[0b011] == 0b101


def test_translate_fixed_points():
    perm = translation_permutation(6)
    assert perm[0] == 0
    assert perm[(1 << 6) - 1] == (1 << 6) - 1


def test_translate_n_applications_is_identity():
    n = 5
    perm = translation_permutation(n)
    t = np.arange(1 << n)
    for _ in range(n):
        t = perm[t]
    assert np.array_equal(t, np.arange(1 << n))


def test_permutation_matches_scalar_map():
    perm = translation_permutation(4)
    assert [translate_index(b, 4) for b in range(16)] == list(perm)


def test_sector_dims_n3():
    dims = [s.dim for s in build_momentum_basis(3)]
    assert dims == [4, 2, 2]


def test_sector_dims_n1():
    sectors = build_momentum_basis(1)
    assert len(sectors) == 1 and sectors[0].dim == 2


def test_sector_dims_n5():
    dims = [s.dim for s in build_momentum_basis(5)]
    assert dims == [8, 6, 6, 6, 6]
    assert sum(dims) == 32


def test_sector_vectors_are_t_eigenvectors():
    n = 6
    perm = translation_permutation(n)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    for sector in build_momentum_basis(n):
        basis = dense_basis(sector)
        phase = np.exp(2j * np.pi * sector.k / n)
        assert np.max(np.abs(basis[inv] - phase * basis)) < 1e-12


def test_sector_bases_orthonormal_and_complete():
    n = 5
    full = np.concatenate([dense_basis(s) for s in build_momentum_basis(n)], axis=1)
    assert full.shape == (32, 32)
    assert np.max(np.abs(full.conj().T @ full - np.eye(32))) < 1e-12


def test_joint_eigenbasis_ising():
    alpha = np.zeros((4, 3))
    alpha[3, 2] = 1.0
    h = ring(bond_table(4, alpha, scaled=True))
    e = joint_eigenbasis_lifted(h)
    perm = translation_permutation(4)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    # every eigenvector is a T eigenvector with the reported momentum
    for j in range(e.size):
        v = e.eigenvectors[:, j]
        phase = np.exp(2j * np.pi * e.momenta[j] / 4)
        assert np.max(np.abs(v[inv] - phase * v)) < 1e-10


def test_joint_eigenbasis_zero_operator():
    e = joint_eigenbasis(OperatorSum.zero(3))
    assert np.allclose(e.eigenvalues, 0.0)
    assert e.size == 8


def test_joint_eigenbasis_matches_dense_spectrum():
    h = sample_random("invariant", 6, 0)
    e = joint_eigenbasis_lifted(h)
    dense = diagonalize_dense(h, want_vectors=False)
    assert np.max(np.abs(e.eigenvalues - dense.eigenvalues)) < 1e-9
    assert e.residual < 1e-10


@pytest.mark.parametrize("model", ["nn", "pair_only"])
def test_joint_eigenbasis_of_non_invariant_ring_is_one_dense_solve(model):
    """A ring that fails the term-list test is one dense block: the dense eigenvalues bit for bit, with no momenta."""
    h = sample_random(model, 7, 0)
    assert not is_invariant(h)
    dense = diagonalize_dense(h)
    blocks = []
    [(sector, vals, residual)] = eigensystems(h, lambda *block: blocks.append(block))
    [(first, _, vecs, workers)] = blocks
    assert sector is None and first == 0 and workers == 1 and np.array_equal(vals, dense.eigenvalues)
    assert np.array_equal(vecs, dense.eigenvectors) and residual == dense.residual
    e = joint_eigenbasis(h)
    assert np.array_equal(e.eigenvalues, diagonalize_dense(h, want_vectors=False).eigenvalues)
    assert e.momenta is None and e.eigenvectors is None


def test_one_ulp_off_an_invariant_ring_is_not_invariant():
    """Moving one coefficient of an invariant ring by one ulp breaks invariance: no momenta, one dense solve."""
    h = sample_random("invariant", 6, 1)
    coeffs = h.coeffs.copy()
    coeffs[0] = np.nextafter(coeffs[0], np.inf)
    nudged = OperatorSum(h.n, h.xs, h.zs, coeffs)
    assert is_invariant(h) and not is_invariant(nudged)
    assert commutator_norm(nudged, translation_permutation(6)) > 0.0
    e = joint_eigenbasis(nudged)
    assert e.momenta is None
    assert np.array_equal(e.eigenvalues, diagonalize_dense(nudged, want_vectors=False).eigenvalues)


def test_joint_eigenbasis_columns_orthonormal():
    h = sample_random("invariant", 5, 4)
    e = joint_eigenbasis_lifted(h)
    gram = e.eigenvectors.conj().T @ e.eigenvectors
    assert np.max(np.abs(gram - np.eye(e.size))) < 1e-10


def test_translation_conjugates_strings_cyclically():
    """Conjugating by the index permutation moves single-site support by one site."""
    n = 4
    perm = translation_permutation(n)
    for code in (1, 2, 3):
        a = pauli_to_dense(PauliString.from_sites(n, {1: code}))
        b = pauli_to_dense(PauliString.from_sites(n, {2: code}))
        assert np.max(np.abs(b[np.ix_(perm, perm)] - a)) < 1e-12


def test_orbit_table_matches_scalar_rotation():
    n = 6
    table = OrbitTable.build(n)
    for b in range(1 << n):
        orbit = [b]
        while translate_index(orbit[-1], n) != b:
            orbit.append(translate_index(orbit[-1], n))
        rep = min(orbit)
        assert table.rep[b] == rep and table.length[b] == len(orbit)
        t = rep
        for _ in range(table.shift[b]):
            t = translate_index(t, n)
        assert t == b and 0 <= table.shift[b] < len(orbit)


RINGS = {
    "nn": lambda n: sample_random("nn", n, 5),
    "invariant": lambda n: sample_random("invariant", n, 5),
    "ba": lambda n: build_ba(0.3, 0.7, n),
    "exyz": lambda n: build_exyz(0.4, n),
}


@pytest.mark.parametrize("kind", sorted(RINGS))
@pytest.mark.parametrize("n", [3, 6, 9])
def test_is_invariant_matches_dense_commutator(kind, n):
    """The dense ``||[H, T]||`` reads ~2e-16 on the invariant rings and above 4 on the ``nn`` rings."""
    h = RINGS[kind](n)
    assert is_invariant(h) == (kind != "nn")
    assert is_invariant(h) == (commutator_norm(h, translation_permutation(n)) < 1e-12)


COUPLINGS = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
RING_N = st.integers(3, 8)


@given(n=RING_N, alpha=st.lists(COUPLINGS, min_size=12, max_size=12))
def test_is_invariant_on_sampled_invariant_rings(n, alpha):
    assert is_invariant(ring(bond_table(n, np.reshape(alpha, (4, 3)), scaled=True)))


@given(n=RING_N, alpha1=COUPLINGS, alpha3=COUPLINGS)
def test_is_invariant_on_sampled_ba_rings(n, alpha1, alpha3):
    assert is_invariant(build_ba(alpha1, alpha3, n))


@given(n=RING_N, seed=st.integers(0, 2**32 - 1))
def test_is_invariant_agrees_with_commutator_on_random_nn_rings(n, seed):
    h = sample_random("nn", n, seed)
    assert not is_invariant(h)
    assert commutator_norm(h, translation_permutation(n)) >= 1e-12


def test_is_invariant_after_normalize():
    assert is_invariant(normalize(sample_random("invariant", 7, 2)))
    assert is_invariant(OperatorSum.zero(4))


@pytest.mark.parametrize("n", [6, 8, 9])
def test_momentum_blocks_match_projected_dense(n):
    """Direct H_k equals B_k^dagger H B_k, short orbits included; a real H's conj(H_k) is its H_{n-k}."""
    for h in (sample_random("invariant", n, 11), build_ba(0.5, 0.25, n)):
        dense = h.to_dense()
        seen = []
        sectors, build = _momentum_blocks(h)
        for sector in sectors:
            block = build(sector)
            basis = dense_basis(sector)
            assert np.max(np.abs(block - basis.conj().T @ dense @ basis)) < 1e-12
            seen.append(sector.k)
            if h.is_real and 0 < 2 * sector.k < n:
                basis = dense_basis(MomentumSector(sector.table, n - sector.k, sector.reps))
                assert np.max(np.abs(block.conj() - basis.conj().T @ dense @ basis)) < 1e-12
                seen.append(n - sector.k)
        assert sorted(seen) == list(range(n))
        assert len(seen) == len(set(seen))


def test_momentum_blocks_real_where_phases_are():
    sectors, build = _momentum_blocks(build_ba(0.5, 0.25, 8))
    blocks = {s.k: build(s) for s in sectors}
    assert not np.iscomplexobj(blocks[0]) and not np.iscomplexobj(blocks[4])
    assert np.iscomplexobj(blocks[1])


def test_spectrum_only_path_matches_vector_path():
    for n in (6, 9):
        h = sample_random("invariant", n, 7)
        full = joint_eigenbasis_lifted(h)
        vals_only = joint_eigenbasis(h)
        assert vals_only.eigenvectors is None
        assert np.max(np.abs(full.eigenvalues - vals_only.eigenvalues)) < 1e-12
        assert np.array_equal(full.momenta, vals_only.momenta)
        dense = diagonalize_dense(h, want_vectors=False)
        assert np.max(np.abs(vals_only.eigenvalues - dense.eigenvalues)) < 1e-10


def test_joint_eigenbasis_cap():
    with pytest.raises(SizeLimitError):
        joint_eigenbasis(build_ba(0.5, 0.5, SECTOR_CAP + 1))


def test_joint_purities_match_dense_eigenbasis():
    """Non-degenerate spectrum: both bases hold the same states up to phase."""
    n = 8
    h = sample_random("invariant", n, 3)
    e = joint_eigenbasis_lifted(h)
    assert np.min(np.diff(e.eigenvalues)) > 1e-6
    dense = diagonalize_dense(h)
    for l in (1, 2, 3):
        ours = average_purity(e, l).per_state
        ref = average_purity(dense, l).per_state
        assert np.max(np.abs(ours - ref)) < 1e-9


@pytest.mark.parametrize("n", [6, 7, 8, 9, 10])
def test_sector_residual_equals_full_space_residual(n):
    """||H_k v - lambda v|| in sector space is the full-space H and T residual of B_k v.

    The real ``ba`` ring takes every sector n-k as the conjugate of sector
    k, so its mirrored vectors are checked against dense H and against T
    with momentum n-k.
    """
    for h in (sample_random("invariant", n, 2), build_ba(0.3, 0.7, n), build_exyz(0.4, n)):
        e = joint_eigenbasis_lifted(h)
        assert set(e.momenta) == set(range(n))
        full = full_space_residual(h, e)
        assert abs(e.residual - full) < 1e-12
        assert e.residual < 1e-10 and full < 1e-10
        sector_max = max(res for _, _, res in eigensystems(h, lambda *block: None))
        assert sector_max == e.residual


@pytest.mark.parametrize("n", [7, 8])
def test_real_ring_solves_each_plus_minus_k_pair_once(n, monkeypatch):
    """A real ring takes floor(n/2) + 1 solves, a complex invariant ring n; mirrored eigenvalues are bitwise equal."""
    calls = []
    for name in ("eigvalsh", "eigh"):
        def counting(matrix, solve=getattr(np.linalg, name), name=name):
            calls.append(name)
            return solve(matrix)

        monkeypatch.setattr(np.linalg, name, counting)

    real, complex_ring = build_ba(0.5, 0.25, n), sample_random("invariant", n, 3)
    assert real.is_real and not complex_ring.is_real
    mirrored = sorted(range(n), key=lambda k: (min(k, n - k), k))  # 0, 1, n-1, 2, n-2, ...
    for h, solves, order in ((real, n // 2 + 1, mirrored), (complex_ring, n, list(range(n)))):
        calls.clear()
        e = joint_eigenbasis(h)
        assert calls == ["eigvalsh"] * solves
        assert np.max(np.abs(e.eigenvalues - np.linalg.eigvalsh(h.to_dense()))) < 1e-10
        calls.clear()
        assert [s.k for s, _, _ in eigensystems(h, lambda *block: None)] == order
        assert calls == ["eigh"] * solves
    vals = {s.k: v for s, v, _ in eigensystems(real)}
    for k in range(1, (n + 1) // 2):
        assert np.array_equal(vals[k], vals[n - k])


def test_values_only_sectors_use_eigvalsh(monkeypatch):
    """With no ``each`` neither path calls ``eigh``, which also forms the eigenvectors: the sectors of an invariant ring, or the one dense block of any other."""
    def refuse(*args, **kwargs):
        raise AssertionError("eigh called on the eigenvalues-only path")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for h, sectors in ((build_ba(0.5, 0.25, 7), 7), (sample_random("nn", 7, 0), 1)):
        solved = eigensystems(h)
        assert len(solved) == sectors and all(res == 0.0 for _, _, res in solved)
        assert joint_eigenbasis(h).size == 128


@pytest.mark.parametrize("cpus", [2, 3])
def test_each_runs_on_the_thread_that_built_its_block_before_it_builds_another(monkeypatch, cpus):
    """``each`` gets a block, then its mirror, on the thread that built it, before that thread builds its next block.

    Every sector is handed to ``each`` once, at the index of its first state
    in the concatenation of ``solved``, with the worker count of the run.
    """
    events, handed, runs = {}, [], _counting_runs(monkeypatch, cpus)
    momentum_blocks = symmetry._momentum_blocks

    def recording_blocks(h):
        sectors, block = momentum_blocks(h)

        def recording_block(sector):
            events.setdefault(threading.get_ident(), []).append(("block", sector.k))
            return block(sector)

        return sectors, recording_block

    def each(first, sector, vecs, workers):
        events.setdefault(threading.get_ident(), []).append(("each", sector.k))
        handed.append((first, sector.k, vecs.shape, workers))

    monkeypatch.setattr(symmetry, "_momentum_blocks", recording_blocks)
    n = 8
    for h in (build_ba(0.5, 0.25, n), sample_random("invariant", n, 5)):
        for recorded in (events, handed, runs):
            recorded.clear()
        solved = eigensystems(h, each)
        [workers] = runs
        firsts = np.cumsum([0] + [s.dim for s, _, _ in solved[:-1]]).tolist()
        assert sorted(handed) == [(f, s.k, (s.dim, s.dim), workers) for f, (s, _, _) in zip(firsts, solved)]
        for seen in events.values():
            built = [k for kind, k in seen if kind == "block"]
            mirrors = [[k] + ([n - k] if h.is_real and 0 < 2 * k < n else []) for k in built]
            assert seen == [event for ks in mirrors for event in [("block", ks[0])] + [("each", k) for k in ks]]


def _counting_runs(monkeypatch, cpus):
    """Patch ``parallel.cpus`` to ``cpus`` and record the worker count of every ``parallel.run``."""
    run, counts = parallel.run, []

    def counted(workers, work):
        counts.append(workers)
        return run(workers, work)

    monkeypatch.setattr(parallel, "run", counted)
    monkeypatch.setattr(parallel, "cpus", lambda: cpus)
    return counts


def test_failed_sector_solve_is_raised_after_every_worker_with_blas_restored(monkeypatch):
    """A solve that fails in one sector raises ``RuntimeError`` once every worker has ended.

    Every solve, the failed one too, runs with OpenBLAS at one thread; the
    other sectors are still solved, and afterwards OpenBLAS has its old
    thread count back.
    """
    blas = parallel._blas_threads()
    if blas is None:
        pytest.skip("numpy's OpenBLAS has no thread setter here")
    get, set_ = blas
    counts = _counting_runs(monkeypatch, 3)
    h = sample_random("invariant", 8, 1)
    sectors, build = _momentum_blocks(h)
    bad = build(sectors[4])
    eigh, seen = np.linalg.eigh, []

    def stub(matrix):
        seen.append(get())
        if matrix.shape == bad.shape and np.array_equal(matrix, bad):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", stub)
    old = get()
    set_(2)
    try:
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="sector eigensolver failed for n=8, k=4"):
            eigensystems(h, lambda *block: None)
        assert threading.active_count() == threads and get() == 2
    finally:
        set_(old)
    assert counts == [3] and seen == [1] * 8


@pytest.mark.parametrize("memory", [None, 0], ids=["unreadable", "too_small"])
def test_memory_that_holds_no_second_solve_leaves_one_worker(monkeypatch, memory):
    """Memory that cannot be read, or that holds no solve, gives one worker, with the bits of three."""
    counts = _counting_runs(monkeypatch, 3)
    h = sample_random("invariant", 8, 2)
    many = joint_eigenbasis(h)
    monkeypatch.setattr(parallel, "available_bytes", lambda: memory)
    one = joint_eigenbasis(h)
    assert counts == [3 if parallel._blas_threads() else 1, 1]
    assert np.array_equal(one.eigenvalues, many.eigenvalues) and np.array_equal(one.momenta, many.momenta)


def test_no_blas_setter_leaves_one_worker_and_reads_no_memory(monkeypatch):
    """Without an OpenBLAS thread setter the sectors are solved by one worker, as OpenBLAS is set."""
    def unread():
        raise AssertionError("memory read")

    counts = _counting_runs(monkeypatch, 3)
    monkeypatch.setattr(parallel, "_blas_threads", lambda: None)
    monkeypatch.setattr(parallel, "available_bytes", unread)
    e = joint_eigenbasis(sample_random("invariant", 7, 3))
    assert counts == [1] and e.size == 128


def test_lift_is_fortran_ordered():
    """The scatter oracle gives Fortran-ordered columns, as ``average_purity`` reads them."""
    sector = build_momentum_basis(6)[1]
    block = lift(sector, np.eye(sector.dim)[:, :3])
    assert block.flags.f_contiguous and block.shape == (64, 3)


@pytest.mark.parametrize("n", [5, 6, 8])
def test_gather_map_equals_scatter_lift(n):
    """``amps[b] * eye[src[b]]`` is the oracle's ``B_k`` bit for bit, with zero rows outside the sector."""
    for sector in build_momentum_basis(n):
        src, amps = sector.gather_map()
        assert np.array_equal(amps[:, None] * np.eye(sector.dim)[src], dense_basis(sector))
