"""Acceptance suite: ten end-to-end criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdict lines on the terminal.
"""

import itertools
import math
import time

import numpy as np

from spinchain.dos import (
    EmpiricalDistribution,
    ba_prediction,
    ba_prediction_printed,
    block_link_split,
    clt_bound_check,
    ks_distance,
    moments,
)
from spinchain.entanglement import (
    build_M,
    epsilon_fraction,
    pair_only_checks,
    sector_purities,
)
from spinchain.free_fermion import collect_spectrum, spectrum_sum_set
from spinchain.hamiltonians import (
    build_ba,
    build_exyz,
    normalize,
    ring,
    sample_random,
    sample_table,
)
from spinchain.spectra import diagonalize_dense
from spinchain.symmetry import joint_eigenbasis

from oracles import hs_inner

SLACK = 1e-9
SEEDS = range(20)
INVARIANT_CASES = {8: (1, 2), 10: (1, 2, 3), 12: (1, 2, 3)}

_cache = {}


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name}: {verdict}  {detail}", flush=True)
    return ok


def invariant_purity_data():
    """Per-sample purity arrays for every (n, l) case, computed once."""
    if "invariant" not in _cache:
        t0 = time.monotonic()
        data = {}
        for n, ls in INVARIANT_CASES.items():
            per_nl = {l: [] for l in ls}
            for seed in SEEDS:
                _, results = sector_purities(sample_random("invariant", n, seed), ls)
                for l in ls:
                    per_nl[l].append(results[l])
            for l in ls:
                data[(n, l)] = per_nl[l]
        _cache["invariant"] = (data, time.monotonic() - t0)
    return _cache["invariant"]


def test_criterion_1_mean_purity_bound():
    data, elapsed = invariant_purity_data()
    worst = ""
    ok = True
    for (n, l), results in data.items():
        lo, hi = 2.0**-l - SLACK, 2.0**-l + 2.0**l / n + SLACK
        for seed, res in zip(SEEDS, results):
            assert res.bound_claimed
            if not lo <= res.mean <= hi:
                ok = False
                worst = f"violated at n={n} l={l} seed={seed} mean={res.mean}"
    detail = worst or f"{len(SEEDS)} seeds x {len(data)} (n,l) cases, {elapsed:.0f}s"
    assert report(1, "mean purity in [2^-l, 2^-l + 2^l/n]", ok, detail)


def test_criterion_2_markov_fraction():
    data, _ = invariant_purity_data()
    ok = True
    worst = ""
    for (n, l), results in data.items():
        for eps in (0.2, 0.5):
            bound = (2.0**l / n) / eps
            for seed, res in zip(SEEDS, results):
                frac = epsilon_fraction(res.per_state, l, eps, n).fraction
                if frac > bound + SLACK:
                    ok = False
                    worst = f"n={n} l={l} eps={eps} seed={seed} frac={frac} > {bound}"
    assert report(2, "epsilon-fraction within Markov bound", ok, worst or "eps in {0.2, 0.5}")


def test_criterion_3_pair_only_exactness():
    n, wanted = 8, 10
    checked = 0
    worst_purity = worst_odd = 0.0
    for seed in range(25):
        e = diagonalize_dense(sample_random("pair_only", n, seed))
        rep1 = pair_only_checks(e, 1)
        if rep1.degenerate:
            continue
        rep2 = pair_only_checks(e, 2)
        worst_purity = max(worst_purity, rep1.max_purity_deviation)
        worst_odd = max(worst_odd, rep2.max_odd_weight_coeff)
        checked += 1
        if checked == wanted:
            break
    ok = checked == wanted and worst_purity < 1e-8 and worst_odd < 1e-8
    detail = f"{checked} non-degenerate seeds, max |purity-0.5|={worst_purity:.2e}, max odd coeff={worst_odd:.2e}"
    assert report(3, "pair-only purity 1/2 and odd-coefficient vanishing", ok, detail)


def test_criterion_4_analytic_vs_dense_spectrum():
    worst = 0.0
    for n in (3, 5, 7):
        for eps in (0.0, 0.3, 1.0):
            analytic = np.sort(collect_spectrum(n, eps))
            dense = diagonalize_dense(build_exyz(eps, n), want_vectors=False).eigenvalues
            worst = max(worst, float(np.max(np.abs(analytic - dense))))
    assert report(4, "free-fermion spectrum matches dense ED", worst < 1e-9, f"max dev {worst:.2e}")


def test_criterion_5_density_of_states_trend():
    # (a) unit second moment for every normalized builder
    m2_dev = 0.0
    builders = {
        "nn": normalize(sample_random("nn", 10, 0)),
        "invariant": normalize(sample_random("invariant", 10, 0)),
        "pair_only": normalize(sample_random("pair_only", 10, 0)),
        "ba": normalize(build_ba(0.5, 0.5, 10)),
        "exyz": normalize(build_exyz(0.5, 10)),
    }
    for name, h in builders.items():
        vals = diagonalize_dense(h, want_vectors=False).eigenvalues
        m2_dev = max(m2_dev, abs(float(np.mean(vals**2)) - 1.0))
    ok_a = m2_dev < 1e-10

    # (b), (c): streaming KS and fourth-moment trends for normalized exyz
    eps = 0.5
    ks_list, m4_list = [], []
    t24 = None
    for n in (12, 16, 20, 24):
        scale = 1.0 / math.sqrt(n * (1 + eps**2))
        t0 = time.monotonic()
        d = EmpiricalDistribution.from_sum_set(*spectrum_sum_set(n, eps, scale=scale))
        if n == 24:
            t24 = time.monotonic() - t0
        ks_list.append(ks_distance(d).statistic)
        m4_list.append(float(moments(d, 4)[3]))
    ok_b = all(b < a for a, b in zip(ks_list, ks_list[1:])) and ks_list[-1] < 0.75 * ks_list[0]
    devs = [abs(m - 3.0) for m in m4_list]
    ok_c = all(b < a for a, b in zip(devs, devs[1:]))
    detail = (
        f"max |m2-1|={m2_dev:.2e}; KS={['%.4f' % k for k in ks_list]}; "
        f"|m4-3|={['%.4f' % d for d in devs]}; n=24 stream {t24:.1f}s"
    )
    assert report(5, "normalized DOS converges to standard normal", ok_a and ok_b and ok_c, detail)


def test_criterion_6_characteristic_function_bound():
    table = sample_table("nn", 10, 0)
    table = table / np.sqrt(np.sum(table**2))
    vals = joint_eigenbasis(ring(table)).eigenvalues
    failures = []
    for l in (2, 3, 5):
        for row in clt_bound_check(block_link_split(table, l), vals, [0.5, 1.0, 2.0]):
            if not row.passes():
                failures.append((l, row.t, row.lhs, row.rhs))
    assert report(6, "|psi - phi| <= sqrt(t^2 <L,L>) on every row", not failures, str(failures or "9 rows"))


def test_criterion_7_translation_average_normalization():
    n = 9
    worst = 0.0
    count = 0
    for l in (1, 2, 3, 4):
        for a in itertools.product(range(4), repeat=l):
            if all(c == 0 for c in a):
                continue
            m = build_M(a, n)
            worst = max(worst, abs(hs_inner(m, m).real - 1.0))
            count += 1
    assert report(7, "hs_inner(M(a), M(a)) = 1", worst < 1e-12, f"{count} tuples, max dev {worst:.2e}")


def test_criterion_8_ising_with_fields_moments():
    a1 = a3 = 0.5
    sigma2 = 1.0 + a1**2 + a3**2
    m2_dev = 0.0
    m4_devs = []
    for n in (10, 12, 13):
        vals = joint_eigenbasis(build_ba(a1, a3, n)).eigenvalues
        m2_dev = max(m2_dev, abs(float(np.mean(vals**2)) - sigma2))
        m4_devs.append(abs(float(np.mean(vals**4)) - 6.75))
    for k in (1, 2, 3):
        print(
            f"  moment 2k={2 * k}: derivation-consistent {ba_prediction(a1, a3, k):.6g}, "
            f"printed formula {ba_prediction_printed(a1, a3, k):.6g}",
            flush=True,
        )
    ok = m2_dev < 1e-10 and all(b < a for a, b in zip(m4_devs, m4_devs[1:]))
    detail = f"max |m2-1.5|={m2_dev:.2e}, |m4-6.75| over n=10,12,13: {['%.4f' % d for d in m4_devs]}"
    assert report(8, "Ising-with-fields moment convergence", ok, detail)


def test_criterion_9_bulk_linear_entropy():
    n, samples = 11, 8
    rank_sums = {l: np.zeros(1 << n) for l in (1, 2, 3, 4)}
    for seed in range(samples):
        _, results = sector_purities(sample_random("invariant", n, seed), tuple(rank_sums))
        for l in rank_sums:
            rank_sums[l] += 1.0 - results[l].per_state
    ok = True
    details = []
    dim = 1 << n
    bulk = slice(dim // 4, 3 * dim // 4)
    for l, sums in rank_sums.items():
        ent = sums / samples
        bound = 1.0 - 2.0**-l - 2.0**l / n
        bulk_mean = float(np.mean(ent[bulk]))
        edge_mean = float(np.mean(np.concatenate([ent[:16], ent[-16:]])))
        if bulk_mean < bound - SLACK:
            ok = False
        details.append(f"l={l}: bulk {bulk_mean:.3f} >= {bound:.3f} (edge {edge_mean:.3f})")
    assert report(9, "bulk eigenstates near maximal entanglement", ok, "; ".join(details))


def test_criterion_10_streaming_throughput():
    # what `dos` streams: the sum-set, its power sums and one counting pass over a 4097-point grid
    n = 24
    t0 = time.monotonic()
    d = EmpiricalDistribution.from_sum_set(*spectrum_sum_set(n, 0.5))
    top = np.nextafter(d.low[-1] + np.max(d.offsets), np.inf)
    count = int(d.count_below(np.linspace(d.low[0] + np.min(d.offsets), top, 4097))[-1])
    rate = count / (time.monotonic() - t0)
    ok = rate >= 5e7
    verdict = "meets 5e7/s target" if ok else "below 5e7/s target (advisory only)"
    report(10, "streaming enumeration throughput", True, f"{rate:.2e} values/s, {verdict}")
    assert count == 1 << n  # advisory on speed, strict on correctness
