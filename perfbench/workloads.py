"""Workloads of the spinchain benchmark and the oracles that check their output.

A workload is one invocation of the ``spinchain`` CLI. Its flags are made
from the workload seed: the seed sets ``--seed`` of the random rings,
``--epsilon`` of the ``exyz`` ring and ``--alpha1``/``--alpha3`` of the ``ba``
ring, each drawn from a fixed range. Seed 0 gives the values of the README
examples.

Every oracle holds for any seed. It takes the text the CLI wrote and returns
a list of failure messages, empty when the output is correct.
"""

import csv
import json
import random
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0
#: range the ``epsilon`` of the ``exyz`` ring is drawn from (seeds other than 0)
EPSILON_RANGE = (0.25, 1.0)
#: range ``alpha1`` and ``alpha3`` of the ``ba`` ring are drawn from
ALPHA_RANGE = (0.25, 1.0)

#: relative tolerance of moment and trace identities
REL_TOL = 1e-9
#: absolute tolerance of moments that vanish (outputs are normalized to m2 ~ 1)
ZERO_TOL = 1e-9


def parameters(seed):
    """Model parameters of a workload seed; seed 0 gives the README values."""
    if seed == DEFAULT_SEED:
        return {"ring_seed": 0, "epsilon": 0.5, "alpha1": 0.5, "alpha3": 0.5}
    rng = random.Random(seed)
    return {
        "ring_seed": seed % 2**32,
        "epsilon": rng.uniform(*EPSILON_RANGE),
        "alpha1": rng.uniform(*ALPHA_RANGE),
        "alpha3": rng.uniform(*ALPHA_RANGE),
    }


@dataclass(frozen=True)
class Workload:
    """One CLI invocation: how to build its flags and how to check its output.

    ``spans`` names the traced spans the invocation is expected to enter; one
    with no calls in a traced run is reported as missing.
    """

    name: str
    why: str
    argv: object  # params -> list of CLI arguments, without --out
    eigenvalues: int  # eigenvalues one invocation produces
    check: object  # (params, output text) -> list of failure messages
    spans: tuple


def _close(got, want, rel=REL_TOL):
    return abs(got - want) <= rel * max(abs(want), 1.0)


# ---------------------------------------------------------------------------
# invariant-sweep: Theorem-1 purity check on joint (H, T) eigenbases


def check_purity_sweep(text, n, samples, ls, ring_seed):
    """Theorem-1 verdicts, trace identities, row counts and entropy range.

    ``Tr H = 0`` and ``Tr H^2 = 2^n sum c^2`` hold for every ring, because the
    Pauli strings are traceless and distinct. The invariant ring of sample
    ``s`` has couplings ``alpha / sqrt(n)`` on each of its n bonds, with
    ``alpha = default_rng([seed, s]).standard_normal((4, 3))`` as the CLI
    draws them, so ``sum c^2 = sum alpha^2``.
    """
    errors = []
    lines = text.splitlines()
    verdicts = [line for line in lines if line.startswith("# theorem1 ")]
    if len(verdicts) != samples * len(ls):
        errors.append(f"{len(verdicts)} theorem1 lines, expected {samples * len(ls)}")
    errors += [f"failed verdict: {line}" for line in verdicts if not line.endswith(" pass=True")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    if not rows or rows[0] != ["state_index", "eigenvalue", "l", "linear_entropy", "sample_id"]:
        return errors + ["missing or unexpected CSV header"]
    body = rows[1:]
    dim = 1 << n
    if len(body) != (samples + 1) * len(ls) * dim:
        errors.append(f"{len(body)} rows, expected {(samples + 1) * len(ls) * dim}")
    for s in range(samples):
        vals = np.array([float(r[1]) for r in body if r[4] == str(s) and r[2] == str(ls[0])])
        if len(vals) != dim:
            errors.append(f"sample {s}: {len(vals)} eigenvalues, expected {dim}")
            continue
        alpha = np.random.default_rng([ring_seed, s]).standard_normal((4, 3))
        sum_c2 = float(np.sum(alpha**2))
        trace1, trace2 = float(np.sum(vals)), float(np.sum(vals**2))
        if abs(trace1) > ZERO_TOL * dim * np.sqrt(sum_c2):
            errors.append(f"sample {s}: sum of eigenvalues {trace1!r}, expected 0")
        if not _close(trace2, dim * sum_c2):
            errors.append(f"sample {s}: sum of squares {trace2!r}, expected {dim * sum_c2!r}")
    for r in body:
        l, entropy = int(r[2]), float(r[3])
        if not -ZERO_TOL <= entropy <= 1.0 - 2.0**-l + ZERO_TOL:
            errors.append(f"linear entropy {entropy!r} outside [0, 1 - 2^-{l}] (row {r})")
            break
    return errors


def invariant_sweep(n=12, samples=2, ls=(1, 2, 3)):
    return Workload(
        name="invariant-sweep",
        why="Theorem-1 purity sweep on joint (H, T) eigenbases; dense commutator, sector projection and lift dominate",
        argv=lambda p: ["purity-sweep", "--model", "invariant", "--n", str(n), "--samples", str(samples),
                        "--l", *map(str, ls), "--seed", str(p["ring_seed"])],
        eigenvalues=samples << n,
        check=lambda p, text: check_purity_sweep(text, n, samples, ls, p["ring_seed"]),
        spans=("cli.write", "hamiltonians.build", "hamiltonians.to_dense", "hamiltonians.to_sparse",
               "spectra.commutator_norm", "symmetry.joint_eigenbasis", "symmetry.build_momentum_basis",
               "symmetry.dense_basis", "linalg.eigh", "entanglement.average_purity", "pauli.from_sites"),
    )


# ---------------------------------------------------------------------------
# exyz-stream / exyz-exact: the analytic spectrum of the eps*XY + Z ring


def check_exyz(text, ns, epsilon):
    """Count and moments m1..m4 of every report against the mode energies.

    The spectrum is every signed sum ``c sum_j (+-delta_j)``, so odd moments
    vanish, ``m2 = c^2 S2`` and ``m4 = c^4 (3 S2^2 - 2 S4)`` with
    ``Sk = sum_j delta_j^k`` and the CLI's scale ``c^2 = 1 / (n (1 + eps^2))``.
    """
    from spinchain.free_fermion import mode_energies

    reports = json.loads(text)["reports"]
    if [r["n"] for r in reports] != list(ns):
        return [f"reports for n={[r['n'] for r in reports]}, expected {list(ns)}"]
    errors = []
    for r in reports:
        n = r["n"]
        delta = mode_energies(n, epsilon).delta
        c2 = 1.0 / (n * (1.0 + epsilon**2))
        s2, s4 = float(np.sum(delta**2)), float(np.sum(delta**4))
        m1, m2, m3, m4 = r["moments"][:4]
        if r["count"] != 1 << n:
            errors.append(f"n={n}: count {r['count']}, expected {1 << n}")
        for k, got in ((1, m1), (3, m3)):
            if abs(got) > ZERO_TOL:
                errors.append(f"n={n}: m{k} = {got!r}, expected 0")
        for k, got, want in ((2, m2, c2 * s2), (4, m4, c2**2 * (3 * s2**2 - 2 * s4))):
            if not _close(got, want):
                errors.append(f"n={n}: m{k} = {got!r}, expected {want!r}")
    return errors


def _exyz(name, why, ns, spans):
    return Workload(
        name=name,
        why=why,
        argv=lambda p: ["dos", "--model", "exyz", "--n", *map(str, ns), "--epsilon", repr(p["epsilon"])],
        eigenvalues=sum(1 << n for n in ns),
        check=lambda p, text: check_exyz(text, ns, p["epsilon"]),
        spans=("cli.write", "free_fermion.enumerate_spectrum", "dos.moment_acc", "dos.ks_distance") + spans,
    )


EXACT_SPANS = ("dos.collector", "dos.from_values")
STREAM_SPANS = ("dos.histogram_acc",)


def exyz_stream(n=28, spans=STREAM_SPANS):
    return _exyz("exyz-stream", "2^28 analytic eigenvalues streamed through the Gray walk into histogram and moments; no ED code runs",
                 (n,), spans)


def exyz_exact(ns=(12, 16, 20, 24)):
    return _exyz("exyz-exact", "README dos example: collect, sort and exact KS of 2^12..2^24 values; memory-bound",
                 ns, EXACT_SPANS)


# ---------------------------------------------------------------------------
# dense-moments: one real eigvalsh per size of the Ising ring with fields


def ba_terms(n, alpha1, alpha3):
    """Terms ``(X_j X_{j+1} + alpha1 X_j + alpha3 Z_j) / sqrt(n)`` of the ba ring."""
    from spinchain.pauli import PauliString

    pref = 1.0 / np.sqrt(n)
    terms = []
    for j in range(1, n + 1):
        terms.append((pref, PauliString.from_sites(n, {j: 1, j % n + 1: 1})))
        terms.append((pref * alpha1, PauliString.from_sites(n, {j: 1})))
        terms.append((pref * alpha3, PauliString.from_sites(n, {j: 3})))
    return terms


def parseval_m4(terms):
    """``m4 = <H^2, H^2>``: the squared coefficients of H^2 in the Pauli basis."""
    from spinchain.pauli import multiply

    square = {}
    for ca, a in terms:
        for cb, b in terms:
            p = multiply(a, b)
            key = (p.string.x_mask, p.string.z_mask)
            square[key] = square.get(key, 0.0) + ca * cb * p.phase
    return float(sum(abs(c) ** 2 for c in square.values()))


def check_ba_moments(text, ns, alpha1, alpha3):
    """``m2 = sigma^2 = 1 + alpha1^2 + alpha3^2`` and ``m4 = <H^2, H^2>`` per size."""
    doc = json.loads(text)
    entries = doc["finite_n"]
    if [e["n"] for e in entries] != list(ns):
        return [f"entries for n={[e['n'] for e in entries]}, expected {list(ns)}"]
    sigma2 = 1.0 + alpha1**2 + alpha3**2
    errors = []
    for e in entries:
        want_m4 = parseval_m4(ba_terms(e["n"], alpha1, alpha3))
        for k, got, want in ((2, e["m2"], sigma2), (4, e["m4"], want_m4)):
            if not _close(got, want):
                errors.append(f"n={e['n']}: m{k} = {got!r}, expected {want!r}")
    return errors


def dense_moments(ns=(10, 12)):
    return Workload(
        name="dense-moments",
        why="README ba-moments example: ~99% one real dense eigvalsh per size; control for glue changes",
        argv=lambda p: ["ba-moments", "--n", *map(str, ns), "--alpha1", repr(p["alpha1"]),
                        "--alpha3", repr(p["alpha3"])],
        eigenvalues=sum(1 << n for n in ns),
        check=lambda p, text: check_ba_moments(text, ns, p["alpha1"], p["alpha3"]),
        spans=("cli.write", "hamiltonians.build", "hamiltonians.to_dense", "spectra.diagonalize_dense",
               "linalg.eigvalsh", "dos.from_values", "dos.moment_acc", "pauli.from_sites"),
    )


def workloads(small=False):
    """The benchmark's workloads by name; ``small`` shrinks every size to n <= 8.

    At n <= 8 the CLI takes its exact path for ``exyz``, so the small
    ``exyz-stream`` enters the exact path's spans. The small sweep keeps two
    block sizes: the CLI formats its CSV rows inside the command, where no
    span can see them, and at n = 8 three block sizes' rows take ~10% of the
    in-process time.
    """
    if small:
        ws = (invariant_sweep(n=8, ls=(1, 3)), exyz_stream(n=8, spans=EXACT_SPANS), exyz_exact(ns=(6, 8)),
              dense_moments(ns=(6, 8)))
    else:
        ws = (invariant_sweep(), exyz_stream(), exyz_exact(), dense_moments())
    return {w.name: w for w in ws}
