import csv
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinchain.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out


def test_purity_sweep_deterministic(tmp_path):
    argv = ["purity-sweep", "--n", "6", "--samples", "1", "--seed", "3", "--l", "1", "2"]
    code1, out1 = run(tmp_path, "a.csv", argv)
    code2, out2 = run(tmp_path, "b.csv", argv)
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_purity_sweep_embeds_config(tmp_path):
    code, out = run(tmp_path, "c.csv", ["purity-sweep", "--n", "6", "--samples", "1", "--l", "1"])
    text = out.read_text()
    assert code == 0
    cfg = json.loads(text.splitlines()[0].removeprefix("# config: "))
    assert cfg["command"] == "purity-sweep" and cfg["n"] == 6 and "version" in cfg


def test_purity_sweep_pair_only_half_entropy(tmp_path):
    code, out = run(
        tmp_path,
        "p.csv",
        ["purity-sweep", "--n", "8", "--model", "pair_only", "--samples", "2", "--l", "1"],
    )
    assert code == 0
    rows = [r for r in out.read_text().splitlines() if r and not r.startswith("#")]
    header = rows[0].split(",")
    i_ent = header.index("linear_entropy")
    ents = [float(r.split(",")[i_ent]) for r in rows[1:]]
    assert max(abs(e - 0.5) for e in ents) < 1e-8


def test_dos_exyz_report(tmp_path):
    code, out = run(
        tmp_path,
        "dos.json",
        ["dos", "--n", "10", "12", "--model", "exyz", "--epsilon", "0.5"],
    )
    assert code == 0
    payload = json.loads(out.read_text())
    reports = payload["reports"]
    assert [r["n"] for r in reports] == [10, 12]
    for r in reports:
        assert abs(r["moments"][1] - 1.0) < 1e-10
    assert reports[1]["ks"] < reports[0]["ks"]


def test_dos_nn_unit_second_moment(tmp_path):
    code, out = run(tmp_path, "nn.json", ["dos", "--n", "10", "--model", "nn"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["reports"][0]["moments"][1] - 1.0) < 1e-10


def test_clt_check_passes(tmp_path):
    code, out = run(tmp_path, "clt.csv", ["clt-check", "--n", "8", "--l", "2", "--t", "0.5", "1.0"])
    assert code == 0
    rows = [r.split(",") for r in out.read_text().splitlines() if r and not r.startswith("#")]
    header = rows[0]
    i_pass = header.index("pass")
    data = [r for r in rows[1:] if r[header.index("t")] != "lyapunov"]
    assert data and all(r[i_pass] == "1" for r in data)


def test_degeneracy_scan(tmp_path):
    code, out = run(
        tmp_path,
        "deg.csv",
        ["degeneracy-scan", "--n", "5", "--epsilon", "0.0", "0.5", "--samples", "2"],
    )
    assert code == 0
    rows = [r.split(",") for r in out.read_text().splitlines() if r and not r.startswith("#")]
    header, data = rows[0], rows[1:]
    i_gap, i_model = header.index("min_gap"), header.index("model")
    gaps = {(r[i_model], r[header.index("epsilon")]): float(r[i_gap]) for r in data if r[i_model] == "exyz"}
    assert gaps[("exyz", "0.0")] == pytest.approx(0.0, abs=1e-12)
    assert gaps[("exyz", "0.5")] > 0.0


def test_degeneracy_scan_reports_composite_n_once(tmp_path, capsys):
    """A non-prime n is reported in the CSV comment only, with nothing on stderr."""
    from spinchain.free_fermion import min_gap_scan

    assert min_gap_scan(4, [0.5])[1] is False
    code, out = run(tmp_path, "deg4.csv", ["degeneracy-scan", "--n", "4", "--epsilon", "0.5"])
    assert code == 0
    assert "# warning: n=4 is not an odd prime\n" in out.read_text()
    assert capsys.readouterr().err == ""


def test_degeneracy_scan_invariant_seeds(tmp_path):
    """20 random invariant samples at n=7: no near-degenerate spectra expected."""
    code, out = run(
        tmp_path, "deg7.csv", ["degeneracy-scan", "--n", "7", "--samples", "20"]
    )
    assert code == 0
    rows = [r.split(",") for r in out.read_text().splitlines() if r and not r.startswith("#")]
    header, data = rows[0], rows[1:]
    gaps = [float(r[header.index("min_gap")]) for r in data]
    assert len(gaps) == 20
    assert all(g > 1e-8 for g in gaps)


def test_ba_moments_report(tmp_path):
    code, out = run(tmp_path, "ba.json", ["ba-moments", "--n", "8", "--alpha1", "0.5", "--alpha3", "0.5"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["variance"] == pytest.approx(1.5)
    assert abs(payload["finite_n"][0]["m2"] - 1.5) < 1e-10
    preds = payload["predictions"]["4"]
    assert preds["derivation"] == pytest.approx(6.75)
    assert "printed" in preds


def test_ba_moments_ising_special_case(tmp_path):
    code, out = run(tmp_path, "ba0.json", ["ba-moments", "--n", "6", "--alpha1", "0", "--alpha3", "0"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["predictions"]["2"]["derivation"] == pytest.approx(1.0)
    assert abs(payload["finite_n"][0]["m2"] - 1.0) < 1e-10


def test_spectrum_export(tmp_path):
    code, out = run(tmp_path, "spec.csv", ["spectrum", "--n", "5", "--model", "invariant"])
    assert code == 0
    rows = [r for r in out.read_text().splitlines() if r and not r.startswith("#")]
    assert rows[0].split(",") == ["index", "eigenvalue", "momentum_k", "min_gap_flag"]
    vals = [float(r.split(",")[1]) for r in rows[1:]]
    assert len(vals) == 32 and vals == sorted(vals)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["purity-sweep"])  # missing required --n
    assert exc.value.code == 2


def test_cap_exceeded_exit_code(tmp_path):
    code = main(["purity-sweep", "--n", "15", "--samples", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["ba-moments", "--n", "14"],
        ["dos", "--n", "14", "--model", "ba"],
        ["dos", "--n", "14", "--model", "invariant"],
        ["spectrum", "--n", "14", "--model", "invariant"],
    ],
)
def test_sector_paths_keep_dense_cap(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["purity-sweep", "--n", "14", "--samples", "1"],
        ["purity-sweep", "--n", "14", "--model", "nn", "--samples", "1"],
        ["spectrum", "--n", "14", "--model", "nn"],
        ["dos", "--n", "14", "--model", "nn"],
        ["clt-check", "--n", "14"],
        ["dos", "--n", "29", "--model", "exyz"],
        ["degeneracy-scan", "--n", "25", "--epsilon", "0.5"],
    ],
)
def test_size_limits_refuse_before_allocation(tmp_path, argv):
    """n = DENSE_CAP + 1, STREAM_CAP + 1 or EXACT_CAP + 1 exits 2 before any 2^n work starts."""
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2


def test_readme_cli_examples_parse(tmp_path):
    """Every ``spinchain ...`` line of the README's CLI block parses, runs to exit 0 and reruns byte-identically."""
    cli_section = README.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", cli_section, re.S).group(1)
    examples = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("spinchain ")]
    assert examples
    parser = build_parser()
    for i, argv in enumerate(examples):
        args = parser.parse_args(argv)
        assert args.command == argv[0]
        # the last --out wins, so the README's output path is overridden
        outs = [tmp_path / f"example{i}{rerun}" for rerun in "ab"]
        for out in outs:
            assert main(argv + ["--out", str(out)]) == 0, argv
        assert outs[0].read_bytes() == outs[1].read_bytes(), argv


def test_dos_sector_models_match_dense(tmp_path):
    from spinchain import dos, hamiltonians
    from spinchain.spectra import diagonalize_dense

    for model, extra in (("ba", ["--alpha1", "0.5", "--alpha3", "0.25"]), ("invariant", [])):
        code, out = run(tmp_path, f"{model}.json", ["dos", "--n", "8", "--model", model] + extra)
        assert code == 0
        got = json.loads(out.read_text())["reports"][0]
        if model == "ba":
            h = hamiltonians.normalize(hamiltonians.build_ba(0.5, 0.25, 8))
        else:
            h = hamiltonians.sample_random("invariant", 8, [0, 0], normalize_output=True)
        d = dos.EmpiricalDistribution.from_values(diagonalize_dense(h, want_vectors=False).eigenvalues)
        assert got["count"] == 256
        assert np.max(np.abs(np.array(got["moments"]) - np.array(dos.moments(d, 6)))) < 1e-10
        assert abs(got["ks"] - dos.ks_distance(d).statistic) < 1e-10


#: |KS(25) - KS(24)| of the exact normalized exyz spectra at eps=0.5 is 1.97e-4
#: (2^24 and 2^25 values collected and sorted); the bound leaves room for that drift
KS_DRIFT_24_25 = 3e-4


def test_dos_exyz_streaming_branch(tmp_path):
    """n=25 > EXACT_CAP streams into the histogram and moments; n=24 is the exact reference."""
    from spinchain.free_fermion import EXACT_CAP, mode_energies

    eps = 0.5
    argv = ["dos", "--model", "exyz", "--n", "24", "25", "--epsilon", str(eps)]
    code, out = run(tmp_path, "stream.json", argv)
    assert code == 0
    exact, stream = json.loads(out.read_text())["reports"]
    assert exact["n"] == EXACT_CAP < stream["n"] == 25
    assert exact["ks_uncertainty"] == 0.0 < stream["ks_uncertainty"]
    assert stream["count"] == 1 << 25
    m1, m2, m3, m4 = stream["moments"][:4]
    delta = mode_energies(25, eps).delta
    c2 = 1.0 / (25 * (1.0 + eps**2))
    s2, s4 = float(np.sum(delta**2)), float(np.sum(delta**4))
    assert abs(m1) < 1e-12 and abs(m3) < 1e-12
    assert m2 == pytest.approx(c2 * s2, rel=1e-12)
    assert m4 == pytest.approx(c2**2 * (3 * s2**2 - 2 * s4), rel=1e-12)
    assert abs(stream["ks"] - exact["ks"]) <= stream["ks_uncertainty"] + KS_DRIFT_24_25


def test_dos_cx_grid_refuses_streamed_n(tmp_path, capsys):
    """F(x) needs the sorted exact spectrum: --cx-grid above EXACT_CAP exits 2 before any n is computed."""
    out = tmp_path / "cx.json"
    assert main(["dos", "--n", "24", "25", "--cx-grid", "0", "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    code, out = run(tmp_path, "cx24.json", ["dos", "--n", "24", "--cx-grid", "0"])
    assert code == 0
    table = json.loads(out.read_text())["reports"][0]["cx_table"]
    assert [row["x"] for row in table] == [0.0]


def test_solver_failure_exit_code(tmp_path, monkeypatch, capsys):
    """A numerical failure exits 3 with one ``error:`` line and no traceback, on the sector and the dense path."""
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    code = main(["purity-sweep", "--n", "6", "--samples", "1", "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: sector eigensolver failed") and err.count("\n") == 1
    assert "Traceback" not in err
    code = main(["purity-sweep", "--model", "nn", "--n", "6", "--samples", "1", "--out", str(tmp_path / "y.csv")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: dense eigensolver failed") and err.count("\n") == 1
    assert "Traceback" not in err


def test_reduced_state_check_failure_exit_code(tmp_path, monkeypatch, capsys):
    """Eigenvectors scaled off unit norm fail the trace check of their reduced states: exit 3, one ``error:`` line."""
    eigh = np.linalg.eigh

    def scaled(*args, **kwargs):
        vals, vecs = eigh(*args, **kwargs)
        return vals, 1.01 * vecs

    monkeypatch.setattr(np.linalg, "eigh", scaled)
    for model in ("invariant", "nn"):
        argv = ["purity-sweep", "--model", model, "--n", "6", "--samples", "1", "--out", str(tmp_path / f"{model}.csv")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: reduced density matrix") and "trace check" in err and err.count("\n") == 1
        assert "Traceback" not in err


def test_spectrum_ba_goes_through_sectors(tmp_path):
    """``spectrum --model ba`` prints momenta; its eigenvalues agree with one dense solve."""
    from spinchain.hamiltonians import build_ba
    from spinchain.symmetry import joint_eigenbasis

    n = 7
    code, out = run(tmp_path, "ba.csv", ["spectrum", "--model", "ba", "--n", str(n), "--alpha1", "0.5"])
    assert code == 0
    rows = list(csv.reader(line for line in out.read_text().splitlines() if not line.startswith("#")))
    assert rows[0] == ["index", "eigenvalue", "momentum_k", "min_gap_flag"]
    h = build_ba(0.5, 0.0, n)
    want = joint_eigenbasis(h, want_vectors=False)
    assert [float(r[1]) for r in rows[1:]] == list(want.eigenvalues)
    assert [int(r[2]) for r in rows[1:]] == list(want.momenta)
    dense = np.linalg.eigvalsh(h.to_dense())
    assert np.max(np.abs(want.eigenvalues - dense)) < 1e-12


def test_cli_import_leaves_scipy_special_unloaded():
    """``scipy.special`` is loaded only by the KS distance, not by every subcommand's import."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, spinchain.cli; print('scipy.special' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert res.stdout.strip() == "False"


def test_purity_sweep_matches_lifted_eigenbasis(tmp_path):
    """Every CSV row and theorem1 line equals the text built from the lifted joint eigenbasis."""
    from spinchain.entanglement import average_purity
    from spinchain.hamiltonians import sample_random
    from spinchain.symmetry import joint_eigenbasis

    n, ls, samples = 8, (1, 2, 3), 2
    argv = ["purity-sweep", "--model", "invariant", "--n", str(n), "--samples", str(samples),
            "--l", *map(str, ls)]
    code, out = run(tmp_path, "sweep.csv", argv)
    assert code == 0

    rows, verdicts = [], []
    rank_sums = {l: np.zeros(1 << n) for l in ls}
    for sample in range(samples):
        e = joint_eigenbasis(sample_random("invariant", n, [0, sample]))
        for l in ls:
            res = average_purity(e, l)
            ent = 1.0 - res.per_state
            rank_sums[l] += ent
            verdicts.append(
                f"# theorem1 sample={sample} l={l} mean={res.mean!r} "
                f"bound=[{res.bound_lower!r},{res.bound_upper!r}] pass={res.bound_holds()}"
            )
            rows += [[str(rank), repr(float(v)), str(l), repr(float(le)), str(sample)]
                     for rank, (v, le) in enumerate(zip(e.eigenvalues, ent))]
    for l in ls:
        rows += [[str(rank), "", str(l), repr(float(le)), "mean"]
                 for rank, le in enumerate(rank_sums[l] / samples)]

    lines = out.read_text().splitlines()
    assert [line for line in lines if line.startswith("# theorem1")] == verdicts
    got = list(csv.reader(line for line in lines if not line.startswith("#")))
    assert got[0] == ["state_index", "eigenvalue", "l", "linear_entropy", "sample_id"]
    assert got[1:] == rows
