"""Experiment runner: purity sweeps, density-of-states reports, central-limit
bound checks, degeneracy scans and moment tables, emitted as CSV/JSON.

Exit codes: 0 = all asserted bounds passed, 1 = a theorem-backed bound
failed (bug indicator), 2 = usage error, 3 = internal or numerical failure
(an eigensolver that did not converge, an inconsistent parity assignment,
a reduced density matrix failing its trace/Hermitian/positivity check).
Every output embeds its full config so a re-run with the same flags is
byte-identical.
"""

import argparse
import csv
import json
import sys

import numpy as np

from . import __version__, dos, entanglement, free_fermion, hamiltonians, spectra, symmetry


def _derived_seed(seed, sample_id):
    # deterministic independent stream per (seed, sample)
    return [int(seed), int(sample_id)]


def _config_dict(args, command):
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
    cfg["command"] = command
    cfg["version"] = __version__
    return cfg


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _write_csv(path, config, header, rows, comments=()):
    fh, close = _open_out(path)
    try:
        fh.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if close:
            fh.close()


def _write_json(path, payload):
    fh, close = _open_out(path)
    try:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    finally:
        if close:
            fh.close()


def _build_model(model, n, seed=None, sample_id=0, epsilon=0.0, alpha1=0.0, alpha3=0.0, normalized=False):
    if model in ("nn", "invariant", "pair_only"):
        return hamiltonians.sample_random(
            model, n, _derived_seed(seed, sample_id), normalize_output=normalized
        )
    if model == "ba":
        h = hamiltonians.build_ba(alpha1, alpha3, n)
    elif model == "exyz":
        h = hamiltonians.build_exyz(epsilon, n)
    else:
        raise ValueError(f"unknown model {model!r}")
    return hamiltonians.normalize(h) if normalized else h


def _spectrum_only(h, model):
    """Eigenvalues only; translation-invariant rings go through momentum sectors."""
    if model in ("invariant", "ba"):
        return symmetry.joint_eigenbasis(h, want_vectors=False)
    return spectra.diagonalize_dense(h, want_vectors=False)


# ---------------------------------------------------------------------------
# subcommands


def cmd_purity_sweep(args):
    failures = 0
    rows = []
    verdicts = []
    rank_sums = {l: None for l in args.l}
    for sample in range(args.samples):
        h = _build_model(args.model, args.n, seed=args.seed, sample_id=sample)
        if args.model == "invariant":
            # one momentum sector lifted at a time; no 2^n x 2^n eigenbasis
            e, results = entanglement.sector_purities(h, args.l)
        else:
            e = spectra.diagonalize_dense(h)
            results = {l: entanglement.average_purity(e, l) for l in args.l}
        for l in args.l:
            res = results[l]
            ent = 1.0 - res.per_state
            if rank_sums[l] is None:
                rank_sums[l] = np.zeros_like(ent)
            rank_sums[l] += ent
            if res.bound_claimed:
                ok = res.bound_holds()
                failures += not ok
                verdicts.append(
                    f"theorem1 sample={sample} l={l} mean={res.mean!r} "
                    f"bound=[{res.bound_lower!r},{res.bound_upper!r}] pass={ok}"
                )
            else:
                verdicts.append(f"theorem1 sample={sample} l={l} bound-not-claimed")
            for rank, (val, le) in enumerate(zip(e.eigenvalues, ent)):
                rows.append([rank, repr(float(val)), l, repr(float(le)), sample])
        # drop a dense 2^n x 2^n eigenbasis before the next sample builds its own
        del e
    for l in args.l:
        for rank, le in enumerate(rank_sums[l] / args.samples):
            rows.append([rank, "", l, repr(float(le)), "mean"])
    _write_csv(
        args.out,
        _config_dict(args, "purity-sweep"),
        ["state_index", "eigenvalue", "l", "linear_entropy", "sample_id"],
        rows,
        comments=verdicts,
    )
    return 1 if failures else 0


def cmd_dos(args):
    failures = 0
    reports = []
    if args.cx_grid and args.model == "exyz" and max(args.n) > free_fermion.EXACT_CAP:
        # F(x) is read off the sorted values, which only the exact mode keeps
        raise ValueError(f"--cx-grid needs n <= exact cap {free_fermion.EXACT_CAP}, got n={max(args.n)}")
    for n in args.n:
        if args.model == "exyz":
            scale = 1.0 / np.sqrt(n * (1.0 + args.epsilon**2)) if args.normalize else 1.0
            if n <= free_fermion.EXACT_CAP:
                # no name holds the unsorted spectrum, so it is freed when from_values returns
                d = dos.EmpiricalDistribution.from_values(
                    free_fermion.collect_spectrum(n, args.epsilon, scale=scale)
                )
            else:
                d = dos.EmpiricalDistribution.from_sum_set(
                    *free_fermion.spectrum_sum_set(n, args.epsilon, scale=scale)
                )
        else:
            h = _build_model(
                args.model, n, seed=args.seed, alpha1=args.alpha1, alpha3=args.alpha3,
                epsilon=args.epsilon, normalized=args.normalize,
            )
            e = _spectrum_only(h, args.model)
            d = dos.EmpiricalDistribution.from_values(e.eigenvalues)
        ks = dos.ks_distance(d)
        m = dos.moments(d, 6)
        report = {
            "n": n,
            "model": args.model,
            "count": d.count,
            "ks": ks.statistic,
            "ks_uncertainty": ks.uncertainty,
            "moments": list(m),
        }
        if args.normalize and abs(m[1] - 1.0) > 1e-10:
            report["m2_identity"] = "FAIL"
            failures += 1
        if args.cx_grid:
            from scipy.special import ndtr

            table = []
            for x in args.cx_grid:
                fn = float(np.searchsorted(d.values, x, side="right")) / d.count
                table.append({"x": x, "n_times_dev": n * abs(fn - float(ndtr(x)))})
            report["cx_table"] = table
        reports.append(report)
    payload = {"config": _config_dict(args, "dos"), "reports": reports}
    _write_json(args.out, payload)
    return 1 if failures else 0


def cmd_clt_check(args):
    failures = 0
    rows = []
    for l in args.l:
        h = _build_model("nn", args.n, seed=args.seed, normalized=True)
        for row in dos.clt_bound_check(h, l, args.t, C=args.coeff_bound):
            ok = row.passes()
            failures += not ok
            rows.append([args.n, l, row.t, repr(row.lhs), repr(row.rhs),
                         "" if row.rhs_coeff_bound is None else repr(row.rhs_coeff_bound), int(ok)])
        rep = dos.lyapunov_quantities(h, l, C=args.coeff_bound)
        rows.append([args.n, l, "lyapunov", repr(rep.s_n2), repr(rep.fourth_sum),
                     "" if rep.genbound3_rhs is None else repr(rep.genbound3_rhs), ""])
    _write_csv(
        args.out,
        _config_dict(args, "clt-check"),
        ["n", "l", "t", "lhs", "rhs", "rhs_coeff_bound", "pass"],
        rows,
    )
    return 1 if failures else 0


def cmd_degeneracy_scan(args):
    rows = []
    comments = []
    if args.epsilon:
        results, odd_prime = free_fermion.min_gap_scan(args.n, args.epsilon)
        if not odd_prime:
            comments.append(f"warning: n={args.n} is not an odd prime")
        for r in results:
            rows.append(["exyz", args.n, r.epsilon, "", repr(r.min_gap)])
    for sample in range(args.samples):
        h = _build_model("invariant", args.n, seed=args.seed, sample_id=sample)
        e = spectra.diagonalize_dense(h, want_vectors=False)
        rep = spectra.detect_degeneracy(e)
        rows.append(["invariant", args.n, "", sample, repr(rep.min_gap)])
    _write_csv(
        args.out,
        _config_dict(args, "degeneracy-scan"),
        ["model", "n", "epsilon", "sample_id", "min_gap"],
        rows,
        comments=comments,
    )
    return 0


def cmd_ba_moments(args):
    sigma2 = 1.0 + args.alpha1**2 + args.alpha3**2
    entries = []
    failures = 0
    for n in args.n:
        h = hamiltonians.build_ba(args.alpha1, args.alpha3, n)
        e = _spectrum_only(h, "ba")
        d = dos.EmpiricalDistribution.from_values(e.eigenvalues)
        m = dos.moments(d, 6)
        if abs(m[1] - sigma2) > 1e-10:
            failures += 1
        entries.append({"n": n, "m2": m[1], "m4": m[3], "m6": m[5]})
    predictions = {
        str(2 * k): {
            "derivation": dos.ba_prediction(args.alpha1, args.alpha3, k),
            "printed": dos.ba_prediction_printed(args.alpha1, args.alpha3, k),
        }
        for k in (1, 2, 3)
    }
    payload = {
        "config": _config_dict(args, "ba-moments"),
        "variance": sigma2,
        "finite_n": entries,
        "predictions": predictions,
        "m4_convergence": [abs(e["m4"] - predictions["4"]["derivation"]) for e in entries],
    }
    _write_json(args.out, payload)
    return 1 if failures else 0


def cmd_spectrum(args):
    h = _build_model(
        args.model, args.n, seed=args.seed, epsilon=args.epsilon,
        alpha1=args.alpha1, alpha3=args.alpha3, normalized=args.normalize,
    )
    header, rows = spectra.spectrum_table(_spectrum_only(h, args.model))
    _write_csv(args.out, _config_dict(args, "spectrum"), header, rows)
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="spinchain", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, models, default_model):
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--model", choices=models, default=default_model)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("purity-sweep", help="eigenstate linear-entropy sweep")
    common(sp, ("invariant", "nn", "pair_only"), "invariant")
    sp.add_argument("--l", type=int, nargs="+", default=[1, 2, 3])
    sp.add_argument("--samples", type=int, default=8)
    sp.set_defaults(func=cmd_purity_sweep)

    sp = sub.add_parser("dos", help="density-of-states report")
    sp.add_argument("--n", type=int, nargs="+", required=True)
    sp.add_argument("--model", choices=("exyz", "nn", "invariant", "ba"), default="exyz")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--epsilon", type=float, default=0.5)
    sp.add_argument("--alpha1", type=float, default=0.0)
    sp.add_argument("--alpha3", type=float, default=0.0)
    sp.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True)
    sp.add_argument("--cx-grid", type=float, nargs="*", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_dos)

    sp = sub.add_parser("clt-check", help="block/link characteristic-function bound")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int, nargs="+", default=[2, 3])
    sp.add_argument("--t", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--coeff-bound", type=float, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_clt_check)

    sp = sub.add_parser("degeneracy-scan", help="minimum spectral gaps")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--epsilon", type=float, nargs="*", default=[])
    sp.add_argument("--samples", type=int, default=0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_degeneracy_scan)

    sp = sub.add_parser("ba-moments", help="Ising-with-fields moment table")
    sp.add_argument("--n", type=int, nargs="+", default=[10, 12])
    sp.add_argument("--alpha1", type=float, default=0.5)
    sp.add_argument("--alpha3", type=float, default=0.5)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_ba_moments)

    sp = sub.add_parser("spectrum", help="export one spectrum as CSV")
    common(sp, ("invariant", "nn", "pair_only", "ba", "exyz"), "invariant")
    sp.add_argument("--epsilon", type=float, default=0.5)
    sp.add_argument("--alpha1", type=float, default=0.0)
    sp.add_argument("--alpha3", type=float, default=0.0)
    sp.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=False)
    sp.set_defaults(func=cmd_spectrum)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
