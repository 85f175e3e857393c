"""Experiment runner: purity sweeps, density-of-states reports, central-limit
bound checks, degeneracy scans and moment tables, emitted as CSV/JSON.

Exit codes: 0 = all asserted bounds passed, 1 = a theorem-backed bound
failed (bug indicator), 2 = usage error (a bad flag value, a size above a
cap, an output path that cannot be written), 3 = internal or numerical
failure (an eigensolver that did not converge, a reduced density matrix
failing its trace/Hermitian/positivity check, a non-finite value in a
spectrum or its moments).
Every output embeds its full config so a re-run with the same flags is
byte-identical.
"""

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import __version__, dos, entanglement, free_fermion, hamiltonians, spectra, symmetry


def _derived_seed(seed, sample_id):
    # deterministic independent stream per (seed, sample)
    return [int(seed), int(sample_id)]


def _config_dict(args):
    """Every flag of ``args``, with the subcommand that argparse stores as ``args.command``, and the version."""
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}
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
        h = hamiltonians.sample_random(model, n, _derived_seed(seed, sample_id))
    elif model == "ba":
        h = hamiltonians.build_ba(alpha1, alpha3, n)
    elif model == "exyz":
        h = hamiltonians.build_exyz(epsilon, n)
    else:
        raise ValueError(f"unknown model {model!r}")
    return hamiltonians.normalize(h) if normalized else h


# ---------------------------------------------------------------------------
# subcommands


def cmd_purity_sweep(args):
    failures = 0
    kept = []
    verdicts = []
    for sample in range(args.samples):
        h = _build_model(args.model, args.n, seed=args.seed, sample_id=sample)
        e, results = entanglement.sector_purities(h, args.l)
        ents = {}
        for l in args.l:
            res = results[l]
            ents[l] = 1.0 - res.per_state
            if res.bound_claimed:
                ok = res.bound_holds()
                failures += not ok
                verdicts.append(
                    f"theorem1 sample={sample} l={l} mean={res.mean!r} "
                    f"bound=[{res.bound_lower!r},{res.bound_upper!r}] pass={ok}"
                )
            else:
                verdicts.append(f"theorem1 sample={sample} l={l} bound-not-claimed")
        kept.append((e.eigenvalues, ents))

    def rows():  # formatted as they are written, so no sample's rows are held
        for sample, (vals, ents) in enumerate(kept):
            values = [repr(v) for v in vals.tolist()]  # formatted once for every l
            for l in args.l:
                for rank, (val, le) in enumerate(zip(values, ents[l].tolist())):
                    yield [rank, val, l, repr(le), sample]
        for l in args.l:
            for rank, le in enumerate((sum(e[l] for _, e in kept) / args.samples).tolist()):
                yield [rank, "", l, repr(le), "mean"]

    _write_csv(
        args.out,
        _config_dict(args),
        ["state_index", "eigenvalue", "l", "linear_entropy", "sample_id"],
        rows(),
        comments=verdicts,
    )
    return 1 if failures else 0


def _dos_input(args, n):
    """What ``dos`` needs for one ``--n``, refused here if bad: a function that builds its distribution."""
    if args.model == "exyz":
        free_fermion.check_size(n)
        scale = hamiltonians.normalization_scale(n * (1.0 + args.epsilon**2)) if args.normalize else 1.0
        return lambda: dos.EmpiricalDistribution.from_sum_set(*free_fermion.spectrum_sum_set(n, args.epsilon, scale))
    h = _build_model(
        args.model, n, seed=args.seed, alpha1=args.alpha1, alpha3=args.alpha3,
        epsilon=args.epsilon, normalized=args.normalize,
    )
    symmetry.check_size(h)
    return lambda: dos.EmpiricalDistribution.from_values(symmetry.joint_eigenbasis(h).eigenvalues)


def _dos_report(args, n, d):
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
    if args.normalize and not abs(m[1] - 1.0) <= 1e-10:
        report["m2_identity"] = "FAIL"
    if args.cx_grid:
        report["cx_table"] = [
            {"x": x, "n_times_dev": n * abs(float(fn) - float(phi))}
            for x, fn, phi in zip(args.cx_grid, d.cdf(args.cx_grid), dos.normal_cdf(args.cx_grid))
        ]
    return report


def cmd_dos(args):
    inputs = [_dos_input(args, n) for n in args.n]  # every --n before the first solve
    # built in turn and dropped with its report, so one 2^CHUNK_BITS exyz block is alive at a time
    reports = [_dos_report(args, n, distribution()) for n, distribution in zip(args.n, inputs)]
    payload = {"config": _config_dict(args), "reports": reports}
    _write_json(args.out, payload)
    return 1 if any("m2_identity" in r for r in reports) else 0


def cmd_clt_check(args):
    failures = 0
    rows = []
    table = hamiltonians.sample_table("nn", args.n, _derived_seed(args.seed, 0))
    table = hamiltonians.normalization_scale(float(np.sum(np.square(table)))) * table
    # H and its splits come from the one table; a bad --l exits 2 before the first solve
    h = hamiltonians.ring(table)
    splits = [dos.block_link_split(table, l) for l in args.l]
    vals = symmetry.joint_eigenbasis(h).eigenvalues
    for split in splits:
        for row in dos.clt_bound_check(split, vals, args.t, C=args.coeff_bound):
            ok = row.passes()
            failures += not ok
            rows.append([args.n, split.l, row.t, repr(row.lhs), repr(row.rhs),
                         "" if row.rhs_coeff_bound is None else repr(row.rhs_coeff_bound), int(ok)])
        rep = dos.lyapunov_quantities(split, C=args.coeff_bound)
        rows.append([args.n, split.l, "lyapunov", repr(rep.s_n2), repr(rep.fourth_sum),
                     "" if rep.genbound3_rhs is None else repr(rep.genbound3_rhs), ""])
    _write_csv(
        args.out,
        _config_dict(args),
        ["n", "l", "t", "lhs", "rhs", "rhs_coeff_bound", "pass"],
        rows,
    )
    return 1 if failures else 0


def cmd_degeneracy_scan(args):
    rows = []
    comments = []
    rings = [_build_model("invariant", args.n, seed=args.seed, sample_id=s) for s in range(args.samples)]
    for h in rings:  # refused, if too large, before the epsilon scan and the first solve
        symmetry.check_size(h)
    if args.epsilon:
        results, odd_prime = free_fermion.min_gap_scan(args.n, args.epsilon)
        if not odd_prime:
            comments.append(f"warning: n={args.n} is not an odd prime")
        for r in results:
            rows.append(["exyz", args.n, r.epsilon, "", repr(r.min_gap)])
    for sample, h in enumerate(rings):
        e = symmetry.joint_eigenbasis(h)
        rows.append(["invariant", args.n, "", sample, repr(spectra.min_gap(e.eigenvalues))])
    _write_csv(
        args.out,
        _config_dict(args),
        ["model", "n", "epsilon", "sample_id", "min_gap"],
        rows,
        comments=comments,
    )
    return 0


def cmd_ba_moments(args):
    sigma2 = 1.0 + args.alpha1**2 + args.alpha3**2
    entries = []
    failures = 0
    # every size up to MAX_MOMENT is built first, so n < 3 is refused before the first solve; a larger
    # size takes the window sum of the bond table, which builds no ring and has no size cap
    small = {n: hamiltonians.build_ba(args.alpha1, args.alpha3, n) for n in args.n if n <= dos.MAX_MOMENT}
    bond = hamiltonians.ba_bond(args.alpha1, args.alpha3)
    for n in args.n:
        if n in small:
            m = dos.moments(dos.EmpiricalDistribution.from_values(symmetry.joint_eigenbasis(small[n]).eigenvalues))
        else:
            m = dos.ring_moments(n, bond, scaled=True)
        if not abs(m[1] - sigma2) <= 1e-10 * max(1.0, sigma2):
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
        "config": _config_dict(args),
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
    header, rows = spectra.spectrum_table(symmetry.joint_eigenbasis(h))
    _write_csv(args.out, _config_dict(args), header, rows)
    return 0


# ---------------------------------------------------------------------------


def _finite_float(text):
    """argparse type of every float flag: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _int_at_least(lowest):
    """argparse type of counts that must be at least ``lowest``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


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
    sp.add_argument("--samples", type=_positive_int, default=8)
    sp.set_defaults(func=cmd_purity_sweep)

    sp = sub.add_parser("dos", help="density-of-states report")
    sp.add_argument("--n", type=int, nargs="+", required=True)
    sp.add_argument("--model", choices=("exyz", "nn", "invariant", "ba"), default="exyz")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--epsilon", type=_finite_float, default=0.5)
    sp.add_argument("--alpha1", type=_finite_float, default=0.0)
    sp.add_argument("--alpha3", type=_finite_float, default=0.0)
    sp.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True)
    sp.add_argument("--cx-grid", type=_finite_float, nargs="*", default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_dos)

    sp = sub.add_parser("clt-check", help="block/link characteristic-function bound")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int, nargs="+", default=[2, 3])
    sp.add_argument("--t", type=_finite_float, nargs="+", default=[0.5, 1.0, 2.0])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--coeff-bound", type=_finite_float, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_clt_check)

    sp = sub.add_parser("degeneracy-scan", help="minimum spectral gaps")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--epsilon", type=_finite_float, nargs="*", default=[])
    sp.add_argument("--samples", type=_non_negative_int, default=0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_degeneracy_scan)

    sp = sub.add_parser("ba-moments", help="Ising-with-fields moment table")
    sp.add_argument("--n", type=int, nargs="+", default=[10, 12])
    sp.add_argument("--alpha1", type=_finite_float, default=0.5)
    sp.add_argument("--alpha3", type=_finite_float, default=0.5)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_ba_moments)

    sp = sub.add_parser("spectrum", help="export one spectrum as CSV")
    common(sp, ("invariant", "nn", "pair_only", "ba", "exyz"), "invariant")
    sp.add_argument("--epsilon", type=_finite_float, default=0.5)
    sp.add_argument("--alpha1", type=_finite_float, default=0.0)
    sp.add_argument("--alpha3", type=_finite_float, default=0.0)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # Python float ** raises where numpy gives inf: a finite flag too large for its formula
        print(f"error: a flag value is out of range: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
