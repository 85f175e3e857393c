"""Write the golden CLI outputs that ``tests/test_golden.py`` compares against.

Each command of ``COMMANDS`` runs as ``python -m spinchain.cli ARGV`` with this checkout's ``src``
on the path. Its stdout and stderr go to ``NAME.out`` and ``NAME.err`` next to this script and its
exit code to ``exit_codes.json``. A change that alters a CLI output on purpose runs

    python tests/golden/regen.py

and names each file that changed. Every command runs at n <= 10, so the set takes seconds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

#: ``(name, exact, argv)``; ``exact`` marks outputs with no float from LAPACK (the analytic exyz
#: spectrum), which are compared byte for byte
COMMANDS = [
    ("spectrum-invariant", False, ["spectrum", "--n", "8", "--model", "invariant", "--seed", "1"]),
    ("spectrum-nn", False, ["spectrum", "--n", "5", "--model", "nn", "--seed", "2"]),
    ("spectrum-pair-only", False, ["spectrum", "--n", "6", "--model", "pair_only", "--seed", "3"]),
    ("spectrum-ba", False, ["spectrum", "--n", "7", "--model", "ba", "--alpha1", "0.5", "--alpha3", "0.3",
                            "--normalize"]),
    ("spectrum-exyz", False, ["spectrum", "--n", "7", "--model", "exyz", "--epsilon", "0.4"]),
    ("purity-sweep-invariant", False, ["purity-sweep", "--n", "8", "--l", "1", "2", "3", "--samples", "3"]),
    ("purity-sweep-nn", False, ["purity-sweep", "--n", "6", "--model", "nn", "--l", "1", "2", "--samples", "1"]),
    ("purity-sweep-pair-only", False, ["purity-sweep", "--n", "6", "--model", "pair_only", "--l", "1", "2",
                                       "--samples", "2"]),
    ("dos-exyz", True, ["dos", "--n", "8", "10", "--model", "exyz", "--epsilon", "0.5"]),
    ("dos-exyz-cx-grid", True, ["dos", "--n", "9", "--epsilon", "0.3", "--no-normalize", "--cx-grid", "-1", "0",
                                "0.5"]),
    ("dos-nn", False, ["dos", "--n", "6", "--model", "nn", "--seed", "4"]),
    ("dos-invariant", False, ["dos", "--n", "7", "9", "--model", "invariant"]),
    ("dos-ba", False, ["dos", "--n", "8", "--model", "ba", "--alpha1", "0.5", "--alpha3", "0.5"]),
    ("clt-check-readme", False, ["clt-check", "--n", "10", "--l", "2", "3", "5", "--t", "0.5", "1", "2"]),
    ("clt-check-n7", False, ["clt-check", "--n", "7", "--l", "2", "3", "7", "--coeff-bound", "1.0"]),
    ("clt-check-n9", False, ["clt-check", "--n", "9", "--l", "4", "9", "--seed", "3"]),
    ("degeneracy-scan-epsilon", True, ["degeneracy-scan", "--n", "5", "--epsilon", "0.1", "0.5", "1.0"]),
    ("degeneracy-scan-readme", False, ["degeneracy-scan", "--n", "5", "--epsilon", "0.1", "0.5", "1.0",
                                       "--samples", "20"]),
    ("degeneracy-scan-samples", False, ["degeneracy-scan", "--n", "8", "--samples", "2", "--seed", "5"]),
    ("ba-moments-readme", False, ["ba-moments", "--n", "10", "12", "--alpha1", "0.5", "--alpha3", "0.5"]),
    ("ba-moments-small", False, ["ba-moments", "--n", "3", "5", "--alpha1", "0.2", "--alpha3", "0.0"]),
    # refusals: exit 2 for a bad size or flag, exit 3 for overflowing moments
    ("refuse-spectrum-ba-n0", False, ["spectrum", "--n", "0", "--model", "ba"]),
    ("refuse-spectrum-exyz-n-1", False, ["spectrum", "--n", "-1", "--model", "exyz"]),
    ("refuse-spectrum-invariant-n2", False, ["spectrum", "--n", "2", "--model", "invariant"]),
    ("refuse-spectrum-invariant-n-1", False, ["spectrum", "--n", "-1", "--model", "invariant"]),
    ("refuse-spectrum-nn-n-1", False, ["spectrum", "--n", "-1", "--model", "nn"]),
    ("refuse-purity-sweep-above-dense-cap", False, ["purity-sweep", "--model", "nn", "--n", "14"]),
    ("refuse-purity-sweep-above-sector-cap", False, ["purity-sweep", "--model", "invariant", "--n", "16",
                                                     "--samples", "1"]),
    ("refuse-clt-check-above-dense-cap", False, ["clt-check", "--n", "14"]),
    ("refuse-clt-check-n-1", False, ["clt-check", "--n", "-1"]),
    ("refuse-clt-check-l1", False, ["clt-check", "--n", "6", "--l", "1"]),
    ("refuse-clt-check-l-above-n", False, ["clt-check", "--n", "6", "--l", "2", "7"]),
    ("refuse-dos-exyz-n-1", False, ["dos", "--n", "-1"]),
    ("refuse-dos-above-stream-cap", False, ["dos", "--n", "8", "29"]),
    ("refuse-purity-sweep-samples", False, ["purity-sweep", "--n", "6", "--samples", "0"]),
    ("refuse-dos-nan", False, ["dos", "--n", "6", "--epsilon", "nan"]),
    ("refuse-dos-overflowing-moments", False, ["dos", "--model", "exyz", "--n", "6", "--epsilon", "1e154",
                                               "--no-normalize"]),
]


def run(argv):
    """``(exit code, stdout, stderr)`` of ``python -m spinchain.cli ARGV``, the streams as bytes."""
    # argparse wraps its usage lines to COLUMNS
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    res = subprocess.run([sys.executable, "-m", "spinchain.cli", *argv], capture_output=True, env=env)
    return res.returncode, res.stdout, res.stderr


def main():
    codes = {}
    for name, _, argv in COMMANDS:
        codes[name], out, err = run(argv)
        (HERE / f"{name}.out").write_bytes(out)
        (HERE / f"{name}.err").write_bytes(err)
    (HERE / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    main()
