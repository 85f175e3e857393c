"""CLI outputs against the committed golden set in ``tests/golden`` (written by ``tests/golden/regen.py``).

Exit codes always match exactly. Outputs marked exact there match byte for byte. In the others,
the text between numbers and every integer match exactly, and a float may move by 1e-12 relative
to the larger of the two and to 1, so a last-bit difference of LAPACK between machines passes,
while any printed digit above that, or a float printed in another form (``1`` for ``1.0``), fails.
Every float of such an output must also be spelled as ``repr`` spells it, so a float printed in
another format (``%.17g``, ``1.0e-05``, ``0.50``) fails even where its value is within the tolerance.
"""

import json
import re

import pytest

from golden.regen import COMMANDS, HERE, run

#: a point must be followed by a digit, so the range ``2..6`` is the integers 2 and 6
NUMBER = re.compile(rb"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")
REL_TOL = 1e-12


def is_float(token):
    return re.search(rb"[.eE]", token) is not None


def non_repr_floats(text):
    """The float tokens of ``text`` that ``repr`` of their value does not spell."""
    return [tok for tok in NUMBER.findall(text) if is_float(tok) and repr(float(tok)).encode() != tok]


def same_up_to_rounding(got, want):
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    if len(got_parts) != len(want_parts):
        return False
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if g == w:
            continue
        # split puts the numbers at the odd positions; only two floats may differ
        if not (i % 2 and is_float(g) and is_float(w)):
            return False
        a, b = float(g), float(w)
        if not abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b)):
            return False
    return True


EXIT_CODES = json.loads((HERE / "exit_codes.json").read_text())


def test_golden_set_matches_the_commands():
    assert list(EXIT_CODES) == [name for name, _, _ in COMMANDS]


@pytest.mark.parametrize("name, exact, argv", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_cli_output_matches_golden(name, exact, argv):
    code, out, err = run(argv)
    assert code == EXIT_CODES[name], err.decode()
    for got, suffix in ((out, "out"), (err, "err")):
        want = (HERE / f"{name}.{suffix}").read_bytes()
        if exact:
            assert got == want, f"{name}.{suffix} differs"
        else:
            assert same_up_to_rounding(got, want), f"{name}.{suffix} differs beyond float rounding"
            assert not non_repr_floats(got), f"{name}.{suffix} prints floats not in repr form"


def test_rounding_comparison():
    assert same_up_to_rounding(b"a,0.30000000000000004,3\n", b"a,0.3,3\n")
    assert same_up_to_rounding(b"x=-1.2e-17", b"x=3e-18")
    assert not same_up_to_rounding(b"a,0.31,3\n", b"a,0.3,3\n")
    assert not same_up_to_rounding(b"a,0.3,4\n", b"a,0.3,3\n")
    assert not same_up_to_rounding(b"a,1,3\n", b"a,1.0,3\n")
    assert not same_up_to_rounding(b"b,0.3,3\n", b"a,0.3,3\n")
    assert not same_up_to_rounding(b"a,0.3\n", b"a,0.3,3\n")
    assert not same_up_to_rounding(b"l 2..7", b"l 2..6")


def test_float_format_check():
    assert non_repr_floats(b"a,0.1,-2.5e-17,1e+154,3,out of range 2..6\n") == []
    assert non_repr_floats(b"a,0.10000000000000001,1.0e-05,0.50,1e5,0.30000000000000004\n") == [
        b"0.10000000000000001", b"1.0e-05", b"0.50", b"1e5"]
