"""The public surface rule: every name ``spinchain`` exports is used by the library itself,
or is a paper-claim oracle listed in the README."""

import ast
import re
from pathlib import Path

import spinchain

ROOT = Path(__file__).resolve().parents[1]


def referenced_names():
    """Every ``Name`` and ``Attribute`` name used in ``src/spinchain``, outside the def or class that defines it."""
    used = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and node.id not in enclosing:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in sorted((ROOT / "src" / "spinchain").glob("*.py")):
        visit(ast.parse(path.read_text()), frozenset())
    return used


def claim_oracles():
    """Names listed as ``- `name` ...`` items of the README's "Claim oracles" section."""
    section = (ROOT / "README.md").read_text().split("## Claim oracles", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^- `(\w+)`", section, re.M))


def test_every_export_is_used_or_a_claim_oracle():
    unused = set(spinchain.__all__) - referenced_names()
    assert unused - claim_oracles() == set(), "exported, unused by the library and not a claim oracle"


def test_claim_oracles_are_exported():
    oracles = claim_oracles()
    assert oracles
    assert oracles <= set(spinchain.__all__)
