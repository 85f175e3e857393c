"""The public surface rule: every public function, class, method and property of ``spinchain``
is used by the library itself or by the benchmark's output checks, or is a paper-claim oracle
listed in the README."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import spinchain

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "spinchain").glob("*.py"))
BENCH_SOURCES = sorted((ROOT / "perfbench").glob("*.py"))


def referenced_names(paths):
    """Every ``Name`` and ``Attribute`` name used in ``paths``, outside the def or class that defines it."""
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

    for path in paths:
        visit(ast.parse(path.read_text()), frozenset())
    return used


def claim_oracles():
    """Names listed as ``- `name` ...`` items of the README's "Claim oracles" section."""
    section = (ROOT / "README.md").read_text().split("## Claim oracles", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^- `(\w+)`", section, re.M))


def allowed_names():
    return referenced_names(SOURCES) | referenced_names(BENCH_SOURCES) | claim_oracles()


def public_definitions(paths):
    """``(qualified name, name)`` of each public module-level function and class, and of each public method of those classes."""
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name


def test_every_export_is_used_or_a_claim_oracle():
    """Submodules, which ``__all__`` lists too, are the package layout and not checked."""
    exports = {name for name in spinchain.__all__ if not inspect.ismodule(getattr(spinchain, name))}
    unused = exports - allowed_names()
    assert unused == set(), "exported, unused by the library and the benchmark, and not a claim oracle"


def test_every_public_definition_is_used_or_a_claim_oracle():
    allowed = allowed_names()
    unused = [qualified for qualified, name in public_definitions(SOURCES) if name not in allowed]
    assert unused == [], "public, unused by the library and the benchmark, and not a claim oracle"


def test_claim_oracles_are_exported():
    oracles = claim_oracles()
    assert oracles
    assert oracles <= set(spinchain.__all__)


def test_benchmark_imports_resolve():
    """Each ``from spinchain... import name`` of the benchmark names something the package still has."""
    imports = [
        (node.module, alias.name)
        for path in BENCH_SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spinchain"
        for alias in node.names
    ]
    assert imports
    missing = []
    for module, name in imports:
        mod = importlib.import_module(module)
        if not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{module}.{name}")
    assert missing == []
