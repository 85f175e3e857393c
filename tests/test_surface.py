"""The public surface rule: every public function, class, method and property of ``spinchain``
is used by the library itself or by the benchmark's output checks, or is a paper-claim oracle
listed in the README. Names are matched in the sources, and every public function, method and
property must also run in the golden commands or the claim oracles, or be read by the benchmark."""

import ast
import contextlib
import importlib
import inspect
import io
import re
import sys
import threading
from pathlib import Path

import spinchain
from golden.regen import COMMANDS
from spinchain import cli
from spinchain.entanglement import build_M, epsilon_fraction, pair_only_checks, sector_purities
from spinchain.hamiltonians import sample_random
from spinchain.spectra import diagonalize_dense

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
    """``(module, qualified name, node)`` of each public module-level function and class, and of each public method of those classes."""
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield path.stem, node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield path.stem, f"{node.name}.{item.name}", item


def benchmark_reads(paths):
    """The names ``paths`` import from ``spinchain`` or read as an attribute; a plain identifier is not one."""
    reads = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spinchain":
                reads |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    return reads


def executed_definitions():
    """``(module, qualified name)`` of each function of ``src/spinchain`` that runs in the golden commands and the claim oracles.

    The commands run in this process, their output discarded and argparse's exit caught; each claim
    oracle of the README runs once with its verdict. Calls are recorded on every thread, since the
    counting threads of ``dos`` run code of their own.
    """
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    saved = sys.getprofile(), threading.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        for _, _, argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli.main(argv)
                except SystemExit:
                    pass
        build_M((1, 3), 5)
        _, purities = sector_purities(sample_random("invariant", 6, 0), (1,))
        epsilon_fraction(purities[1].per_state, 1, 0.2, 6).bound_holds()
        pair_only_checks(diagonalize_dense(sample_random("pair_only", 6, 1)), 1).passes()
    finally:
        sys.setprofile(saved[0])
        threading.setprofile(saved[1])
    source = ROOT / "src" / "spinchain"
    return {(Path(code.co_filename).stem, code.co_qualname) for code in ran if Path(code.co_filename).parent == source}


def test_every_export_is_used_or_a_claim_oracle():
    """Submodules, which ``__all__`` lists too, are the package layout and not checked."""
    exports = {name for name in spinchain.__all__ if not inspect.ismodule(getattr(spinchain, name))}
    unused = exports - allowed_names()
    assert unused == set(), "exported, unused by the library and the benchmark, and not a claim oracle"


def test_every_public_definition_is_used_or_a_claim_oracle():
    allowed = allowed_names()
    unused = [f"{module}.{qualified}" for module, qualified, node in public_definitions(SOURCES) if node.name not in allowed]
    assert unused == [], "public, unused by the library and the benchmark, and not a claim oracle"


def test_every_public_function_runs_or_is_read_by_the_benchmark():
    """A method that shares its name with a used one, or with a variable of the benchmark, fails here."""
    ran, bench = executed_definitions(), benchmark_reads(BENCH_SOURCES)
    idle = [
        f"{module}.{qualified}"
        for module, qualified, node in public_definitions(SOURCES)
        if isinstance(node, ast.FunctionDef) and (module, qualified) not in ran and node.name not in bench
    ]
    assert idle == [], "public, not run by the golden commands or the claim oracles, and not read by the benchmark"


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
