"""The package's public surface: every module imports, and nothing public is dead.

A public top-level class or function whose name no identifier in ``src/``
(outside the packages' re-exports), ``benchmarks/`` or ``perfbench/`` uses
is code only tests run.  Each one either earns a place on
:data:`KEEP`, with the reason it stays, or gets a caller on the paper's
pipeline, or goes.  A surface that nothing runs cannot grow back unnoticed:
it makes this suite fail until one of the three happens.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Public names only tests call, each with the reason it stays.
KEEP = {
    "repro.codeanalysis.pyast.compare_with_substring": "the comparison behind the AST ablation",
    "repro.core.crashpoints.read_fired": "the crash harness reads which points fired",
    "repro.core.crashpoints.set_handler": "the in-process crash-point hook tests/test_crashpoints.py drives",
    "repro.core.crashpoints.reset": "clears the in-process crash-point hook and hit counts between those tests",
    "repro.core.storage.matrix_cells": "the disk-fault harness's (site, fault kind) matrix",
    "repro.core.serialize.load_result_summary": "reads a saved result back and refuses a foreign schema version",
    "repro.discordsim.permissions.compute_base_permissions": "the reference the permission property tests compare with",
    "repro.discordsim.permissions.compute_channel_permissions": (
        "the reference the guild and channel permission property tests compare with"
    ),
    "repro.discordsim.snowflake.snowflake_timestamp_ms": "snowflake decoder: the timestamp field",
    "repro.discordsim.snowflake.snowflake_worker": "snowflake decoder: the worker field",
    "repro.discordsim.snowflake.snowflake_sequence": "snowflake decoder: the sequence field",
    "repro.ecosystem.corpus.style_metrics": "feed-realism check: OSN-style message length and informality",
    "repro.honeypot.feed.alternation_violations": "feed-realism check: personas alternate",
    "repro.web.browser.WebDriverWait": "the explicit wait named in the Selenium substitution",
    "repro.web.browser.presence_of_element_located": "the expected condition explicit waits poll",
}


def _identifiers(tree: ast.AST) -> set[str]:
    """Every name ``tree`` uses in code: names, attributes and imported names.

    Words in docstrings, comments and strings are not uses.
    """
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def test_every_module_imports_and_every_export_resolves():
    # walk_packages imports each package to list it and, without onerror,
    # skips one that raises ImportError along with everything under it.
    broken: list[str] = []
    names = ["repro"] + [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.", onerror=broken.append)]
    assert not broken, f"packages that do not import: {broken}"
    for name in names:
        module = importlib.import_module(name)
        missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
        assert not missing, f"{name}.__all__ names what it does not define: {missing}"


def test_public_names_only_tests_call_are_the_keep_list():
    # A name counts as used when an identifier in the scanned files names
    # it; a definition is not an identifier.  Package ``__init__`` modules
    # only re-export, so they are not scanned: a re-export is not a use.
    definitions: dict[str, list[str]] = {}
    used: set[str] = set()
    for path in SRC.rglob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= _identifiers(tree)
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in tree.body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    definitions.setdefault(node.name, []).append(module)
    for directory in ("benchmarks", "perfbench"):
        for path in (ROOT / directory).rglob("*.py"):
            used |= _identifiers(ast.parse(path.read_text(encoding="utf-8")))
    unused = {
        f"{module}.{name}"
        for name, modules in definitions.items()
        if name not in used
        for module in modules
    }
    assert unused - KEEP.keys() == set(), "public, and nothing but tests calls it: give it a caller or delete it"
    assert KEEP.keys() - unused == set(), "kept, but now called outside tests: take it off KEEP"
