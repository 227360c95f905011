"""Every public name a module declares must exist, and every export must be reached."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import segflow

MODULES = sorted(info.name for info in pkgutil.iter_modules(segflow.__path__))

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(segflow.__file__).resolve().parent

# Exports that only tests and the README reach, kept on purpose.
KEEP = {
    "simulate": "the README's single-path entry point, driving six test modules",
    "corrector": "the one-state reference the batched corrector profiles are tested against",
    "phi_f": "the one-state reference the batched variance functional is tested against",
}


def _package_exports():
    """(name, defining module) for each ``from .module import name`` in ``segflow``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        (alias.name, node.module)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def _caller_files():
    """Source that counts as a caller: the package itself, the benchmark
    harness, and the acceptance gates with their fixtures."""
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    files += [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "conftest.py"]
    return files


def _referenced_names(path: Path) -> set[str]:
    """Names the file uses; an import alone is not a use, so a dead import
    cannot keep an export alive."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_modules_found():
    assert {"limits", "segments", "semigroup"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    # a stale __all__ entry does not fail at import, only at `import *`
    module = importlib.import_module(f"segflow.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


def test_exports_declared_by_their_module():
    undeclared = [
        f"{module}.{name}"
        for name, module in _package_exports()
        if name not in getattr(importlib.import_module(f"segflow.{module}"), "__all__", ())
    ]
    assert undeclared == []


def test_every_export_has_a_caller():
    # a public name that only unit tests reach earns a caller or goes
    referenced = set().union(*(_referenced_names(p) for p in _caller_files()))
    exports = {name for name, _ in _package_exports()}
    assert exports - referenced - set(KEEP) == set()
    assert set(KEEP) <= exports - referenced  # a kept name that gains a caller leaves KEEP
