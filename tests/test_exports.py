"""Every public name a module declares must exist, every export must be
reached, and every defaulted input must be set by some caller."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import segflow
from segflow.registry import MODEL_BUILDERS, OBSERVABLE_BUILDERS

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


_SEAM = "where a closed-form evaluator stands in for the chain's Monte Carlo, as acceptance 05 does for vph_residual"

# Defaulted inputs that no caller sets, kept on purpose.
KEEP_DEFAULTS = {
    "cli.main.argv": "the console script passes none; tests drive main with argument lists",
    "limits.phi_f.sg": _SEAM,
    "limits.variance_D.sg": _SEAM,
    "limits.quadratic_variation.sg": _SEAM,
    "limits.qv_lln_check.sg": _SEAM,
    "segments.ModelSpec.drift_batch": "the benchmark tracer sets it through dataclasses.replace",
    "segments.ModelSpec.diffusion_batch": "the benchmark tracer sets it through dataclasses.replace",
}


def _builder_inputs() -> set[str]:
    """Parameters of the registry builders: a config's ``model.params`` and
    ``observable.params``, passed through ``**``."""
    builders = [*MODEL_BUILDERS.values(), *OBSERVABLE_BUILDERS.values()]
    return {
        f"registry.{b.__name__}.{name}"
        for b in builders
        for name, p in inspect.signature(b).parameters.items()
        if p.default is not p.empty
    }


def _dataclass_kw_only(node: ast.ClassDef):
    """None if ``node`` is not a dataclass, else whether its fields are keyword-only."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return any(
                k.arg == "kw_only" and getattr(k.value, "value", False) for k in getattr(dec, "keywords", ())
            )
    return None


def _defaulted_inputs(path: Path) -> list[tuple[str, str, int | None, str]]:
    """(label, callee, position, name) for each defaulted parameter or
    dataclass field defined in ``path``; ``position`` counts the arguments
    a call passes, and is None for a keyword-only input."""
    out = []

    def visit(body, cls, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                kw_only = _dataclass_kw_only(node)
                if kw_only is not None:
                    fields = [
                        s for s in node.body
                        if isinstance(s, ast.AnnAssign) and "ClassVar" not in ast.unparse(s.annotation)
                    ]
                    for i, s in enumerate(fields):
                        if s.value is not None:
                            name = s.target.id
                            out.append((f"{prefix}{node.name}.{name}", node.name, None if kw_only else i, name))
                visit(node.body, node, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                skip = 1 if cls is not None and not static else 0
                init = cls is not None and node.name == "__init__"
                callee = cls.name if init else node.name
                label = prefix[:-1] if init else f"{prefix}{node.name}"
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for i in range(first, len(positional)):
                    out.append((f"{label}.{positional[i].arg}", callee, i - skip, positional[i].arg))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out.append((f"{label}.{arg.arg}", callee, None, arg.arg))
                visit(node.body, None, f"{prefix}{node.name}.")

    visit(ast.parse(path.read_text()).body, None, f"{path.stem}.")
    return out


def _calls(path: Path):
    """(callee name, positional count, keywords, unpacks) for each call in
    ``path``; ``unpacks`` is true when a ``*`` or ``**`` argument may set anything."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            kwargs = {k.arg for k in node.keywords}
            yield callee, len(node.args), kwargs - {None}, starred or None in kwargs


def test_every_default_is_set():
    # a default that no caller overrides is a constant in disguise: it
    # becomes one, or goes, or KEEP says why it stays
    calls = [call for path in _caller_files() for call in _calls(path)]
    unset = {
        label
        for path in sorted(PACKAGE.glob("*.py"))
        for label, callee, position, name in _defaulted_inputs(path)
        if not any(
            c == callee and (name in kwargs or unpacks or (position is not None and n > position))
            for c, n, kwargs, unpacks in calls
        )
    }
    kept = set(KEEP_DEFAULTS) | _builder_inputs()
    assert unset - kept == set()
    assert kept <= unset  # a kept input that gains a caller leaves KEEP
