"""Every public name a module declares must exist."""

import importlib
import pkgutil

import pytest

import segflow

MODULES = sorted(info.name for info in pkgutil.iter_modules(segflow.__path__))


def test_modules_found():
    assert {"limits", "segments", "semigroup"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    # a stale __all__ entry does not fail at import, only at `import *`
    module = importlib.import_module(f"segflow.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []
