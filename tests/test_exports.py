"""Every name a module exports exists, once, and is public."""

import importlib
import pkgutil

import pytest

import rangecontrol

MODULES = ["rangecontrol"] + [
    f"rangecontrol.{m.name}" for m in pkgutil.iter_modules(rangecontrol.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves_once_and_is_public(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), sorted(e for e in exported if exported.count(e) > 1)
    for export in exported:
        assert hasattr(module, export), export
        assert not export.startswith("_") or export.startswith("__") and export.endswith("__"), export
