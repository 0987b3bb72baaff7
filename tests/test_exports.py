"""Every exported name resolves, so a removal cannot leave a stale export."""
import importlib
import pkgutil

import pytest

import extremogram

MODULES = ["extremogram"] + [
    f"extremogram.{info.name}" for info in pkgutil.iter_modules(extremogram.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
