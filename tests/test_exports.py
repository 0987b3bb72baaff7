"""Every exported name resolves, so a removal cannot leave a stale export,
and the package exports exactly the names its modules list."""
import importlib
import pkgutil
from collections import Counter

import pytest

import extremogram

MODULES = ["extremogram"] + [
    f"extremogram.{info.name}" for info in pkgutil.iter_modules(extremogram.__path__)
]
# the modules whose names the package re-exports; cli stays outside it
REEXPORTED = [name for name in MODULES[1:] if name != "extremogram.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def test_no_name_is_exported_by_two_modules():
    # a star re-export would let the later module shadow the earlier one
    counts = Counter(n for name in MODULES[1:] for n in importlib.import_module(name).__all__)
    assert [n for n, k in counts.items() if k > 1] == []


def test_package_all_has_no_duplicates():
    assert len(extremogram.__all__) == len(set(extremogram.__all__))


@pytest.mark.parametrize("name", REEXPORTED)
def test_every_module_name_is_the_same_object_in_the_package(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if n not in extremogram.__all__]
    rebound = [n for n in module.__all__ if getattr(extremogram, n, None) is not getattr(module, n)]
    assert missing == [] and rebound == []
