"""The hand-kept export lists: every exported name resolves."""

import importlib
import pkgutil

import pytest

import platoonsim

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(platoonsim.__path__))


def test_package_exports_resolve_without_duplicates():
    missing = [name for name in platoonsim.__all__ if not hasattr(platoonsim, name)]
    assert missing == []
    assert len(set(platoonsim.__all__)) == len(platoonsim.__all__)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    mod = importlib.import_module(f"platoonsim.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []
