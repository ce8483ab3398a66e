"""Package surface: every exported name resolves, one version string."""

import importlib
import pkgutil

import pytest

import partialcrit as pc

MODULES = sorted(m.name for m in pkgutil.iter_modules(pc.__path__))


def test_package_exports_resolve():
    missing = [name for name in pc.__all__ if not hasattr(pc, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"partialcrit.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_version_is_stated_once():
    from partialcrit import cli

    assert cli.__version__ is pc.__version__
