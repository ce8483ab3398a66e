"""Package surface: every exported name resolves, one version string, and
the CLI imports without `scipy.optimize`."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_leaves_out_scipy_optimize():
    # a fresh interpreter, so no other test's imports count
    src = Path(pc.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    probe = ("import sys, partialcrit.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
