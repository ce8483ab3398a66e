"""Package surface: every exported name resolves, one version string, the
CLI imports without `scipy.optimize`, and the benchmark's tracer still
fits the package."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import partialcrit as pc
from partialcrit import oracle

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


def _benchmark_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_fits_the_package():
    # perfbench/tracing.py binds package functions by name, swaps the
    # coupling callables into a built system with dataclasses.replace and
    # calls newton_full with jacobian_free; a change that breaks any of
    # these breaks the benchmark
    tracing = _benchmark_tracing()
    for module, name, *_ in tracing.TARGETS:
        assert callable(getattr(module, name, None)), name
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        system = pc.build_dirichlet(pc.DirichletSpec(
            dims=1, n_per_dim=15, lengths=(1.0,),
            nonlinearity=pc.NonlinearitySpec.quadratic(0.0, 0.5, 0.0, 1.0)))
        pair, _ = pc.run_scheme(system)
        orc = pc.newton_full(system, jacobian_free=True)
    assert pair.converged and orc.converged
    metrics = tracing.layer_metrics(tracer)
    assert metrics["scheme.stages"] == pair.stages
    for side in ("eval_N", "eval_Nu", "eval_Nv"):
        assert metrics[f"problems.{side}.calls"] > 0, side
    assert metrics["oracle.resid_evals"] > 0


def test_benchmark_tracer_sees_the_dense_jacobian_solves():
    # the dense Jacobian lifts both sides' block gradients through the
    # traced `solve_a`, one block solve a side
    tracing = _benchmark_tracing()
    system = pc.build_dirichlet(pc.DirichletSpec(
        dims=1, n_per_dim=15, lengths=(1.0,),
        nonlinearity=pc.NonlinearitySpec.quadratic(0.0, 0.5, 0.0, 1.0)))
    x = np.linspace(-1.0, 1.0, 2 * system.space.dim)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        oracle._fd_jacobian(system, x, np.zeros_like(x))
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names.count("spaces.solve_a") == 2
