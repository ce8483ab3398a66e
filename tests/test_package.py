"""Package surface: every exported name resolves, lazily, one version
string, the light CLI calls import no scipy, and the benchmark's tracer
still fits the package."""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import partialcrit as pc
from partialcrit import cli, oracle

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


def _loaded(probe: str, prefixes: tuple, cwd=None) -> list[str]:
    """The modules named with any of `prefixes` that `probe` leaves loaded
    in a fresh interpreter, so that no other test's imports count."""
    src = Path(pc.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    script = (f"{probe}\nimport sys\nprint(sorted(m for m in sys.modules "
              f"if m.startswith({prefixes!r})))")
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, cwd=cwd).stdout
    return ast.literal_eval(out.splitlines()[-1])


def test_cli_import_leaves_out_scipy_optimize():
    assert _loaded("import partialcrit.cli", ("scipy.optimize",)) == []


def test_cli_import_leaves_out_the_version_lookup():
    # the version is read from the installed metadata only for a manifest
    assert _loaded("import partialcrit.cli", ("importlib.metadata",)) == []


def test_package_import_loads_no_numpy_or_scipy():
    assert _loaded("import partialcrit", ("numpy", "scipy")) == []


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("argv, code", [
    (["lemma", "--config", str(CONFIGS / "matrix_demo.json"), "--out", "out"],
     0),
    (["--help"], 0),
    (["solve", "--config", "bad.json", "--out", "out"], 2),
], ids=["lemma", "help", "config-error"])
def test_light_cli_calls_load_no_scipy(tmp_path, argv, code):
    # `lemma` needs only numpy; `--help` and a config error need neither
    (tmp_path / "bad.json").write_text(json.dumps(
        {"problem": {"kind": "scalar"}, "bogus": 1}))
    probe = ("from partialcrit import cli\n"
             "try:\n"
             f"    code = cli.main({argv!r})\n"
             "except SystemExit as exc:\n"
             "    code = exc.code\n"
             f"assert code == {code}, code")
    assert _loaded(probe, ("scipy",), cwd=tmp_path) == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from partialcrit import *", namespace)
    assert [name for name in pc.__all__ if name not in namespace] == []
    assert set(pc.__all__) <= set(dir(pc))
    assert set(MODULES) <= set(dir(pc))


def test_exports_are_looked_up_not_stored():
    # the benchmark's tracer swaps the bindings in the submodules; a
    # re-export first touched while it is active is traced, and none of
    # its wrappers stays bound in the package once it is done
    tracing = _benchmark_tracing()
    assert "is_convergent_to_zero" not in vars(pc)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        cert = pc.is_convergent_to_zero(pc.MonotonyMatrix([[0.3, 0.2],
                                                           [0.1, 0.4]]))
    assert cert.convergent
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names[0] == "zeromatrix.is_convergent_to_zero"
    assert pc.is_convergent_to_zero is pc.zeromatrix.is_convergent_to_zero
    for name in pc.__all__:
        value = getattr(pc, name)
        if callable(value):
            home = importlib.import_module(value.__module__)
            assert value is getattr(home, name), name
            assert name not in vars(pc), name


def test_cli_names_are_read_in_their_home_module():
    # `cli` imports no scipy-backed module at its top; the names it takes
    # from them resolve there on every access, a tracer's swap included
    for name in cli._FORWARDED:
        assert getattr(cli, name) is getattr(pc, name), name
    tracing = _benchmark_tracing()
    before = cli.run_scheme
    with tracing.instrument(tracing.Tracer()):
        assert cli.run_scheme is not before
    assert cli.run_scheme is before
    assert "run_scheme" not in vars(cli)


def _benchmark_module(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is made
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _benchmark_tracing():
    return _benchmark_module("tracing")


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
        pair, trace = pc.run_scheme(system)
        orc = pc.newton_full(system, jacobian_free=True)
        pc.contraction_certificate(trace, system.monotony, p=1)
        pc.nash_check(system, pair)
    assert pair.converged and orc.converged and pair.stages >= 2
    metrics = tracing.layer_metrics(tracer)
    assert metrics["scheme.stages"] == pair.stages
    for side in ("eval_N", "eval_Nu", "eval_Nv"):
        assert metrics[f"problems.{side}.calls"] > 0, side
    assert metrics["oracle.resid_evals"] > 0
    # the derived counts are counts: a builder or an energy that escapes
    # the wrappers shows as a negative backtrack count
    assert metrics["scheme.backtracks"] >= 0
    assert 0.0 <= metrics["scheme.accept_ratio"] <= 1.0
    # an A-norm of a row block is one traced call: one a side in the
    # certificate; in the Nash probe two at the pair and two a sample
    # block, plus one for each block's draw
    spans = tracer.spans
    owners = {"scheme.contraction_certificate": 2,
              "scheme.nash_check": 2 + 3 * -(-pc.scheme.NASH_SAMPLES
                                             // system.probe_rows)}
    for owner, expected in owners.items():
        got = sum(1 for i, s in enumerate(spans)
                  if s[tracing.NAME] == "spaces.norm_a"
                  and tracing._ancestor(spans, i, (owner,)) >= 0)
        assert got == expected, owner


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


def test_benchmark_result_checks_fit_the_package():
    # perfbench/workloads.py reads a result's coefficients, subtracts two
    # results and takes `norm_a` of the difference, and reconstructs a
    # Stokes velocity from a result
    workloads = _benchmark_module("workloads")
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "scalar_closed_form.json").read_text())
    system = cli.build_problem(cfg)
    pair, _ = pc.run_scheme(system, cli.scheme_config_from(cfg, None))
    orc = pc.newton_full(system, tol=cfg["oracle"]["tol"],
                         jacobian_free=cfg["oracle"]["jacobian_free"])
    assert workloads._agreement(system, pair, orc) <= 10.0 * (1e-8 + 1e-8)
    workloads._check_closed_form(cfg, pair)
    with pytest.raises(workloads.GateError, match="closed form"):
        workloads._check_closed_form(cfg, pc.SolutionPair(
            u_star=pair.v_star, v_star=pair.u_star, residuals=pair.residuals,
            converged=True, stages=pair.stages))

    spec = pc.StokesSpec(n_per_dim=5, lengths=(1.0, 1.0), mu_coeff=1.0,
                         nonlinearity=pc.NonlinearitySpec.sincos(0.5))
    stokes_pair, _ = pc.run_scheme(pc.build_stokes(spec))
    assert stokes_pair.converged
    assert isinstance(stokes_pair.u_star, pc.HVector)
    workloads._check_divergence(stokes_pair, spec)
