"""Command line front end: exit codes, outputs, reproducibility."""

import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import partialcrit as pc
from partialcrit import cli, oracle
from partialcrit.cli import main
from partialcrit.errors import ConvergenceError


SCALAR_CONFIG = {
    "problem": {
        "kind": "scalar",
        "a_value": 2.0,
        "nonlinearity": {"kind": "quadratic", "a": 0.0, "b": 0.2,
                         "c": 0.0, "g": 1.0},
    },
    "scheme": {"max_outer": 200, "final_tol": 1e-8, "seed": 0},
    "oracle": {"tol": 1e-8, "jacobian_free": False},
}

SINCOS_CONFIG = {
    "problem": {
        "kind": "dirichlet",
        "dims": 1,
        "n_per_dim": 31,
        "lengths": [1.0],
        "potential_c": 0.0,
        "nonlinearity": {"kind": "sincos", "epsilon": 0.1},
    },
    "scheme": {"max_outer": 200, "final_tol": 1e-8, "seed": 0},
    "check": {
        "sampler": {"n_points": 400, "box_radius": 3.0, "seed": 0},
        "ring_taus": [0.5, 1.0],
    },
    "oracle": {"tol": 1e-8},
}

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

MATRIX_CONFIG = {
    "problem": {"kind": "matrix", "entries": [[0.3, 0.2], [0.1, 0.4]]},
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_solve_writes_all_outputs(tmp_path):
    cfg = _write(tmp_path, "cfg.json", SINCOS_CONFIG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    for name in ("trace.csv", "solution.json", "report.json", "manifest.json"):
        assert (out / name).exists(), name
    solution = json.loads((out / "solution.json").read_text())
    assert solution["converged"] is True
    assert len(solution["u"]) == 31
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert set(manifest["out_files"]) == {"trace.csv", "solution.json",
                                          "report.json"}


@pytest.mark.parametrize("config", [
    SINCOS_CONFIG,
    # cross-coupled quadratic, 18 stages with a live v-side
    json.loads((CONFIGS / "cross_coupled_1d.json").read_text()),
    # Stokes quadratic cross coupling, 15 stages with a live v-side
    json.loads((CONFIGS / "stokes_cross_17.json").read_text()),
], ids=["sincos_1d", "cross_coupled_1d", "stokes_cross_17"])
def test_solve_reruns_are_byte_identical(tmp_path, config):
    cfg = _write(tmp_path, "cfg.json", config)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("trace.csv", "solution.json", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_solution_matches_library_run(tmp_path):
    cfg = _write(tmp_path, "cfg.json", SCALAR_CONFIG)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    solution = json.loads((out / "solution.json").read_text())
    system = pc.build_scalar(
        2.0, pc.NonlinearitySpec.quadratic(0.0, 0.2, 0.0, 1.0))
    pair, _ = pc.run_scheme(system)
    assert np.allclose(solution["u"], pair.u_star.coeffs, atol=1e-14)
    assert np.allclose(solution["v"], pair.v_star.coeffs, atol=1e-14)


def test_check_ready_exit_zero(tmp_path):
    cfg = _write(tmp_path, "cfg.json", SINCOS_CONFIG)
    out = tmp_path / "chk"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ready"] is True
    assert report["growth"]["ok"] is True
    assert len(report["ring"]) == 2
    for entry in report["ring"]:
        assert 0 < entry["n_violated"] < entry["n_samples"]


def test_check_fitted_growth_leaves_mu_null(tmp_path):
    # a quadratic coupling has no built-in growth constants, so mu comes
    # from the fitted ones, which the cross coupling pushes past 1/2
    config = json.loads((CONFIGS / "cross_coupled_1d.json").read_text())
    config["check"] = {"declared_growth": [0.25, 0.25, 1.0]}
    cfg = _write(tmp_path, "cfg.json", config)
    out = tmp_path / "chk"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["mu"] is None
    assert report["notes"][-1] == "fitted growth constants leave mu undefined"


@pytest.mark.parametrize("name, radius", [("sincos_1d", "1.21683"),
                                          ("stokes_17", "1.47008")])
def test_check_and_solve_refuse_one_declared_matrix(tmp_path, capsys, name,
                                                    radius):
    # a bundled config with only epsilon raised: the declared matrix is
    # not convergent to zero, and both subcommands say so with its radius
    config = json.loads((CONFIGS / f"{name}.json").read_text())
    config["problem"]["nonlinearity"]["epsilon"] = {"sincos_1d": 6.0,
                                                    "stokes_17": 40.0}[name]
    cfg = _write(tmp_path, "cfg.json", config)
    capsys.readouterr()
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "c")]) == 1
    assert capsys.readouterr().out == (
        f"check: not ready (mu=0.0, radius={radius})\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err == (
        f"refused: coupling matrix has spectral radius {radius} "
        f"(needs < 1)\n")
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    assert report["coupling"]["ok"] is True
    assert report["notes"][2:] == [
        f"coupling matrix is not convergent to zero (spectral radius "
        f"{radius})"]


def test_check_refuses_a_table_declaring_half_its_slope(tmp_path,
                                                        monkeypatch):
    # a custom table, which no config can name, built in place of the
    # config's: its v-row declared at half the sincos coefficients
    sincos = pc.make_pointwise(pc.NonlinearitySpec.sincos(0.1), arg_dim=1)
    halved = np.array(sincos.monotony, dtype=float)
    halved[1] *= 0.5
    table = dataclasses.replace(sincos, monotony=halved)
    monkeypatch.setattr(cli, "build_problem", lambda cfg: pc.build_dirichlet(
        pc.DirichletSpec(dims=1, n_per_dim=31, lengths=(1.0,),
                         nonlinearity=pc.NonlinearitySpec.custom(table))))
    cfg = _write(tmp_path, "cfg.json", SINCOS_CONFIG)
    out = tmp_path / "chk"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    coupling = report["coupling"]
    count = coupling["n_violated"][1]
    assert coupling["ok"] is False and coupling["n_violated"][0] == 0 < count
    assert coupling["witness"][0] is None and len(coupling["witness"][1]) == 5
    assert report["certificate"]["convergent"] is True
    assert report["notes"][2:] == [
        f"coupling matrix v-row violated on {count} of 400 samples"]


@pytest.mark.parametrize("tau", [-1, 0])
def test_check_refuses_a_ring_level_before_writing(tmp_path, capsys, tau):
    # the ring scan refuses the level after full_report has run, and the
    # ring entries are built before any file is written
    config = json.loads((CONFIGS / "sincos_1d.json").read_text())
    config["check"]["ring_taus"] = [tau]
    cfg = _write(tmp_path, "cfg.json", config)
    out = tmp_path / "chk"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: check: tau must be positive and finite\n")
    assert not (out / "report.json").exists()


def _section_keys(cls, verdict=None):
    return [f.name for f in dataclasses.fields(cls)] + (
        [verdict] if verdict else [])


def test_report_sections_are_their_dataclasses(tmp_path):
    # each certificate section lists its report's fields in declaration
    # order, then the verdict property when the verdict is not a field
    outputs = {}
    for command, config, name in (
            ("solve", SCALAR_CONFIG, "report.json"),
            ("check", SINCOS_CONFIG, "report.json"),
            ("lemma", MATRIX_CONFIG, "lemma.json")):
        cfg = _write(tmp_path, f"{command}.json", config)
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        outputs[command] = json.loads((out / name).read_text())
    solve, check = outputs["solve"], outputs["check"]
    sections = [
        (solve["certificate"], pc.ConvergenceCertificate, "convergent"),
        (solve["contraction"], pc.ContractionReport, None),
        (solve["nash"], pc.NashReport, "ok"),
        (check["growth"], pc.GrowthReport, None),
        (check["coupling"], pc.CouplingReport, None),
        (check["certificate"], pc.ConvergenceCertificate, "convergent"),
        (check["ps_beta"], pc.PsBeta, None),
        *[(ring, pc.RingReport, "fraction_violated") for ring in check["ring"]],
        (outputs["lemma"]["certificate"], pc.ConvergenceCertificate,
         "convergent"),
    ]
    assert len(check["ring"]) == 2
    for section, cls, verdict in sections:
        assert list(section) == _section_keys(cls, verdict), cls.__name__


def test_sampler_warning_names_config_key(tmp_path, capsys):
    few = json.loads(json.dumps(SINCOS_CONFIG))
    few["check"]["sampler"]["n_points"] = 50
    cfg = _write(tmp_path, "cfg.json", few)
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: check.sampler: fewer than 100 sample points gives a weak "
        "verdict"]


def test_compare_agrees_exit_zero(tmp_path):
    cfg = _write(tmp_path, "cfg.json", SCALAR_CONFIG)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "compare.json").read_text())
    assert payload["agree"] is True
    assert payload["difference"] <= payload["bound"]


def _fail_oracle(*args, **kwargs):
    raise ConvergenceError("no convergence in 50 iterations")


def _assert_oracle_failure_exits_four(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", SCALAR_CONFIG)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == "oracle failed: no convergence in 50 iterations\n"
    assert not (out / "compare.json").exists()


def test_compare_oracle_failure_exit_four(tmp_path, capsys, monkeypatch):
    # `cmd_compare` looks `newton_full` up in `oracle` when it runs
    monkeypatch.setattr(oracle, "newton_full", _fail_oracle)
    _assert_oracle_failure_exits_four(tmp_path, capsys)


def test_compare_sees_a_patch_set_on_cli(tmp_path, capsys, monkeypatch):
    # a global set on `cli` shadows the name `cli` reads in `oracle`; the
    # patch goes into the module dict, so that undoing it deletes it again
    monkeypatch.setitem(vars(cli), "newton_full", _fail_oracle)
    _assert_oracle_failure_exits_four(tmp_path, capsys)
    assert cli.newton_full is _fail_oracle


def test_lemma_certifies_matrix(tmp_path):
    cfg = _write(tmp_path, "cfg.json", MATRIX_CONFIG)
    out = tmp_path / "lem"
    assert main(["lemma", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "lemma.json").read_text())
    assert payload["certificate"]["spectral_radius"] == pytest.approx(0.5)
    assert np.allclose(payload["neumann_inverse"],
                       [[1.5, 0.5], [0.25, 1.75]], atol=1e-9)
    assert payload["dominance_demo"]["dominance_ok"] is True


def test_lemma_on_badly_scaled_matrix_is_a_verdict(tmp_path, capsys):
    # radius about 1.0e4; unbalanced, the eigensolver flushes the 1e-300
    # entries to zero, reads [0, 0.9] and the Neumann cross-check raised
    cfg = _write(tmp_path, "cfg.json", {"problem": {
        "kind": "matrix", "entries": [[1e-300, 1e308], [1e-300, 0.9]]}})
    out = tmp_path / "lem"
    assert main(["lemma", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "lemma: not convergent (radius 10000.5)\n"
    assert captured.err == ""
    payload = json.loads((out / "lemma.json").read_text())
    assert payload["certificate"]["spectral_radius"] == pytest.approx(
        0.45 + math.sqrt(0.2025 + 1e8), rel=1e-12)
    assert "neumann_inverse" not in payload


def test_unwritable_out_is_a_config_error(tmp_path, capsys):
    # --out names an existing file: bad input, and no verdict line
    cfg = _write(tmp_path, "cfg.json", MATRIX_CONFIG)
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["lemma", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot write to {out}: ")


def test_every_package_export_is_a_cli_attribute():
    for name in pc.__all__:
        assert getattr(cli, name) is getattr(pc, name), name


def _readme_keys() -> dict[str, set[str]]:
    # section cell -> the keys its rows of the README config table name; an
    # empty section cell continues the row above
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    keys, section = {}, None
    for line in readme.splitlines():
        cells = [c.strip() for c in line.split("|")[1:-1]]
        if len(cells) != 5 or cells[0] in ("section", "---"):
            continue
        section = cells[0] or section
        keys.setdefault(section, set()).update(re.findall(r"`([^`]+)`",
                                                          cells[1]))
    return keys


def test_readme_key_table_matches_config_schema():
    expected = {"top level": cli._CONFIG, "`scheme`": cli._SCHEME,
                "`check`": cli._CHECK, "`check.sampler`": cli._SAMPLER,
                "`oracle`": cli._ORACLE, "`problem` (`matrix`)": cli._MATRIX}
    for kind, (table, _) in cli._PROBLEMS.items():
        expected[f"`problem` (`{kind}`)"] = table
    for kind, table in cli._NONLINEARITIES.items():
        expected[f"`nonlinearity` (`{kind}`)"] = table
    readme = _readme_keys()
    assert set(readme) <= set(expected)
    for section, table in expected.items():
        # the kind is named in the section cell, not in a row
        assert readme.get(section, set()) == set(table) - {"kind"}, section


def test_config_errors_exit_two(tmp_path):
    not_json = tmp_path / "bad3.json"
    not_json.write_text("{broken")
    assert main(["solve", "--config", str(not_json),
                 "--out", str(tmp_path / "o3")]) == 2

    assert main(["solve", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o4")]) == 2


STOKES_CONFIG = {
    "problem": {"kind": "stokes", "n_per_dim": 5, "lengths": 1.0,
                "mu_coeff": 1.0, "nonlinearity": {"kind": "zero"}},
}

DELETE = object()

_SINCOS = {"kind": "sincos", "epsilon": 0.1}
DIRICHLET_2D_STIFF = {"kind": "dirichlet", "dims": 2, "n_per_dim": 5,
                      "lengths": [1.0, 1.0], "potential_c": 1e200,
                      "nonlinearity": _SINCOS}
STOKES_STIFF = {"kind": "stokes", "n_per_dim": 5, "lengths": [1.0, 1.0],
                "mu_coeff": 1e200, "nonlinearity": _SINCOS}
STOKES_HUGE = {**STOKES_STIFF, "lengths": [1e30, 1e30]}
# the bundled stokes_17 with a coupling whose declared matrix has rho 1.47
STOKES_17_STRONG = json.loads((CONFIGS / "stokes_17.json").read_text())
STOKES_17_STRONG["problem"]["nonlinearity"]["epsilon"] = 40.0

# (command, base config, path, value or DELETE, extra flags, exit code,
#  config error message); the empty path replaces the whole config
DEFECTS = [
    # top level
    ("solve", SCALAR_CONFIG, (), [1], (), 2,
     "top level of the config must be an object"),
    ("solve", SCALAR_CONFIG, ("bogus",), 1, (), 2,
     "config: unknown keys ['bogus']"),
    ("solve", SCALAR_CONFIG, ("problem",), DELETE, (), 2,
     "config: missing keys ['problem']"),
    # problem
    ("solve", SCALAR_CONFIG, ("problem",), 5, (), 2,
     "config.problem must be an object"),
    ("solve", SCALAR_CONFIG, ("problem",), {"kind": "bogus"}, (), 2,
     "problem: unknown kind 'bogus'"),
    ("solve", SCALAR_CONFIG, ("problem", "kind"), [1], (), 2,
     "problem: unknown kind [1]"),
    ("solve", MATRIX_CONFIG, (), MATRIX_CONFIG, (), 2,
     "matrix configs only apply to the lemma command"),
    ("solve", SCALAR_CONFIG, ("problem", "bogus"), 1, (), 2,
     "problem: unknown keys ['bogus']"),
    ("solve", SCALAR_CONFIG, ("problem", "a_value"), DELETE, (), 2,
     "problem: missing keys ['a_value']"),
    ("solve", SCALAR_CONFIG, ("problem", "a_value"), "2", (), 2,
     "problem.a_value must be a number"),
    ("solve", SCALAR_CONFIG, ("problem", "a_value"), 0, (), 2,
     "problem: a_value must be positive"),
    ("solve", SINCOS_CONFIG, ("problem", "dims"), True, (), 2,
     "problem.dims must be an integer"),
    ("solve", SINCOS_CONFIG, ("problem", "lengths"), [1.0, 1.0], (), 2,
     "problem: lengths must be one positive number or a list of 1"),
    ("solve", SINCOS_CONFIG, ("problem", "lengths"), ["1"], (), 2,
     "problem.lengths must be a number"),
    ("solve", SINCOS_CONFIG, ("problem", "n_per_dim"), 2, (), 2,
     "problem: need at least 3 interior nodes per dimension"),
    ("solve", SINCOS_CONFIG, ("problem", "potential_c"), None, (), 2,
     "problem.potential_c must be a number"),
    ("solve", STOKES_CONFIG, ("problem", "mu_coeff"), DELETE, (), 2,
     "problem: missing keys ['mu_coeff']"),
    ("solve", STOKES_CONFIG, ("problem", "lengths"), [1.0], (), 2,
     "problem: lengths must be one positive number or a list of 2"),
    ("solve", STOKES_CONFIG, ("problem", "n_per_dim"), 4, (), 2,
     "problem: need at least 5 interior nodes per dimension"),
    # problem.nonlinearity
    ("solve", SCALAR_CONFIG, ("problem", "nonlinearity"), 5, (), 2,
     "problem.nonlinearity must be an object"),
    ("solve", SCALAR_CONFIG, ("problem", "nonlinearity"), {"kind": "unknown"},
     (), 2, "problem.nonlinearity: unknown nonlinearity kind 'unknown'"),
    ("solve", SCALAR_CONFIG, ("problem", "nonlinearity"),
     {"kind": "zero", "epsilon": 1.0}, (), 2,
     "problem.nonlinearity: unknown keys ['epsilon']"),
    ("solve", SCALAR_CONFIG, ("problem", "nonlinearity"), {"kind": "sincos"},
     (), 2, "problem.nonlinearity: missing keys ['epsilon']"),
    ("solve", SCALAR_CONFIG, ("problem", "nonlinearity", "b"), "x", (), 2,
     "problem.nonlinearity.b must be a number"),
    ("solve", SCALAR_CONFIG, ("problem", "nonlinearity"),
     {"kind": "sincos", "epsilon": -0.1}, (), 2,
     "problem.nonlinearity: epsilon must be nonnegative"),
    # lemma's matrix problem
    ("lemma", SCALAR_CONFIG, (), SCALAR_CONFIG, (), 2,
     'lemma needs a problem of kind "matrix"'),
    ("lemma", MATRIX_CONFIG, ("problem", "bogus"), 1, (), 2,
     "problem: unknown keys ['bogus']"),
    ("lemma", MATRIX_CONFIG, ("problem", "entries"), DELETE, (), 2,
     "problem: missing keys ['entries']"),
    ("lemma", MATRIX_CONFIG, ("problem", "entries"), "x", (), 2,
     "problem.entries must be a list of rows"),
    ("lemma", MATRIX_CONFIG, ("problem", "entries"), [[0.3, "x"], [0.1, 0.4]],
     (), 2, "problem.entries must be a number"),
    ("lemma", MATRIX_CONFIG, ("problem", "entries"), [[0.3, 0.2]], (), 2,
     "problem.entries: entries must form a square matrix"),
    # scheme
    ("solve", SCALAR_CONFIG, ("scheme",), 5, (), 2,
     "scheme must be an object"),
    ("solve", SCALAR_CONFIG, ("scheme",), [1], (), 2,
     "scheme must be an object"),
    ("solve", SCALAR_CONFIG, ("scheme",), [], (), 2,
     "scheme must be an object"),
    ("compare", SCALAR_CONFIG, ("scheme",), "x", (), 2,
     "scheme must be an object"),
    ("solve", SCALAR_CONFIG, ("scheme", "max_outerr"), 5, (), 2,
     "scheme: unknown keys ['max_outerr']"),
    ("solve", SCALAR_CONFIG, ("scheme", "inner_step"), 0.5, (), 2,
     "scheme: unknown keys ['inner_step']"),
    ("solve", SCALAR_CONFIG, ("scheme", "seed"), 1.0, (), 2,
     "scheme.seed must be an integer"),
    ("solve", SCALAR_CONFIG, ("scheme", "random_init"), 1, (), 2,
     "scheme.random_init must be a boolean"),
    ("solve", SCALAR_CONFIG, ("scheme", "final_tol"), 0, (), 2,
     "scheme: final_tol must be positive and finite"),
    ("solve", SCALAR_CONFIG, ("scheme", "seed"), -1, (), 2,
     "scheme: seed must be nonnegative"),
    ("solve", SCALAR_CONFIG, ("scheme", "seed"), 0, ("--seed", "-1"), 2,
     "scheme: seed must be nonnegative"),
    ("compare", SCALAR_CONFIG, ("scheme", "seed"), 0, ("--seed", "-1"), 2,
     "scheme: seed must be nonnegative"),
    # check
    ("check", SINCOS_CONFIG, ("check",), "x", (), 2,
     "check must be an object"),
    ("check", SINCOS_CONFIG, ("check", "bogus"), 1, (), 2,
     "check: unknown keys ['bogus']"),
    ("check", SINCOS_CONFIG, ("check", "sampler"), 5, (), 2,
     "check.sampler must be an object"),
    ("check", SINCOS_CONFIG, ("check", "sampler", "bogus"), 1, (), 2,
     "check.sampler: unknown keys ['bogus']"),
    ("check", SINCOS_CONFIG, ("check", "sampler", "n_points"), "400", (), 2,
     "check.sampler.n_points must be an integer"),
    ("check", SINCOS_CONFIG, ("check", "sampler", "box_radius"), 0, (), 2,
     "check.sampler: box_radius must be positive"),
    ("check", SINCOS_CONFIG, ("check", "sampler", "seed"), -1, (), 2,
     "check.sampler: seed must be nonnegative"),
    ("check", SINCOS_CONFIG, ("check", "sampler", "seed"), 0, ("--seed", "-1"),
     2, "check.sampler: seed must be nonnegative"),
    ("check", SINCOS_CONFIG, ("check", "ring_taus"), "x", (), 2,
     "check.ring_taus must be a nonempty list"),
    ("check", SINCOS_CONFIG, ("check", "ring_taus"), [0.5, "1"], (), 2,
     "check.ring_taus must be a number"),
    ("check", SINCOS_CONFIG, ("check", "ring_taus"), [-1], (), 2,
     "check: tau must be positive and finite"),
    ("check", SINCOS_CONFIG, ("check", "declared_growth"), [0, 0], (), 2,
     "check.declared_growth must be three numbers"),
    ("check", SINCOS_CONFIG, ("check", "declared_growth"), [-1, 0, 0], (), 2,
     "check: growth constants must be nonnegative"),
    # growth constants are resolved before any ring level is evaluated
    ("check", SCALAR_CONFIG, ("check",), {"ring_taus": [-1]}, (), 2,
     "no growth constants declared and none built in"),
    # oracle
    ("compare", SCALAR_CONFIG, ("oracle",), 0, (), 2,
     "oracle must be an object"),
    ("compare", SCALAR_CONFIG, ("oracle", "bogus"), 1, (), 2,
     "oracle: unknown keys ['bogus']"),
    ("compare", SCALAR_CONFIG, ("oracle", "tol"), "1e-8", (), 2,
     "oracle.tol must be a number"),
    ("compare", SCALAR_CONFIG, ("oracle", "jacobian_free"), 1, (), 2,
     "oracle.jacobian_free must be a boolean"),
    # the Newton budget is a module constant, not a key
    ("compare", SCALAR_CONFIG, ("oracle", "max_iters"), 50, (), 2,
     "oracle: unknown keys ['max_iters']"),
    ("compare", SCALAR_CONFIG, ("oracle", "tol"), 0, (), 2,
     "oracle: tol must be positive and finite"),
    ("compare", SCALAR_CONFIG, ("oracle", "jacobian_free"), None, (), 0, None),
    # grid steps whose stencil scale leaves the float range
    ("solve", SINCOS_CONFIG, ("problem", "lengths"), [1e-200], (), 2,
     "problem: lengths give a grid step h with h**2 or 1/h**2 outside the "
     "float range"),
    ("solve", SINCOS_CONFIG, ("problem", "lengths"), [1e200], (), 2,
     "problem: lengths give a grid step h with h**2 or 1/h**2 outside the "
     "float range"),
    ("solve", STOKES_CONFIG, ("problem", "lengths"), [1e-200, 1e-200], (), 2,
     "problem: lengths give a grid step h with h**4 or 1/h**4 outside the "
     "float range"),
    ("solve", STOKES_CONFIG, ("problem", "lengths"), [1e200, 1e200], (), 2,
     "problem: lengths give a grid step h with h**4 or 1/h**4 outside the "
     "float range"),
    # operators scaled by 1e200 put the embedding eigenvalue's power
    # iterates below 1e-154, where their euclidean norm underflows; the
    # check row on STOKES_HUGE comes first, in the place of the row that
    # pinned the underflow's symptom (exit 2, embedding_sq not positive)
    ("check", STOKES_CONFIG, ("problem",), STOKES_HUGE, (), 0, None),
    *[(command, base, path, value, (), 0, None)
      for base, path, value in (
          (SINCOS_CONFIG, ("problem", "potential_c"), 1e200),
          (SINCOS_CONFIG, ("problem",), DIRICHLET_2D_STIFF),
          (STOKES_CONFIG, ("problem",), STOKES_STIFF),
          (STOKES_CONFIG, ("problem",), STOKES_HUGE))
      for command in ("solve", "check", "compare")
      if (command, value) != ("check", STOKES_HUGE)],
    # gradients whose differences overflow cannot be tested
    ("check", SCALAR_CONFIG, ("problem",),
     {"kind": "scalar", "a_value": 1e308,
      "nonlinearity": {"kind": "sincos", "epsilon": 1e308}},
     (), 2, "check: sampled difference quotients leave the float range"),
    # a box wider than the float range cannot be sampled uniformly (new
    # rows go last, so that the ids of the rows above keep their index)
    ("check", SINCOS_CONFIG, ("check", "sampler", "box_radius"), 1e308, (), 2,
     "check.sampler: box_radius must be below half the float range"),
    # squares of the sampled points overflow: one line, no warning before it
    ("check", SINCOS_CONFIG, ("check", "sampler", "box_radius"), 1e300, (), 2,
     "check: sampled squares leave the float range"),
    # no pair far enough apart to test a slope: no sample could violate
    # the declared matrix, and the check would pass on no evidence
    *[("check", base, ("check", "sampler", "box_radius"), 1e-13, (), 2,
       "check: box_radius is too small to test a slope")
      for base in (SINCOS_CONFIG, STOKES_17_STRONG)],
]


_C_HUGE = {"kind": "quadratic", "c": 1e308}
_ENTRIES_ERROR = "config error: problem: operator entries must be finite"

# values whose operator or certificate leaves the float range are bad input:
# (command, base config, path, value, stderr lines), each exiting 2
FLOAT_RANGE_DEFECTS = [
    *[(command, SINCOS_CONFIG, ("problem",),
       {**SINCOS_CONFIG["problem"], "n_per_dim": 9, "nonlinearity": _C_HUGE},
       ["warning: scheme: invalid value encountered in multiply",
        "config error: scheme: coefficients must be finite"])
      for command in ("solve", "compare")],
    ("lemma", MATRIX_CONFIG, ("problem", "entries"),
     [[1e308, 1e308], [1e308, 1e308]],
     ["config error: problem.entries: spectral radius leaves the float "
      "range"]),
    *[("lemma", MATRIX_CONFIG, ("problem", "entries"), entries,
       ["config error: problem.entries: (I - M)^-1 leaves the float range"])
      for entries in ([[0.5, 1e308], [0, 0.5]], [[1e-320, 1e308], [0, 0.9]])],
    # an operator whose entries overflow: one line, no warning before it
    *[(command, base, ("problem",), problem, [_ENTRIES_ERROR])
      for base, problem in (
          (SINCOS_CONFIG, {**SINCOS_CONFIG["problem"], "n_per_dim": 9,
                           "lengths": 1e8, "potential_c": 1e308}),
          (STOKES_CONFIG, {**STOKES_STIFF, "n_per_dim": 7,
                           "lengths": [1e-8, 1e-8], "mu_coeff": 1e308}),
          (STOKES_CONFIG, {**STOKES_STIFF, "n_per_dim": 7,
                           "lengths": [1e30, 3], "mu_coeff": 1e308}))
      for command in ("check", "solve", "compare")],
    # convergent, but too close to radius one for a float inverse: the
    # solve returns an all-negative one, or meets a zero pivot
    *[("lemma", MATRIX_CONFIG, ("problem", "entries"), entries,
       ["config error: problem.entries: I - M is singular to working "
        "precision"])
      for entries in ([[0.8776642926579782, 0.7464554969217999],
                       [0.07279168791186937, 0.5558471295701013]],
                      [[0.36668991677357926, 0.34234132370869863],
                       [1.2580478044464147, 0.3199512181001695]])],
]


def _defect(base, path, value):
    if not path:
        return value
    cfg = json.loads(json.dumps(base))
    *parents, key = path
    obj = cfg
    for k in parents:
        obj = obj[k]
    if value is DELETE:
        del obj[key]
    else:
        obj[key] = value
    return cfg


@pytest.mark.parametrize(
    "command, base, path, value, flags, code, line", DEFECTS,
    ids=[f"{row[0]}-{'.'.join(row[2]) or 'top'}-{i}"
         for i, row in enumerate(DEFECTS)])
def test_config_defect_table(tmp_path, capsys, command, base, path, value,
                             flags, code, line):
    cfg = _write(tmp_path, "cfg.json", _defect(base, path, value))
    got = main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                *flags])
    err = capsys.readouterr().err
    assert got == code
    assert err == ("" if line is None else f"config error: {line}\n")


@pytest.mark.parametrize(
    "command, base, path, value, lines", FLOAT_RANGE_DEFECTS,
    ids=[f"{row[0]}-{i}" for i, row in enumerate(FLOAT_RANGE_DEFECTS)])
def test_float_range_defect_table(tmp_path, capsys, command, base, path,
                                  value, lines):
    cfg = _write(tmp_path, "cfg.json", _defect(base, path, value))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == lines


# (command, path, value) of number keys; each value replaces the number
# it stands for, and a list holds it in its first place
NUMBER_KEYS = [
    ("check", ("check", "sampler", "box_radius"), None),
    ("solve", ("scheme", "final_tol"), None),
    ("compare", ("oracle", "tol"), None),
    ("check", ("check", "ring_taus"), [None]),
    ("solve", ("problem", "nonlinearity", "epsilon"), None),
    ("solve", ("problem", "lengths"), None),
    ("solve", ("problem", "lengths"), [None]),
]


@pytest.mark.parametrize("number", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize(
    "command, path, shape", NUMBER_KEYS,
    ids=[f"{row[0]}-{'.'.join(row[1])}-{i}"
         for i, row in enumerate(NUMBER_KEYS)])
def test_non_finite_numbers_are_refused(tmp_path, capsys, command, path,
                                        shape, number):
    # json writes the floats as NaN, Infinity and -Infinity
    value = number if shape is None else [number]
    cfg = _write(tmp_path, "cfg.json", _defect(SINCOS_CONFIG, path, value))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: {'.'.join(path)} must be a finite number\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, flag", [
    ("lemma", "--seed=3"),
    ("lemma", "--override-hypotheses"),
    ("check", "--override-hypotheses"),
    # the config key scheme.override_hypotheses is the one switch
    ("solve", "--override-hypotheses"),
    ("compare", "--override-hypotheses"),
])
def test_flags_only_where_read(tmp_path, capsys, command, flag):
    cfg = _write(tmp_path, "cfg.json", MATRIX_CONFIG)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_refused_exit_one(tmp_path):
    refused = json.loads(json.dumps(SCALAR_CONFIG))
    refused["problem"]["nonlinearity"] = {"kind": "quadratic", "b": 3.0}
    cfg = _write(tmp_path, "cfg.json", refused)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_overflowing_power_iteration_is_a_verdict(tmp_path, capsys):
    # at length 1e150 the embedding's power iterates exceed 1e154, so
    # their euclidean norm overflows; the build rescales them and goes on,
    # without a warning about the overflow it handles
    huge = {"problem": {"kind": "dirichlet", "dims": 1, "n_per_dim": 15,
                        "lengths": [1e150],
                        "nonlinearity": {"kind": "sincos", "epsilon": 1.0}}}
    cfg = _write(tmp_path, "cfg.json", huge)
    code = main(["check", "--config", cfg, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code in {0, 1, 2}
    assert "Traceback" not in captured.out + captured.err
    assert captured.err == ""
    assert captured.out.startswith("check: not ready")


def test_nash_probe_at_a_huge_operator_tests_something(tmp_path, capsys):
    # at a = 1e308 the u-residual is 1e-155 and the declared m11 1e-309:
    # the gap bound r_u^2 / (2 (1 - m11)) is subnormal, and kept, not 0
    huge = {"problem": {"kind": "scalar", "a_value": 1e308,
                        "nonlinearity": {"kind": "sincos", "epsilon": 0.1}}}
    cfg = _write(tmp_path, "cfg.json", huge)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    r_u, r_v = report["residuals"]
    assert 0.0 < r_u < 1e-150 and r_v == 0.0
    assert report["nash"] == {
        "gap_e1": pytest.approx(0.5 * r_u * r_u, rel=1e-9, abs=0.0),
        "gap_e2": 0.0, "ok": True}


def _rho_warning(rho: str) -> str:
    return (f"warning: scheme: coupling matrix has spectral radius {rho} "
            "(needs < 1); continuing on request")


def test_override_key_demotes_refusal(tmp_path, capsys):
    refused = json.loads(json.dumps(SCALAR_CONFIG))
    refused["problem"]["nonlinearity"] = {"kind": "quadratic", "b": 3.0}
    refused["scheme"]["override_hypotheses"] = True
    cfg = _write(tmp_path, "cfg.json", refused)
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0
    err = capsys.readouterr().err
    assert _rho_warning("1.5") in err.splitlines()
    assert ".py:" not in err


def test_solve_reports_a_concave_pair_as_no_equilibrium(tmp_path, capsys):
    # E1 = -0.1 u^2: the zero pair is converged but maximizes E1 in u, so
    # the run exits 0 and its Nash report, from m11 = 1.2, fails
    concave = {"problem": {"kind": "scalar", "a_value": 1.0,
                           "nonlinearity": {"kind": "quadratic", "a": 0.6}},
               "scheme": {"override_hypotheses": True}}
    cfg = _write(tmp_path, "cfg.json", concave)
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [_rho_warning("1.2")]
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["nash"] == {"gap_e1": "inf", "gap_e2": 0, "ok": False}


def test_exhausted_exit_three(tmp_path):
    exhausted = json.loads(json.dumps(SCALAR_CONFIG))
    exhausted["scheme"] = {"max_outer": 1, "final_tol": 1e-12}
    cfg = _write(tmp_path, "cfg.json", exhausted)
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    solution = json.loads((out / "solution.json").read_text())
    assert solution["converged"] is False


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_inner_failure_exit_four(tmp_path, capsys, command):
    # rho = 3 under override: the pair grows until the u-objective overflows
    stall = json.loads(json.dumps(SCALAR_CONFIG))
    stall["problem"] = {"kind": "scalar", "a_value": 1.0,
                        "nonlinearity": {"kind": "quadratic", "b": 3.0,
                                         "g": 1.0}}
    stall["scheme"] = {"max_outer": 1000, "override_hypotheses": True}
    cfg = _write(tmp_path, "cfg.json", stall)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert ("inner solver failed at stage 163: inner u-solve overflowed"
            in err.splitlines())
    assert _rho_warning("3") in err.splitlines()
    assert ".py:" not in err
    assert not out.exists()


def test_seed_override_lands_in_manifest(tmp_path):
    cfg = _write(tmp_path, "cfg.json", SCALAR_CONFIG)
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out),
                 "--seed", "7"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7


def test_console_entry_point_runs(tmp_path):
    cfg = _write(tmp_path, "cfg.json", MATRIX_CONFIG)
    proc = subprocess.run(
        [sys.executable, "-m", "partialcrit.cli", "lemma",
         "--config", cfg, "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "convergent" in proc.stdout


# ------------------------------------------- every schema-valid config ends

# every number a drawn config holds, ordinary ones first (hypothesis draws
# early and shrinks towards the head of the list), then tiny and huge ones,
# a subnormal and zero
_NUMBER = st.sampled_from([1.0, 0.3, 3.0, 47.0, 1e-8, 1e8, 1e-30, 1e30,
                           1e-200, 1e200, 1e-320, 1e308, 0.0])
_COUPLING = st.builds(lambda x, sign: sign * x, _NUMBER,
                      st.sampled_from([1.0, -1.0]))
_NONLINEARITY = st.one_of(
    st.just({"kind": "zero"}),
    st.fixed_dictionaries({"kind": st.just("quadratic"), "a": _COUPLING,
                           "b": _COUPLING, "c": _COUPLING, "g": _COUPLING}),
    st.fixed_dictionaries({"kind": st.just("sincos"), "epsilon": _NUMBER}),
)


def _drawn_problem(kind, sides, n_per_dim, **keys):
    return st.fixed_dictionaries({
        "kind": st.just(kind), "n_per_dim": st.sampled_from(n_per_dim),
        "lengths": st.lists(_NUMBER, min_size=sides, max_size=sides),
        "nonlinearity": _NONLINEARITY, **keys})


_PROBLEM = st.one_of(
    _drawn_problem("dirichlet", 1, [3, 5, 9], dims=st.just(1),
                   potential_c=_NUMBER),
    _drawn_problem("dirichlet", 2, [3, 5], dims=st.just(2),
                   potential_c=_NUMBER),
    _drawn_problem("stokes", 2, [5, 7], mu_coeff=_NUMBER),
    st.fixed_dictionaries({"kind": st.just("scalar"), "a_value": _NUMBER,
                           "nonlinearity": _NONLINEARITY}),
)

# a config that draws every number key of the other sections as well
_CONFIG = st.fixed_dictionaries({
    "problem": _PROBLEM,
    "scheme": st.fixed_dictionaries({"max_outer": st.just(50),
                                     "final_tol": _NUMBER}),
    "check": st.fixed_dictionaries(
        {"sampler": st.fixed_dictionaries(
            {"n_points": st.sampled_from([100, 2]), "box_radius": _NUMBER}),
         "ring_taus": st.lists(_NUMBER, min_size=1, max_size=2),
         "declared_growth": st.lists(_NUMBER, min_size=3, max_size=3)}),
    "oracle": st.fixed_dictionaries({"tol": _NUMBER}),
})


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["check", "solve", "compare"]), _CONFIG)
def test_schema_valid_configs_end_in_an_exit_code(tmp_path, command, config):
    # whatever the values, main maps the outcome to an exit code: nothing
    # raises, and no warning escapes (the suite turns warnings into errors)
    cfg = _write(tmp_path, "cfg.json", config)
    code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code in {0, 1, 2, 3, 4}
