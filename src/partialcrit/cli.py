"""Command line front end.

Four subcommands, all driven by a JSON config file:

* ``check``   verify the structural hypotheses by sampling; exit 0 when
              the system is ready for the solver, 1 when not.
* ``solve``   run the alternating scheme; writes trace.csv, solution.json,
              report.json and manifest.json into --out.
* ``compare`` solve with both the scheme and the stacked Newton oracle and
              compare the pairs; exit 0 iff they agree within
              10 * (tol_scheme + tol_newton) in the stacked operator norm.
* ``lemma``   certify a bare coupling matrix and run a synthetic
              dominance trajectory through the componentwise check.

Exit codes: 0 success, 1 negative verdict (not ready, refused, or
disagreement), 2 bad input, 3 outer iteration budget exhausted,
4 inner solver failure.

All floats are written with repr-faithful precision and the manifest is
the only file carrying timestamps, so reruns with the same config are
byte-identical on the data files.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import sys as _sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, HypothesisError, SchemeStageError
from .hypotheses import (SamplerSpec, check_mountain_pass_ring, full_report,
                         mu_of, ps_beta)
from .oracle import newton_full
from .problems import (DirichletSpec, NonlinearitySpec, StokesSpec,
                       build_dirichlet, build_scalar, build_stokes)
from .scheme import (CoupledSystem, SchemeConfig, contraction_certificate,
                     energies, nash_check, run_scheme)
from .spaces import norm_a
from .zeromatrix import (MonotonyMatrix, is_convergent_to_zero,
                         neumann_inverse, verify_dominance)

__all__ = ["main", "entry"]

try:
    __version__ = importlib.metadata.version("partialcrit")
except importlib.metadata.PackageNotFoundError:  # running from a checkout
    __version__ = "0.1.0"


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


# ---------------------------------------------------------------- JSON out

def _json_scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        xf = float(x)
        if math.isnan(xf):
            return '"nan"'
        if math.isinf(xf):
            return '"inf"' if xf > 0 else '"-inf"'
        return format(xf, ".17g")
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def dumps_stable(obj, level: int = 0) -> str:
    """Deterministic JSON with full float precision.

    Non-finite floats become the strings "nan", "inf", "-inf" so the
    output stays standard JSON.
    """
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {dumps_stable(v, level + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(not isinstance(e, (dict, list, tuple, np.ndarray)) for e in seq):
            return "[" + ", ".join(_json_scalar(e) for e in seq) + "]"
        parts = [inner + dumps_stable(e, level + 1) for e in seq]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return _json_scalar(obj)


def _write_json(path: Path, obj) -> None:
    path.write_text(dumps_stable(obj) + "\n", encoding="utf-8")


def _write_csv(path: Path, rows) -> None:
    def cell(v) -> str:
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return format(float(v), ".17g")

    text = "\n".join(",".join(cell(v) for v in row) for row in rows)
    path.write_text(text + "\n", encoding="utf-8")


def _write_manifest(out: Path, command: str, config_raw: bytes,
                    config_path: str, seed, files: list[str]) -> None:
    hashes = {}
    for name in files:
        hashes[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    manifest = {
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "package_version": __version__,
        "config_path": config_path,
        "config_sha256": hashlib.sha256(config_raw).hexdigest(),
        "seed": seed,
        "out_files": hashes,
    }
    _write_json(out / "manifest.json", manifest)


# ------------------------------------------------------------- config load

def _require_keys(d: dict, allowed, required, where: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - set(d))
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")


def _as_number(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where} must be a number")
    return float(v)


def _as_int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where} must be an integer")
    return v


def _as_bool(v, where: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{where} must be a boolean")
    return v


def load_config(path: str) -> tuple[dict, bytes]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top level of the config must be an object")
    _require_keys(cfg, {"problem", "scheme", "check", "oracle"},
                  {"problem"}, "config")
    return cfg, raw


def _nonlinearity_from(d, where: str) -> NonlinearitySpec:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    kind = d.get("kind")
    try:
        if kind == "zero":
            _require_keys(d, {"kind"}, {"kind"}, where)
            return NonlinearitySpec.zero()
        if kind == "quadratic":
            _require_keys(d, {"kind", "a", "b", "c", "g"}, {"kind"}, where)
            return NonlinearitySpec.quadratic(
                _as_number(d.get("a", 0.0), f"{where}.a"),
                _as_number(d.get("b", 0.0), f"{where}.b"),
                _as_number(d.get("c", 0.0), f"{where}.c"),
                _as_number(d.get("g", 0.0), f"{where}.g"),
            )
        if kind == "sincos":
            _require_keys(d, {"kind", "epsilon"}, {"kind", "epsilon"}, where)
            return NonlinearitySpec.sincos(
                _as_number(d["epsilon"], f"{where}.epsilon"))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown nonlinearity kind {kind!r}")


def _lengths_from(v, count: int, where: str) -> tuple:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return tuple([float(v)] * count)
    if isinstance(v, list) and len(v) == count:
        return tuple(_as_number(e, where) for e in v)
    raise ConfigError(f"{where} must be a number or a list of {count} numbers")


def build_problem(cfg: dict) -> CoupledSystem:
    p = cfg.get("problem")
    if not isinstance(p, dict):
        raise ConfigError("config.problem must be an object")
    kind = p.get("kind")
    try:
        if kind == "dirichlet":
            _require_keys(p, {"kind", "dims", "n_per_dim", "lengths",
                              "potential_c", "nonlinearity"},
                          {"kind", "dims", "n_per_dim", "lengths",
                           "nonlinearity"}, "problem")
            dims = _as_int(p["dims"], "problem.dims")
            spec = DirichletSpec(
                dims=dims,
                n_per_dim=_as_int(p["n_per_dim"], "problem.n_per_dim"),
                lengths=_lengths_from(p["lengths"], dims, "problem.lengths"),
                potential_c=_as_number(p.get("potential_c", 0.0),
                                       "problem.potential_c"),
                nonlinearity=_nonlinearity_from(p["nonlinearity"],
                                                "problem.nonlinearity"),
            )
            return build_dirichlet(spec)
        if kind == "stokes":
            _require_keys(p, {"kind", "n_per_dim", "lengths", "mu_coeff",
                              "nonlinearity"},
                          {"kind", "n_per_dim", "lengths", "mu_coeff",
                           "nonlinearity"}, "problem")
            spec = StokesSpec(
                n_per_dim=_as_int(p["n_per_dim"], "problem.n_per_dim"),
                lengths=_lengths_from(p["lengths"], 2, "problem.lengths"),
                mu_coeff=_as_number(p["mu_coeff"], "problem.mu_coeff"),
                nonlinearity=_nonlinearity_from(p["nonlinearity"],
                                                "problem.nonlinearity"),
            )
            return build_stokes(spec)
        if kind == "scalar":
            _require_keys(p, {"kind", "a_value", "nonlinearity"},
                          {"kind", "a_value", "nonlinearity"}, "problem")
            return build_scalar(
                _as_number(p["a_value"], "problem.a_value"),
                _nonlinearity_from(p["nonlinearity"], "problem.nonlinearity"),
            )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"problem: {exc}") from exc
    if kind == "matrix":
        raise ConfigError("matrix configs only apply to the lemma command")
    raise ConfigError(f"problem: unknown kind {kind!r}")


def scheme_config_from(cfg: dict, seed_override: int | None,
                       override_flag: bool) -> SchemeConfig:
    d = dict(cfg.get("scheme") or {})
    allowed = {"max_outer", "inner_max_iters", "inner_step", "final_tol",
               "seed", "random_init", "store_iterates", "override_hypotheses"}
    _require_keys(d, allowed, (), "scheme")
    coerced: dict = {}
    for key, value in d.items():
        where = f"scheme.{key}"
        if key in ("max_outer", "inner_max_iters", "seed"):
            coerced[key] = _as_int(value, where)
        elif key == "final_tol":
            coerced[key] = _as_number(value, where)
        elif key == "inner_step":
            coerced[key] = None if value is None else _as_number(value, where)
        else:
            coerced[key] = _as_bool(value, where)
    if seed_override is not None:
        coerced["seed"] = seed_override
    if override_flag:
        coerced["override_hypotheses"] = True
    try:
        return SchemeConfig(**coerced)
    except ValueError as exc:
        raise ConfigError(f"scheme: {exc}") from exc


def sampler_from(cfg: dict, seed_override: int | None) -> SamplerSpec:
    chk = dict(cfg.get("check") or {})
    d = dict(chk.get("sampler") or {})
    _require_keys(d, {"n_points", "box_radius", "seed"}, (), "check.sampler")
    kwargs: dict = {}
    if "n_points" in d:
        kwargs["n_points"] = _as_int(d["n_points"], "check.sampler.n_points")
    if "box_radius" in d:
        kwargs["box_radius"] = _as_number(d["box_radius"],
                                          "check.sampler.box_radius")
    if "seed" in d:
        kwargs["seed"] = _as_int(d["seed"], "check.sampler.seed")
    if seed_override is not None:
        kwargs["seed"] = seed_override
    try:
        return SamplerSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"check.sampler: {exc}") from exc


# ------------------------------------------------------------ serializers

def _certificate_payload(cert) -> dict:
    return {
        "spectral_radius": cert.spectral_radius,
        "rho_ok": cert.rho_ok,
        "neumann_ok": cert.neumann_ok,
        "powers_decay": cert.powers_decay,
        "convergent": cert.convergent,
    }


def _growth_payload(rep) -> dict:
    return {
        "ok": rep.ok,
        "alpha_upper_hat": rep.alpha_upper_hat,
        "alpha_lower_hat": rep.alpha_lower_hat,
        "c_hat": rep.c_hat,
        "witness": None if rep.witness is None else list(rep.witness),
        "n_points": rep.n_points,
    }


def _system_mu(system: CoupledSystem) -> float | None:
    if system.growth is None:
        return None
    return mu_of(system.growth)


# -------------------------------------------------------------- commands

def _prepare_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_check(args) -> int:
    cfg, raw = load_config(args.config)
    system = build_problem(cfg)
    chk = dict(cfg.get("check") or {})
    _require_keys(chk, {"sampler", "declared_growth", "ring_taus"}, (),
                  "check")
    sampler = sampler_from(cfg, args.seed)

    declared = chk.get("declared_growth")
    if declared is not None:
        if (not isinstance(declared, list) or len(declared) != 3):
            raise ConfigError("check.declared_growth must be three numbers")
        declared = tuple(_as_number(v, "check.declared_growth")
                         for v in declared)
    elif system.pointwise is not None and system.pointwise.growth is not None:
        declared = system.pointwise.growth
    else:
        raise ConfigError("no growth constants declared and none built in")

    report = full_report(system, declared, sampler)

    ring_payload = []
    taus = chk.get("ring_taus")
    if taus is not None:
        if not isinstance(taus, list) or not taus:
            raise ConfigError("check.ring_taus must be a nonempty list")
        for tau in taus:
            ring = check_mountain_pass_ring(
                system, _as_number(tau, "check.ring_taus"), sampler)
            ring_payload.append({
                "tau": ring.tau,
                "n_samples": ring.n_samples,
                "n_violated": ring.n_violated,
                "fraction_violated": ring.fraction_violated,
            })

    margins = None
    if report.certificate.rho_ok:
        margin = ps_beta(report.monotony_estimate)
        margins = {"m11_only": margin.m11_only, "full": margin.full}

    payload = {
        "label": system.label,
        "ready": report.ready,
        "growth": _growth_payload(report.growth),
        "monotony_estimate": report.monotony_estimate.entries,
        "monotony_declared": system.monotony.entries,
        "certificate": _certificate_payload(report.certificate),
        "mu": report.mu,
        "ps_beta": margins,
        "ring": ring_payload,
        "notes": list(report.notes),
    }
    out = _prepare_out(args)
    _write_json(out / "report.json", payload)
    _write_manifest(out, "check", raw, args.config, sampler.seed,
                    ["report.json"])
    status = "ready" if report.ready else "not ready"
    print(f"check: {status} (mu={report.mu}, "
          f"radius={report.certificate.spectral_radius:.6g})")
    return 0 if report.ready else 1


def _run_scheme(system: CoupledSystem, scfg: SchemeConfig):
    """Run the scheme; return ``(pair, trace)``, or the exit code (1 when
    the hypotheses refuse the system, 4 when an inner solve fails)."""
    try:
        return run_scheme(system, scfg)
    except HypothesisError as exc:
        print(f"refused: {exc}", file=_sys.stderr)
        return 1
    except SchemeStageError as exc:
        print(f"inner solver failed at stage {exc.stage} on the {exc.side} "
              f"side: {exc}", file=_sys.stderr)
        return 4


def _solve_payloads(system: CoupledSystem, pair, trace, scfg: SchemeConfig):
    e1, e2, e_total = energies(system, pair.u_star, pair.v_star)
    space = system.space
    solution = {
        "space_id": space.space_id,
        "label": system.label,
        "dim": space.dim,
        "converged": pair.converged,
        "stages": pair.stages,
        "residuals": list(pair.residuals),
        "final_tol": scfg.final_tol,
        "norm_u": norm_a(pair.u_star, space),
        "norm_v": norm_a(pair.v_star, space),
        "energies": {"E1": e1, "E2": e2, "E": e_total},
        "u": pair.u_star.coeffs,
        "v": pair.v_star.coeffs,
    }
    report = {
        "label": system.label,
        "converged": pair.converged,
        "stages": pair.stages,
        "residuals": list(pair.residuals),
        "monotony": system.monotony.entries,
        "certificate": _certificate_payload(
            is_convergent_to_zero(system.monotony)),
        "mu": _system_mu(system),
    }
    if trace.iterates_u is not None and len(trace.rows) >= 2:
        con = contraction_certificate(trace, system.monotony, p=1)
        report["contraction"] = {
            "p": con.p,
            "n_checks": con.n_checks,
            "full_ok": con.full_ok,
            "m11_only_ok": con.m11_only_ok,
            "max_margin_full": con.max_margin_full,
            "max_margin_m11_only": con.max_margin_m11_only,
            "passed": con.passed,
        }
    if pair.converged:
        nash = nash_check(system, pair, seed=scfg.seed)
        report["nash"] = {
            "n_samples": nash.n_samples,
            "radius": nash.radius,
            "curvature": nash.curvature,
            "min_e1_margin": nash.min_e1_margin,
            "max_e2_margin": nash.max_e2_margin,
            "ok": nash.ok,
        }
    return solution, report


def cmd_solve(args) -> int:
    cfg, raw = load_config(args.config)
    system = build_problem(cfg)
    scfg = scheme_config_from(cfg, args.seed, args.override_hypotheses)
    outcome = _run_scheme(system, scfg)
    if isinstance(outcome, int):
        return outcome
    pair, trace = outcome
    solution, report = _solve_payloads(system, pair, trace, scfg)
    out = _prepare_out(args)
    _write_csv(out / "trace.csv", trace.csv_rows())
    _write_json(out / "solution.json", solution)
    _write_json(out / "report.json", report)
    _write_manifest(out, "solve", raw, args.config, scfg.seed,
                    ["trace.csv", "solution.json", "report.json"])
    state = "converged" if pair.converged else "exhausted"
    print(f"solve: {state} after {pair.stages} stages "
          f"(residuals {pair.residuals[0]:.3e}, {pair.residuals[1]:.3e})")
    return 0 if pair.converged else 3


def cmd_compare(args) -> int:
    cfg, raw = load_config(args.config)
    system = build_problem(cfg)
    scfg = scheme_config_from(cfg, args.seed, args.override_hypotheses)
    od = dict(cfg.get("oracle") or {})
    _require_keys(od, {"tol", "max_iters", "jacobian_free"}, (), "oracle")
    tol_newton = _as_number(od.get("tol", 1e-8), "oracle.tol")
    max_iters = _as_int(od.get("max_iters", 50), "oracle.max_iters")
    jacobian_free = od.get("jacobian_free")
    if jacobian_free is not None:
        jacobian_free = _as_bool(jacobian_free, "oracle.jacobian_free")

    outcome = _run_scheme(system, scfg)
    if isinstance(outcome, int):
        return outcome
    pair, _ = outcome
    try:
        orc = newton_full(system, tol=tol_newton, max_iters=max_iters,
                          jacobian_free=jacobian_free)
    except ConvergenceError as exc:
        print(f"oracle failed: {exc}", file=_sys.stderr)
        return 4

    space = system.space
    du = norm_a(pair.u_star - orc.u_star, space)
    dv = norm_a(pair.v_star - orc.v_star, space)
    diff = math.hypot(du, dv)
    bound = 10.0 * (scfg.final_tol + tol_newton)
    agree = bool(diff <= bound and pair.converged and orc.converged)

    payload = {
        "label": system.label,
        "agree": agree,
        "difference": diff,
        "bound": bound,
        "scheme": {
            "converged": pair.converged,
            "stages": pair.stages,
            "residuals": list(pair.residuals),
            "final_tol": scfg.final_tol,
        },
        "newton": {
            "converged": orc.converged,
            "iterations": orc.iterations,
            "residual_norm": orc.residual_norm,
            "tol": tol_newton,
        },
    }
    out = _prepare_out(args)
    _write_json(out / "compare.json", payload)
    _write_manifest(out, "compare", raw, args.config, scfg.seed,
                    ["compare.json"])
    verdict = "agree" if agree else "disagree"
    print(f"compare: {verdict} (difference {diff:.3e}, bound {bound:.3e})")
    return 0 if agree else 1


def cmd_lemma(args) -> int:
    cfg, raw = load_config(args.config)
    p = cfg.get("problem")
    if not isinstance(p, dict) or p.get("kind") != "matrix":
        raise ConfigError("lemma needs a problem of kind \"matrix\"")
    _require_keys(p, {"kind", "entries"}, {"kind", "entries"}, "problem")
    entries = p["entries"]
    if (not isinstance(entries, list)
            or any(not isinstance(row, list) for row in entries)):
        raise ConfigError("problem.entries must be a list of rows")
    try:
        matrix = MonotonyMatrix(np.array(
            [[_as_number(v, "problem.entries") for v in row]
             for row in entries], dtype=float))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"problem.entries: {exc}") from exc

    cert = is_convergent_to_zero(matrix)
    payload = {
        "entries": matrix.entries,
        "certificate": _certificate_payload(cert),
    }
    if cert.convergent:
        payload["neumann_inverse"] = neumann_inverse(matrix)
        # synthetic trajectory x_k = M x_{k-1} + y_k with summable forcing
        n = matrix.n
        steps = 60
        xs = np.empty((steps + 1, n))
        ys = np.zeros((steps + 1, n))
        xs[0] = 1.0
        for k in range(1, steps + 1):
            ys[k] = 1.0 / (k + 1) ** 2
            xs[k] = matrix.entries @ xs[k - 1] + ys[k]
        demo = verify_dominance(xs, ys, matrix, slack=1e-15,
                                tail_threshold=1e-2)
        payload["dominance_demo"] = {
            "steps": steps,
            "dominance_ok": demo.dominance_ok,
            "max_violation": demo.max_violation,
            "tail_sup": demo.tail_sup,
            "tail_ok": demo.tail_ok,
        }
    out = _prepare_out(args)
    _write_json(out / "lemma.json", payload)
    _write_manifest(out, "lemma", raw, args.config, None, ["lemma.json"])
    verdict = "convergent" if cert.convergent else "not convergent"
    print(f"lemma: {verdict} (radius {cert.spectral_radius:.6g})")
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partialcrit",
        description="alternating minimization/maximization solver for "
                    "coupled variational systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "check": "verify the structural hypotheses by sampling",
        "solve": "run the alternating scheme",
        "compare": "cross-check the scheme against the Newton oracle",
        "lemma": "certify a coupling matrix and demo the dominance lemma",
    }
    for name, help_text in specs.items():
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", required=True,
                       help="path to the JSON configuration")
        q.add_argument("--out", default=".",
                       help="output directory (created if missing)")
        q.add_argument("--seed", type=int, default=None,
                       help="override the configured seed")
        q.add_argument("--override-hypotheses", action="store_true",
                       help="demote failed solvability gates to warnings")
    return parser


_DISPATCH = {
    "check": cmd_check,
    "solve": cmd_solve,
    "compare": cmd_compare,
    "lemma": cmd_lemma,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2


def entry() -> None:
    _sys.exit(main())


if __name__ == "__main__":
    entry()
