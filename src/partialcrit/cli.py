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

Exit codes: 0 success, 1 negative verdict (not ready, not convergent,
refused, or disagreement), 2 bad input, including values whose operator or
certificate leaves the float range, 3 outer iteration budget exhausted,
4 inner solver or oracle failure. A failed internal cross-check
(``IntegrityError``) means a bug: it ends in a traceback and exit 1.

All floats are written with repr-faithful precision and the manifest is
the only file carrying timestamps, so reruns with the same config are
byte-identical on the data files.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys as _sys
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceError, HypothesisError, SchemeStageError
from .zeromatrix import (MonotonyMatrix, is_convergent_to_zero,
                         neumann_inverse, verify_dominance)

if TYPE_CHECKING:
    from .problems import NonlinearitySpec
    from .scheme import CoupledSystem, SchemeConfig

__all__ = ["main", "entry"]

# `lemma`, `--help` and a config file that fails to load need none of the
# scipy-backed modules, so `main` reads the config first and `cli` imports
# none of them at its top. Every package export, `__version__` included,
# is an attribute of `cli` all the same: `__getattr__` looks each up
# through the lazy package on every access, and the commands read them as
# ``_cli.<name>``, so a global set in ``vars(cli)`` and a binding swapped
# in the home module both take effect. Reading `__version__` imports
# `importlib.metadata`, which only a written manifest needs.
_FORWARDED = frozenset(_sys.modules[__package__].__all__)
_cli = _sys.modules[__name__]


def __getattr__(name: str):
    if name in _FORWARDED:
        return getattr(_sys.modules[__package__], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        "package_version": _cli.__version__,
        "config_path": config_path,
        "config_sha256": hashlib.sha256(config_raw).hexdigest(),
        "seed": seed,
        "out_files": hashes,
    }
    _write_json(out / "manifest.json", manifest)


# ------------------------------------------------------------- config load
#
# Each section is read by `_fields` against a table of rows
# ``key -> (coercion, required)``. Only the keys present are passed on, so
# an absent key keeps the default of the library call that receives them.
# A coercion checks JSON types and structure; that call checks the ranges.

def _number(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where} must be a number")
    # json reads NaN and +-Infinity as floats, and integers of any size
    if not abs(v) <= _sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number")
    return float(v)


def _int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where} must be an integer")
    return v


def _bool(v, where: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{where} must be a boolean")
    return v


def _as_given(v, where: str):
    """A kind or a section, which its own reader checks."""
    return v


def _sides(v, where: str):
    """One number for every side or a list; the spec checks count and range."""
    if isinstance(v, list):
        return tuple(_number(e, where) for e in v)
    return _number(v, where)


def _growth(v, where: str) -> tuple[float, float, float] | None:
    if v is None:
        return None
    if not isinstance(v, list) or len(v) != 3:
        raise ConfigError(f"{where} must be three numbers")
    return tuple(_number(e, where) for e in v)


def _taus(v, where: str) -> list[float]:
    """A nonempty list of ring levels; the ring scan checks their range."""
    if v is None:
        return []
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where} must be a nonempty list")
    return [_number(t, where) for t in v]


def _entries(v, where: str) -> list[list[float]]:
    if not isinstance(v, list) or any(not isinstance(row, list) for row in v):
        raise ConfigError(f"{where} must be a list of rows")
    return [[_number(e, where) for e in row] for row in v]


def _fields(obj, where: str, table: dict) -> dict:
    """Check section `obj` against `table`; return its coerced keys.

    ``null`` is an absent section. Unknown keys are reported before
    missing ones.
    """
    if obj is None:
        obj = {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(obj) - set(table))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = sorted(key for key, (_, required) in table.items()
                     if required and key not in obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    return {key: coerce(obj[key], f"{where}.{key}")
            for key, (coerce, _) in table.items() if key in obj}


def _call(where: str, fn, *args, **kwargs):
    """Call `fn`, the one way a command calls the library.

    A ValueError it raises is a config error at `where`; each distinct
    warning it raises prints once as a ``warning: <where>: <msg>`` line.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # record them under -W error too
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {where}: {message}", file=_sys.stderr)


_KIND = (_as_given, True)

_NONLINEARITIES = {
    "zero": {"kind": _KIND},
    "quadratic": {"kind": _KIND, "a": (_number, False), "b": (_number, False),
                  "c": (_number, False), "g": (_number, False)},
    "sincos": {"kind": _KIND, "epsilon": (_number, True)},
}


def _nonlinearity(v, where: str) -> NonlinearitySpec:
    if not isinstance(v, dict):
        raise ConfigError(f"{where} must be an object")
    kind = v.get("kind")
    table = _NONLINEARITIES.get(kind) if isinstance(kind, str) else None
    if table is None:
        raise ConfigError(f"{where}: unknown nonlinearity kind {kind!r}")
    return _call(where, _cli.NonlinearitySpec, **_fields(v, where, table))


_NONLINEARITY = (_nonlinearity, True)
_LENGTHS = (_sides, True)

# kind -> (table, builder); the builders look their names up at call time,
# so a wrapper bound over a module name sees every build
_PROBLEMS = {
    "dirichlet": ({"kind": _KIND, "dims": (_int, True),
                   "n_per_dim": (_int, True), "lengths": _LENGTHS,
                   "potential_c": (_number, False),
                   "nonlinearity": _NONLINEARITY},
                  lambda **kw: _cli.build_dirichlet(_cli.DirichletSpec(**kw))),
    "stokes": ({"kind": _KIND, "n_per_dim": (_int, True), "lengths": _LENGTHS,
                "mu_coeff": (_number, True), "nonlinearity": _NONLINEARITY},
               lambda **kw: _cli.build_stokes(_cli.StokesSpec(**kw))),
    "scalar": ({"kind": _KIND, "a_value": (_number, True),
                "nonlinearity": _NONLINEARITY},
               lambda **kw: _cli.build_scalar(**kw)),
}

_MATRIX = {"kind": _KIND, "entries": (_entries, True)}

_SCHEME = {"max_outer": (_int, False), "final_tol": (_number, False),
           "seed": (_int, False), "random_init": (_bool, False),
           "override_hypotheses": (_bool, False)}

_SAMPLER = {"n_points": (_int, False), "box_radius": (_number, False),
            "seed": (_int, False)}

_CHECK = {"sampler": (lambda v, where: _fields(v, where, _SAMPLER), False),
          "declared_growth": (_growth, False),
          "ring_taus": (_taus, False)}

_ORACLE = {"tol": (_number, False),
           "jacobian_free": (lambda v, where: None if v is None
                             else _bool(v, where), False)}

# each command reads the sections it uses
_CONFIG = {"problem": (_as_given, True), "scheme": (_as_given, False),
           "check": (_as_given, False), "oracle": (_as_given, False)}


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
    _fields(cfg, "config", _CONFIG)
    return cfg, raw


def build_problem(cfg: dict) -> CoupledSystem:
    p = cfg.get("problem")
    if not isinstance(p, dict):
        raise ConfigError("config.problem must be an object")
    kind = p.get("kind")
    entry = _PROBLEMS.get(kind) if isinstance(kind, str) else None
    if kind == "matrix":
        raise ConfigError("matrix configs only apply to the lemma command")
    if entry is None:
        raise ConfigError(f"problem: unknown kind {kind!r}")
    table, build = entry
    kw = _fields(p, "problem", table)
    del kw["kind"]
    return _call("problem", build, **kw)


def scheme_config_from(cfg: dict, seed_override: int | None) -> SchemeConfig:
    kw = _fields(cfg.get("scheme"), "scheme", _SCHEME)
    if seed_override is not None:
        kw["seed"] = seed_override
    return _call("scheme", _cli.SchemeConfig, **kw)


# ------------------------------------------------------------ serializers

def _payload(report, verdict: str | None = None) -> dict:
    """A report's JSON section: its fields in declaration order, then the
    `verdict` property when one is named."""
    out = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    if verdict is not None:
        out[verdict] = getattr(report, verdict)
    return out


def _system_mu(system: CoupledSystem) -> float | None:
    g = system.growth
    return None if g is None else _cli.mu_of(g.alpha_upper, g.alpha_lower)


def _emit(args, raw: bytes, seed, files: dict) -> None:
    """Write each ``name -> payload`` of `files` into ``args.out`` (CSV rows
    for a ``.csv`` name, JSON otherwise), then the manifest naming them.

    The writers are looked up at call time, so a wrapper bound over a module
    name sees every write. An `--out` that cannot be written is bad input.
    """
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, payload in files.items():
            write = _write_csv if name.endswith(".csv") else _write_json
            write(out / name, payload)
        _write_manifest(out, args.command, raw, args.config, seed, list(files))
    except OSError as exc:
        raise ConfigError(f"cannot write to {args.out}: {exc}") from exc


# -------------------------------------------------------------- commands

def cmd_check(args, cfg: dict, raw: bytes) -> int:
    system = build_problem(cfg)
    chk = _fields(cfg.get("check"), "check", _CHECK)
    sampler_kw = chk.get("sampler", {})
    if args.seed is not None:
        sampler_kw["seed"] = args.seed
    sampler = _call("check.sampler", _cli.SamplerSpec, **sampler_kw)
    declared = chk.get("declared_growth")
    if declared is None:
        if system.pointwise is None or system.pointwise.growth is None:
            raise ConfigError("no growth constants declared and none built in")
        declared = system.pointwise.growth

    report = _call("check", _cli.full_report, system, declared, sampler)

    margins = None
    if report.certificate.rho_ok:
        margins = _payload(_call("check", _cli.ps_beta,
                                 report.monotony_estimate))

    payload = {
        "label": system.label,
        "ready": report.ready,
        "growth": _payload(report.growth),
        "monotony_estimate": report.monotony_estimate.entries,
        "monotony_declared": system.monotony.entries,
        "certificate": _payload(report.certificate, "convergent"),
        "mu": report.mu,
        "ps_beta": margins,
        "ring": [_payload(_call("check", _cli.check_mountain_pass_ring, system,
                                tau, sampler), "fraction_violated")
                 for tau in chk.get("ring_taus", [])],
        "notes": list(report.notes),
    }
    _emit(args, raw, sampler.seed, {"report.json": payload})
    status = "ready" if report.ready else "not ready"
    print(f"check: {status} (mu={report.mu}, "
          f"radius={report.certificate.spectral_radius:.6g})")
    return 0 if report.ready else 1


def _solve_payloads(system: CoupledSystem, pair, trace, scfg: SchemeConfig):
    # the last trace row holds the norms and energies of the final pair
    last = trace.rows[-1]
    space = system.space
    solution = {
        "space_id": space.space_id,
        "label": system.label,
        "dim": space.dim,
        "converged": pair.converged,
        "stages": pair.stages,
        "residuals": list(pair.residuals),
        "final_tol": scfg.final_tol,
        "norm_u": last.norm_u,
        "norm_v": last.norm_v,
        "energies": {"E1": last.e1, "E2": last.e2, "E": last.e_total},
        "u": pair.u_star.coeffs,
        "v": pair.v_star.coeffs,
    }
    report = {
        "label": system.label,
        "converged": pair.converged,
        "stages": pair.stages,
        "residuals": list(pair.residuals),
        "monotony": system.monotony.entries,
        "certificate": _payload(is_convergent_to_zero(system.monotony),
                                "convergent"),
        "mu": _system_mu(system),
    }
    if len(trace.rows) >= 2:
        report["contraction"] = _payload(
            _cli.contraction_certificate(trace, system.monotony, p=1))
    if pair.converged:
        report["nash"] = _payload(
            _cli.nash_check(system, pair, seed=scfg.seed), "ok")
    return solution, report


def cmd_solve(args, cfg: dict, raw: bytes) -> int:
    system = build_problem(cfg)
    scfg = scheme_config_from(cfg, args.seed)
    pair, trace = _call("scheme", _cli.run_scheme, system, scfg)
    solution, report = _call("scheme", _solve_payloads, system, pair, trace,
                             scfg)
    _emit(args, raw, scfg.seed, {"trace.csv": trace.csv_rows(),
                                 "solution.json": solution,
                                 "report.json": report})
    state = "converged" if pair.converged else "exhausted"
    print(f"solve: {state} after {pair.stages} stages "
          f"(residuals {pair.residuals[0]:.3e}, {pair.residuals[1]:.3e})")
    return 0 if pair.converged else 3


def cmd_compare(args, cfg: dict, raw: bytes) -> int:
    system = build_problem(cfg)
    scfg = scheme_config_from(cfg, args.seed)
    oracle_kw = _fields(cfg.get("oracle"), "oracle", _ORACLE)

    pair, _ = _call("scheme", _cli.run_scheme, system, scfg)
    try:
        orc = _call("oracle", _cli.newton_full, system, **oracle_kw)
    except ConvergenceError as exc:
        print(f"oracle failed: {exc}", file=_sys.stderr)
        return 4

    space = system.space
    diff = _call("oracle", lambda: math.hypot(
        _cli.norm_a(pair.u_star - orc.u_star, space),
        _cli.norm_a(pair.v_star - orc.v_star, space)))
    bound = 10.0 * (scfg.final_tol + orc.tol)
    # newton_full either converges or raises, which returned 4 above
    agree = bool(diff <= bound and pair.converged)

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
            "tol": orc.tol,
        },
    }
    _emit(args, raw, scfg.seed, {"compare.json": payload})
    verdict = "agree" if agree else "disagree"
    print(f"compare: {verdict} (difference {diff:.3e}, bound {bound:.3e})")
    return 0 if agree else 1


def _dominance_demo(matrix: MonotonyMatrix) -> dict:
    """Run a synthetic trajectory ``x_k = M x_{k-1} + y_k`` with summable
    forcing through the componentwise dominance check."""
    n = matrix.n
    steps = 60
    xs = np.empty((steps + 1, n))
    ys = np.zeros((steps + 1, n))
    xs[0] = 1.0
    for k in range(1, steps + 1):
        ys[k] = 1.0 / (k + 1) ** 2
        xs[k] = matrix.entries @ xs[k - 1] + ys[k]
    demo = verify_dominance(xs, ys, matrix, slack=1e-15, tail_threshold=1e-2)
    return {
        "steps": steps,
        "dominance_ok": demo.dominance_ok,
        "max_violation": demo.max_violation,
        "tail_sup": demo.tail_sup,
        "tail_ok": demo.tail_ok,
    }


def cmd_lemma(args, cfg: dict, raw: bytes) -> int:
    p = cfg.get("problem")
    if not isinstance(p, dict) or p.get("kind") != "matrix":
        raise ConfigError("lemma needs a problem of kind \"matrix\"")
    entries = _fields(p, "problem", _MATRIX)["entries"]
    matrix = _call("problem.entries", MonotonyMatrix, entries)

    cert = _call("problem.entries", is_convergent_to_zero, matrix)
    payload = {
        "entries": matrix.entries,
        "certificate": _payload(cert, "convergent"),
    }
    if cert.convergent:
        payload["neumann_inverse"] = _call("problem.entries", neumann_inverse,
                                           matrix)
        payload["dominance_demo"] = _call("problem.entries", _dominance_demo,
                                          matrix)
    _emit(args, raw, None, {"lemma.json": payload})
    verdict = "convergent" if cert.convergent else "not convergent"
    print(f"lemma: {verdict} (radius {cert.spectral_radius:.6g})")
    return 0 if cert.convergent else 1


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partialcrit",
        description="alternating minimization/maximization solver for "
                    "coupled variational systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "check": (cmd_check, "verify the structural hypotheses by sampling"),
        "solve": (cmd_solve, "run the alternating scheme"),
        "compare": (cmd_compare,
                    "cross-check the scheme against the Newton oracle"),
        "lemma": (cmd_lemma,
                  "certify a coupling matrix and demo the dominance lemma"),
    }
    for name, (run, help_text) in specs.items():
        q = sub.add_parser(name, help=help_text)
        q.set_defaults(run=run)
        q.add_argument("--config", required=True,
                       help="path to the JSON configuration")
        q.add_argument("--out", default=".",
                       help="output directory (created if missing)")
        if name != "lemma":
            q.add_argument("--seed", type=int, default=None,
                           help="override the configured seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, *load_config(args.config))
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except HypothesisError as exc:
        print(f"refused: {exc}", file=_sys.stderr)
        return 1
    except SchemeStageError as exc:
        # the exception text names the stage and the side
        print(f"inner solver failed at {exc}", file=_sys.stderr)
        return 4


def entry() -> None:
    _sys.exit(main())


if __name__ == "__main__":
    entry()
