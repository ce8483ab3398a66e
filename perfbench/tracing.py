"""Spans and counters around partialcrit's public functions, from outside.

`instrument` replaces every name binding of the traced functions in the
loaded ``partialcrit`` modules (``problems`` imports ``solve_a`` by name,
``cli`` imports its callees by name, the package re-exports them all) with
a wrapper that records a span: name, start, end, parent span and instance
id. The coupling closures ``eval_N``, ``eval_Nu`` and ``eval_Nv`` are
wrapped by swapping them into the built `CoupledSystem` with
`dataclasses.replace`. `SpdOperator.apply` only bumps a matvec counter on
the innermost open span. Spans stay in memory; `write_spans` writes them
once, and `layer_metrics` reduces them to the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from partialcrit import (cli, hypotheses, oracle, problems, scheme, spaces,
                         zeromatrix)

# span record fields
NAME, START, END, PARENT, INSTANCE, MATVECS, EXTRA = range(7)


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance = -1
        self.orphan_matvecs = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.instance, 0, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def note(self, idx: int, **counts) -> None:
        extra = self.spans[idx][EXTRA]
        if extra is None:
            extra = self.spans[idx][EXTRA] = {}
        for key, value in counts.items():
            extra[key] = extra.get(key, 0) + value

    def matvec(self) -> None:
        if self.stack:
            self.spans[self.stack[-1]][MATVECS] += 1
        else:
            self.orphan_matvecs += 1


def _wrap(tracer: Tracer, name: str, fn, pre=None, post=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            if pre is not None:
                tracer.note(idx, **pre(*args, **kwargs))
            result = fn(*args, **kwargs)
            if post is not None:
                result = post(tracer, idx, result)
            return result
        finally:
            tracer.close(idx)
    return traced


def _scheme_counts(tracer, idx, result):
    pair, trace = result
    tracer.note(idx, stages=pair.stages,
                inner_iters=sum(r.inner_iters_u + r.inner_iters_v
                                for r in trace.rows))
    return result


def _newton_counts(tracer, idx, result):
    tracer.note(idx, newton_iters=result.iterations)
    return result


def _wrap_closures(tracer, idx, system):
    return dataclasses.replace(
        system,
        eval_N=_wrap(tracer, "problems.eval_N", system.eval_N),
        eval_Nu=_wrap(tracer, "problems.eval_Nu", system.eval_Nu),
        eval_Nv=_wrap(tracer, "problems.eval_Nv", system.eval_Nv),
    )


WRITERS = ("cli._write_json", "cli._write_csv", "cli._write_manifest",
           "cli.dumps_stable")

# (module, function, span name, pre-hook, post-hook)
TARGETS = [
    (spaces, "make_space", "spaces.make_space", None, None),
    (spaces, "validate_space", "spaces.validate_space", None, None),
    (spaces, "embedding_constant", "spaces.embedding_constant", None, None),
    (spaces, "dominant_inverse_eig", "spaces.dominant_inverse_eig", None, None),
    (spaces, "solve_a", "spaces.solve_a", None, None),
    (spaces, "riesz_lift", "spaces.riesz_lift", None, None),
    (spaces, "norm_a", "spaces.norm_a", None, None),
    (problems, "build_dirichlet", "problems.build", None, _wrap_closures),
    (problems, "build_stokes", "problems.build", None, _wrap_closures),
    (problems, "build_scalar", "problems.build", None, _wrap_closures),
    (scheme, "run_scheme", "scheme.run_scheme", None, _scheme_counts),
    (scheme, "contraction_certificate", "scheme.contraction_certificate",
     None, None),
    (scheme, "nash_check", "scheme.nash_check", None, None),
    (zeromatrix, "spectral_radius", "zeromatrix.spectral_radius", None, None),
    (zeromatrix, "is_convergent_to_zero", "zeromatrix.is_convergent_to_zero",
     None, None),
    (zeromatrix, "neumann_inverse", "zeromatrix.neumann_inverse", None, None),
    (zeromatrix, "verify_dominance", "zeromatrix.verify_dominance",
     lambda x_seq, *a, **k: {"steps": len(x_seq) - 1}, None),
    (hypotheses, "check_growth", "hypotheses.check_growth", None, None),
    (hypotheses, "estimate_monotony", "hypotheses.estimate_monotony",
     None, None),
    (hypotheses, "check_mountain_pass_ring",
     "hypotheses.check_mountain_pass_ring",
     lambda system, tau, sampler: {"samples": sampler.n_points}, None),
    (hypotheses, "ps_beta", "hypotheses.ps_beta", None, None),
    (hypotheses, "full_report", "hypotheses.full_report", None, None),
    (oracle, "newton_full", "oracle.newton_full", None, _newton_counts),
    (cli, "main", "cli.main", None, None),
    (cli, "dumps_stable", "cli.dumps_stable", None, None),
    (cli, "_write_json", "cli._write_json", None, None),
    (cli, "_write_csv", "cli._write_csv", None, None),
    (cli, "_write_manifest", "cli._write_manifest", None, None),
]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "partialcrit"
                                  or name.startswith("partialcrit."))]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers on every binding; restore them on exit."""
    undo = []
    modules = _package_modules()
    for module, fname, span, pre, post in TARGETS:
        original = getattr(module, fname)
        wrapped = _wrap(tracer, span, original, pre, post)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    undo.append((mod, attr, original))
    original_apply = spaces.SpdOperator.apply

    def apply(self, x):
        tracer.matvec()
        return original_apply(self, x)

    spaces.SpdOperator.apply = apply
    try:
        yield tracer
    finally:
        spaces.SpdOperator.apply = original_apply
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["id", "name", "start_s", "end_s", "parent", "instance",
                      "matvecs"])
        t0 = tracer.spans[0][START] if tracer.spans else 0.0
        for i, s in enumerate(tracer.spans):
            out.writerow([i, s[NAME], f"{s[START] - t0:.9f}",
                          f"{s[END] - t0:.9f}", s[PARENT], s[INSTANCE],
                          s[MATVECS]])


def _ancestor(spans, idx: int, names) -> int:
    parent = spans[idx][PARENT]
    while parent >= 0 and spans[parent][NAME] not in names:
        parent = spans[parent][PARENT]
    return parent


def tail(samples: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    label, value = "max", ordered[-1]
    for p in (50.0, 90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0:
            label = f"p{p:g}"
            value = ordered[min(n - 1, int(n * p / 100.0))]
    return label, value


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    durations = defaultdict(list)
    matvecs = defaultdict(int)
    extra = defaultdict(int)
    per_scheme = defaultdict(lambda: defaultdict(int))
    for i, s in enumerate(spans):
        name = s[NAME]
        duration = s[END] - s[START]
        calls[name] += 1
        self_s[name] += duration - child[i]
        durations[name].append(duration)
        matvecs[name] += s[MATVECS]
        if s[EXTRA]:
            for key, value in s[EXTRA].items():
                extra[f"{name}.{key}"] += value
                if name == "scheme.run_scheme":
                    per_scheme[i][key] += value
        if name == "problems.eval_N":
            owner = _ancestor(spans, i, ("scheme.run_scheme",))
            if owner >= 0:
                per_scheme[owner]["eval_N"] += 1

    # Each inner solve evaluates N once at its start and once per line
    # search trial; each stage adds one more in `energies`. So per
    # run_scheme: eval_N = 3 * stages + accepted steps + backtracks.
    backtracks = sum(c["eval_N"] - 3 * c["stages"] - c["inner_iters"]
                     for c in per_scheme.values())
    inner = extra["scheme.run_scheme.inner_iters"]
    resid_evals = sum(
        1 for i, s in enumerate(spans)
        if s[NAME] == "problems.eval_Nu"
        and _ancestor(spans, i, ("oracle.newton_full",)) >= 0)
    # outermost writer spans only: _write_manifest calls _write_json
    writes = sum(s[END] - s[START] for i, s in enumerate(spans)
                 if s[NAME] in WRITERS and _ancestor(spans, i, WRITERS) < 0)
    solve_calls = calls["spaces.solve_a"]
    call_us = [d * 1e6 for d in durations["spaces.solve_a"]] or [0.0]
    m = {
        "spaces.solve_a.calls": solve_calls,
        "spaces.solve_a.self_s": self_s["spaces.solve_a"],
        "spaces.solve_a.call_us": statistics.median(call_us),
        "spaces.solve_a.call_us_tail": tail(call_us)[1],
        "spaces.matvecs": sum(matvecs.values()) + tracer.orphan_matvecs,
        "spaces.matvecs_per_solve": (matvecs["spaces.solve_a"] / solve_calls
                                     if solve_calls else 0.0),
        "spaces.riesz_lift.calls": calls["spaces.riesz_lift"],
        "spaces.norm_a.calls": calls["spaces.norm_a"],
        "spaces.norm_a.self_s": self_s["spaces.norm_a"],
        "spaces.embedding_constant.self_s":
            self_s["spaces.embedding_constant"],
        "spaces.dominant_inverse_eig.self_s":
            self_s["spaces.dominant_inverse_eig"],
        "spaces.make_space.self_s": self_s["spaces.make_space"],
        "spaces.validate_space.self_s": self_s["spaces.validate_space"],
        "problems.build.self_s": self_s["problems.build"],
        "scheme.stages": extra["scheme.run_scheme.stages"],
        "scheme.inner_iters": inner,
        "scheme.backtracks": backtracks,
        "scheme.accept_ratio": (inner / (inner + backtracks)
                                if inner + backtracks else 0.0),
        "scheme.run_scheme.self_s": self_s["scheme.run_scheme"],
        "scheme.contraction_certificate.self_s":
            self_s["scheme.contraction_certificate"],
        "scheme.nash_check.self_s": self_s["scheme.nash_check"],
        "zeromatrix.neumann_inverse.self_s":
            self_s["zeromatrix.neumann_inverse"],
        "zeromatrix.verify_dominance.self_s":
            self_s["zeromatrix.verify_dominance"],
        "zeromatrix.verify_dominance.steps":
            extra["zeromatrix.verify_dominance.steps"],
        "zeromatrix.is_convergent_to_zero.self_s":
            self_s["zeromatrix.is_convergent_to_zero"],
        "zeromatrix.spectral_radius.self_s":
            self_s["zeromatrix.spectral_radius"],
        "hypotheses.estimate_monotony.self_s":
            self_s["hypotheses.estimate_monotony"],
        "hypotheses.check_growth.self_s": self_s["hypotheses.check_growth"],
        "hypotheses.check_mountain_pass_ring.self_s":
            self_s["hypotheses.check_mountain_pass_ring"],
        "hypotheses.check_mountain_pass_ring.samples":
            extra["hypotheses.check_mountain_pass_ring.samples"],
        "hypotheses.full_report.self_s": self_s["hypotheses.full_report"],
        "oracle.newton_full.self_s": self_s["oracle.newton_full"],
        "oracle.newton_iters": extra["oracle.newton_full.newton_iters"],
        "oracle.resid_evals": resid_evals,
        "cli.main.self_s": self_s["cli.main"],
        "cli.write_s": writes,
    }
    for side in ("eval_N", "eval_Nu", "eval_Nv"):
        m[f"problems.{side}.calls"] = calls[f"problems.{side}"]
        m[f"problems.{side}.self_s"] = self_s[f"problems.{side}"]
    return m


_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def parse_importtime(stderr: str) -> dict[str, float]:
    """`cli.import.*` metrics from ``python -X importtime`` output."""
    self_us: dict[str, int] = {}
    cumulative_us: dict[str, int] = {}
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            module = match.group(3)
            self_us[module] = int(match.group(1))
            cumulative_us[module] = int(match.group(2))
    own = sum(us for mod, us in self_us.items()
              if mod == "partialcrit" or mod.startswith("partialcrit."))
    return {
        "cli.import.scipy.sparse.linalg_s":
            cumulative_us.get("scipy.sparse.linalg", 0) / 1e6,
        "cli.import.scipy.optimize_s":
            cumulative_us.get("scipy.optimize", 0) / 1e6,
        "cli.import.partialcrit_self_s": own / 1e6,
    }


def import_breakdown(env: dict, cwd: Path, repeats: int = 3
                     ) -> dict[str, float]:
    """Median of `parse_importtime` over fresh interpreters."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import partialcrit"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
            check=True)
        runs.append(parse_importtime(proc.stderr))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}
