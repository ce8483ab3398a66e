"""Seeded workloads of the partialcrit benchmark and the gate on every op.

A workload is an endless stream of *cycles*; cycle ``c`` of workload ``w``
is generated from ``numpy.random.default_rng([seed, c])`` alone, so the
same seed always yields the same ops in the same order. An op is one of

* ``system``  one user session on a generated system, in process:
              build (``setup``), hypothesis check (``check``), the
              alternating solve (``solve``), its certificates
              (``certify``), the Newton oracle plus agreement
              (``compare``) and the coupling-matrix lemma (``lemma``);
              a workload switches the phases it does not need off;
* ``matrix``  the lemma on a seeded nonnegative matrix of known radius;
* ``cli``     one ``python -m partialcrit.cli`` subprocess, followed by
              an in-process ``cli.main`` rerun whose data files must be
              byte-identical;
* ``import``  ``import partialcrit`` in a fresh interpreter.

Every phase is timed separately. A phase that raises or returns a result
that fails its gate makes the op count as failed; the gate failures (a
wrong result, as opposed to an exception) also clear ``correct``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from partialcrit import (cli, hypotheses, oracle, problems, scheme, spaces,
                         zeromatrix)

# phase name -> end-to-end metric name
PHASE_METRICS = {
    "setup": "setup_s",
    "check": "check_s",
    "solve": "solve_s",
    "certify": "certify_s",
    "compare": "compare_s",
    "lemma": "lemma_s",
    "cli": "cli_s",
    "import": "import_s",
}

FINAL_TOL = 1e-8
# trajectory length of every lemma: long enough that `verify_dominance`
# (about 70 ms) outweighs timer and scheduler jitter
LEMMA_STEPS = 4096
ORACLE_TOL = 1e-8
SUBPROCESS_TIMEOUT_S = 150


class GateError(AssertionError):
    """A program output failed the benchmark's correctness gate."""


def _gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


@dataclass(frozen=True)
class Op:
    kind: str          # "system", "matrix", "cli" or "import"
    label: str
    params: dict = field(default_factory=dict)


# ------------------------------------------------------------ generation

def _interleave(*groups: list) -> list:
    """Merge groups so each one is spread evenly over the result.

    The host's speed changes over seconds; spreading every kind of op over
    the cycle makes each metric's samples see the same mix of fast and
    slow spells."""
    keyed = []
    for g, items in enumerate(groups):
        for i, item in enumerate(items):
            keyed.append(((i + 0.5) / len(items), g, i, item))
    keyed.sort(key=lambda t: t[:3])
    return [t[3] for t in keyed]


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _quadratic(b: float) -> dict:
    return {"kind": "quadratic", "a": 0.0, "b": b, "c": 0.0, "g": 1.0}


def _dirichlet_cfg(dims: int, n: int, nonlinearity: dict, scheme_cfg: dict,
                   sampler: dict | None = None, taus=None,
                   declared=None) -> dict:
    cfg = {
        "problem": {"kind": "dirichlet", "dims": dims, "n_per_dim": n,
                    "lengths": [1.0] * dims, "potential_c": 0.0,
                    "nonlinearity": nonlinearity},
        "scheme": scheme_cfg,
        "oracle": {"tol": ORACLE_TOL},
    }
    return _with_check(cfg, sampler, taus, declared)


def _stokes_cfg(n: int, mu: float, eps: float, scheme_cfg: dict,
                sampler: dict | None = None, taus=None) -> dict:
    cfg = {
        "problem": {"kind": "stokes", "n_per_dim": n, "lengths": [1.0, 1.0],
                    "mu_coeff": mu,
                    "nonlinearity": {"kind": "sincos", "epsilon": eps}},
        "scheme": scheme_cfg,
        "oracle": {"tol": ORACLE_TOL, "jacobian_free": True},
    }
    return _with_check(cfg, sampler, taus, None)


def _with_check(cfg: dict, sampler, taus, declared) -> dict:
    if sampler is not None:
        chk = {"sampler": sampler, "ring_taus": list(taus)}
        if declared is not None:
            chk["declared_growth"] = list(declared)
        cfg["check"] = chk
    return cfg


def _scalar_cfg(a_value: float, b: float, scheme_cfg: dict) -> dict:
    return {
        "problem": {"kind": "scalar", "a_value": a_value,
                    "nonlinearity": _quadratic(b)},
        "scheme": scheme_cfg,
        "oracle": {"tol": ORACLE_TOL, "jacobian_free": False},
    }


def _matrix_with_radius(rng: np.random.Generator, n: int, rho: float
                        ) -> list[list[float]]:
    base = rng.uniform(0.05, 1.0, (n, n))
    scale = rho / float(np.max(np.abs(np.linalg.eigvals(base))))
    return (base * scale).tolist()


def _system(label: str, cfg: dict, *, starts: int, check: dict | None,
            lemma_steps: int | None) -> Op:
    """A session; `starts` solves from scheme seeds seed, seed+1, ..."""
    return Op("system", label, {"config": cfg, "starts": starts,
                                "check": check, "lemma_steps": lemma_steps})


def _matrix(label: str, entries, rho: float, steps: int,
            known_defect: bool = False) -> Op:
    return Op("matrix", label, {"entries": entries, "rho": rho,
                                "steps": steps, "known_defect": known_defect})


def _cli(label: str, sub: str, cfg: dict, expect: int = 0) -> Op:
    return Op("cli", label, {"sub": sub, "config": cfg, "expect": expect})


def _import(label: str) -> Op:
    return Op("import", label)


def _alternation_cycle(rng: np.random.Generator, c: int) -> list[Op]:
    # cross-coupled quadratic F = b<x,y> + sum(x) on a 63-node interval;
    # rho = emb^2 * b runs from about 0.4 (b=4) to 0.96 (b=9.5), i.e. from
    # 10 to about 190 outer stages. Eighteen b strata per cycle.
    strata = 18
    width = 5.5 / (strata - 1)
    sessions = []
    for j in range(strata):
        b = min(9.5, 4.0 + width * (j + rng.uniform(-0.1, 0.1)))
        s = _seed(rng)
        cfg = _dirichlet_cfg(
            1, 63, _quadratic(b),
            {"max_outer": 1000, "final_tol": FINAL_TOL, "seed": s,
             "random_init": True},
            sampler={"n_points": 200, "box_radius": 3.0, "seed": s},
            taus=[1.0], declared=[0.25, 0.25, 1.0])
        # growth cannot hold for a cross term: the expected verdict is
        # "not ready"
        sessions.append(_system(
            f"c{c}-alt-b{b:.3f}", cfg, starts=1,
            check={"expect_ready": False}, lemma_steps=LEMMA_STEPS))
    # the CLI solves the cheapest stratum: its time is mostly imports
    extra = []
    for k in range(4):
        cfg = _dirichlet_cfg(
            1, 63, _quadratic(4.0 + width * rng.uniform(0.0, 0.1)),
            {"max_outer": 1000, "final_tol": FINAL_TOL, "seed": _seed(rng),
             "random_init": True})
        extra += [_import(f"c{c}-import-{k}"),
                  _cli(f"c{c}-cli-solve-{k}", "solve", cfg)]
    return _interleave(sessions, extra)


def _stokes_cycle(rng: np.random.Generator, c: int) -> list[Op]:
    # stream-function Stokes, dim 1089 (n=33) and 2401 (n=49); sincos eps
    # on 18 log strata over [0.1, 10] keeps rho <= 0.37. One stratum in
    # six is at n=49, so the medians sit on n=33 and the tails on n=49.
    strata = 18
    sessions = []
    for j in range(strata):
        n = 49 if j % 6 == 2 else 33
        eps = 10.0 ** (-1.0 + 2.0 * (j + 0.5 + rng.uniform(-0.1, 0.1))
                       / strata)
        mu = 1.0 + rng.uniform(-0.1, 0.1)
        s = _seed(rng)
        cfg = _stokes_cfg(
            n, mu, eps,
            {"max_outer": 200, "final_tol": FINAL_TOL, "seed": s,
             "random_init": True},
            sampler={"n_points": 200, "box_radius": 3.0, "seed": s},
            taus=[1.0])
        sessions.append(_system(
            f"c{c}-stokes-n{n}-eps{eps:.3f}", cfg, starts=1,
            check={"expect_ready": True}, lemma_steps=LEMMA_STEPS))
    extra = []
    for k in range(3):
        cfg = _stokes_cfg(
            33, 1.0 + rng.uniform(-0.1, 0.1), 10.0 ** rng.uniform(-1.0, -0.5),
            {"max_outer": 200, "final_tol": FINAL_TOL, "seed": _seed(rng),
             "random_init": True})
        extra += [_import(f"c{c}-import-{k}"),
                  _cli(f"c{c}-cli-solve-{k}", "solve", cfg)]
    return _interleave(sessions, extra)


def _lemma_cfg(rng: np.random.Generator) -> dict:
    n = int(rng.integers(2, 5))
    rho = rng.uniform(0.4, 0.9)
    return {"problem": {"kind": "matrix",
                        "entries": _matrix_with_radius(rng, n, rho)}}


# Known defect, kept on purpose: at 1 - rho = 1e-5 the term-by-term
# Neumann series in `neumann_inverse` runs for about 1e6 terms and then
# raises a false IntegrityError, so every certify cycle opens with one
# failing op.
KNOWN_DEFECT_GAP = 1e-5


def _certify_cycle(rng: np.random.Generator, c: int) -> list[Op]:
    steps = LEMMA_STEPS
    matrices = []
    # 1 - rho on a log scale from 1 down to 1e-4, six strata per decade;
    # the 1e-5 band opens the cycle below
    for j in range(24):
        gap = 10.0 ** -((j + 0.5 + rng.uniform(-0.1, 0.1)) / 6.0)
        n = 2 + (j * 3) % 7
        matrices.append(_matrix(f"c{c}-matrix-n{n}-gap{gap:.2e}",
                                _matrix_with_radius(rng, n, 1.0 - gap),
                                1.0 - gap, steps))
    for k, n in enumerate((3, 6, 8, 2, 5, 7)):
        # divergent matrices must be refused
        rho = 1.05 + 0.95 * rng.random()
        matrices.insert(2 + 5 * k, _matrix(
            f"c{c}-matrix-n{n}-rho{rho:.3f}",
            _matrix_with_radius(rng, n, rho), rho, steps))

    # hypothesis checks: fixed kinds and sample counts, seeded eps
    checks = []
    kinds = [("d1", 63, 800, [0.5, 1.0, 2.0], (-1.0, 0.3)),
             ("d2", 15, 400, [1.0, 2.0], (-1.0, 0.6)),
             ("s17", 17, 200, [1.0], (-1.0, 1.0)),
             ("d1", 31, 400, [0.5, 2.0], (-1.0, 0.3)),
             ("d2", 11, 200, [0.5, 1.0, 2.0], (-1.0, 0.6))]
    for name, n, n_points, taus, log_eps in kinds * 6:
        s = _seed(rng)
        eps = 10.0 ** rng.uniform(*log_eps)
        sampler = {"n_points": n_points, "box_radius": 3.0, "seed": s}
        scheme_cfg = {"max_outer": 200, "final_tol": FINAL_TOL, "seed": s}
        if name == "s17":
            cfg = _stokes_cfg(n, 1.0 + rng.uniform(-0.1, 0.1), eps,
                              scheme_cfg, sampler, taus)
        else:
            cfg = _dirichlet_cfg(int(name[1]), n,
                                 {"kind": "sincos", "epsilon": eps},
                                 scheme_cfg, sampler, taus)
        checks.append(_system(f"c{c}-check-{name}-n{n}-eps{eps:.3f}", cfg,
                              starts=0, check={"expect_ready": True},
                              lemma_steps=None))

    scalars = []
    for t in range(5):
        # one unknown per side: the A-solve is a division, so this
        # exercises the scheme, certificates and oracle without A-solves;
        # rho = b / a stays near 0.6 so the samples are alike, and six
        # starts each give the solve phases thirty samples
        a_value = 1.0 + 2.0 * rng.random()
        ratio = 0.55 + 0.1 * (t + rng.uniform(0.45, 0.55)) / 5.0
        cfg = _scalar_cfg(a_value, ratio * a_value,
                          {"max_outer": 1000, "final_tol": FINAL_TOL,
                           "seed": _seed(rng), "random_init": True})
        scalars.append(_system(f"c{c}-scalar-r{ratio:.3f}", cfg, starts=6,
                               check=None, lemma_steps=steps))

    # the CLI on this workload's inputs: each call is mostly imports
    extra = []
    for k in range(5):
        sub = ("lemma", "check", "compare")[k % 3]
        if sub == "lemma":
            cfg = _lemma_cfg(rng)
        elif sub == "check":
            cfg = checks[3 + 5 * (k // 3)].params["config"]  # Dirichlet 1D
        else:
            cfg = scalars[k % 5].params["config"]
        extra += [_import(f"c{c}-import-{k}"),
                  _cli(f"c{c}-cli-{sub}-{k}", sub, cfg)]
    gap = KNOWN_DEFECT_GAP * 10.0 ** rng.uniform(-0.02, 0.02)
    band = _matrix(f"c{c}-matrix-n2-gap{gap:.2e}-band",
                   _matrix_with_radius(rng, 2, 1.0 - gap), 1.0 - gap, steps,
                   known_defect=True)
    return [band] + _interleave(matrices, checks, scalars, extra)


_CYCLES = {
    "alternation": _alternation_cycle,
    "stokes": _stokes_cycle,
    "certify": _certify_cycle,
}
WORKLOADS = tuple(_CYCLES)


def cycle(workload: str, seed: int, c: int) -> list[Op]:
    """Ops of cycle ``c``; a pure function of (workload, seed, c)."""
    rng = np.random.default_rng([seed, c])
    return _CYCLES[workload](rng, c)


# ------------------------------------------------------------ execution

@dataclass
class Piece:
    """One timed block: its wall time without the probes inside it, that
    time scaled to nominal speed, and the time the probes took."""
    wall: float = 0.0
    scaled: float = 0.0
    probe_s: float = 0.0


class SpeedProbe:
    """Times a fixed reference kernel, to follow the speed of the core.

    The benchmark's core is shared with other machines, and their load
    moves its speed by up to a fifth for spells of a fraction of a second
    to several seconds: the program and the kernel slow down alike.
    `NOMINAL_S` is a fixed constant, about the kernel's time on an idle
    core (0.11-0.13 ms on a 2-vCPU x86-64 VM, Python 3.11, numpy 2.4), so
    ``wall * NOMINAL_S / kernel_time`` is a wall time taken at that speed.

    `timing` probes at both ends of a block and, with ``interval_s``, also
    every ``interval_s`` seconds inside it from a SIGALRM handler; each
    stretch of work between two probes is scaled by their mean. The
    handler runs between bytecodes, or when a wait for a subprocess is
    interrupted, so the probe shares the core with the work it follows.
    """

    NOMINAL_S = 1.12e-4

    def __init__(self, interval_s: float | None = None):
        rng = np.random.default_rng(0)
        self._a = rng.random((48, 48))
        self._v = rng.random(8192)
        # 4 MB, twice the L2 cache, read a slice at a time so that each read
        # misses it
        self._far = rng.random(1 << 19)
        self._at = 0
        self.interval_s = interval_s
        self._marks: list[tuple[float, float, float]] | None = None
        self._busy = False

    def kernel_s(self) -> float:
        """The faster of two runs of the kernel, in seconds."""
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            acc = 0
            for i in range(1500):  # interpreter
                acc += i
            for _ in range(4):  # BLAS
                self._a @ self._a
            for _ in range(16):  # memory within L2
                self._v @ self._v
            self._far[self._at:self._at + 16384].sum()  # beyond L2
            self._at = (self._at + 16384) % len(self._far)
            best = min(best, time.perf_counter() - t0)
        return best

    def _mark(self) -> None:
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel = self.kernel_s()
            self._marks.append((t0, kernel, time.perf_counter()))
        finally:
            self._busy = False

    def _on_timer(self, signum, frame) -> None:
        if self._marks is not None and not self._busy:
            self._mark()

    @contextlib.contextmanager
    def timing(self):
        """Time the block; the yielded `Piece` is filled in on exit."""
        piece = Piece()
        t_start = time.perf_counter()
        self._marks = []
        self._mark()
        if self.interval_s:
            previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                             self.interval_s)
        try:
            yield piece
        finally:
            t_end = time.perf_counter()
            marks, self._marks = self._marks, None
            if self.interval_s:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            kernel_end = self.kernel_s()
            ends = [(m[2], m[1]) for m in marks]
            starts = [(m[0], m[1]) for m in marks[1:]] + [(t_end, kernel_end)]
            for (t0, k0), (t1, k1) in zip(ends, starts):
                piece.wall += t1 - t0
                piece.scaled += (t1 - t0) * 2.0 * self.NOMINAL_S / (k0 + k1)
            piece.probe_s = time.perf_counter() - t_start - piece.wall


class PhaseClock:
    """Collects the wall time of every phase an op runs: ``times`` as
    measured, ``scaled`` at the probe's nominal speed, and ``probe_s``
    the time the probes took."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.times: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self.probe_s = 0.0

    @contextlib.contextmanager
    def phase(self, name: str):
        piece = Piece()
        try:
            with self.probe.timing() as piece:
                yield
        finally:
            self.times.setdefault(name, []).append(piece.wall)
            self.scaled.setdefault(name, []).append(piece.scaled)
            self.probe_s += piece.probe_s


def _stokes_grid(cfg: dict) -> problems.StokesSpec:
    """The Stokes grid of a config, for the divergence check."""
    p = cfg["problem"]
    return problems.StokesSpec(n_per_dim=p["n_per_dim"],
                               lengths=tuple(p["lengths"]),
                               mu_coeff=p["mu_coeff"])


def _radius(m: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def _trajectory(m: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    # x_k = M x_{k-1} + y_k with summable forcing y_k = 1/(k+1)^2
    n = m.shape[0]
    xs = np.empty((steps + 1, n))
    ys = np.zeros((steps + 1, n))
    xs[0] = 1.0
    for k in range(1, steps + 1):
        ys[k] = 1.0 / (k + 1) ** 2
        xs[k] = m @ xs[k - 1] + ys[k]
    return xs, ys


def certify_matrix(m: np.ndarray, rho: float, xs, ys) -> None:
    """The lemma on one matrix, gated against the radius it was built with."""
    cert = zeromatrix.is_convergent_to_zero(m)
    _gate(cert.convergent == (rho < 1.0),
          f"certificate says convergent={cert.convergent} at rho={rho!r}")
    _gate(abs(cert.spectral_radius - rho) <= 1e-6 * max(1.0, rho),
          f"spectral radius {cert.spectral_radius!r} != {rho!r}")
    if rho >= 1.0:
        try:
            zeromatrix.neumann_inverse(m)
        except ValueError:
            return
        raise GateError("neumann_inverse accepted a divergent matrix")
    inv = zeromatrix.neumann_inverse(m)
    ref = np.linalg.inv(np.eye(m.shape[0]) - m)
    _gate(bool(np.allclose(inv, ref, rtol=1e-8, atol=0.0)),
          "neumann_inverse disagrees with inv(I - M)")
    _gate(bool(np.all(inv >= -1e-12)), "neumann_inverse is not nonnegative")
    rep = zeromatrix.verify_dominance(xs, ys, m, slack=1e-12)
    _gate(rep.dominance_ok,
          f"dominance fails at step {rep.first_violation}")


def _check_hypotheses(system, cfg: dict, expect_ready: bool) -> None:
    chk = cfg["check"]
    sampler = hypotheses.SamplerSpec(**chk["sampler"])
    declared = chk.get("declared_growth") or system.pointwise.growth
    report = hypotheses.full_report(system, tuple(declared), sampler)
    for tau in chk["ring_taus"]:
        ring = hypotheses.check_mountain_pass_ring(system, tau, sampler)
        _gate(ring.n_samples == sampler.n_points
              and 0 <= ring.n_violated <= ring.n_samples,
              f"ring scan at tau={tau} is inconsistent")
    if report.certificate.rho_ok:
        beta = hypotheses.ps_beta(report.monotony_estimate)
        _gate(beta.full > 0.0, "ps_beta full margin is not positive")
    _gate(report.ready == expect_ready,
          f"hypothesis verdict ready={report.ready}, expected {expect_ready}")


def _agreement(system, pair, orc) -> float:
    space = system.space
    du = spaces.norm_a(pair.u_star - orc.u_star, space)
    dv = spaces.norm_a(pair.v_star - orc.v_star, space)
    return math.hypot(du, dv)


def run_system(op: Op, clock: PhaseClock) -> None:
    p = op.params
    cfg = p["config"]
    with clock.phase("setup"):
        system = cli.build_problem(cfg)
    if p["check"] is not None:
        with clock.phase("check"):
            _check_hypotheses(system, cfg, p["check"]["expect_ready"])
    for start in range(p["starts"]):
        scfg = scheme.SchemeConfig(**{**cfg["scheme"],
                                      "seed": cfg["scheme"]["seed"] + start})
        with clock.phase("solve"):
            pair, trace = scheme.run_scheme(system, scfg)
        _gate(pair.converged and max(pair.residuals) <= scfg.final_tol,
              f"scheme did not converge: residuals {pair.residuals}")
        with clock.phase("certify"):
            cert = zeromatrix.is_convergent_to_zero(system.monotony)
            con = scheme.contraction_certificate(trace, system.monotony, p=1)
            nash = scheme.nash_check(system, pair, seed=scfg.seed)
            _gate(cert.convergent, "declared coupling is not convergent")
            _gate(con.passed, "contraction certificate failed")
            _gate(nash.ok, "Nash probe failed")
            if cfg["problem"]["kind"] == "stokes":
                _check_divergence(pair, _stokes_grid(cfg))
        oracle_cfg = cfg["oracle"]
        with clock.phase("compare"):
            orc = oracle.newton_full(
                system, tol=oracle_cfg["tol"],
                jacobian_free=oracle_cfg.get("jacobian_free"))
            diff = _agreement(system, pair, orc)
            bound = 10.0 * (scfg.final_tol + oracle_cfg["tol"])
            _gate(orc.converged and diff <= bound,
                  f"scheme and oracle differ by {diff:.3e} > {bound:.3e}")
        if cfg["problem"]["kind"] == "scalar":
            _check_closed_form(cfg, pair)
    if p["lemma_steps"] is not None:
        m = system.monotony.entries
        rho = _radius(m)
        xs, ys = _trajectory(m, p["lemma_steps"])
        with clock.phase("lemma"):
            certify_matrix(m, rho, xs, ys)


def _check_divergence(pair, spec) -> None:
    for psi in (pair.u_star, pair.v_star):
        vx, vy = problems.reconstruct_velocity(psi, spec)
        div = problems.discrete_divergence(vx, vy, spec)
        scale = max(1.0, float(np.abs(vx).max()), float(np.abs(vy).max()))
        _gate(float(np.abs(div).max()) <= 1e-10 * scale * (spec.n_per_dim + 1),
              "reconstructed velocity is not divergence-free")


def _check_closed_form(cfg: dict, pair) -> None:
    # u = (b v + g) / a and -v = b u / a give u = g a / (a^2 + b^2)
    p = cfg["problem"]
    a, b, g = p["a_value"], p["nonlinearity"]["b"], p["nonlinearity"]["g"]
    u_ref = g * a / (a * a + b * b)
    v_ref = -b * g / (a * a + b * b)
    err = math.hypot(float(pair.u_star.coeffs[0]) - u_ref,
                     float(pair.v_star.coeffs[0]) - v_ref)
    _gate(err <= 1e-6, f"scalar pair misses the closed form by {err:.3e}")


def run_matrix(op: Op, clock: PhaseClock) -> None:
    p = op.params
    m = np.asarray(p["entries"], dtype=float)
    # a divergent matrix must be refused before any trajectory is read
    xs, ys = _trajectory(m, p["steps"] if p["rho"] < 1.0 else 1)
    with clock.phase("lemma"):
        certify_matrix(m, p["rho"], xs, ys)


def _data_hashes(out: Path) -> dict[str, str]:
    # manifest.json carries a timestamp; every other file must reproduce
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir()) if f.name != "manifest.json"}


class Runner:
    """Runs ops; owns the scratch directory the CLI ops write into."""

    def __init__(self, root: Path, scratch: Path, subprocesses: bool = True):
        self.root = root
        self.scratch = scratch
        self.subprocesses = subprocesses
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH")
                     else []))
        self.sha256: dict[str, dict[str, str]] = {}
        self._serial = 0

    def run(self, op: Op, clock: PhaseClock) -> None:
        if op.kind == "system":
            run_system(op, clock)
        elif op.kind == "matrix":
            run_matrix(op, clock)
        elif op.kind == "cli":
            self.run_cli(op, clock)
        elif op.kind == "import":
            self.run_import(clock)
        else:  # pragma: no cover - generator misuse
            raise ValueError(op.kind)

    def _fresh_dir(self, stem: str) -> Path:
        self._serial += 1
        path = self.scratch / f"{stem}-{self._serial}"
        path.mkdir(parents=True)
        return path

    def run_import(self, clock: PhaseClock) -> None:
        with clock.phase("import"):
            proc = subprocess.run([sys.executable, "-c", "import partialcrit"],
                                  env=self.env, capture_output=True,
                                  timeout=SUBPROCESS_TIMEOUT_S, cwd=self.root)
        _gate(proc.returncode == 0,
              f"import failed: {proc.stderr.decode(errors='replace')[-400:]}")

    def run_cli(self, op: Op, clock: PhaseClock) -> None:
        p = op.params
        work = self._fresh_dir("cli")
        try:
            config = work / "config.json"
            config.write_text(json.dumps(p["config"]), encoding="utf-8")
            argv = [p["sub"], "--config", str(config)]
            hashes = None
            if self.subprocesses:
                out = work / "sub"
                with clock.phase("cli"):
                    proc = subprocess.run(
                        [sys.executable, "-m", "partialcrit.cli", *argv,
                         "--out", str(out)],
                        env=self.env, capture_output=True,
                        timeout=SUBPROCESS_TIMEOUT_S, cwd=self.root)
                _gate(proc.returncode == p["expect"],
                      f"cli {p['sub']} exited {proc.returncode}: "
                      f"{proc.stderr.decode(errors='replace')[-400:]}")
                hashes = _data_hashes(out)
            # rerun in process: same exit code, byte-identical data files
            out2 = work / "inproc"
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([*argv, "--out", str(out2)])
            _gate(code == p["expect"], f"cli.main {p['sub']} returned {code}")
            rerun = _data_hashes(out2)
            _gate(bool(rerun), f"cli {p['sub']} wrote no data files")
            if hashes is not None:
                _gate(hashes == rerun,
                      f"cli {p['sub']} data files differ across reruns")
            self.sha256[op.label] = rerun
        finally:
            shutil.rmtree(work, ignore_errors=True)
