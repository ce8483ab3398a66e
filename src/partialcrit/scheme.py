"""Alternating approximate minimization/maximization for coupled systems.

The target is a pair (u, v) solving

    u = Nu(u, v),        -v = Nv(u, v),

posed in a `DiscreteSpace` whose A-product absorbs the linear part. Such a
pair is a partial critical point of the indefinite energy

    E(u, v) = 1/2 |u|_A^2 - 1/2 |v|_A^2 - N(u, v),

meaning both partial functionals

    E1(u, v) = 1/2 |u|_A^2 - N(u, v)     (minimized in u),
    E2(u, v) = -1/2 |v|_A^2 - N(u, v)    (maximized in v),

are stationary in their own variable. Maximizing E2 is minimizing -E2, so
both inner solves are one damped descent. The outer loop alternates them.
Stage 1 is solved to ``final_tol``; when it contracts the u-residual by
at least `FORCING`, every stage is, and otherwise stage k is solved only
to a forcing tolerance ``FORCING`` times the previous pair residual,
kept within ``[final_tol, 1/k]``. Under a convergent-to-zero coupling
matrix the iterates form a Cauchy pair and the limit solves the system.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass, field
from typing import Callable

import numpy as np

from .errors import ConvergenceError, HypothesisError, SchemeStageError
from .spaces import (DiscreteSpace, HVector, norm_a, norms_a, random_unit,
                     random_unit_rows)
from .zeromatrix import MonotonyMatrix, is_convergent_to_zero, verify_dominance

__all__ = [
    "GrowthParams",
    "SchemeConfig",
    "CoupledSystem",
    "TraceRow",
    "SchemeTrace",
    "SolutionPair",
    "ContractionReport",
    "NashReport",
    "residual_u",
    "residual_v",
    "energies",
    "run_scheme",
    "contraction_certificate",
    "nash_check",
]

# accepted steps per inner solve before it is reported as failed
INNER_MAX_ITERS = 500
# forcing factor of the inexact stage schedule, and the contraction of
# the u-residual over stage 1 that keeps every stage exact
FORCING = 0.1
# perturbations probed by `nash_check`, and the largest offset it tries
NASH_SAMPLES = 200
NASH_RADIUS = 0.1


@dataclass(frozen=True)
class GrowthParams:
    """Quadratic growth constants for the coupling term N.

    Encodes ``-alpha_lower |v|_A^2 - c <= N(u, v) <= alpha_upper |u|_A^2 + c``
    with both coefficients in [0, 1/2) and their sum below 1/2, which is
    what makes the boundedness argument close.
    """

    alpha_upper: float
    alpha_lower: float
    c_growth: float

    def __post_init__(self):
        for name in ("alpha_upper", "alpha_lower"):
            val = getattr(self, name)
            if not (0.0 <= val < 0.5):
                raise ValueError(f"{name} must lie in [0, 1/2)")
        if self.alpha_upper + self.alpha_lower >= 0.5:
            raise ValueError("alpha_upper + alpha_lower must be below 1/2")
        if not (self.c_growth >= 0.0):
            raise ValueError("c_growth must be nonnegative")


@dataclass
class SchemeConfig:
    """Knobs for `run_scheme`.

    Stage k solves both sides to at most ``min(1/k, final_tol)``, or, once
    stage 1 has shown a slow alternation, to the forcing tolerance of
    `run_scheme`; the inner step is ``0.9 / (1 + m11)`` from the declared
    coupling matrix, and each inner solve has a fixed budget of
    `INNER_MAX_ITERS` steps.
    """

    max_outer: int = 200
    final_tol: float = 1e-8
    seed: int = 0
    random_init: bool = False
    override_hypotheses: bool = False

    def __post_init__(self):
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")
        if not (self.final_tol > 0.0):
            raise ValueError("final_tol must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class CoupledSystem:
    """A complete problem datum.

    ``eval_N`` is the scalar coupling term; ``eval_Nu`` and ``eval_Nv`` are
    its partial A-gradients (already lifted into the space, so the fixed
    point equations read u = Nu(u, v) and -v = Nv(u, v)). ``eval_N_rows``
    takes two ``(k, dim)`` coefficient blocks and returns the ``(k,)``
    values of N at their rows, equal to ``eval_N`` row by row; the probes
    evaluate their samples through it in blocks of ``probe_rows`` rows,
    the most whose arrays fit `problems.PROBE_BYTES`. ``eval_grads_rows``
    takes the same two blocks and returns the ``(k, dim)`` blocks of Nu
    and Nv at their rows, equal to ``eval_Nu`` and ``eval_Nv`` row by row;
    the oracle's dense Jacobian evaluates its perturbed states through it.

    ``monotony`` bounds the couplings of the gradient differences and is
    consumed by the convergence gate and the contraction certificate;
    ``growth`` is optional and only feeds boundedness diagnostics.
    ``embedding_sq`` records the squared embedding constant used when the
    matrix was scaled from pointwise data; ``pointwise`` keeps the
    pointwise nonlinearity around for hypothesis checking.
    """

    space: DiscreteSpace
    eval_N: Callable[[HVector, HVector], float]
    eval_Nu: Callable[[HVector, HVector], HVector]
    eval_Nv: Callable[[HVector, HVector], HVector]
    eval_N_rows: Callable[[np.ndarray, np.ndarray], np.ndarray]
    eval_grads_rows: Callable[[np.ndarray, np.ndarray],
                              tuple[np.ndarray, np.ndarray]]
    probe_rows: int
    monotony: MonotonyMatrix
    growth: GrowthParams | None = None
    pointwise: object | None = None
    embedding_sq: float | None = None
    label: str = ""

    def __post_init__(self):
        if self.monotony.n != 2:
            raise ValueError("the coupling matrix must be 2 by 2")


@dataclass(frozen=True)
class TraceRow:
    k: int
    norm_u: float
    norm_v: float
    r1: float
    r2: float
    e1: float
    e2: float
    e_total: float
    inner_iters_u: int
    inner_iters_v: int


CSV_HEADER = ("k", "norm_u", "norm_v", "r1", "r2", "E1", "E2", "E",
              "inner_iters_u", "inner_iters_v")


@dataclass
class SchemeTrace:
    """Per-stage diagnostics and the full iterate history."""

    space: DiscreteSpace
    rows: list[TraceRow] = field(default_factory=list)
    iterates_u: list[HVector] = field(default_factory=list)
    iterates_v: list[HVector] = field(default_factory=list)

    def csv_rows(self) -> list[tuple]:
        return [CSV_HEADER] + [astuple(r) for r in self.rows]


@dataclass(frozen=True)
class SolutionPair:
    """Converged (or final) iterate pair with its residual norms."""

    u_star: HVector
    v_star: HVector
    residuals: tuple[float, float]
    converged: bool
    stages: int


def residual_u(sys: CoupledSystem, u: HVector, v: HVector) -> HVector:
    """First partial derivative of the energy: ``u - Nu(u, v)``."""
    return u - sys.eval_Nu(u, v)


def residual_v(sys: CoupledSystem, u: HVector, v: HVector) -> HVector:
    """Second partial derivative of the energy: ``-v - Nv(u, v)``."""
    return -1.0 * v - sys.eval_Nv(u, v)


def _e1(sys: CoupledSystem, u: HVector, v: HVector) -> float:
    """First partial functional ``E1(u, v) = 1/2 |u|_A^2 - N(u, v)``."""
    return 0.5 * norm_a(u, sys.space) ** 2 - float(sys.eval_N(u, v))


def _e2(sys: CoupledSystem, u: HVector, v: HVector) -> float:
    """Second partial functional ``E2(u, v) = -1/2 |v|_A^2 - N(u, v)``."""
    return -0.5 * norm_a(v, sys.space) ** 2 - float(sys.eval_N(u, v))


def _half_squares(sign: float, norms: np.ndarray) -> np.ndarray:
    # Python's float power, as `_e1` and `_e2` take it; numpy squares by
    # multiplying, which rounds differently
    return np.array([sign * 0.5 * n ** 2 for n in norms.tolist()])


def _e1_rows(sys: CoupledSystem, us: np.ndarray, v: HVector) -> np.ndarray:
    """`_e1` at each row of the ``(k, dim)`` block `us`."""
    n_vals = sys.eval_N_rows(us, np.broadcast_to(v.coeffs, us.shape))
    return _half_squares(1.0, norms_a(us, sys.space)) - n_vals


def _e2_rows(sys: CoupledSystem, u: HVector, vs: np.ndarray) -> np.ndarray:
    """`_e2` at each row of the ``(k, dim)`` block `vs`."""
    n_vals = sys.eval_N_rows(np.broadcast_to(u.coeffs, vs.shape), vs)
    return _half_squares(-1.0, norms_a(vs, sys.space)) - n_vals


def energies(sys: CoupledSystem, u: HVector, v: HVector) -> tuple[float, float, float]:
    """Return (E1, E2, E) from one evaluation of N.

    E differs from E1 by the v-quadratic and from E2 by the u-quadratic,
    so the three share the two squared norms and ``N(u, v)``.
    """
    return _energies(sys, u, v, norm_a(u, sys.space), norm_a(v, sys.space))


def _energies(sys: CoupledSystem, u: HVector, v: HVector, norm_u: float,
              norm_v: float) -> tuple[float, float, float]:
    """`energies` from the A-norms of u and v, already taken."""
    nu2 = norm_u ** 2
    nv2 = norm_v ** 2
    n_val = float(sys.eval_N(u, v))
    return 0.5 * nu2 - n_val, -0.5 * nv2 - n_val, 0.5 * nu2 - 0.5 * nv2 - n_val


def _inner_solve(sys: CoupledSystem, fixed: HVector, moving: HVector,
                 tol: float, side: str,
                 start: tuple[HVector, float] | None = None
                 ) -> tuple[HVector, int, float]:
    """Damped descent with monotone acceptance on one partial functional.

    side "u" minimizes E1(., fixed) along g = u - Nu(u, fixed);
    side "v" minimizes -E2(fixed, .) along g = v + Nv(fixed, v).
    A step x <- x - s g is accepted once it does not raise the objective
    (s halves on rejection, at most 40 times), so the exit point also
    satisfies the energy admission condition. Returns the iterate, the
    number of accepted steps and the A-norm of g at exit; more than
    `INNER_MAX_ITERS` steps raise `ConvergenceError`. Vectors are
    checked at `DiscreteSpace.wrap`, so only overflow can arise here: a
    non-finite objective or norm of g raises, and a NaN or +inf candidate
    objective is a rejected step. ``start`` holds the gradient at `moving`
    and its A-norm when the caller has them already.
    """
    if side == "u":
        objective = lambda x: _e1(sys, x, fixed)
        gradient = lambda x: residual_u(sys, x, fixed)
    else:
        objective = lambda x: -_e2(sys, fixed, x)
        # -residual_v bit for bit, since rounding is sign-symmetric
        gradient = lambda x: x + sys.eval_Nv(fixed, x)
    base_step = 0.9 / (1.0 + float(sys.monotony.entries[0, 0]))
    x = moving
    obj = objective(x)
    for it in range(INNER_MAX_ITERS + 1):
        if it == 0 and start is not None:
            g, gn = start
        else:
            g = gradient(x)
            gn = norm_a(g, sys.space)
        if not (math.isfinite(obj) and math.isfinite(gn)):
            raise ConvergenceError(f"inner {side}-solve overflowed",
                                   residual=gn, iterations=it)
        if gn <= tol:
            return x, it, gn
        if it == INNER_MAX_ITERS:
            raise ConvergenceError(
                f"inner {side}-solve did not reach tolerance {tol:g} "
                f"in {INNER_MAX_ITERS} iterations",
                residual=gn, iterations=it,
            )
        step = base_step
        for _ in range(40):
            candidate = x - step * g
            cand_obj = objective(candidate)
            if cand_obj <= obj + 1e-12 * (1.0 + abs(obj)):
                break
            step *= 0.5
        else:
            raise ConvergenceError(
                f"inner {side}-solve stalled in the line search",
                residual=gn, iterations=it,
            )
        x, obj = candidate, cand_obj


def run_scheme(sys: CoupledSystem, cfg: SchemeConfig | None = None
               ) -> tuple[SolutionPair, SchemeTrace]:
    """Alternate the two inner solves.

    Stage k solves the u-side against v_{k-1}, then the v-side against the
    fresh u_k, both to the stage tolerance. Stage 1 is solved to
    ``min(1, final_tol)``. If it shrinks the A-norm of the u-residual at
    the pair by at least `FORCING` (``ru_1 <= FORCING * ru_0``), every
    later stage k is solved to ``min(1/k, final_tol)`` as well. Otherwise
    the alternation, not the inner accuracy, limits the pair, and stage k
    is solved to the forcing tolerance
    ``max(final_tol, min(1/k, FORCING * max(ru_{k-1}, rv_{k-1})))`` of
    inexact Newton methods (Eisenstat and Walker, 1996), where ru and rv
    are the residuals at the pair after stage k - 1. Either way every
    recorded residual stays within the paper's 1/k schedule. The loop
    stops once both residuals at the current pair are below
    ``final_tol``. An inner failure is raised as `SchemeStageError` naming
    the stage and side.

    The declared coupling matrix must be convergent to zero; set
    ``override_hypotheses`` to demote that failure to a warning.
    """
    cfg = cfg or SchemeConfig()
    certificate = is_convergent_to_zero(sys.monotony)
    if not certificate.rho_ok:
        message = (
            f"coupling matrix has spectral radius "
            f"{certificate.spectral_radius:.6g} (needs < 1)"
        )
        if cfg.override_hypotheses:
            warnings.warn(message + "; continuing on request", RuntimeWarning)
        else:
            raise HypothesisError(message)

    space = sys.space
    u = space.zero()
    v = (random_unit(space, np.random.default_rng(cfg.seed))
         if cfg.random_init else space.zero())

    trace = SchemeTrace(space=space, iterates_u=[u], iterates_v=[v])

    converged = False
    forcing = False
    # the u-residual at the pair is the first gradient of the next u-solve
    g = residual_u(sys, u, v)
    ru_pair = ru_start = norm_a(g, space)
    rv_pair = float("nan")
    stages = 0
    for k in range(1, cfg.max_outer + 1):
        stages = k
        if forcing:
            tol_k = max(cfg.final_tol,
                        min(1.0 / k, FORCING * max(ru_pair, rv_pair)))
        else:
            tol_k = min(1.0 / k, cfg.final_tol)
        side = "u"
        try:
            u, iters_u, r1 = _inner_solve(sys, v, u, tol_k, side,
                                          (g, ru_pair))
            side = "v"
            v, iters_v, r2 = _inner_solve(sys, u, v, tol_k, side)
        except ConvergenceError as exc:
            raise SchemeStageError(f"stage {k}: {exc}", stage=k, side=side,
                                   residual=exc.residual,
                                   iterations=exc.iterations) from exc
        norm_u, norm_v = norm_a(u, space), norm_a(v, space)
        e1, e2, e_total = _energies(sys, u, v, norm_u, norm_v)
        trace.rows.append(TraceRow(
            k=k, norm_u=norm_u, norm_v=norm_v,
            r1=r1, r2=r2, e1=e1, e2=e2, e_total=e_total,
            inner_iters_u=iters_u, inner_iters_v=iters_v,
        ))
        trace.iterates_u.append(u)
        trace.iterates_v.append(v)
        # the u-residual is re-measured at the updated pair; the v-residual
        # is already evaluated there
        g = residual_u(sys, u, v)
        ru_pair = norm_a(g, space)
        rv_pair = r2
        if ru_pair <= cfg.final_tol and rv_pair <= cfg.final_tol:
            converged = True
            break
        if k == 1:
            forcing = ru_pair > FORCING * ru_start

    pair = SolutionPair(
        u_star=u, v_star=v, residuals=(ru_pair, rv_pair),
        converged=converged, stages=stages,
    )
    return pair, trace


@dataclass(frozen=True)
class ContractionReport:
    """Dominance of iterate differences by the coupling recursion.

    For a gap p, the difference vector
    ``x_k = (|u_{k+p} - u_k|_A, |v_{k+p} - v_k|_A)`` must satisfy

        x_k <= B_now x_k + B_delay x_{k-1} + (2/k) * 1

    componentwise. ``full_*`` places each coupling coefficient where the
    two-point estimate produces it (B_now = [[m11, 0], [m21, m22]],
    B_delay = [[0, m12], [0, 0]]); ``m11_only_*`` substitutes m11 for every
    coefficient. `passed` reports the full form.
    """

    p: int
    n_checks: int
    full_ok: bool
    m11_only_ok: bool
    max_margin_full: float
    max_margin_m11_only: float

    @property
    def passed(self) -> bool:
        return self.full_ok


def contraction_certificate(trace: SchemeTrace, m: MonotonyMatrix, p: int = 1
                            ) -> ContractionReport:
    """Check the difference-vector recursion on the trace's iterate history.

    The slack term is ``2 / k`` in both components, covering the two
    admission residuals that enter the estimate.
    """
    if p < 1:
        raise ValueError("gap p must be at least 1")
    us, vs = trace.iterates_u, trace.iterates_v
    n_stages = len(us) - 1
    if n_stages - p < 1:
        # not enough stages to form a single delayed comparison
        return ContractionReport(p=p, n_checks=0, full_ok=True, m11_only_ok=True,
                                 max_margin_full=0.0, max_margin_m11_only=0.0)
    space = trace.space
    diffs = []
    for k in range(0, n_stages - p + 1):
        du = norm_a(us[k + p] - us[k], space)
        dv = norm_a(vs[k + p] - vs[k], space)
        diffs.append((du, dv))
    xs = np.asarray(diffs)

    e = m.entries
    b_now_full = np.array([[e[0, 0], 0.0], [e[1, 0], e[1, 1]]])
    b_delay_full = np.array([[0.0, e[0, 1]], [0.0, 0.0]])
    m11 = float(e[0, 0])
    b_now_lit = np.array([[m11, 0.0], [m11, m11]])
    b_delay_lit = np.array([[0.0, m11], [0.0, 0.0]])

    def check(b_now: np.ndarray, b_delay: np.ndarray):
        ys = np.zeros_like(xs)
        for k in range(1, xs.shape[0]):
            ys[k] = b_now @ xs[k] + 2.0 / k
        report = verify_dominance(xs, ys, MonotonyMatrix(b_delay), slack=1e-12)
        return report.dominance_ok, report.max_violation

    full_ok, margin_full = check(b_now_full, b_delay_full)
    lit_ok, margin_lit = check(b_now_lit, b_delay_lit)
    return ContractionReport(
        p=p, n_checks=xs.shape[0] - 1,
        full_ok=bool(full_ok), m11_only_ok=bool(lit_ok),
        max_margin_full=float(margin_full), max_margin_m11_only=float(margin_lit),
    )


@dataclass(frozen=True)
class NashReport:
    """Random two-sided perturbation test around a converged pair.

    ``min_e1_margin`` is the worst value of ``dE1 + bound`` (should stay
    nonnegative); ``max_e2_margin`` the worst of ``dE2 - bound`` (should
    stay nonpositive), where ``bound = g s + L s^2`` combines the residual
    level g with the probed curvature bound L.
    """

    curvature: float
    min_e1_margin: float
    max_e2_margin: float

    @property
    def ok(self) -> bool:
        return self.min_e1_margin >= 0.0 and self.max_e2_margin <= 0.0


def nash_check(sys: CoupledSystem, pair: SolutionPair, seed: int = 0
               ) -> NashReport:
    """Probe that E1 cannot drop and E2 cannot rise beyond residual effects.

    Samples `NASH_SAMPLES` random unit-A directions and offsets s in
    (0, `NASH_RADIUS`], then compares the observed energy changes with the
    first-order bound from the pair's residual norms plus a curvature term
    estimated by second differences. Both probes draw and evaluate their
    samples in blocks of ``sys.probe_rows`` rows.
    """
    if not pair.converged:
        raise ValueError("nash_check expects a converged pair")
    space = sys.space
    rows = sys.probe_rows
    rng = np.random.default_rng(seed)
    u, v = pair.u_star, pair.v_star

    # curvature probe: symmetric second differences at half the radius
    delta = 0.5 * NASH_RADIUS
    e1_base = _e1(sys, u, v)
    e2_base = _e2(sys, u, v)
    curvatures = [1e-6]
    for start in range(0, 8, rows):
        _, (d,) = random_unit_rows(space, rng, min(rows, 8 - start))
        c1 = np.abs(_e1_rows(sys, u.coeffs + delta * d, v) - 2.0 * e1_base
                    + _e1_rows(sys, u.coeffs - delta * d, v)) / delta**2
        c2 = np.abs(_e2_rows(sys, u, v.coeffs + delta * d) - 2.0 * e2_base
                    + _e2_rows(sys, u, v.coeffs - delta * d)) / delta**2
        curvatures += np.column_stack([c1, c2]).reshape(-1).tolist()
    # the builtin max and min pass over a NaN after the first entry, where
    # numpy's would return it
    curvature = max(curvatures)

    grad_level = max(pair.residuals)
    e1_margins = [np.inf]
    e2_margins = [-np.inf]
    for start in range(0, NASH_SAMPLES, rows):
        draws, (d_u, d_v) = random_unit_rows(
            space, rng, min(rows, NASH_SAMPLES - start), units=2, uniform=True)
        s = NASH_RADIUS * (1.0 - draws)
        # Python's float power again, as in `_half_squares`
        bound = np.array([grad_level * x + curvature * x ** 2
                          for x in s.tolist()])
        de1 = _e1_rows(sys, u.coeffs + d_u * s[:, None], v) - e1_base
        de2 = _e2_rows(sys, u, v.coeffs + d_v * s[:, None]) - e2_base
        e1_margins += (de1 + bound).tolist()
        e2_margins += (de2 - bound).tolist()

    return NashReport(
        curvature=float(curvature), min_e1_margin=float(min(e1_margins)),
        max_e2_margin=float(max(e2_margins)),
    )
