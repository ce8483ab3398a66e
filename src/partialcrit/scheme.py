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
both inner solves are one damped descent. The outer loop alternates them,
stage k solving to ``min(1/k, final_tol)``; under a convergent-to-zero
coupling matrix the iterates form a Cauchy pair and the limit solves the
system.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass, field
from typing import Callable

import numpy as np

from .errors import ConvergenceError, HypothesisError, SchemeStageError
from .spaces import DiscreteSpace, HVector, norm_a, random_unit
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

    Stage k solves both sides to ``min(1/k, final_tol)``; the inner step
    is ``0.9 / (1 + m11)`` from the declared coupling matrix.
    """

    max_outer: int = 200
    inner_max_iters: int = 500
    final_tol: float = 1e-8
    seed: int = 0
    random_init: bool = False
    override_hypotheses: bool = False

    def __post_init__(self):
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")
        if self.inner_max_iters < 1:
            raise ValueError("inner_max_iters must be at least 1")
        if not (self.final_tol > 0.0):
            raise ValueError("final_tol must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class CoupledSystem:
    """A complete problem datum.

    ``eval_N`` is the scalar coupling term; ``eval_Nu`` and ``eval_Nv`` are
    its partial A-gradients (already lifted into the space, so the fixed
    point equations read u = Nu(u, v) and -v = Nv(u, v)).

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
                 tol: float, cfg: SchemeConfig, side: str
                 ) -> tuple[HVector, int, float]:
    """Damped descent with monotone acceptance on one partial functional.

    side "u" minimizes E1(., fixed) along g = u - Nu(u, fixed);
    side "v" minimizes -E2(fixed, .) along g = v + Nv(fixed, v).
    A step x <- x - s g is accepted once it does not raise the objective
    (s halves on rejection, at most 40 times), so the exit point also
    satisfies the energy admission condition. Returns the iterate, the
    number of accepted steps and the A-norm of g at exit. Vectors are
    checked at `DiscreteSpace.wrap`, so only overflow can arise here: a
    non-finite objective or norm of g raises, and a NaN or +inf candidate
    objective is a rejected step.
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
    for it in range(cfg.inner_max_iters + 1):
        g = gradient(x)
        gn = norm_a(g, sys.space)
        if not (math.isfinite(obj) and math.isfinite(gn)):
            raise ConvergenceError(f"inner {side}-solve overflowed",
                                   residual=gn, iterations=it)
        if gn <= tol:
            return x, it, gn
        if it == cfg.inner_max_iters:
            raise ConvergenceError(
                f"inner {side}-solve did not reach tolerance {tol:g} "
                f"in {cfg.inner_max_iters} iterations",
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
    fresh u_k, both to ``min(1/k, final_tol)``; this keeps every recorded
    residual within the paper's 1/k schedule while letting the pair
    converge as soon as the coupling allows. The loop stops once both
    residuals at the current pair are below ``final_tol``. An inner failure
    is raised as `SchemeStageError` naming the stage and side.

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
    ru_pair = float("nan")
    rv_pair = float("nan")
    stages = 0
    for k in range(1, cfg.max_outer + 1):
        stages = k
        tol_k = min(1.0 / k, cfg.final_tol)
        side = "u"
        try:
            u, iters_u, r1 = _inner_solve(sys, v, u, tol_k, cfg, side)
            side = "v"
            v, iters_v, r2 = _inner_solve(sys, u, v, tol_k, cfg, side)
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
        ru_pair = norm_a(residual_u(sys, u, v), space)
        rv_pair = r2
        if ru_pair <= cfg.final_tol and rv_pair <= cfg.final_tol:
            converged = True
            break

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

    n_samples: int
    radius: float
    curvature: float
    min_e1_margin: float
    max_e2_margin: float

    @property
    def ok(self) -> bool:
        return self.min_e1_margin >= 0.0 and self.max_e2_margin <= 0.0


def nash_check(sys: CoupledSystem, pair: SolutionPair, n_samples: int = 200,
               radius: float = 0.1, seed: int = 0) -> NashReport:
    """Probe that E1 cannot drop and E2 cannot rise beyond residual effects.

    Samples random unit-A directions and offsets s in (0, radius], then
    compares the observed energy changes with the first-order bound from
    the pair's residual norms plus a curvature term estimated by second
    differences.
    """
    if not pair.converged:
        raise ValueError("nash_check expects a converged pair")
    space = sys.space
    rng = np.random.default_rng(seed)
    u, v = pair.u_star, pair.v_star

    # curvature probe: symmetric second differences at half the radius
    delta = 0.5 * radius
    curvature = 1e-6
    e1_base = _e1(sys, u, v)
    e2_base = _e2(sys, u, v)
    for _ in range(8):
        d = random_unit(space, rng)
        c1 = abs(_e1(sys, u + delta * d, v) - 2.0 * e1_base
                 + _e1(sys, u - delta * d, v)) / delta**2
        c2 = abs(_e2(sys, u, v + delta * d) - 2.0 * e2_base
                 + _e2(sys, u, v - delta * d)) / delta**2
        curvature = max(curvature, c1, c2)

    grad_level = max(pair.residuals)
    min_e1_margin = np.inf
    max_e2_margin = -np.inf
    for _ in range(n_samples):
        s = radius * (1.0 - rng.random())
        bound = grad_level * s + curvature * s**2
        d_u = random_unit(space, rng)
        d_v = random_unit(space, rng)
        de1 = _e1(sys, u + s * d_u, v) - e1_base
        de2 = _e2(sys, u, v + s * d_v) - e2_base
        min_e1_margin = min(min_e1_margin, de1 + bound)
        max_e2_margin = max(max_e2_margin, de2 - bound)

    return NashReport(
        n_samples=n_samples, radius=radius, curvature=float(curvature),
        min_e1_margin=float(min_e1_margin), max_e2_margin=float(max_e2_margin),
    )
