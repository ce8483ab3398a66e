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
raised to ``final_tol``. Either tolerance is capped at ``1/k``. Under a
convergent-to-zero coupling matrix the iterates form a Cauchy pair and
the limit solves the system.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import astuple, dataclass, field
from typing import Callable

import numpy as np

from .errors import ConvergenceError, HypothesisError, SchemeStageError
from .spaces import DiscreteSpace, HVector, _coeffs, norm_a, random_unit_rows
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
# bytes of the two directions a probe block draws a sample; it sets memory
# and speed only, as the samples depend on seed and count. 128 KB keeps the
# peak memory of Stokes sessions level (256 KB raised it 4.5%); half that
# leaves Stokes n=49 one row a block, which costs more than it saves
PROBE_BYTES = 128 * 1024


def _check_integers(record, *names: str) -> None:
    """Refuse a count or seed of `record` that is not an integer, which
    numpy would refuse with ``TypeError`` only where it is used."""
    for name in names:
        if not isinstance(getattr(record, name), numbers.Integral):
            raise ValueError(f"{name} must be an integer")


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
        if not (0.0 <= self.c_growth < math.inf):
            raise ValueError("c_growth must be nonnegative and finite")


@dataclass
class SchemeConfig:
    """Knobs for `run_scheme`.

    Stage k solves both sides to ``min(1/k, final_tol)``, or, once stage 1
    has shown a slow alternation, to the forcing tolerance of
    `run_scheme`; neither exceeds 1/k. The inner step is
    ``0.9 / (1 + m11)`` from the declared coupling matrix, and each inner
    solve has a fixed budget of `INNER_MAX_ITERS` steps.
    """

    max_outer: int = 200
    final_tol: float = 1e-8
    seed: int = 0
    random_init: bool = False
    override_hypotheses: bool = False

    def __post_init__(self):
        _check_integers(self, "max_outer", "seed")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")
        if not (self.final_tol > 0.0):
            raise ValueError("final_tol must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def _unsampled(x: np.ndarray) -> np.ndarray:
    """The default sampler, the identity: the closures take `x` itself."""
    return x


@dataclass(frozen=True, eq=False)
class CoupledSystem:
    """A complete problem datum.

    ``eval_N`` is the scalar coupling term; ``eval_Nu`` and ``eval_Nv`` are
    its partial A-gradients (already lifted into the space, so the fixed
    point equations read u = Nu(u, v) and -v = Nv(u, v)). The gradients
    take one pair of ``(dim,)`` coefficient vectors and return ``(dim,)``
    coefficients. ``eval_N`` also takes blocks: a side is a ``(dim,)``
    vector or a ``(k, dim)`` block, and a vector facing a block holds for
    every row (the built systems evaluate its pointwise values once, not
    once a row). It returns a float for two vectors and ``(k,)`` values
    otherwise, equal to the single calls row by row.

    ``sample`` maps a ``(dim,)`` vector to its sampled state (on the built
    systems, the vector with its pointwise arguments), which the three
    closures take wherever they take that vector. A caller that evaluates
    at one state more than once samples it once and passes the state: the
    scheme, the Newton residual and `nash_check` do. Its default is the
    identity, `_unsampled`, so a system built without one (a hand-built
    or the manufactured one) is passed the vectors themselves.

    ``monotony`` bounds the couplings of the gradient differences and is
    consumed by the convergence gate and the contraction certificate;
    ``growth`` is optional and only feeds boundedness diagnostics.
    ``embedding_sq`` records the squared embedding constant used when the
    matrix was scaled from pointwise data; ``pointwise`` keeps the
    pointwise nonlinearity around for hypothesis checking.
    """

    space: DiscreteSpace
    eval_N: Callable[[np.ndarray, np.ndarray], float | np.ndarray]
    eval_Nu: Callable[[np.ndarray, np.ndarray], np.ndarray]
    eval_Nv: Callable[[np.ndarray, np.ndarray], np.ndarray]
    monotony: MonotonyMatrix
    growth: GrowthParams | None = None
    pointwise: object | None = None
    embedding_sq: float | None = None
    label: str = ""
    sample: Callable[[np.ndarray], object] = _unsampled

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


@dataclass(eq=False)
class SchemeTrace:
    """Per-stage diagnostics and the full iterate history, as coefficient
    arrays."""

    space: DiscreteSpace
    rows: list[TraceRow] = field(default_factory=list)
    iterates_u: list[np.ndarray] = field(default_factory=list)
    iterates_v: list[np.ndarray] = field(default_factory=list)

    def csv_rows(self) -> list[tuple]:
        return [CSV_HEADER] + [astuple(r) for r in self.rows]


@dataclass(frozen=True, eq=False)
class SolutionPair:
    """Converged (or final) iterate pair with its residual norms."""

    u_star: HVector
    v_star: HVector
    residuals: tuple[float, float]
    converged: bool
    stages: int


# The residuals and the energies take one pair of ``(dim,)`` vectors, as
# the gradients do.

def residual_u(sys: CoupledSystem, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """First partial derivative of the energy: ``u - Nu(u, v)``."""
    return u - sys.eval_Nu(u, v)


def residual_v(sys: CoupledSystem, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Second partial derivative of the energy: ``-v - Nv(u, v)``."""
    return -1.0 * v - sys.eval_Nv(u, v)


def _half_square(sign: float, norm: float) -> float:
    # ``sign / 2`` times the square of a norm. Python's float power calls
    # libm pow; ``x * x`` rounds differently
    return sign * 0.5 * norm ** 2


def energies(sys: CoupledSystem, u: np.ndarray, v: np.ndarray) -> tuple:
    """Return (E1, E2, E) at one pair of ``(dim,)`` vectors, from one
    evaluation of N; any other shape raises ``ValueError``.

    E differs from E1 by the v-quadratic and from E2 by the u-quadratic,
    so the three share the two squared norms and ``N(u, v)``.
    """
    shape = (sys.space.dim,)
    if np.shape(u) != shape or np.shape(v) != shape:
        raise ValueError(f"energies take two vectors of shape {shape}")
    return _energies(sys, u, v, norm_a(u, sys.space), norm_a(v, sys.space))


def _energies(sys: CoupledSystem, u, v, norm_u, norm_v) -> tuple:
    """`energies` from the A-norms of u and v, already taken; u and v are
    passed to `eval_N` only, so they may be sampled states."""
    half_u = _half_square(1.0, norm_u)
    half_v = _half_square(-1.0, norm_v)
    n_val = sys.eval_N(u, v)
    return half_u - n_val, half_v - n_val, half_u + half_v - n_val


def _inner_solve(sys: CoupledSystem, fixed, x: np.ndarray, state, tol: float,
                 side: str, start: tuple[np.ndarray, float] | None = None
                 ) -> tuple[np.ndarray, object, int, float]:
    """Damped descent with monotone acceptance on one partial functional.

    side "u" minimizes E1(., fixed) along g = u - Nu(u, fixed);
    side "v" minimizes -E2(fixed, .) along g = v + Nv(fixed, v).
    `fixed` is the fixed side's sampled state, `x` the start of the moving
    side and `state` its sampled state, as ``sys.sample`` gives them.
    A step x <- x - s g is accepted once it does not raise the objective
    (s halves on rejection, at most 40 times), so the exit point also
    satisfies the energy admission condition. Returns the iterate, its
    sampled state, the number of accepted steps and the A-norm of g at
    exit; more than `INNER_MAX_ITERS` steps raise `ConvergenceError`. The
    start is finite, so only overflow can arise here: a non-finite
    objective or norm of g raises, and a NaN or +inf candidate objective
    is a rejected step. ``start``, when the caller has it, holds the
    gradient at `x` and its A-norm. Each tried state is sampled once: its
    objective and, once it is accepted, its gradient share that sampling.
    """
    space = sys.space
    # E1, E2 of `energies` and `residual_u` bit for bit, at x and state xs
    half = lambda sign, x: _half_square(sign, norm_a(x, space))
    if side == "u":
        objective = lambda x, xs: half(1.0, x) - sys.eval_N(xs, fixed)
        gradient = lambda x, xs: x - sys.eval_Nu(xs, fixed)
    else:
        objective = lambda x, xs: -(half(-1.0, x) - sys.eval_N(fixed, xs))
        # -residual_v bit for bit, since rounding is sign-symmetric
        gradient = lambda x, xs: x + sys.eval_Nv(fixed, xs)
    base_step = 0.9 / (1.0 + float(sys.monotony.entries[0, 0]))
    obj = objective(x, state)
    for it in range(INNER_MAX_ITERS + 1):
        if it == 0 and start is not None:
            g, gn = start
        else:
            g = gradient(x, state)
            gn = norm_a(g, space)
        if not (math.isfinite(obj) and math.isfinite(gn)):
            raise ConvergenceError(f"inner {side}-solve overflowed",
                                   iterations=it)
        if gn <= tol:
            return x, state, it, gn
        if it == INNER_MAX_ITERS:
            raise ConvergenceError(
                f"inner {side}-solve did not reach tolerance {tol:g} "
                f"in {INNER_MAX_ITERS} iterations", iterations=it)
        step = base_step
        for _ in range(40):
            candidate = x - step * g
            cand_state = sys.sample(candidate)
            cand_obj = objective(candidate, cand_state)
            if cand_obj <= obj + 1e-12 * (1.0 + abs(obj)):
                break
            step *= 0.5
        else:
            raise ConvergenceError(
                f"inner {side}-solve stalled in the line search", iterations=it)
        x, state, obj = candidate, cand_state, cand_obj


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
    ``min(1/k, max(final_tol, FORCING * max(ru_{k-1}, rv_{k-1})))`` of
    inexact Newton methods (Eisenstat and Walker, 1996), where ru and rv
    are the residuals at the pair after stage k - 1. Either way the stage
    tolerance is at most 1/k, even when ``final_tol`` exceeds it, so every
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
    u = np.zeros(space.dim)
    v = (random_unit_rows(space, np.random.default_rng(cfg.seed), 1)[0]
         if cfg.random_init else np.zeros(space.dim))

    trace = SchemeTrace(space=space, iterates_u=[u], iterates_v=[v])

    converged = False
    forcing = False
    # each pair is sampled once: the start here, then the inner solves'
    # exit states, which the energies, the pair residual and the next
    # stage's solves take
    su, sv = sys.sample(u), sys.sample(v)
    # the u-residual at the pair is the first gradient of the next u-solve;
    # `residual_u` bit for bit
    g = u - sys.eval_Nu(su, sv)
    ru_pair = ru_start = norm_a(g, space)
    rv_pair = float("nan")
    stages = 0
    for k in range(1, cfg.max_outer + 1):
        stages = k
        tol_k = min(1.0 / k, max(cfg.final_tol, FORCING * max(ru_pair, rv_pair)
                                 if forcing else 0.0))
        side = "u"
        try:
            u, su, iters_u, r1 = _inner_solve(sys, sv, u, su, tol_k, side,
                                              (g, ru_pair))
            side = "v"
            v, sv, iters_v, r2 = _inner_solve(sys, su, v, sv, tol_k, side)
        except ConvergenceError as exc:
            raise SchemeStageError(f"stage {k}: {exc}", stage=k, side=side,
                                   iterations=exc.iterations) from exc
        norm_u, norm_v = norm_a(u, space), norm_a(v, space)
        e1, e2, e_total = _energies(sys, su, sv, norm_u, norm_v)
        trace.rows.append(TraceRow(
            k=k, norm_u=norm_u, norm_v=norm_v,
            r1=r1, r2=r2, e1=e1, e2=e2, e_total=e_total,
            inner_iters_u=iters_u, inner_iters_v=iters_v,
        ))
        trace.iterates_u.append(u)
        trace.iterates_v.append(v)
        # the u-residual is re-measured at the updated pair; the v-residual
        # is already evaluated there
        g = u - sys.eval_Nu(su, sv)
        ru_pair = norm_a(g, space)
        rv_pair = r2
        if ru_pair <= cfg.final_tol and rv_pair <= cfg.final_tol:
            converged = True
            break
        if k == 1:
            forcing = ru_pair > FORCING * ru_start

    pair = SolutionPair(
        u_star=space.wrap(u), v_star=space.wrap(v),
        residuals=(ru_pair, rv_pair), converged=converged, stages=stages,
    )
    return pair, trace


@dataclass(frozen=True)
class ContractionReport:
    """Dominance of iterate differences by the coupling recursion.

    For a gap p, the difference vector
    ``x_k = (|u_{k+p} - u_k|_A, |v_{k+p} - v_k|_A)`` must satisfy

        x_k <= B_now x_k + B_delay x_{k-1} + (2/k) * 1

    componentwise, with each coupling coefficient placed where the
    two-point estimate produces it: B_now = [[m11, 0], [m21, m22]] and
    B_delay = [[0, m12], [0, 0]]. ``max_margin`` is the largest violation
    over the ``n_checks`` stages, and `passed` the verdict.
    """

    p: int
    n_checks: int
    max_margin: float
    passed: bool


def contraction_certificate(trace: SchemeTrace, m: MonotonyMatrix, p: int = 1
                            ) -> ContractionReport:
    """Check the difference-vector recursion on the trace's iterate history.

    The slack term is ``2 / k`` in both components, covering the two
    admission residuals that enter the estimate. `m` must be 2 by 2.
    """
    if m.n != 2:
        raise ValueError("the coupling matrix must be 2 by 2")
    if p < 1:
        raise ValueError("gap p must be at least 1")
    n_stages = len(trace.iterates_u) - 1
    if n_stages - p < 1:
        # not enough stages to form a single delayed comparison
        return ContractionReport(p=p, n_checks=0, max_margin=0.0, passed=True)
    us, vs = np.asarray(trace.iterates_u), np.asarray(trace.iterates_v)
    xs = np.column_stack([norm_a(us[p:] - us[:-p], trace.space),
                          norm_a(vs[p:] - vs[:-p], trace.space)])

    e = m.entries
    b_now = np.array([[e[0, 0], 0.0], [e[1, 0], e[1, 1]]])
    b_delay = np.array([[0.0, e[0, 1]], [0.0, 0.0]])
    # row k holds stage k; row 0, never read, is kept finite by 2/1. A
    # stack of 2 by 2 products rounds as ``b_now @ xs[k]`` stage by stage
    # does, where ``xs @ b_now.T`` would not
    ys = ((b_now @ xs[:, :, None])[:, :, 0]
          + 2.0 / np.maximum(np.arange(xs.shape[0]), 1)[:, None])
    report = verify_dominance(xs, ys, MonotonyMatrix(b_delay), slack=1e-12)
    return ContractionReport(p=p, n_checks=xs.shape[0] - 1,
                             max_margin=float(report.max_violation),
                             passed=bool(report.dominance_ok))


@dataclass(frozen=True)
class NashReport:
    """Bounds on the gaps of a pair, ``E1(u, v) - min E1(., v) <= gap_e1``
    and ``max E2(u, .) - E2(u, v) <= gap_e2``. `ok` holds when both are
    finite: the pair is then an epsilon-Nash point, epsilon the larger."""

    gap_e1: float
    gap_e2: float

    @property
    def ok(self) -> bool:
        return math.isfinite(self.gap_e1) and math.isfinite(self.gap_e2)


def _probe_rows(space: DiscreteSpace) -> int:
    """Rows of a probe block: as many as `PROBE_BYTES` holds, at least 1."""
    return max(1, PROBE_BYTES // (16 * space.dim))


def _probe_blocks(space: DiscreteSpace, seed: int, n: int):
    """Yield a probe's `n` samples as ``(uniforms, d_u, d_v)`` blocks of
    `_probe_rows` rows: all uniforms first, then each block's directions as
    one `random_unit_rows` draw, sample i's u in row 2i and v in 2i + 1, so
    that a sample depends on `seed` and `n` only, not on the block size."""
    rng = np.random.default_rng(seed)
    uniforms = rng.random(n)
    rows = _probe_rows(space)
    for start in range(0, n, rows):
        k = min(rows, n - start)
        d = random_unit_rows(space, rng, 2 * k).reshape(k, 2, -1)
        yield uniforms[start:start + k], d[:, 0], d[:, 1]


def nash_check(sys: CoupledSystem, pair: SolutionPair, seed: int = 0
               ) -> NashReport:
    """Bound the gaps of E1 in u and of E2 in v at a converged pair.

    The u-row of the coupling matrix makes E1(., v) strongly convex with
    modulus ``1 - m11`` for every v, and the v-row makes -E2(u, .) so with
    ``1 - m22``. A gradient of A-norm r then bounds the gap, over every
    direction, by ``r^2 / (2 (1 - m))``. Every matrix `run_scheme` accepts
    has m11 and m22 below 1, as a nonnegative matrix's spectral radius is
    at least each diagonal entry; an entry at or above 1 makes its gap
    ``inf``, and a NaN residual its gap NaN. r_u and r_v, the A-norms of
    ``u - Nu`` and ``-v - Nv``, are taken at the pair, not read from its
    ``residuals``; on a pair from `run_scheme` the two agree bit for bit.
    `seed` is ignored; it stays while `perfbench/workloads.py` passes it.
    A pair of another space raises ``ValueError``.
    """
    if not pair.converged:
        raise ValueError("nash_check expects a converged pair")
    u, v = _coeffs(pair.u_star, sys.space), _coeffs(pair.v_star, sys.space)
    su, sv = sys.sample(u), sys.sample(v)
    r_u = norm_a(u - sys.eval_Nu(su, sv), sys.space)
    r_v = norm_a(-1.0 * v - sys.eval_Nv(su, sv), sys.space)
    m11, m22 = sys.monotony.entries.diagonal().tolist()
    # r * r overflows to inf, where r ** 2 would raise
    gap = lambda r, m: r * r / (2.0 * (1.0 - m)) if m < 1.0 else math.inf
    return NashReport(gap_e1=gap(r_u, m11), gap_e2=gap(r_v, m22))
