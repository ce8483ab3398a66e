"""Sample-based verification of the structural hypotheses.

Everything here is falsification-only evidence: a passing check means no
violation was found on the sampled box, not a proof. The checks cover the
pointwise growth bounds, the coupling (monotony) coefficients fitted from
difference quotients, convergence of the fitted matrix, and the derived
scalar diagnostics used by the boundedness and compactness arguments.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import IntegrityError
from .scheme import CoupledSystem, GrowthParams
from .spaces import embedding_constant, random_unit
from .zeromatrix import ConvergenceCertificate, MonotonyMatrix, is_convergent_to_zero

__all__ = [
    "SamplerSpec",
    "GrowthReport",
    "RingReport",
    "PsBeta",
    "HypothesisReport",
    "check_growth",
    "estimate_monotony",
    "mu_of",
    "check_mountain_pass_ring",
    "ps_beta",
    "full_report",
]

SAMPLING_NOTE = ("sampled checks provide falsification evidence only; "
                 "a pass is not a proof")
ORIENTATION_NOTE = ("growth bound orientation: the upper bound grows with the "
                    "first argument, the lower bound with the second")


@dataclass(frozen=True)
class SamplerSpec:
    """How to draw pointwise samples: count, box half-width, seed."""

    n_points: int = 400
    box_radius: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError("n_points must be positive")
        if not (self.box_radius > 0.0):
            raise ValueError("box_radius must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.n_points < 100:
            warnings.warn(
                "fewer than 100 sample points gives a weak verdict",
                RuntimeWarning, stacklevel=3,
            )


@dataclass(frozen=True)
class GrowthReport:
    ok: bool
    alpha_upper_hat: float
    alpha_lower_hat: float
    c_hat: float
    witness: tuple[float, ...] | None
    n_points: int


@dataclass(frozen=True)
class RingReport:
    """Fractions for the necessary ring inequality at level tau."""

    tau: float
    n_samples: int
    n_violated: int

    @property
    def fraction_violated(self) -> float:
        return self.n_violated / self.n_samples


@dataclass(frozen=True)
class PsBeta:
    """Two readings of the compactness margin 1 - m11 - cross/(1 - diag).

    ``m11_only`` substitutes the first diagonal entry for every coefficient;
    ``full`` uses the matrix's actual entries where the two-sequence
    estimate produces them. The full margin is provably positive for a
    convergent matrix; the m11-only one need not be.
    """

    m11_only: float
    full: float


@dataclass(frozen=True)
class HypothesisReport:
    growth: GrowthReport
    monotony_estimate: MonotonyMatrix
    certificate: ConvergenceCertificate
    mu: float | None
    ready: bool
    notes: tuple[str, ...]


def _unpack_growth(declared) -> tuple[float, float, float]:
    if isinstance(declared, GrowthParams):
        return declared.alpha_upper, declared.alpha_lower, declared.c_growth
    au, al, c = (float(x) for x in declared)
    if au < 0.0 or al < 0.0 or c < 0.0:
        raise ValueError("growth constants must be nonnegative")
    return au, al, c


def _draw_box(sampler: SamplerSpec, arg_dim: int, rng: np.random.Generator
              ) -> tuple[np.ndarray, np.ndarray]:
    shape = (sampler.n_points, arg_dim)
    r = sampler.box_radius
    return rng.uniform(-r, r, shape), rng.uniform(-r, r, shape)


def check_growth(F, declared, sampler: SamplerSpec, arg_dim: int = 1
                 ) -> GrowthReport:
    """Test ``-al |y|^2 - c <= F(x, y) <= au |x|^2 + c`` on random points.

    `declared` is a `GrowthParams` or a plain (alpha_upper, alpha_lower, c)
    triple; the constants are interpreted pointwise. The report also
    carries the tightest constants fitting the sample: each alpha with the
    declared c held fixed, and c with the declared alphas held fixed.
    """
    au, al, c = _unpack_growth(declared)
    rng = np.random.default_rng(sampler.seed)
    x, y = _draw_box(sampler, arg_dim, rng)
    f = np.asarray(F(x, y), dtype=float).reshape(-1)
    if f.shape[0] != sampler.n_points:
        raise ValueError("F must return one value per sample point")
    x2 = np.sum(x * x, axis=1)
    y2 = np.sum(y * y, axis=1)

    slack = 1e-12 * np.maximum(1.0, np.abs(f))
    upper_gap = f - (au * x2 + c)          # > 0 means violated
    lower_gap = (-al * y2 - c) - f
    violated = np.maximum(upper_gap, lower_gap) > slack
    witness = None
    if np.any(violated):
        worst = int(np.argmax(np.maximum(upper_gap, lower_gap)))
        witness = tuple(float(t) for t in (*x[worst], *y[worst], f[worst]))

    with np.errstate(divide="ignore", invalid="ignore"):
        au_hat = np.where(x2 > 1e-300, (f - c) / x2, 0.0)
        al_hat = np.where(y2 > 1e-300, (-f - c) / y2, 0.0)
    return GrowthReport(
        ok=not bool(np.any(violated)),
        alpha_upper_hat=float(max(0.0, np.max(au_hat))),
        alpha_lower_hat=float(max(0.0, np.max(al_hat))),
        c_hat=float(max(0.0, np.max(f - au * x2), np.max(-f - al * y2))),
        witness=witness,
        n_points=sampler.n_points,
    )


def _fit_pair(a_coeff: np.ndarray, b_coeff: np.ndarray, rhs: np.ndarray
              ) -> tuple[float, float]:
    # smallest (p, q) >= 0 minimizing p + q with p*a_i + q*b_i >= rhs_i
    active = rhs > 0.0
    if not np.any(active):
        return 0.0, 0.0
    # close-pair rows are many decades smaller than far-pair rows; scale
    # each to unit right-hand side or the solver returns junk vertices
    r = rhs[active]
    res = linprog(
        c=[1.0, 1.0],
        A_ub=np.column_stack([-a_coeff[active] / r, -b_coeff[active] / r]),
        b_ub=-np.ones(r.size),
        bounds=[(0.0, None), (0.0, None)],
        method="highs",
    )
    if not res.success:
        raise IntegrityError(f"coefficient fit failed: {res.message}")
    return float(res.x[0]), float(res.x[1])


def estimate_monotony(f1, f2, sampler: SamplerSpec, arg_dim: int = 1,
                      embedding_sq: float = 1.0) -> MonotonyMatrix:
    """Fit the smallest coupling coefficients consistent with the sample.

    Difference quotients of the gradients over random point pairs (half
    drawn independently, half drawn close together to probe local slopes)
    are enclosed by

        (f1(x,y) - f1(x',y')) . (x - x') <= m11 |dx|^2 + m12 |dx| |dy|
        (f2(x,y) - f2(x',y')) . (y - y') >= -m22 |dy|^2 - m21 |dx| |dy|

    and each pair of coefficients is minimized (in the sum sense) by a
    linear program. The returned matrix is scaled by ``embedding_sq``,
    converting pointwise coefficients into A-norm ones.
    """
    if not (embedding_sq > 0.0):
        raise ValueError("embedding_sq must be positive")
    rng = np.random.default_rng(sampler.seed)
    x, y = _draw_box(sampler, arg_dim, rng)
    xb, yb = _draw_box(sampler, arg_dim, rng)
    # close pairs for the second half: offsets spanning four decades
    half = sampler.n_points // 2
    count = sampler.n_points - half
    if count > 0:
        scale = sampler.box_radius * 10.0 ** rng.uniform(-4.0, 0.0, (count, 1))
        xb[half:] = x[half:] + scale * rng.standard_normal((count, arg_dim))
        yb[half:] = y[half:] + scale * rng.standard_normal((count, arg_dim))

    dx = np.linalg.norm(x - xb, axis=1)
    dy = np.linalg.norm(y - yb, axis=1)
    s1 = np.sum((np.asarray(f1(x, y)) - np.asarray(f1(xb, yb))) * (x - xb), axis=1)
    s2 = np.sum((np.asarray(f2(x, y)) - np.asarray(f2(xb, yb))) * (y - yb), axis=1)

    keep1 = dx > 1e-12
    m11, m12 = _fit_pair(dx[keep1] ** 2, (dx * dy)[keep1], s1[keep1])
    keep2 = dy > 1e-12
    m22, m21 = _fit_pair(dy[keep2] ** 2, (dx * dy)[keep2], -s2[keep2])
    raw = np.array([[m11, m12], [m21, m22]])
    return MonotonyMatrix(embedding_sq * raw)


def mu_of(growth, alpha_lower: float | None = None) -> float:
    """Contraction factor of the norm recursion driven by the growth bounds.

    Accepts a `GrowthParams` or the two alpha coefficients directly (the
    direct form permits evaluating boundary pairs that the dataclass
    rejects). Raises ``ValueError`` outside [0, 1/2) per coefficient and
    cross-checks that ``mu < 1`` holds exactly when the coefficient sum is
    below one half.
    """
    if isinstance(growth, GrowthParams):
        if alpha_lower is not None:
            raise ValueError("pass either a GrowthParams or two floats")
        au, al = growth.alpha_upper, growth.alpha_lower
    else:
        if alpha_lower is None:
            raise ValueError("alpha_lower is required with the float form")
        au, al = float(growth), float(alpha_lower)
    for val in (au, al):
        if not (0.0 <= val < 0.5):
            raise ValueError("growth coefficients must lie in [0, 1/2)")
    mu = (au * al) / ((0.5 - au) * (0.5 - al))
    agree = (mu < 1.0) == (au + al < 0.5)
    if not agree and abs(au + al - 0.5) > 1e-12:
        raise IntegrityError(
            f"mu={mu} inconsistent with coefficient sum {au + al}"
        )
    return float(mu)


def check_mountain_pass_ring(sys: CoupledSystem, tau: float,
                             sampler: SamplerSpec) -> RingReport:
    """Sample the ring ``|u|_A + |v|_A = tau`` for the necessary inequality.

    A positive mountain-pass level on the ring requires

        N(u, v) - N(0, 0) < (tau / 2) (|u|_A - |v|_A)

    at every ring point; the report counts how often the sampled points
    violate it. A nonzero violated fraction rules the geometry out.
    """
    if not (tau > 0.0):
        raise ValueError("tau must be positive")
    space = sys.space
    rng = np.random.default_rng(sampler.seed)
    zero = space.zero()
    n_zero = float(sys.eval_N(zero, zero))

    violated = 0
    for _ in range(sampler.n_points):
        split = rng.random()
        nu = split * tau
        nv = (1.0 - split) * tau
        u = nu * random_unit(space, rng)
        v = nv * random_unit(space, rng)
        lhs = float(sys.eval_N(u, v)) - n_zero
        if not (lhs < 0.5 * tau * (nu - nv)):
            violated += 1
    return RingReport(tau=float(tau), n_samples=sampler.n_points,
                      n_violated=violated)


def ps_beta(m) -> PsBeta:
    """Both readings of the compactness margin for a convergent matrix."""
    mm = m if isinstance(m, MonotonyMatrix) else MonotonyMatrix(np.asarray(m, float))
    if mm.n != 2:
        raise ValueError("the margin is defined for 2 by 2 matrices")
    cert = is_convergent_to_zero(mm)
    if not cert.rho_ok:
        raise ValueError(
            f"matrix is not convergent to zero (radius {cert.spectral_radius:.6g})"
        )
    e = mm.entries
    m11 = float(e[0, 0])
    lit = 1.0 - m11 - m11 * m11 / (1.0 - m11)
    full = 1.0 - m11 - float(e[0, 1]) * float(e[1, 0]) / (1.0 - float(e[1, 1]))
    if not (full > 0.0):
        raise IntegrityError(
            f"full margin {full} should be positive for a convergent matrix"
        )
    return PsBeta(m11_only=float(lit), full=float(full))


def full_report(sys: CoupledSystem, declared, sampler: SamplerSpec
                ) -> HypothesisReport:
    """Aggregate growth, coupling, convergence, and mu into one verdict.

    `declared` carries the pointwise growth constants to test. The fitted
    coupling matrix is scaled by the system's recorded squared embedding
    constant (falling back to the space's own), then certified. ``ready``
    means: growth holds on the sample, the fitted matrix is convergent to
    zero, and the contraction factor is defined and below one.
    """
    pw = sys.pointwise
    if pw is None:
        raise ValueError("system carries no pointwise nonlinearity to check")
    emb_sq = sys.embedding_sq
    if emb_sq is None:
        emb_sq = embedding_constant(sys.space) ** 2

    growth_rep = check_growth(pw.F, declared, sampler, arg_dim=pw.arg_dim)
    est = estimate_monotony(pw.f1, pw.f2, sampler, arg_dim=pw.arg_dim,
                            embedding_sq=emb_sq)
    cert = is_convergent_to_zero(est)

    notes = [SAMPLING_NOTE, ORIENTATION_NOTE]
    if sys.growth is not None:
        mu = mu_of(sys.growth)
    else:
        au = growth_rep.alpha_upper_hat * emb_sq
        al = growth_rep.alpha_lower_hat * emb_sq
        if au < 0.5 and al < 0.5 and au + al < 0.5:
            mu = mu_of(au, al)
            notes.append("mu derived from fitted growth constants")
        else:
            mu = None
            notes.append("fitted growth constants leave mu undefined")

    ready = bool(growth_rep.ok and cert.rho_ok and mu is not None and mu < 1.0)
    return HypothesisReport(
        growth=growth_rep, monotony_estimate=est, certificate=cert,
        mu=mu, ready=ready, notes=tuple(notes),
    )
