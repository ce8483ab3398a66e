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


# relative slack within which a sampled row counts as passing through the
# optimal vertex, and by which the finished vertex may miss a row: the
# difference quotients of close pairs carry cancellation error up to about
# 6e-10 relative on the quadratic samplers
_VERTEX_TOL = 1e-9
_INF_BITS = 0x7FF0000000000000  # the bit pattern of +inf as an int64


def _fit_pair(a_coeff: np.ndarray, b_coeff: np.ndarray, rhs: np.ndarray
              ) -> tuple[float, float]:
    """Minimize ``p + q`` over ``p, q >= 0`` with ``p a_i + q b_i >= rhs_i``.

    An exact solve of this two-variable linear program in numpy; linear
    programs in fixed dimension take linear time (Megiddo, SIAM J. Comput.
    12(4), 1983), and the few passes below over all rows do as well. The
    coefficients are nonnegative. Rows with ``rhs_i <= 0`` hold for every
    ``p, q >= 0``; the others are scaled to ``A_i p + B_i q >= 1``, since
    close-pair rows are many decades smaller than far-pair ones.

    The optimum is a vertex: an axis intercept or the crossing of two
    rows. On the ray ``p = t q``, ``0 <= t <= inf``, the least feasible
    point has ``1 / (p + q) = min_i (A_i t + B_i) / (1 + t)``; that rises
    while its minimal row has ``A_i > B_i`` and falls after, so bisection
    on the sign of ``A_i - B_i`` at the minimal row locates the optimal
    ray without a loop over rows. The vertex is then finished in closed form from the
    two best-conditioned constraints tight there: the tight rows with the
    largest and the smallest ``A_i / B_i``, an axis standing in for a row
    when the vertex lies on it. Sampled rows are degenerate (on a
    quadratic coupling every row passes through one vertex, up to
    rounding), so crossing two adjacent rows of the envelope would magnify
    their rounding; the extreme pair does not, and a vertex on an axis
    comes out with an exact zero. Should the finished vertex miss a row by
    more than the rounding slack, the located point is returned instead.

    A row with ``a_i = b_i = 0 < rhs_i`` cannot hold: `IntegrityError`.
    """
    # a row whose right-hand side is below the float range relative to its
    # coefficients holds up to underflow, and scaling it would overflow
    active = rhs > np.finfo(float).tiny * np.maximum(a_coeff, b_coeff)
    if not np.any(active):
        return 0.0, 0.0
    r = rhs[active]
    a, b = a_coeff[active] / r, b_coeff[active] / r
    if not np.all((a > 0.0) | (b > 0.0)):
        raise IntegrityError("coefficient fit failed: a row with a positive "
                             "right-hand side has no positive coefficient")
    slope = a - b

    def ray(t):
        # the rows on the ray p = t q, divided by the larger of p and q
        return a * t + b if t <= 1.0 else a + b / t

    # bisect t over its bit patterns, which order as the floats do: 63
    # halvings reach adjacent floats at every magnitude
    lo, hi = 0, _INF_BITS
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if slope[np.argmin(ray(np.int64(mid).view(np.float64)))] > 0.0:
            lo = mid
        else:
            hi = mid
    t = np.int64(lo).view(np.float64)
    g = ray(t)
    top = 1.0 / g.min()
    p0, q0 = (t * top, top) if t <= 1.0 else (top, top / t)
    tight = g * top <= 1.0 + _VERTEX_TOL
    at, bt = a[tight], b[tight]
    # along rows through one point, A - B orders them as A / B does
    i, j = np.argmax(slope[tight]), np.argmin(slope[tight])
    # products of scaled rows overflow only far from the vertex, where the
    # rows hold anyway, or when p q is below the float range
    with np.errstate(over="ignore", invalid="ignore"):
        det = at[i] * bt[j] - at[j] * bt[i]
        if p0 * at.max() <= _VERTEX_TOL:
            p, q = 0.0, 1.0 / bt[j]
        elif q0 * bt.max() <= _VERTEX_TOL:
            p, q = 1.0 / at[i], 0.0
        elif 0.0 < det < np.inf:
            p, q = (bt[j] - bt[i]) / det, (at[i] - at[j]) / det
        else:
            p, q = p0, q0
        if not (min(p, q) >= 0.0 and np.min(a * p + b * q) >= 1.0 - _VERTEX_TOL):
            p, q = p0, q0
    return float(p), float(q)


def estimate_monotony(f1, f2, sampler: SamplerSpec, arg_dim: int = 1,
                      embedding_sq: float = 1.0) -> MonotonyMatrix:
    """Fit the smallest coupling coefficients consistent with the sample.

    Difference quotients of the gradients over random point pairs (half
    drawn independently, half drawn close together to probe local slopes)
    are enclosed by

        (f1(x,y) - f1(x',y')) . (x - x') <= m11 |dx|^2 + m12 |dx| |dy|
        (f2(x,y) - f2(x',y')) . (y - y') >= -m22 |dy|^2 - m21 |dx| |dy|

    and each pair of coefficients is minimized (in the sum sense) by an
    exact two-variable linear program (`_fit_pair`). The returned matrix
    is scaled by ``embedding_sq``, converting pointwise coefficients into
    A-norm ones.
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
