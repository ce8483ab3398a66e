"""Sample-based verification of the structural hypotheses.

Everything here is falsification-only evidence: a passing check means no
violation was found on the sampled box, not a proof. The checks cover the
pointwise growth bounds, the coupling (monotony) coefficients fitted from
difference quotients, convergence of the fitted matrix, and the derived
scalar diagnostics used by the boundedness and compactness arguments.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError
from .scheme import CoupledSystem, _probe_blocks
from .spaces import _row_sums
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
        if not (self.box_radius <= 0.5 * sys.float_info.max):
            # the box's width, which rng.uniform computes, would overflow
            raise ValueError("box_radius must be below half the float range")
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
    """The compactness margin ``1 - m11 - m12 m21 / (1 - m22)``.

    ``full`` takes each entry where the two-sequence estimate produces it;
    it is provably positive for a convergent matrix.
    """

    full: float


@dataclass(frozen=True)
class HypothesisReport:
    growth: GrowthReport
    monotony_estimate: MonotonyMatrix
    certificate: ConvergenceCertificate
    mu: float | None
    ready: bool
    notes: tuple[str, ...]


def _draw_box(sampler: SamplerSpec, arg_dim: int, rng: np.random.Generator
              ) -> tuple[np.ndarray, np.ndarray]:
    shape = (sampler.n_points, arg_dim)
    r = sampler.box_radius
    return rng.uniform(-r, r, shape), rng.uniform(-r, r, shape)


def check_growth(F, declared: tuple[float, float, float],
                 sampler: SamplerSpec, arg_dim: int = 1) -> GrowthReport:
    """Test ``-al |y|^2 - c <= F(x, y) <= au |x|^2 + c`` on random points.

    `declared` is the pointwise (alpha_upper, alpha_lower, c) triple; a
    negative or NaN constant, or a sampled square that overflows, raises
    `ValueError`. The report also carries the tightest constants fitting
    the sample: each alpha with the declared c held fixed, and c with the
    declared alphas held fixed.
    """
    au, al, c = (float(x) for x in declared)
    if not (au >= 0.0) or not (al >= 0.0) or not (c >= 0.0):
        raise ValueError("growth constants must be nonnegative")
    rng = np.random.default_rng(sampler.seed)
    x, y = _draw_box(sampler, arg_dim, rng)
    with np.errstate(over="ignore"):  # reported below
        x2, y2 = _row_sums(x * x), _row_sums(y * y)
    if not np.all(np.isfinite((x2, y2))):
        raise ValueError("sampled squares leave the float range")
    f = np.asarray(F(x, y), dtype=float).reshape(-1)
    if f.shape[0] != sampler.n_points:
        raise ValueError("F must return one value per sample point")

    slack = 1e-12 * np.maximum(1.0, np.abs(f))
    # a gap or fit that overflows keeps its sign, which is all that is read
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        upper_gap = f - (au * x2 + c)          # > 0 means violated
        lower_gap = (-al * y2 - c) - f
        au_hat = np.where(x2 > 1e-300, (f - c) / x2, 0.0)
        al_hat = np.where(y2 > 1e-300, (-f - c) / y2, 0.0)
    # written as "not within", so that a NaN value counts as violated; an
    # infinite value is violated too, though its slack is infinite
    violated = ~(np.maximum(upper_gap, lower_gap) <= slack) | ~np.isfinite(f)
    witness = None
    if np.any(violated):
        worst = int(np.argmax(np.maximum(upper_gap, lower_gap)))
        witness = tuple(float(t) for t in (*x[worst], *y[worst], f[worst]))
    # numpy's max, which returns a NaN fit where the builtin's would drop it
    return GrowthReport(
        ok=not bool(np.any(violated)),
        alpha_upper_hat=float(np.max(au_hat, initial=0.0)),
        alpha_lower_hat=float(np.max(al_hat, initial=0.0)),
        c_hat=float(np.max(np.maximum(f - au * x2, -f - al * y2),
                           initial=0.0)),
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
    A-norm ones. A sampled row that leaves the float range is bad input:
    `ValueError`, and so is a box with no pair to fit on one side.
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
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        s1 = _row_sums((np.asarray(f1(x, y)) - np.asarray(f1(xb, yb))) * (x - xb))
        s2 = _row_sums((np.asarray(f2(x, y)) - np.asarray(f2(xb, yb))) * (y - yb))
        rows = np.stack([dx ** 2, dy ** 2, dx * dy, s1, s2])
    if not np.all(np.isfinite(rows)):
        raise ValueError("sampled difference quotients leave the float range")

    keep1, keep2 = dx > 1e-12, dy > 1e-12
    if not (np.any(keep1) and np.any(keep2)):
        raise ValueError("box_radius is too small to fit a slope")
    m11, m12 = _fit_pair(dx[keep1] ** 2, (dx * dy)[keep1], s1[keep1])
    m22, m21 = _fit_pair(dy[keep2] ** 2, (dx * dy)[keep2], -s2[keep2])
    raw = np.array([[m11, m12], [m21, m22]])
    return MonotonyMatrix(embedding_sq * raw)


def mu_of(alpha_upper: float, alpha_lower: float) -> float:
    """Contraction factor of the norm recursion driven by the growth bounds.

    Takes the two A-norm alpha coefficients, which may sum to one half or
    more (a `GrowthParams` rejects such pairs). Raises ``ValueError``
    outside [0, 1/2) per coefficient and cross-checks that ``mu < 1``
    holds exactly when the coefficient sum is below one half.
    """
    au, al = float(alpha_upper), float(alpha_lower)
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
    violate it. A nonzero violated fraction rules the geometry out. The
    points come from `scheme._probe_blocks`, so they are a function of the
    sampler's seed and point count alone.
    """
    if not (tau > 0.0):
        raise ValueError("tau must be positive")
    zero = np.zeros(sys.space.dim)
    n_zero = sys.eval_N(zero, zero)

    violated = 0
    for split, d_u, d_v in _probe_blocks(sys.space, sampler.seed,
                                         sampler.n_points):
        nu = split * tau
        nv = (1.0 - split) * tau
        # a bound that overflows keeps its sign, and a NaN left side counts
        # as violated
        with np.errstate(over="ignore", invalid="ignore"):
            lhs = sys.eval_N(d_u * nu[:, None], d_v * nv[:, None]) - n_zero
            violated += int(np.count_nonzero(~(lhs < 0.5 * tau * (nu - nv))))
    return RingReport(tau=float(tau), n_samples=sampler.n_points,
                      n_violated=violated)


def ps_beta(mm: MonotonyMatrix) -> PsBeta:
    """The compactness margin of a convergent matrix."""
    if mm.n != 2:
        raise ValueError("the margin is defined for 2 by 2 matrices")
    cert = is_convergent_to_zero(mm)
    if not cert.rho_ok:
        raise ValueError(
            f"matrix is not convergent to zero (radius {cert.spectral_radius:.6g})"
        )
    e = mm.entries
    full = (1.0 - float(e[0, 0])
            - float(e[0, 1]) * float(e[1, 0]) / (1.0 - float(e[1, 1])))
    if not (full > 0.0):
        raise IntegrityError(
            f"full margin {full} should be positive for a convergent matrix"
        )
    return PsBeta(full=float(full))


def full_report(sys: CoupledSystem, declared: tuple[float, float, float],
                sampler: SamplerSpec) -> HypothesisReport:
    """Aggregate growth, coupling, convergence, and mu into one verdict.

    `declared` is the pointwise (alpha_upper, alpha_lower, c) triple to
    test, as `check_growth` takes it. The fitted coupling matrix is scaled
    by the system's recorded squared embedding constant, then certified.
    ``ready`` means: growth holds on the sample, the fitted matrix is
    convergent to zero, and the contraction factor is defined and below one.
    """
    pw = sys.pointwise
    emb_sq = sys.embedding_sq
    if pw is None or emb_sq is None:
        raise ValueError("system carries no pointwise nonlinearity to check")

    growth_rep = check_growth(pw.F, declared, sampler, arg_dim=pw.arg_dim)
    est = estimate_monotony(pw.f1, pw.f2, sampler, arg_dim=pw.arg_dim,
                            embedding_sq=emb_sq)
    cert = is_convergent_to_zero(est)

    notes = [SAMPLING_NOTE, ORIENTATION_NOTE]
    if sys.growth is not None:
        mu = mu_of(sys.growth.alpha_upper, sys.growth.alpha_lower)
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
