"""Sample-based verification of the structural hypotheses.

Everything here is falsification-only evidence: a passing check means no
violation was found on the sampled box, not a proof. The checks cover the
pointwise growth bounds, the declared coupling (monotony) matrix tested
on sampled pairs of points and certified, and the derived scalar
diagnostics used by the boundedness and compactness arguments.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IntegrityError
from .scheme import CoupledSystem, _check_integers, _probe_blocks
from .spaces import _row_sums
from .zeromatrix import ConvergenceCertificate, MonotonyMatrix, is_convergent_to_zero

__all__ = [
    "SamplerSpec",
    "GrowthReport",
    "RingReport",
    "CouplingReport",
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
        _check_integers(self, "n_points", "seed")
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
class CouplingReport:
    """Violated samples of the u-row and the v-row of a coupling matrix.

    A row's witness is its worst sample, ``(*x, *y, *x', *y', excess)``,
    the excess being by how much the left side passes the row's pointwise
    bound; None where no sample violates the row.
    """

    ok: bool
    n_violated: tuple[int, int]
    witness: tuple[tuple[float, ...] | None, tuple[float, ...] | None]
    n_points: int


@dataclass(frozen=True)
class PsBeta:
    """The compactness margin ``1 - m11 - m12 m21 / (1 - m22)``.

    ``full`` is provably positive for a convergent matrix, and computed
    exactly, then rounded once.
    """

    full: float


@dataclass(frozen=True, eq=False)
class HypothesisReport:
    """The verdict of `full_report`. ``monotony_estimate`` is the system's
    declared coupling matrix, the one `run_scheme` certifies; the benchmark
    under ``perfbench/`` reads the field by that name.
    """

    growth: GrowthReport
    monotony_estimate: MonotonyMatrix
    coupling: CouplingReport
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
    negative, infinite or NaN constant, or a sampled square that overflows,
    raises `ValueError`. The report also carries the tightest constants
    fitting the sample: each alpha with the declared c held fixed, and c
    with the declared alphas held fixed.
    """
    au, al, c = (float(x) for x in declared)
    if not (au >= 0.0) or not (al >= 0.0) or not (c >= 0.0):
        raise ValueError("growth constants must be nonnegative")
    if np.inf in (au, al, c):
        raise ValueError("growth constants must be finite")
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


def estimate_monotony(f1, f2, monotony: MonotonyMatrix, sampler: SamplerSpec,
                      arg_dim: int = 1, embedding_sq: float = 1.0
                      ) -> CouplingReport:
    """Test a declared coupling matrix on sampled pairs of points.

    `monotony` is in A-norm units, as a system holds it; divided by
    ``embedding_sq`` its rows must bound the gradient differences:

        (f1(x,y) - f1(x',y')) . (x - x') <= m11 |dx|^2 + m12 |dx| |dy|
        (f2(x,y) - f2(x',y')) . (y - y') >= -m22 |dy|^2 - m21 |dx| |dy|

    Half of the pairs are drawn independently, half close together (with
    offsets over four decades) to probe local slopes. A sample violates a
    row when its left side passes the bound by more than rounding: 1e-9 of
    the larger side, plus ``4 eps sum(|g(x,y)| + |g(x',y')|) |x - x'|`` for
    the cancellation in a close pair's gradient difference (each gradient
    ``g`` taken to within ``tiny`` more, for underflow), plus ``tiny``. The
    benchmark under ``perfbench/`` binds the function by this name.

    A sampled row that leaves the float range is bad input: `ValueError`,
    and so are a box with no pair more than 1e-12 apart on one side and a
    gradient not of its points' ``(n_points, arg_dim)`` shape.
    """
    if not (embedding_sq > 0.0):
        raise ValueError("embedding_sq must be positive")
    if monotony.n != 2:
        raise ValueError("the coupling matrix must be 2 by 2")
    rng = np.random.default_rng(sampler.seed)
    x, y = _draw_box(sampler, arg_dim, rng)
    xb, yb = _draw_box(sampler, arg_dim, rng)
    # close pairs for the second half: offsets spanning four decades
    half = sampler.n_points // 2
    count = sampler.n_points - half
    scale = sampler.box_radius * 10.0 ** rng.uniform(-4.0, 0.0, (count, 1))
    xb[half:] = x[half:] + scale * rng.standard_normal((count, arg_dim))
    yb[half:] = y[half:] + scale * rng.standard_normal((count, arg_dim))

    ex, ey = x - xb, y - yb
    dx, dy = np.linalg.norm(ex, axis=1), np.linalg.norm(ey, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        g = [np.asarray(f(*p)) for f in (f1, f2) for p in ((x, y), (xb, yb))]
        for name, gi in zip(("f1", "f1", "f2", "f2"), g):
            if gi.shape != x.shape:  # it would broadcast in the products
                raise ValueError(
                    f"a pointwise gradient must return the shape {x.shape} "
                    f"of its points: {name} returned shape {gi.shape}")
        lhs = np.stack([_row_sums((g[0] - g[1]) * ex),
                        -_row_sums((g[2] - g[3]) * ey)])
    if not np.all(np.isfinite([dx ** 2, dy ** 2, dx * dy, *lhs])):
        raise ValueError("sampled difference quotients leave the float range")
    if not (np.any(dx > 1e-12) and np.any(dy > 1e-12)):
        raise ValueError("box_radius is too small to test a slope")

    m = monotony.entries / embedding_sq
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    # a bound that overflows holds, and so does its infinite slack
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.stack([m[0, 0] * dx ** 2 + m[0, 1] * dx * dy,
                          m[1, 1] * dy ** 2 + m[1, 0] * dx * dy])
        # each gradient is within eps relative, or tiny where it underflows
        cancel = np.stack([
            _row_sums((eps * (np.abs(g[0]) + np.abs(g[1])) + tiny) * abs(ex)),
            _row_sums((eps * (np.abs(g[2]) + np.abs(g[3])) + tiny) * abs(ey))])
        excess = lhs - bound
        violated = excess > (1e-9 * np.maximum(np.abs(lhs), bound)
                             + 4.0 * cancel + tiny)
    counts = tuple(int(c) for c in np.count_nonzero(violated, axis=1))
    worst = np.argmax(np.where(violated, excess, -np.inf), axis=1)
    witness = tuple(
        tuple(map(float, (*x[i], *y[i], *xb[i], *yb[i], excess[k, i])))
        if counts[k] else None for k, i in enumerate(worst))
    return CouplingReport(ok=not any(counts), n_violated=counts,
                          witness=witness, n_points=sampler.n_points)


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
    sampler's seed and point count alone. A tau that is not positive and
    finite raises ``ValueError``.
    """
    if not (0.0 < tau < np.inf):
        raise ValueError("tau must be positive and finite")
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
    # exact, then rounded once: in floats it can round to <= 0 near rho = 1
    m11, m12, m21, m22 = map(Fraction, mm.entries.ravel().tolist())
    return PsBeta(full=float(1 - m11 - m12 * m21 / (1 - m22)))


def full_report(sys: CoupledSystem, declared: tuple[float, float, float],
                sampler: SamplerSpec) -> HypothesisReport:
    """Aggregate growth, coupling, convergence, and mu into one verdict.

    `declared` is the pointwise (alpha_upper, alpha_lower, c) triple to
    test, as `check_growth` takes it. The system's coupling matrix, the
    one `run_scheme` certifies, is tested on the samples and certified.
    mu takes the table's own growth constants, or the fitted ones where it
    declares none, scaled by the system's recorded squared embedding
    constant; a scaled pair past the bound of `GrowthParams` leaves it
    ``None``. ``ready`` means: growth holds on the sample, no sample
    violates the coupling matrix, which is convergent to zero, and the
    contraction factor is defined and below one; a violated row and a
    matrix not convergent to zero each add a note.
    """
    pw = sys.pointwise
    emb_sq = sys.embedding_sq
    if pw is None or emb_sq is None:
        raise ValueError("system carries no pointwise nonlinearity to check")

    growth_rep = check_growth(pw.F, declared, sampler, arg_dim=pw.arg_dim)
    coupling = estimate_monotony(pw.f1, pw.f2, sys.monotony, sampler,
                                 arg_dim=pw.arg_dim, embedding_sq=emb_sq)
    cert = is_convergent_to_zero(sys.monotony)

    notes = [SAMPLING_NOTE, ORIENTATION_NOTE] + [
        f"coupling matrix {row}-row violated on {count} of "
        f"{coupling.n_points} samples"
        for row, count in zip("uv", coupling.n_violated) if count]
    if not cert.rho_ok:
        notes.append(f"coupling matrix is not convergent to zero (spectral "
                     f"radius {cert.spectral_radius:.6g})")
    if pw.growth is not None:
        source = "declared"
        au, al = pw.growth[0] * emb_sq, pw.growth[1] * emb_sq
    else:
        source = "fitted"
        au = growth_rep.alpha_upper_hat * emb_sq
        al = growth_rep.alpha_lower_hat * emb_sq
    if au < 0.5 and al < 0.5 and au + al < 0.5:
        mu = mu_of(au, al)
        if source == "fitted":
            notes.append("mu derived from fitted growth constants")
    else:
        mu = None
        notes.append(f"{source} growth constants leave mu undefined")

    ready = bool(growth_rep.ok and coupling.ok and cert.rho_ok
                 and mu is not None and mu < 1.0)
    return HypothesisReport(
        growth=growth_rep, monotony_estimate=sys.monotony, coupling=coupling,
        certificate=cert, mu=mu, ready=ready, notes=tuple(notes),
    )
