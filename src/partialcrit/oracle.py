"""Independent cross-checks for the alternating scheme.

`newton_full` solves the stacked critical-point equations directly, with
no knowledge of the partial-energy splitting, so agreement with the
scheme is a genuine two-sided test. `fd_gradient_check` validates the
residual maps against finite differences of the energies, and
`brute_nash` scans a coefficient box exhaustively on tiny spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import ConvergenceError
from .scheme import (CoupledSystem, SolutionPair, _e1, _e2, _probe_rows,
                     energies, residual_u, residual_v)
from .spaces import HVector, norm_a, random_unit_rows

__all__ = [
    "OracleResult",
    "BruteScanReport",
    "newton_full",
    "fd_gradient_check",
    "brute_nash",
]

# Newton iterations before `newton_full` gives up
NEWTON_MAX_ITERS = 50


@dataclass(frozen=True)
class OracleResult:
    u_star: HVector
    v_star: HVector
    residual_norm: float
    iterations: int
    converged: bool
    tol: float


def _fd_jacobian(resid, x: np.ndarray, r0: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian of `resid` at `x`, column by column:
    column j is `resid` at `x` with its j-th entry stepped by
    ``sqrt(eps) * (1 + |x_j|)``, less `r0`, over the step.

    Each stepped state is one `resid` call, and so passes its checks, as
    every Newton state does; the ``x.size`` calls make the dense path
    several times slower than the GMRES step on a mesh.
    """
    jac = np.empty((x.size, x.size))
    steps = np.sqrt(np.finfo(float).eps) * (1.0 + np.abs(x))
    for j, step in enumerate(steps):
        stepped = x.copy()
        stepped[j] += step
        jac[:, j] = (resid(stepped) - r0) / step
    return jac


def _gmres_step(resid, x: np.ndarray, r0: np.ndarray) -> tuple[np.ndarray, int]:
    """Restarted GMRES on finite-difference directional derivatives of
    `resid` at `x`; returns the step and scipy's ``info`` (0 on success)."""
    sqrt_eps = np.sqrt(np.finfo(float).eps)
    norm_x = float(np.linalg.norm(x))

    def matvec(w: np.ndarray) -> np.ndarray:
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return np.zeros_like(w)
        t = sqrt_eps * (1.0 + norm_x) / norm_w
        return (resid(x + t * w) - r0) / t

    op = LinearOperator((x.size, x.size), matvec=matvec)
    return gmres(op, -r0, rtol=1e-4, atol=0.0, restart=60, maxiter=300)


def newton_full(sys: CoupledSystem, tol: float = 1e-8,
                jacobian_free: bool | None = None) -> OracleResult:
    """Damped Newton on the stacked residual (u - Nu, -v - Nv).

    The iteration starts from the zero pair, so its answer owes nothing
    to the scheme's iterates. The Jacobian is taken by forward
    differences, matrix-free through restarted GMRES; only
    ``jacobian_free=False`` asks for it as a dense matrix, one stepped
    state a column (`_fd_jacobian`). The dense path and the parameter stay
    until the benchmark stops passing it ``False``. Convergence is
    declared on the same metric the scheme uses: both A-norm residuals at
    the pair below ``tol``. Line search halves the step until the squared
    euclidean residual decreases; running out of halvings or of the
    `NEWTON_MAX_ITERS` iterations, a singular Jacobian or a GMRES solve
    that does not converge raises `ConvergenceError` with the Newton
    iteration. A nonpositive ``tol`` raises `ValueError`.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    space = sys.space
    n = space.dim
    x = np.zeros(2 * n)

    def resid(vec: np.ndarray) -> np.ndarray:
        u, v = space.check(vec.reshape(2, n))
        return np.concatenate([residual_u(sys, u, v), residual_v(sys, u, v)])

    r = resid(x)
    for it in range(NEWTON_MAX_ITERS):
        ru, rv = norm_a(space.check(r.reshape(2, n)), space).tolist()
        if max(ru, rv) <= tol:
            u, v = map(space.wrap, x.reshape(2, n).copy())
            return OracleResult(u_star=u, v_star=v,
                                residual_norm=max(ru, rv),
                                iterations=it, converged=True, tol=tol)
        if jacobian_free is not False:
            delta, info = _gmres_step(resid, x, r)
            if info != 0:
                raise ConvergenceError(
                    f"inner linear solve did not converge (gmres info {info})",
                    iterations=it)
        else:
            try:
                delta = np.linalg.solve(_fd_jacobian(resid, x, r), -r)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(f"finite-difference Jacobian: {exc}",
                                       iterations=it) from exc
        phi0 = float(r @ r)
        alpha = 1.0
        for _ in range(30):
            x_new = x + alpha * delta
            r_new = resid(x_new)
            if float(r_new @ r_new) <= (1.0 - 1e-4 * alpha) * phi0:
                break
            alpha *= 0.5
        else:
            raise ConvergenceError(
                "line search could not reduce the stacked residual",
                iterations=it)
        x, r = x_new, r_new
    raise ConvergenceError(f"no convergence in {NEWTON_MAX_ITERS} iterations",
                           iterations=NEWTON_MAX_ITERS)


def fd_gradient_check(sys: CoupledSystem, u: np.ndarray, v: np.ndarray,
                      n_dirs: int = 10) -> float:
    """Largest relative mismatch between analytic and central-difference
    directional derivatives of the three energies at the coefficient
    vectors (u, v).

    Directions are seeded (seed 0) unit vectors in the operator norm, and
    the central differences take a step of 1e-4; the relative error
    uses max(1, |analytic|) as denominator so near-critical points do not
    inflate it. Checks the first energy against the u-residual, the second
    against the v-residual, and the total against their sum. The `n_dirs`
    direction pairs are drawn as one block, each of the six stepped energy
    families is one block evaluation, and a NaN mismatch is returned, not
    passed over.
    """
    space = sys.space
    step = 1e-4
    du, dv = random_unit_rows(space, np.random.default_rng(0),
                              2 * n_dirs).reshape(2, n_dirs, space.dim)
    an1 = du @ space.operator.apply(residual_u(sys, u, v))
    an2 = dv @ space.operator.apply(residual_v(sys, u, v))
    fd = np.array([_e1(sys, u + step * du, v) - _e1(sys, u - step * du, v),
                   _e2(sys, u, v + step * dv) - _e2(sys, u, v - step * dv),
                   energies(sys, u + step * du, v + step * dv)[2]
                   - energies(sys, u - step * du, v - step * dv)[2]])
    an = np.array([an1, an2, an1 + an2])
    mismatch = np.abs(fd / (2.0 * step) - an) / np.maximum(1.0, np.abs(an))
    return float(np.max(mismatch, initial=0.0))


@dataclass(frozen=True)
class BruteScanReport:
    """Exhaustive box scan around a candidate pair.

    ``min_e1_delta`` is the smallest E1(u* + d, v*) - E1(u*, v*) over the
    grid; ``max_e2_delta`` the largest E2(u*, v* + d) - E2(u*, v*). For a
    genuine min-max point the first stays above -slack and the second
    below +slack.
    """

    slack: float
    min_e1_delta: float
    max_e2_delta: float

    @property
    def ok(self) -> bool:
        return (self.min_e1_delta >= -self.slack
                and self.max_e2_delta <= self.slack)


def brute_nash(sys: CoupledSystem, pair: SolutionPair,
               grid_radius: float = 0.5, grid_n: int = 401) -> BruteScanReport:
    """Scan a coefficient box exhaustively; spaces of dimension 1 or 2 only.

    The slack is a first-order allowance for the pair's residual,
    2 * radius * max residual, plus roundoff. The grid is evaluated in
    blocks of `scheme._probe_rows` offsets, and the extreme deltas are
    numpy's min and max over all of them, so a NaN energy at any grid
    point makes the report not ``ok``.
    """
    space = sys.space
    if space.dim > 2:
        raise ValueError("exhaustive scan is limited to dimension <= 2")
    if not pair.converged:
        raise ValueError("the candidate pair did not converge")
    if grid_n < 3:
        raise ValueError("grid_n must be at least 3")
    slack = 2.0 * grid_radius * max(pair.residuals) + 1e-12

    line = np.linspace(-grid_radius, grid_radius, grid_n)
    if space.dim == 1:
        offsets = line.reshape(-1, 1)
    else:
        ax, ay = np.meshgrid(line, line)
        offsets = np.column_stack([ax.reshape(-1), ay.reshape(-1)])

    u, v = pair.u_star.coeffs, pair.v_star.coeffs
    e1_star, e2_star = _e1(sys, u, v), _e2(sys, u, v)
    e1_deltas = []
    e2_deltas = []
    rows = _probe_rows(space)
    for start in range(0, len(offsets), rows):
        block = offsets[start:start + rows]
        e1_deltas.append(_e1(sys, u + block, v) - e1_star)
        e2_deltas.append(_e2(sys, u, v + block) - e2_star)

    return BruteScanReport(
        slack=float(slack),
        min_e1_delta=float(np.min(np.concatenate(e1_deltas))),
        max_e2_delta=float(np.max(np.concatenate(e2_deltas))))
