"""An independent cross-check for the alternating scheme.

`newton_full` solves the stacked critical-point equations directly, with
no knowledge of the partial-energy splitting, so agreement with the
scheme is a genuine two-sided test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import ConvergenceError
from .scheme import CoupledSystem
from .spaces import HVector, norm_a

__all__ = [
    "OracleResult",
    "newton_full",
]

# Newton iterations before `newton_full` gives up
NEWTON_MAX_ITERS = 50


@dataclass(frozen=True, eq=False)
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
    iteration. A ``tol`` that is not positive and finite raises
    `ValueError`: an infinite one would accept the zero pair.
    """
    if not (0.0 < tol < math.inf):
        raise ValueError("tol must be positive and finite")
    space = sys.space
    n = space.dim
    x = np.zeros(2 * n)

    def resid(vec: np.ndarray) -> np.ndarray:
        u, v = space.check(vec.reshape(2, n))
        # `residual_u` and `residual_v` bit for bit, on one sampling a side
        su, sv = sys.sample(u), sys.sample(v)
        return np.concatenate([u - sys.eval_Nu(su, sv),
                               -1.0 * v - sys.eval_Nv(su, sv)])

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
