"""Test references: oracles that only the tests call.

`fd_gradient_check` validates the residual maps against finite
differences of the energies, `brute_nash` scans a coefficient box
exhaustively on tiny spaces, and `build_stokes_manufactured` builds a
Stokes-form system whose exact pair is known. None of them is part of the
`partialcrit` package: its scheme, certificates and Newton oracle are
what these check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from partialcrit.problems import StokesSpec, _stokes_space
from partialcrit.scheme import (CoupledSystem, SolutionPair, energies,
                                residual_u, residual_v)
from partialcrit.spaces import HVector, _coeffs, random_unit_rows, solve_a
from partialcrit.zeromatrix import MonotonyMatrix


def build_stokes_manufactured(spec: StokesSpec
                              ) -> tuple[CoupledSystem, tuple[HVector, HVector]]:
    """Stokes-form system with a linear coupling term and a known solution.

    The coupling functional is chosen so the exact pair is a smooth
    bump-shaped stream function in each component; the scheme and the
    oracle should both land on it.
    """
    space, grid = _stokes_space(spec)
    n = grid.n
    xs = np.arange(1, n + 1) * grid.hx
    ys = np.arange(1, n + 1) * grid.hy
    gx, gy = np.meshgrid(xs, ys)  # [iy, ix]
    bump1 = (np.sin(np.pi * gx / grid.lx) ** 2
             * np.sin(np.pi * gy / grid.ly) ** 2).reshape(-1)
    bump2 = (np.sin(np.pi * gx / grid.lx)
             * np.sin(2.0 * np.pi * gy / grid.ly)).reshape(-1)
    u_star = space.wrap(bump1)
    v_star = space.wrap(bump2)
    ell1 = space.operator.apply(bump1)
    ell2 = -space.operator.apply(bump2)

    def eval_n(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
        if a.ndim == b.ndim == 1:
            return float(np.dot(ell1, a) + np.dot(ell2, b))
        return np.vecdot(a, ell1) + np.vecdot(b, ell2)

    # the gradients of a linear coupling are the same at every pair: solved
    # once, and read-only, as every call returns the same arrays
    grad_u, grad_v = solve_a(ell1, space), solve_a(ell2, space)
    grad_u.flags.writeable = grad_v.flags.writeable = False

    def eval_nu(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return grad_u

    def eval_nv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return grad_v

    system = CoupledSystem(
        space=space, eval_N=eval_n, eval_Nu=eval_nu, eval_Nv=eval_nv,
        monotony=MonotonyMatrix(np.zeros((2, 2))), growth=None,
        pointwise=None, embedding_sq=None,
        label=f"{space.space_id}-manufactured",
    )
    return system, (u_star, v_star)


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
    direction pairs are drawn as one block; each stepped energy is one
    `energies` call, six a direction, and a NaN mismatch is returned, not
    passed over. ``n_dirs < 1`` raises ``ValueError``.
    """
    if n_dirs < 1:
        raise ValueError(f"n_dirs must be at least 1, not {n_dirs}")
    space = sys.space
    step = 1e-4
    du, dv = random_unit_rows(space, np.random.default_rng(0),
                              2 * n_dirs).reshape(2, n_dirs, space.dim)
    an1 = du @ space.operator.apply(residual_u(sys, u, v))
    an2 = dv @ space.operator.apply(residual_v(sys, u, v))
    e = lambda j, x, y: energies(sys, x, y)[j]
    fd = np.array([
        [e(0, u + step * d, v) - e(0, u - step * d, v) for d in du],
        [e(1, u, v + step * d) - e(1, u, v - step * d) for d in dv],
        [e(2, u + step * a, v + step * b) - e(2, u - step * a, v - step * b)
         for a, b in zip(du, dv)]])
    an = np.array([an1, an2, an1 + an2])
    mismatch = np.abs(fd / (2.0 * step) - an) / np.maximum(1.0, np.abs(an))
    return float(np.max(mismatch))


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
    2 * radius * max residual, plus roundoff. Each grid point costs one
    `energies` call a side: on one Xeon core the default 401-point line
    takes about 10 ms on a scalar system, a 31 by 31 plane about 20 ms and
    the default 401 by 401 plane about 4 s. The extreme deltas are numpy's
    min and max over all points, so a NaN energy at any grid point makes
    the report not ``ok``. A `grid_radius` that is not positive and
    finite, or a pair of another space, raises ``ValueError``.
    """
    space = sys.space
    if space.dim > 2:
        raise ValueError("exhaustive scan is limited to dimension <= 2")
    if not pair.converged:
        raise ValueError("the candidate pair did not converge")
    if grid_n < 3:
        raise ValueError("grid_n must be at least 3")
    if not (0.0 < grid_radius < np.inf):
        raise ValueError(
            f"grid_radius must be positive and finite, not {grid_radius}")
    slack = 2.0 * grid_radius * max(pair.residuals) + 1e-12

    line = np.linspace(-grid_radius, grid_radius, grid_n)
    offsets = (line[:, None] if space.dim == 1
               else np.stack(np.meshgrid(line, line), axis=-1).reshape(-1, 2))

    u, v = _coeffs(pair.u_star, space), _coeffs(pair.v_star, space)
    e1_star, e2_star, _ = energies(sys, u, v)
    e1_deltas = [energies(sys, u + d, v)[0] - e1_star for d in offsets]
    e2_deltas = [energies(sys, u, v + d)[1] - e2_star for d in offsets]
    return BruteScanReport(slack=float(slack),
                           min_e1_delta=float(np.min(e1_deltas)),
                           max_e2_delta=float(np.max(e2_deltas)))
