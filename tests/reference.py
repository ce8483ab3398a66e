"""Test references: oracles that only the tests call.

`fd_gradient_check` validates the residual maps against finite
differences of the energies, `brute_nash` scans a coefficient box
exhaustively on tiny spaces, and `build_stokes_manufactured` builds a
Stokes-form system whose exact pair is known. `dirichlet_space`,
`stokes_space` and `band_factor` are the operators composed with
scipy.sparse and the band read through a mirror copy, as the package
built them before it wrote each stencil straight into CSR arrays; the
builders must match them bit for bit. None of them is part of the
`partialcrit` package: its scheme, certificates, builders and Newton
oracle are what these check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf

from partialcrit.errors import IntegrityError
from partialcrit.problems import (DirichletSpec, StokesSpec, _StokesGrid,
                                  _stokes_space)
from partialcrit.scheme import (CoupledSystem, SolutionPair, energies,
                                residual_u, residual_v)
from partialcrit.spaces import (DiscreteSpace, HVector, _coeffs, make_space,
                                random_unit_rows, solve_a)
from partialcrit.zeromatrix import MonotonyMatrix


def _laplacian_1d(n: int, h: float) -> sp.csr_matrix:
    # pointwise second difference with zero boundary values
    main = np.full(n, -2.0 / h**2)
    off = np.full(n - 1, 1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def _pointwise_laplacian_2d(n: int, hx: float, hy: float) -> sp.csr_matrix:
    # ordering: index = iy * n + ix (x fastest)
    eye = sp.identity(n, format="csr")
    return (sp.kron(eye, _laplacian_1d(n, hx), format="csr")
            + sp.kron(_laplacian_1d(n, hy), eye, format="csr"))


def dirichlet_space(spec: DirichletSpec) -> DiscreteSpace:
    """The space of `build_dirichlet`, its operator composed by
    scipy.sparse: the scaled Laplacian plus the scaled lumped mass."""
    n = spec.n_per_dim
    if spec.dims == 1:
        (length,) = spec.lengths
        h = length / (n + 1)
        lap = _laplacian_1d(n, h)
        volume_weight = h
        dim = n
        label_geo = f"dirichlet-1d-n{n}-L{length:g}"
    else:
        lx, ly = spec.lengths
        hx, hy = lx / (n + 1), ly / (n + 1)
        lap = _pointwise_laplacian_2d(n, hx, hy)
        volume_weight = hx * hy
        dim = n * n
        label_geo = f"dirichlet-2d-n{n}-L{lx:g}x{ly:g}"

    weights = np.full(dim, volume_weight)
    matrix = (-volume_weight) * lap + spec.potential_c * sp.diags(weights)
    space_id = f"{label_geo}-c{spec.potential_c:g}"
    return make_space(matrix, weights, space_id=space_id)


def stokes_space(spec: StokesSpec) -> tuple[DiscreteSpace, _StokesGrid]:
    """`problems._stokes_space` with its operator composed by scipy.sparse:
    the squared five-point Laplacian, the clamped-plate correction and the
    scaled stiffness."""
    grid = _StokesGrid(spec)
    n, hx, hy = grid.n, grid.hx, grid.hy
    lap = _pointwise_laplacian_2d(n, hx, hy)
    # clamped-plate closure: squaring the five-point stencil plus the
    # reflected-ghost diagonal correction at near-boundary nodes
    corr = np.zeros((n, n))  # corr[iy, ix]
    corr[:, 0] += 2.0 / hx**4
    corr[:, n - 1] += 2.0 / hx**4
    corr[0, :] += 2.0 / hy**4
    corr[n - 1, :] += 2.0 / hy**4
    vol = hx * hy
    biharm = vol * ((lap @ lap) + sp.diags(corr.reshape(-1)))
    stiff = (-vol) * lap
    matrix = (biharm + spec.mu_coeff * stiff).tocsr()
    weights = np.full(n * n, vol)
    space_id = (f"stokes-n{n}-L{grid.lx:g}x{grid.ly:g}-mu{spec.mu_coeff:g}")
    return make_space(matrix, weights, space_id=space_id), grid


def band_factor(m: sp.csr_matrix) -> np.ndarray:
    """`SpdOperator.factor` with the band checked against a ``(kd, dim)``
    mirror copy of the lower triangle."""
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    offsets = m.indices - rows
    kd = int(np.max(np.abs(offsets), initial=0))
    # A[i, j] with i <= j sits at band[kd + i - j, j]; `mirror` puts
    # each lower entry where its transpose sits in `band`
    up = offsets >= 0
    band = np.zeros((kd + 1, m.shape[0]), order="F")
    band[kd - offsets[up], m.indices[up]] = m.data[up]
    mirror = np.zeros_like(band[:kd])
    mirror[kd + offsets[~up], rows[~up]] = m.data[~up]
    if not np.array_equal(band[:kd], mirror):
        raise IntegrityError("operator matrix is not symmetric")
    band, info = dpbtrf(band, overwrite_ab=1)
    if info != 0:
        raise IntegrityError(
            "Cholesky factorization met a non-positive pivot; "
            "operator is not positive definite")
    return band


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
