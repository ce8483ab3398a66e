"""Concrete discretized problems producing `CoupledSystem` instances.

Two families are built here:

* Dirichlet reaction systems on an interval or a rectangle. The operator
  is the finite-difference Laplacian plus an optional potential, in weak
  (volume-scaled) form; the coupling term integrates a pointwise density
  F(u, v) with lumped quadrature.

* A velocity formulation of coupled Stokes-type systems on a rectangle,
  reduced to scalar stream functions. Divergence-free velocity fields are
  parameterized as v = (dpsi/dy, -dpsi/dx), which turns the velocity
  inner product (grad v, grad w) + mu (v, w) into a clamped biharmonic
  stencil plus mu times the Laplacian stiffness. The incompressibility
  constraint then holds exactly by construction; pressure recovery is out
  of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .scheme import CoupledSystem, GrowthParams
from .spaces import (DiscreteSpace, HVector, _row_sums, dominant_inverse_eig,
                     embedding_constant, make_space, riesz_lift, solve_a,
                     validate_space)
from .zeromatrix import MonotonyMatrix

__all__ = [
    "PointwiseNonlinearity",
    "NonlinearitySpec",
    "make_pointwise",
    "DirichletSpec",
    "StokesSpec",
    "build_dirichlet",
    "build_stokes",
    "build_scalar",
    "build_stokes_manufactured",
    "reconstruct_velocity",
    "discrete_divergence",
]


@dataclass(frozen=True)
class PointwiseNonlinearity:
    """Vectorized pointwise density with its gradients and declared bounds.

    All callables take two arrays of shape (m, arg_dim), one point a row,
    for any number m of stacked points: the probes and the oracle's
    Jacobian pass the points of many states at once, so each must act row
    by row. ``F`` returns (m,), the gradients return (m, arg_dim).
    ``growth`` holds pointwise (alpha_upper, alpha_lower, c) constants
    when known, ``monotony`` the pointwise 2x2 coupling coefficients
    (every built-in kind sets them, and a custom table must).
    """

    arg_dim: int
    F: Callable[[np.ndarray, np.ndarray], np.ndarray]
    f1: Callable[[np.ndarray, np.ndarray], np.ndarray]
    f2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    growth: tuple[float, float, float] | None = None
    monotony: np.ndarray | None = None


@dataclass(frozen=True)
class NonlinearitySpec:
    """Declarative choice of the coupling density.

    kind "zero": F = 0.
    kind "quadratic": F = a |x|^2 + b <x, y> + c |y|^2 + g sum(x).
    kind "sincos": F = eps * sum_d sin(x_d) cos(y_d).
    kind "custom": a user-supplied `PointwiseNonlinearity`, which must
    declare its ``monotony`` matrix.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    g: float = 0.0
    epsilon: float = 0.0
    table: PointwiseNonlinearity | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "quadratic", "sincos", "custom"):
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if self.kind == "custom" and self.table is None:
            raise ValueError("custom nonlinearity needs a table")
        if self.kind == "custom" and self.table.monotony is None:
            raise ValueError("custom nonlinearity must declare its monotony "
                             "matrix")
        if not (self.epsilon >= 0.0):
            raise ValueError("epsilon must be nonnegative")

    @staticmethod
    def zero() -> "NonlinearitySpec":
        return NonlinearitySpec(kind="zero")

    @staticmethod
    def quadratic(a: float, b: float, c: float, g: float) -> "NonlinearitySpec":
        return NonlinearitySpec(kind="quadratic", a=a, b=b, c=c, g=g)

    @staticmethod
    def sincos(epsilon: float) -> "NonlinearitySpec":
        return NonlinearitySpec(kind="sincos", epsilon=epsilon)

    @staticmethod
    def custom(table: PointwiseNonlinearity) -> "NonlinearitySpec":
        return NonlinearitySpec(kind="custom", table=table)

    def describe(self) -> str:
        if self.kind == "quadratic":
            return f"quadratic({self.a:g},{self.b:g},{self.c:g},{self.g:g})"
        if self.kind == "sincos":
            return f"sincos({self.epsilon:g})"
        return self.kind


def make_pointwise(spec: NonlinearitySpec, arg_dim: int) -> PointwiseNonlinearity:
    """Instantiate the vectorized density for a given argument dimension."""
    if arg_dim < 1:
        raise ValueError("arg_dim must be positive")
    if spec.kind == "custom":
        if spec.table.arg_dim != arg_dim:
            raise ValueError(
                f"custom table has arg_dim {spec.table.arg_dim}, need {arg_dim}"
            )
        return spec.table
    if spec.kind == "zero":
        return PointwiseNonlinearity(
            arg_dim=arg_dim,
            F=lambda x, y: np.zeros(x.shape[0]),
            f1=lambda x, y: np.zeros_like(x),
            f2=lambda x, y: np.zeros_like(y),
            growth=(0.0, 0.0, 0.0),
            monotony=np.zeros((2, 2)),
        )
    if spec.kind == "quadratic":
        a, b, c, g = spec.a, spec.b, spec.c, spec.g
        return PointwiseNonlinearity(
            arg_dim=arg_dim,
            F=lambda x, y: (a * _row_sums(x * x) + b * _row_sums(x * y)
                            + c * _row_sums(y * y) + g * _row_sums(x)),
            f1=lambda x, y: 2.0 * a * x + b * y + g,
            f2=lambda x, y: b * x + 2.0 * c * y,
            growth=None,  # no global box-free quadratic growth bound
            monotony=np.array([[max(2.0 * a, 0.0) + 0.0, abs(b)],
                               [abs(b), max(-2.0 * c, 0.0) + 0.0]]),
        )
    eps = spec.epsilon
    return PointwiseNonlinearity(
        arg_dim=arg_dim,
        F=lambda x, y: eps * _row_sums(np.sin(x) * np.cos(y)),
        f1=lambda x, y: eps * np.cos(x) * np.cos(y),
        f2=lambda x, y: -eps * np.sin(x) * np.sin(y),
        growth=(0.0, 0.0, arg_dim * eps),
        monotony=eps * np.ones((2, 2)),
    )


def _check_grid_steps(lengths: tuple[float, ...], n: int, power: int
                      ) -> None:
    """Refuse sides whose grid step h = L / (n + 1) leaves ``h**power`` or
    its reciprocal, which the stencils scale by, outside the float range."""
    for length in lengths:
        h = length / (n + 1)
        scale = h * h  # ``h ** 2`` raises on overflow; products go to inf
        if power == 4:
            scale *= scale
        if not (0.0 < scale < math.inf and 1.0 / scale < math.inf):
            raise ValueError(f"lengths give a grid step h with h**{power} "
                             f"or 1/h**{power} outside the float range")


@dataclass(frozen=True)
class DirichletSpec:
    """Reaction system on (0, L) or (0, Lx) x (0, Ly) with zero boundary;
    a single number for ``lengths`` is the side in every dimension."""

    dims: int
    n_per_dim: int
    lengths: tuple[float, ...]
    potential_c: float = 0.0
    nonlinearity: NonlinearitySpec = NonlinearitySpec.zero()

    def __post_init__(self):
        if self.dims not in (1, 2):
            raise ValueError("dims must be 1 or 2")
        if self.n_per_dim < 3:
            raise ValueError("need at least 3 interior nodes per dimension")
        lengths = tuple(float(v) for v in (
            (self.lengths,) * self.dims if np.isscalar(self.lengths)
            else self.lengths))
        if len(lengths) != self.dims:
            raise ValueError("lengths must list one side per dimension")
        if any(not (v > 0.0) for v in lengths):
            raise ValueError("lengths must be positive")
        _check_grid_steps(lengths, self.n_per_dim, 2)
        if self.potential_c < 0.0:
            raise ValueError("potential_c must be nonnegative")
        object.__setattr__(self, "lengths", lengths)


@dataclass(frozen=True)
class StokesSpec:
    """Stream-function space on a rectangle; two dimensions only."""

    n_per_dim: int
    lengths: tuple[float, float]
    mu_coeff: float
    nonlinearity: NonlinearitySpec = NonlinearitySpec.zero()

    def __post_init__(self):
        if self.n_per_dim < 5:
            raise ValueError("need at least 5 interior nodes per dimension")
        lengths = tuple(float(v) for v in (
            (self.lengths, self.lengths) if np.isscalar(self.lengths)
            else self.lengths))
        if len(lengths) != 2 or any(not (v > 0.0) for v in lengths):
            raise ValueError("lengths must be two positive sides")
        _check_grid_steps(lengths, self.n_per_dim, 4)
        if not (self.mu_coeff > 0.0):
            raise ValueError("mu_coeff must be positive")
        object.__setattr__(self, "lengths", lengths)


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


# byte budget for each array of a probe block; it sets memory and speed only,
# as the samples of `nash_check` and `check_mountain_pass_ring` do not depend
# on it. 256 KB of pointwise values a block raised the peak resident memory
# of Stokes sessions by 3.6 MB (4.5%), 128 KB for every array keeps it level,
# and half that leaves Stokes n=49 one row a block, which costs more in block
# handling than it saves
PROBE_BYTES = 128 * 1024


def _probe_rows(space: DiscreteSpace, points: int) -> int:
    """Rows of a probe block within the budget: per row, the `points`
    pointwise values and the two directions drawn."""
    return max(1, PROBE_BYTES // (8 * max(points, 2 * space.dim)))


def _system_from_parts(space: DiscreteSpace, pw: PointwiseNonlinearity,
                       sample: Callable[[np.ndarray], np.ndarray],
                       weights: np.ndarray,
                       lift: Callable[[np.ndarray], np.ndarray],
                       embedding_sq: float, label: str) -> CoupledSystem:
    """Coupling N(u, v) = sum_i w_i F(S u, S v)_i and its lifted gradients.

    ``sample`` maps coefficients to the (m, arg_dim) pointwise arguments S,
    and a ``(k, dim)`` block of them to the ``(k * m, arg_dim)`` stack of
    its rows' arguments; ``weights`` are the m quadrature weights, and
    ``lift`` turns an (m, arg_dim) pointwise gradient into the ``(dim,)``
    coefficients representing it in the A-product, and a ``(k, m,
    arg_dim)`` block into ``(k, dim)``, equal row by row: `solve_a`,
    `riesz_lift` and `DiscreteSpace.check` take either shape. A vector
    facing a block is sampled once, its points repeated for each row.
    """
    def at_points(fn, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sa, sb = sample(a), sample(b)
        if a.ndim == b.ndim == 1:
            return fn(sa, sb)
        if a.ndim == 1:
            sa = np.tile(sa, (len(b), 1))
        if b.ndim == 1:
            sb = np.tile(sb, (len(a), 1))
        out = fn(sa, sb)
        return out.reshape((-1, weights.size) + out.shape[1:])

    def eval_n(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
        f = at_points(pw.F, a, b)
        if f.ndim == 1:
            return float(np.dot(weights, f))
        # np.vecdot calls np.dot's BLAS ddot on each row
        return np.vecdot(f, weights)

    def eval_nu(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return lift(at_points(pw.f1, a, b))

    def eval_nv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return lift(at_points(pw.f2, a, b))

    if pw.growth is not None:
        au, al, c_pt = pw.growth
        growth = GrowthParams(alpha_upper=au * embedding_sq,
                              alpha_lower=al * embedding_sq,
                              c_growth=c_pt * float(weights.sum()))
    else:
        growth = None
    monotony = MonotonyMatrix(embedding_sq * np.asarray(pw.monotony, float))
    return CoupledSystem(
        space=space, eval_N=eval_n, eval_Nu=eval_nu, eval_Nv=eval_nv,
        probe_rows=_probe_rows(space, sample(np.zeros(space.dim)).size),
        monotony=monotony, growth=growth, pointwise=pw,
        embedding_sq=embedding_sq, label=label,
    )


def _nodal(coeffs: np.ndarray) -> np.ndarray:
    return coeffs.reshape(-1, 1)


def build_dirichlet(spec: DirichletSpec) -> CoupledSystem:
    """Assemble the Dirichlet reaction system.

    The operator is the weak-form stiffness (second differences scaled by
    cell volume) plus ``potential_c`` times the lumped mass; the coupling
    term and its gradients act through the nodal values directly.
    """
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
    space = make_space(matrix, weights, space_id=space_id)
    validate_space(space)

    def lift(g: np.ndarray) -> np.ndarray:
        return riesz_lift(g.reshape(g.shape[:-2] + (-1,)), space)

    return _system_from_parts(
        space, make_pointwise(spec.nonlinearity, arg_dim=1), _nodal, weights,
        lift, embedding_constant(space) ** 2,
        label=f"{space_id}-{spec.nonlinearity.describe()}",
    )


def build_scalar(a_value: float, nonlinearity: NonlinearitySpec) -> CoupledSystem:
    """One-degree-of-freedom system with operator [[a]] and unit mass.

    Small enough for closed forms and exhaustive grid scans; used by the
    oracle comparisons.
    """
    if not (a_value > 0.0):
        raise ValueError("a_value must be positive")
    matrix = sp.csr_matrix(np.array([[a_value]]))
    space = make_space(matrix, np.array([1.0]), space_id=f"scalar-a{a_value:g}")

    def lift(g: np.ndarray) -> np.ndarray:
        return space.check(g.reshape(g.shape[:-2] + (-1,)) / a_value)

    return _system_from_parts(
        space, make_pointwise(nonlinearity, arg_dim=1), _nodal,
        space.mass_weights, lift, 1.0 / a_value,
        label=f"scalar-a{a_value:g}-{nonlinearity.describe()}",
    )


class _StokesGrid:
    """Geometry and the curl/adjoint pair for one stream-function space."""

    def __init__(self, spec: StokesSpec):
        self.n = spec.n_per_dim
        self.lx, self.ly = spec.lengths
        self.hx = self.lx / (self.n + 1)
        self.hy = self.ly / (self.n + 1)
        wx = np.full(self.n + 2, self.hx)
        wx[0] = wx[-1] = 0.5 * self.hx
        wy = np.full(self.n + 2, self.hy)
        wy[0] = wy[-1] = 0.5 * self.hy
        self.wf = np.outer(wy, wx)  # trapezoid weights on the full grid

    def pad(self, psi: np.ndarray) -> np.ndarray:
        # a leading batch axis, if any, carries through
        batch = psi.shape[:-1]
        full = np.zeros(batch + (self.n + 2, self.n + 2))
        full[..., 1:-1, 1:-1] = psi.reshape(batch + (self.n, self.n))
        return full

    def curl(self, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # velocity (d psi / dy, -d psi / dx) on the full grid; boundary rows
        # vanish identically under the clamped (reflected ghost) closure
        full = self.pad(psi)
        vx = np.zeros_like(full)
        vy = np.zeros_like(full)
        vx[..., 1:-1, :] = ((full[..., 2:, :] - full[..., :-2, :])
                            / (2.0 * self.hy))
        vy[..., 1:-1] = -(full[..., 2:] - full[..., :-2]) / (2.0 * self.hx)
        return vx, vy

    def curl_adjoint(self, ax: np.ndarray, ay: np.ndarray) -> np.ndarray:
        # exact transpose of `curl` restricted to interior unknowns; a
        # leading batch axis, if any, carries through
        a = ax.copy()
        a[..., 0, :] = 0.0
        a[..., -1, :] = 0.0
        b = ay.copy()
        b[..., 0] = 0.0
        b[..., -1] = 0.0
        n = self.n
        out = (a[..., 0:n, 1:n + 1] - a[..., 2:n + 2, 1:n + 1]) / (2.0 * self.hy)
        out = out + ((b[..., 1:n + 1, 2:n + 2] - b[..., 1:n + 1, 0:n])
                     / (2.0 * self.hx))
        return out.reshape(ax.shape[:-2] + (-1,))


def _stokes_space(spec: StokesSpec) -> tuple[DiscreteSpace, _StokesGrid]:
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
    space = make_space(matrix, weights, space_id=space_id)
    validate_space(space)
    return space, grid


def _velocity_embedding_sq(space: DiscreteSpace, grid: _StokesGrid) -> float:
    def apply_m(x: np.ndarray) -> np.ndarray:
        vx, vy = grid.curl(x)
        return grid.curl_adjoint(grid.wf * vx, grid.wf * vy)

    return dominant_inverse_eig(space, apply_m)


def build_stokes(spec: StokesSpec) -> CoupledSystem:
    """Assemble the stream-function system.

    The coupling density sees pointwise velocity pairs (dimension two per
    argument); its gradients are pushed back onto stream unknowns through
    the curl adjoint before lifting. The embedding constant entering the
    coupling matrix is the velocity one (quadrature norm of the curl
    against the operator norm), computed by power iteration.
    """
    space, grid = _stokes_space(spec)
    wf_flat = grid.wf.reshape(-1)

    def stacked_velocity(psi: np.ndarray) -> np.ndarray:
        vx, vy = grid.curl(psi)
        return np.column_stack([vx.reshape(-1), vy.reshape(-1)])

    def lift(g: np.ndarray) -> np.ndarray:
        shape = g.shape[:-2] + (grid.n + 2, grid.n + 2)
        gx = (wf_flat * g[..., 0]).reshape(shape)
        gy = (wf_flat * g[..., 1]).reshape(shape)
        return solve_a(grid.curl_adjoint(gx, gy), space)

    return _system_from_parts(
        space, make_pointwise(spec.nonlinearity, arg_dim=2), stacked_velocity,
        wf_flat, lift, _velocity_embedding_sq(space, grid),
        label=f"{space.space_id}-{spec.nonlinearity.describe()}",
    )


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

    # the gradients of a linear coupling are the same at every pair
    def eval_nu(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.broadcast_to(solve_a(ell1, space),
                               np.broadcast_shapes(a.shape, b.shape))

    def eval_nv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.broadcast_to(solve_a(ell2, space),
                               np.broadcast_shapes(a.shape, b.shape))

    system = CoupledSystem(
        space=space, eval_N=eval_n, eval_Nu=eval_nu, eval_Nv=eval_nv,
        probe_rows=_probe_rows(space, space.dim),
        monotony=MonotonyMatrix(np.zeros((2, 2))), growth=None,
        pointwise=None, embedding_sq=None,
        label=f"{space.space_id}-manufactured",
    )
    return system, (u_star, v_star)


def reconstruct_velocity(psi: HVector, spec: StokesSpec
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Velocity components on the full (n+2) x (n+2) node grid.

    Central-difference curl of the stream function; the boundary values
    vanish exactly (tangential derivatives of a constant boundary trace,
    normal derivatives closed by reflection).
    """
    grid = _StokesGrid(spec)
    if psi.coeffs.shape != (grid.n * grid.n,):
        raise ValueError("stream vector length does not match the grid")
    return grid.curl(psi.coeffs)


def discrete_divergence(vx: np.ndarray, vy: np.ndarray, spec: StokesSpec
                        ) -> np.ndarray:
    """Compatible central divergence at interior nodes.

    For fields produced by `reconstruct_velocity` the result vanishes to
    roundoff: the two mixed second differences cancel telescopically.
    """
    grid = _StokesGrid(spec)
    m = grid.n + 2
    if vx.shape != (m, m) or vy.shape != (m, m):
        raise ValueError("velocity arrays must cover the full grid")
    return ((vx[1:-1, 2:] - vx[1:-1, :-2]) / (2.0 * grid.hx)
            + (vy[2:, 1:-1] - vy[:-2, 1:-1]) / (2.0 * grid.hy))
