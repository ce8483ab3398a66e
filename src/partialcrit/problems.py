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
                     embedding_constant, make_space, riesz_lift, solve_a)
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


@dataclass(frozen=True, eq=False)
class PointwiseNonlinearity:
    """Vectorized pointwise density with its gradients and declared bounds.

    All callables take two point arrays of shape ``(..., arg_dim)`` that
    broadcast against each other, a point's arguments along the last axis,
    and act on that axis: ``F`` gives one value a point, the broadcast
    shape without the last axis, and the gradients return the broadcast
    shape. A built system passes two vectors' points as ``(m, arg_dim)``;
    ``F`` alone also sees blocks, a block's points as ``(k, m, arg_dim)``
    and a vector's as ``(1, m, arg_dim)``, so a side held fixed against a
    block is computed once, not once a row; `spaces._row_sums` sums the
    last axis. On a block, an output of ``F`` that is neither the broadcast
    shape nor the fixed side's raises ``ValueError``, as a table written
    for one point a row gives when it sums ``axis=1`` or takes ``x[:, j]``.
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
        def shape(x, y):
            return np.broadcast_shapes(x.shape, y.shape)

        return PointwiseNonlinearity(
            arg_dim=arg_dim,
            F=lambda x, y: np.zeros(shape(x, y)[:-1]),
            f1=lambda x, y: np.zeros(shape(x, y)),
            f2=lambda x, y: np.zeros(shape(x, y)),
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


def _grid_sides(lengths, count: int, n: int, power: int) -> tuple[float, ...]:
    """`count` positive sides, one number for all or a list, whose grid step
    h = L / (n + 1) keeps ``h**power`` and its reciprocal, which the
    stencils scale by, inside the float range; else ``ValueError``."""
    sides = tuple(float(v) for v in (
        (lengths,) * count if np.isscalar(lengths) else lengths))
    if len(sides) != count or any(not (v > 0.0) for v in sides):
        raise ValueError(
            f"lengths must be one positive number or a list of {count}")
    for length in sides:
        h = length / (n + 1)
        scale = h * h  # ``h ** 2`` raises on overflow; products go to inf
        if power == 4:
            scale *= scale
        if not (0.0 < scale < math.inf and 1.0 / scale < math.inf):
            raise ValueError(f"lengths give a grid step h with h**{power} "
                             f"or 1/h**{power} outside the float range")
    return sides


@dataclass(frozen=True)
class DirichletSpec:
    """Reaction system on (0, L) or (0, Lx) x (0, Ly) with zero boundary;
    one number for ``lengths`` is every side, as `_grid_sides` reads it."""

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
        object.__setattr__(self, "lengths", _grid_sides(
            self.lengths, self.dims, self.n_per_dim, 2))
        if self.potential_c < 0.0:
            raise ValueError("potential_c must be nonnegative")


@dataclass(frozen=True)
class StokesSpec:
    """Stream-function space on a rectangle, two dimensions only; one
    number for ``lengths`` is both sides, as `_grid_sides` reads it."""

    n_per_dim: int
    lengths: tuple[float, float]
    mu_coeff: float
    nonlinearity: NonlinearitySpec = NonlinearitySpec.zero()

    def __post_init__(self):
        if self.n_per_dim < 5:
            raise ValueError("need at least 5 interior nodes per dimension")
        object.__setattr__(self, "lengths", _grid_sides(
            self.lengths, 2, self.n_per_dim, 4))
        if not (self.mu_coeff > 0.0):
            raise ValueError("mu_coeff must be positive")


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


class _Sampled(tuple):
    """``(coeffs, points)``: a coefficient vector with its pointwise
    arguments. A bare tuple subclass, built by one C call, so that binding
    a nodal vector costs about what its reshape does."""

    __slots__ = ()


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
    coefficients representing it in the A-product; a gradient of any other
    shape raises ``ValueError`` before it is lifted. The gradients take one
    pair of vectors. ``N`` also takes blocks: the density sees a block's
    points as ``(k, m, arg_dim)`` and a vector facing a block as ``(1, m,
    arg_dim)``, so that vector is sampled and evaluated once; its values
    are broadcast to the block's rows.

    The system's ``sample`` binds a vector to its points, and the three
    closures take that sampled state wherever they take a vector, so a
    caller samples a state once however often it evaluates there. A
    sampled state is recognised by its type, never by its values; on the
    nodal systems sampling is a reshape, on Stokes a curl.
    """
    m = weights.size
    arg_shape = (m, pw.arg_dim)

    def bind(x: np.ndarray) -> _Sampled:
        return _Sampled((x, sample(x)))

    # each closure unpacks a sampled state or samples an array in line, as
    # a helper's call would cost what binding a nodal vector saves
    def eval_n(a, b) -> float | np.ndarray:
        a, sa = a if type(a) is _Sampled else (a, sample(a))
        b, sb = b if type(b) is _Sampled else (b, sample(b))
        if a.ndim == b.ndim == 1:
            return float(np.dot(weights, pw.F(sa, sb)))
        # a vector as a block of one row: it broadcasts against the other
        # side's rows, and a table that takes ``x[:, j]`` as one point a row
        # gives (k, 1), which fits (k, m) only at m = 1, where it is right
        sa = sa.reshape(len(a) if a.ndim == 2 else 1, m, -1)
        sb = sb.reshape(len(b) if b.ndim == 2 else 1, m, -1)
        f = pw.F(sa, sb)
        shape = (len(a) if a.ndim == 2 else len(b), m)
        if np.shape(f) not in (shape, (1, m)):
            raise ValueError(
                f"a pointwise density must act on the last axis of point "
                f"arrays that broadcast: it returned shape {np.shape(f)} on "
                f"points {sa.shape} and {sb.shape}, not {shape}")
        # np.vecdot calls np.dot's BLAS ddot on each row
        return np.vecdot(np.broadcast_to(f, shape), weights)

    def lifted(name: str, grad: Callable) -> Callable:
        def eval_grad(a, b) -> np.ndarray:
            sa = a[1] if type(a) is _Sampled else sample(a)
            sb = b[1] if type(b) is _Sampled else sample(b)
            g = grad(sa, sb)
            # getattr, as np.shape is two Python calls a gradient
            if getattr(g, "shape", None) != arg_shape:
                raise ValueError(
                    f"a pointwise gradient must return the broadcast shape "
                    f"of its points: {name} returned shape {np.shape(g)} on "
                    f"points {sa.shape} and {sb.shape}, not {arg_shape}")
            return lift(g)
        return eval_grad

    eval_nu, eval_nv = lifted("f1", pw.f1), lifted("f2", pw.f2)

    # growth is sufficient for the scheme, not necessary: declared constants
    # whose scaled sum reaches the bound of `GrowthParams` leave it out, and
    # negative or NaN ones still raise there
    growth = None
    if pw.growth is not None:
        au, al, c_pt = pw.growth
        au, al = au * embedding_sq, al * embedding_sq
        if not (au + al >= 0.5):
            growth = GrowthParams(alpha_upper=au, alpha_lower=al,
                                  c_growth=c_pt * float(weights.sum()))
    monotony = MonotonyMatrix(embedding_sq * np.asarray(pw.monotony, float))
    return CoupledSystem(
        space=space, eval_N=eval_n, eval_Nu=eval_nu, eval_Nv=eval_nv,
        monotony=monotony, growth=growth, pointwise=pw,
        embedding_sq=embedding_sq, label=label, sample=bind,
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
    embedding_sq = embedding_constant(space) ** 2

    def lift(g: np.ndarray) -> np.ndarray:
        return riesz_lift(g.reshape(-1), space)

    return _system_from_parts(
        space, make_pointwise(spec.nonlinearity, arg_dim=1), _nodal, weights,
        lift, embedding_sq,
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
        return space.check(g.reshape(-1) / a_value)

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
        # exact transpose of `curl` restricted to interior unknowns
        a = ax.copy()
        a[0, :] = 0.0
        a[-1, :] = 0.0
        b = ay.copy()
        b[:, 0] = 0.0
        b[:, -1] = 0.0
        n = self.n
        out = (a[0:n, 1:n + 1] - a[2:n + 2, 1:n + 1]) / (2.0 * self.hy)
        out = out + (b[1:n + 1, 2:n + 2] - b[1:n + 1, 0:n]) / (2.0 * self.hx)
        return out.reshape(-1)


def _stokes_space(spec: StokesSpec) -> tuple[DiscreteSpace, _StokesGrid]:
    """The stream-function space and its grid, assembled only: the first
    solve factors the operator, and a builder computes the embedding
    constant it reads."""
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


def build_stokes(spec: StokesSpec) -> CoupledSystem:
    """Assemble the stream-function system.

    The coupling density sees pointwise velocity pairs (dimension two per
    argument); its gradients are pushed back onto stream unknowns through
    the curl adjoint before lifting. The embedding constant entering the
    coupling matrix is the velocity one (quadrature norm of the curl
    against the operator norm), computed by one power iteration on
    ``A^{-1} curl^T W curl``; the mass constant is not computed, as no
    Stokes coupling reads it.
    """
    space, grid = _stokes_space(spec)
    wf_flat = grid.wf.reshape(-1)

    def apply_m(x: np.ndarray) -> np.ndarray:
        vx, vy = grid.curl(x)
        return grid.curl_adjoint(grid.wf * vx, grid.wf * vy)

    def stacked_velocity(psi: np.ndarray) -> np.ndarray:
        vx, vy = grid.curl(psi)
        return np.column_stack([vx.reshape(-1), vy.reshape(-1)])

    def lift(g: np.ndarray) -> np.ndarray:
        gx, gy = (wf_flat * g.T).reshape(2, grid.n + 2, grid.n + 2)
        return solve_a(grid.curl_adjoint(gx, gy), space)

    return _system_from_parts(
        space, make_pointwise(spec.nonlinearity, arg_dim=2), stacked_velocity,
        wf_flat, lift, dominant_inverse_eig(space, apply_m),
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
