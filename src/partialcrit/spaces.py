"""Finite-dimensional Hilbert spaces with an operator-weighted inner product.

A space is a coefficient vector space R^dim equipped with

* a symmetric positive definite operator ``A`` defining the working inner
  product ``(u, v)_A = <A u, v>``,
* a strictly positive weight vector defining a discrete L2 product
  ``(u, v)_mass = sum_i w_i u_i v_i``.

Everything downstream (residuals, energies, convergence checks) is phrased
in the A-norm; the mass product only enters through lifting pointwise data
into the space and through the embedding constant that relates the two
norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import ConvergenceError, IntegrityError

__all__ = [
    "SpdOperator",
    "DiscreteSpace",
    "HVector",
    "make_space",
    "inner_a",
    "norm_a",
    "norms_a",
    "solve_a",
    "solve_a_rows",
    "riesz_lift",
    "random_unit",
    "random_unit_rows",
    "embedding_constant",
    "validate_space",
]


@dataclass(frozen=True, eq=False)
class SpdOperator:
    """Symmetric positive definite operator in matrix form.

    Parameters
    ----------
    dim : int
        Number of degrees of freedom.
    matrix : scipy.sparse.csr_matrix
        The operator matrix. Must be symmetric and positive definite;
        `validate_space` probes both properties.

    The sparse factorization behind `solve_a` is computed on the first
    solve and kept with the operator.
    """

    dim: int
    matrix: sp.csr_matrix
    _lu: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.matrix.shape != (self.dim, self.dim):
            raise ValueError(
                f"operator matrix shape {self.matrix.shape} does not match dim {self.dim}"
            )

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Return ``A @ x`` as a dense vector."""
        return self.matrix @ x

    def factor(self):
        """Sparse LU factorization of the matrix, computed once.

        Symmetric mode with diagonal pivots only, so for an SPD matrix the
        row and column orderings coincide and every pivot is positive.
        Both are checked. Reading ``lu.U`` for the pivots makes scipy cache
        CSC copies of L and U on the factor (about 2.5 MB at Stokes n=49
        with scipy 1.17), but `SuperLU` offers no other view of them: its
        only attributes are ``L``, ``U``, ``nnz``, ``perm_c``, ``perm_r``,
        ``shape`` and ``solve``. The check stays, because it is what turns
        an indefinite operator into an error instead of a wrong solve.

        Raises
        ------
        IntegrityError
            If the matrix is singular or a pivot is not positive, i.e. the
            matrix is not positive definite.
        """
        if self._lu is None:
            try:
                lu = splu(self.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                          diag_pivot_thresh=0.0,
                          options={"SymmetricMode": True})
            except RuntimeError as exc:
                raise IntegrityError(f"operator matrix is singular: {exc}") from None
            if (not np.array_equal(lu.perm_r, lu.perm_c)
                    or not np.all(lu.U.diagonal() > 0.0)):
                raise IntegrityError(
                    "factorization met a non-positive pivot; operator is not "
                    "positive definite"
                )
            object.__setattr__(self, "_lu", lu)
        return self._lu


@dataclass(frozen=True, eq=False)
class DiscreteSpace:
    """A coefficient space together with its operator and mass weights.

    The embedding constant is computed on first use and kept with the space.
    """

    dim: int
    operator: SpdOperator
    mass_weights: np.ndarray
    space_id: str
    _embedding: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.mass_weights, dtype=float)
        if w.shape != (self.dim,):
            raise ValueError("mass_weights length must equal dim")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("mass_weights must be finite and strictly positive")
        object.__setattr__(self, "mass_weights", w)

    def zero(self) -> "HVector":
        return HVector(np.zeros(self.dim), self.space_id)

    def wrap(self, coeffs: np.ndarray) -> "HVector":
        """The one vector check: a float array of shape ``(dim,)``, finite."""
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (self.dim,):
            raise ValueError("vector length does not match space dimension")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        return HVector(c, self.space_id)

    def wrap_rows(self, rows: np.ndarray) -> np.ndarray:
        """`wrap`'s check on each row of a ``(k, dim)`` block, returned as
        it is."""
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ValueError("vector length does not match space dimension")
        if not np.all(np.isfinite(rows)):
            raise ValueError("coefficients must be finite")
        return rows


@dataclass(frozen=True)
class HVector:
    """Coefficient vector tied to a space by its identifier.

    A plain record, checked once by `DiscreteSpace.wrap`, which every
    A-solve result passes. Its arithmetic checks only that the operands
    share a space (``ValueError``); the scheme's inner solve sees overflow.
    """

    coeffs: np.ndarray
    space_id: str

    def _check(self, other: "HVector") -> None:
        if self.space_id != other.space_id:
            raise ValueError(
                f"space mismatch: {self.space_id!r} vs {other.space_id!r}"
            )

    def __add__(self, other: "HVector") -> "HVector":
        self._check(other)
        return HVector(self.coeffs + other.coeffs, self.space_id)

    def __sub__(self, other: "HVector") -> "HVector":
        self._check(other)
        return HVector(self.coeffs - other.coeffs, self.space_id)

    def __mul__(self, scalar: float) -> "HVector":
        return HVector(self.coeffs * float(scalar), self.space_id)

    __rmul__ = __mul__

    def __neg__(self) -> "HVector":
        return HVector(-self.coeffs, self.space_id)


def make_space(matrix, mass_weights, space_id: str) -> DiscreteSpace:
    """Assemble a `DiscreteSpace` from a matrix and mass weights.

    Canonicalises the sparse matrix and wraps it; nothing is solved or
    factored here. Raises ``ValueError`` when an entry is not finite, as
    when a builder's scales overflow.
    """
    m = sp.csr_matrix(matrix, dtype=float, copy=True)
    m.sum_duplicates()
    m.eliminate_zeros()
    m.sort_indices()
    if not np.all(np.isfinite(m.data)):
        raise ValueError("operator entries must be finite")
    dim = m.shape[0]
    return DiscreteSpace(dim=dim, operator=SpdOperator(dim=dim, matrix=m),
                         mass_weights=np.asarray(mass_weights, dtype=float),
                         space_id=space_id)


def inner_a(u: HVector, v: HVector, space: DiscreteSpace) -> float:
    """A-weighted inner product ``<A u, v>`` of two elements of `space`."""
    for w in (u, v):
        if w.space_id != space.space_id:
            raise ValueError(
                f"vector belongs to {w.space_id!r}, not {space.space_id!r}")
    return float(np.dot(space.operator.apply(u.coeffs), v.coeffs))


def _root(q: float, x: np.ndarray) -> float:
    """Square root of the quadratic form ``q = <A x, x>``, guarding against
    roundoff-negative values."""
    if q < 0.0:
        if q < -1e-10 * float(np.dot(x, x) + 1.0):
            raise IntegrityError(
                f"quadratic form returned {q}; operator is not positive definite"
            )
        q = 0.0
    # the + 0.0 folds a possible negative zero from sqrt(-0.0)
    return float(np.sqrt(q) + 0.0)


def norm_a(u: HVector, space: DiscreteSpace) -> float:
    """A-norm, guarding against roundoff-negative quadratic forms."""
    return _root(inner_a(u, u, space), u.coeffs)


def _forms(rows: np.ndarray, space: DiscreteSpace) -> np.ndarray:
    # one operator application on the block; each row's form is the same
    # np.dot as in `inner_a`, on contiguous rows, so it rounds the same way
    products = np.ascontiguousarray(space.operator.apply(rows.T).T)
    return np.array([np.dot(p, x) for p, x in zip(products, rows)])


def norms_a(rows: np.ndarray, space: DiscreteSpace) -> np.ndarray:
    """A-norms of the rows of a ``(k, dim)`` block, equal to `norm_a` row
    by row."""
    q = _forms(rows, space)
    low = q < 0.0
    for form, x in zip(q[low].tolist(), rows[low]):
        _root(form, x)  # raises unless the form is roundoff
    return np.sqrt(np.where(low, 0.0, q)) + 0.0


def solve_a(h, space: DiscreteSpace) -> HVector:
    """Solve ``A x = h`` with the operator's cached sparse factorization.

    Parameters
    ----------
    h : array_like
        Right-hand side (coefficients of a dual vector).

    Raises
    ------
    IntegrityError
        If the operator is singular or not positive definite.
    """
    b = np.asarray(h, dtype=float)
    if b.shape != (space.dim,):
        raise ValueError("right-hand side length does not match space dimension")
    if not np.any(b):
        return space.zero()
    return space.wrap(space.operator.factor().solve(b))


def solve_a_rows(h, space: DiscreteSpace) -> np.ndarray:
    """`solve_a` on each row of a ``(k, dim)`` block, in one solve call.

    The factorization solves the block's nonzero rows as the columns of
    one right-hand side, which equals the single solves bit for bit; zero
    rows stay exact zeros, and a non-finite solution raises the
    ``ValueError`` of `DiscreteSpace.wrap`.
    """
    b = np.asarray(h, dtype=float)
    if b.ndim != 2 or b.shape[1] != space.dim:
        raise ValueError("right-hand side length does not match space dimension")
    out = np.zeros(b.shape)
    live = np.any(b, axis=1)
    if live.any():
        out[live] = space.operator.factor().solve(b[live].T).T
    return space.wrap_rows(out)


def riesz_lift(f_pointwise, space: DiscreteSpace) -> HVector:
    """Lift pointwise values into the space: solve ``A x = W f``.

    The result represents the functional ``v -> (f, v)_mass`` in the
    A-product, so ``inner_a(riesz_lift(f), v) == (f, v)_mass`` up to
    round-off.
    """
    f = np.asarray(f_pointwise, dtype=float)
    if f.shape != (space.dim,):
        raise ValueError("pointwise data length does not match space dimension")
    return solve_a(space.mass_weights * f, space)


def random_unit(space: DiscreteSpace, rng: np.random.Generator) -> HVector:
    """Standard normal direction scaled to unit A-norm (redrawn if zero)."""
    return HVector(random_unit_rows(space, rng, 1)[1][0, 0], space.space_id)


def random_unit_rows(space: DiscreteSpace, rng: np.random.Generator, k: int,
                     units: int = 1, uniform: bool = False
                     ) -> tuple[np.ndarray, np.ndarray]:
    """`k` rounds of draws, each an optional ``rng.random()`` and then
    `units` calls of `random_unit`, as a block.

    Returns the ``(k,)`` uniforms (unset when `uniform` is false) and the
    ``(units, k, dim)`` unit directions, equal bit for bit to the
    sequential calls, which leave `rng` in the same state. The norms come
    from one operator application on the block, as in `norms_a`. A
    standard normal draw whose A-norm is zero is redrawn before the next
    draw, so a block that holds a nonpositive form is drawn again from the
    same start, checking every draw as it is made.
    """
    dim = space.dim
    uniforms = np.empty(k)
    raw = np.empty((units, k, dim))
    rows = raw.reshape(-1, dim)

    def draw(check: bool) -> None:
        for i in range(k):
            if uniform:
                uniforms[i] = rng.random()
            for x in raw[:, i]:
                rng.standard_normal(out=x)
                while check and norms_a(x[None], space)[0] == 0.0:
                    rng.standard_normal(out=x)

    start = rng.bit_generator.state
    draw(False)
    q = _forms(rows, space)
    if not np.all(q > 0.0):
        rng.bit_generator.state = start
        draw(True)
        q = _forms(rows, space)
    # each form is now positive or NaN, where `norm_a` is its square root
    return uniforms, raw * (1.0 / np.sqrt(q)).reshape(units, k, 1)


def dominant_inverse_eig(space: DiscreteSpace,
                         apply_m: Callable[[np.ndarray], np.ndarray]) -> float:
    """Largest eigenvalue of ``A^{-1} M`` for a symmetric PSD map ``M``.

    Power iteration; the map is self-adjoint in the A-product, so the
    Rayleigh quotient ``x^T M x / x^T A x`` converges at the squared gap
    rate. It stops when successive quotients agree to 1e-7 relative.
    The start vector is the normalised ones vector; 5000 iterations
    without agreement raise `ConvergenceError`.
    """
    max_iters = 5000
    x = np.ones(space.dim) / np.sqrt(space.dim)
    lam_old = None
    for _ in range(max_iters):
        mx = apply_m(x)
        num = float(np.dot(x, mx))
        den = float(np.dot(x, space.operator.apply(x)))
        lam = num / den
        if lam_old is not None and abs(lam - lam_old) <= 1e-7 * max(abs(lam), 1e-300):
            return lam
        lam_old = lam
        y = solve_a(mx, space).coeffs
        ynorm = float(np.linalg.norm(y))
        if ynorm == 0.0:
            # the squares underflow once every entry is below about 1e-154
            peak = float(np.max(np.abs(y)))
            if peak == 0.0:
                return 0.0
            y = y / peak
            ynorm = float(np.linalg.norm(y))
        x = y / ynorm
    raise ConvergenceError(
        f"power iteration stagnated after {max_iters} iterations",
        iterations=max_iters,
    )


def embedding_constant(space: DiscreteSpace) -> float:
    """Smallest ``c`` with ``sqrt(sum_i w_i u_i^2) <= c * norm_a(u)`` for all u.

    Computed as the square root of the largest eigenvalue of the
    generalized problem mass-versus-A, by power iteration on
    ``A^{-1} W``. Relative accuracy about 1e-6. The result is kept with
    the space.
    """
    if space._embedding is not None:
        return space._embedding
    w = space.mass_weights
    lam = dominant_inverse_eig(space, lambda x: w * x)
    if lam <= 0.0:
        raise IntegrityError("generalized eigenvalue came out non-positive")
    c = float(np.sqrt(lam))
    object.__setattr__(space, "_embedding", c)
    return c


def validate_space(space: DiscreteSpace) -> None:
    """Probe operator symmetry and strong monotonicity on 8 random vectors.

    Strong monotonicity ``<A x, x> >= theta (x, x)_mass`` is probed with
    ``theta = (1 / c^2)(1 - 1e-9)``, derived from the space's embedding
    constant c (computed here on first use, after the symmetry probes
    pass). The probes are seeded (seed 0), so a build is reproducible.
    Raises ``IntegrityError`` on failure.
    """
    rng = np.random.default_rng(0)
    a = space.operator
    probes = []
    for _ in range(8):
        x = rng.standard_normal(space.dim)
        y = rng.standard_normal(space.dim)
        ax = a.apply(x)
        ay = a.apply(y)
        lhs = float(np.dot(ax, y))
        rhs = float(np.dot(x, ay))
        scale = max(abs(lhs), abs(rhs), 1.0)
        if abs(lhs - rhs) > 1e-12 * scale:
            raise IntegrityError(
                f"operator symmetry violated: {lhs} vs {rhs}"
            )
        probes.append((x, ax))
    theta = (1.0 / embedding_constant(space) ** 2) * (1.0 - 1e-9)
    for x, ax in probes:
        quad = float(np.dot(ax, x))
        mass = float(np.dot(space.mass_weights, x * x))
        if quad < theta * mass * (1.0 - 1e-10) - 1e-14:
            raise IntegrityError(
                f"strong monotonicity violated: {quad} < theta * {mass}"
            )
