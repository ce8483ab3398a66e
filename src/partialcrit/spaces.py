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

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse import _sparsetools

from .errors import ConvergenceError, IntegrityError

__all__ = [
    "SpdOperator",
    "DiscreteSpace",
    "HVector",
    "make_space",
    "inner_a",
    "norm_a",
    "solve_a",
    "riesz_lift",
    "random_unit_rows",
    "embedding_constant",
    "validate_space",
]


@dataclass(frozen=True, eq=False)
class SpdOperator:
    """Symmetric positive definite operator in matrix form.

    Parameters
    ----------
    matrix : scipy.sparse.csr_matrix
        The square operator matrix, as `make_space` canonicalises it. Must
        be symmetric and positive definite; the first solve checks both
        (`factor`), and `validate_space` probes strong monotonicity.

    The banded Cholesky factor behind `solve_a` is computed on the first
    solve and kept with the operator, as is `row_scale` on first use.
    """

    matrix: sp.csr_matrix
    _band: np.ndarray | None = field(default=None, init=False, repr=False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Return ``A @ x`` for a ``(dim,)`` vector or a ``(dim, k)`` block.

        Calls the CSR kernels that ``matrix @ x`` ends in (``csr_matvec``,
        ``csr_matvecs``) without scipy's dispatch, which on a small vector
        costs about twice the product itself; the result is the same, bit
        for bit. The kernels take `x` as a contiguous float copy when it is
        not one, but trust its length, so that is checked here.
        """
        m = self.matrix
        n = m.shape[0]
        if x.ndim not in (1, 2) or x.shape[0] != n:
            raise ValueError("vector length does not match operator dimension")
        if x.ndim == 1:
            out = np.zeros(n)
            _sparsetools.csr_matvec(n, n, m.indptr, m.indices, m.data, x, out)
        else:
            out = np.zeros((n, x.shape[1]))
            _sparsetools.csr_matvecs(n, n, x.shape[1], m.indptr, m.indices,
                                     m.data, x.ravel(), out.ravel())
        return out

    def factor(self) -> np.ndarray:
        """Upper Cholesky factor of the matrix in LAPACK band storage,
        computed once by ``dpbtrf``.

        The half-bandwidth kd is the largest ``|i - j|`` of a stored entry,
        read from the canonical CSR, and the factor holds ``(kd + 1) * dim``
        floats: every builder's operator is banded in its natural ordering
        (kd = 1 on a 1D Dirichlet mesh, n on a 2D one, 2n for Stokes). The
        Cholesky reads the upper band only, so the stored lower triangle is
        checked to mirror it exactly; else it would solve another matrix.

        Raises
        ------
        IntegrityError
            If the matrix is not symmetric, or not positive definite
            (singular included).
        """
        if self._band is None:
            m = self.matrix
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
            object.__setattr__(self, "_band", band)
        return self._band

    @cached_property
    def row_scale(self) -> float:
        """The power of two nearest to ``1 / sqrt(max |A_ij|)``."""
        peak = float(np.max(np.abs(self.matrix.data), initial=0.0))
        return math.ldexp(1.0, -round(math.log2(peak) / 2)) if peak else 1.0


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

    def check(self, coeffs) -> np.ndarray:
        """The one coefficient check: a ``(dim,)`` vector or a ``(k, dim)``
        block of them, finite, returned as a float array."""
        c = np.asarray(coeffs, dtype=float)
        if c.ndim not in (1, 2) or c.shape[-1] != self.dim:
            raise ValueError("vector length does not match space dimension")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        return c

    def wrap(self, coeffs) -> "HVector":
        """A ``(dim,)`` vector passed by `check`, tied to the space."""
        c = self.check(coeffs)
        if c.ndim != 1:
            raise ValueError("vector length does not match space dimension")
        return HVector(c, self.space_id)


@dataclass(frozen=True)
class HVector:
    """A result's coefficient vector, tied to its space by the identifier.

    Inside the package vectors are plain coefficient arrays; an `HVector`
    is made only by `DiscreteSpace.wrap`, where a result leaves it. The
    difference of two results checks that they share a space
    (``ValueError``), and `norm_a` and `inner_a` check the space they are
    given.
    """

    coeffs: np.ndarray
    space_id: str

    def __sub__(self, other: "HVector") -> "HVector":
        if self.space_id != other.space_id:
            raise ValueError(
                f"space mismatch: {self.space_id!r} vs {other.space_id!r}"
            )
        return HVector(self.coeffs - other.coeffs, self.space_id)


def make_space(matrix, mass_weights, space_id: str) -> DiscreteSpace:
    """Assemble a `DiscreteSpace` from a matrix and mass weights.

    Canonicalises the sparse matrix and wraps it; nothing is solved or
    factored here. Raises ``ValueError`` when the matrix is not square or
    an entry is not finite, as when a builder's scales overflow.
    """
    m = sp.csr_matrix(matrix, dtype=float, copy=True)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"operator matrix shape {m.shape} is not square")
    m.sum_duplicates()
    m.eliminate_zeros()
    m.sort_indices()
    if not np.all(np.isfinite(m.data)):
        raise ValueError("operator entries must be finite")
    return DiscreteSpace(dim=m.shape[0], operator=SpdOperator(m),
                         mass_weights=np.asarray(mass_weights, dtype=float),
                         space_id=space_id)


def _coeffs(x, space: DiscreteSpace) -> np.ndarray:
    """The coefficients of `x`, an array or an `HVector` of `space`."""
    if isinstance(x, HVector):
        if x.space_id != space.space_id:
            raise ValueError(
                f"vector belongs to {x.space_id!r}, not {space.space_id!r}")
        return x.coeffs
    return np.asarray(x, dtype=float)


def _row_sums(z: np.ndarray) -> np.ndarray:
    """``np.sum(z, axis=-1)``, bit for bit, at any width: the sums over the
    last axis, which holds a point's arguments in the densities. Below 8
    entries numpy adds them in order, and adds of whole slices in order give
    the same bits a few times faster; from 8 numpy sums pairwise, so a wider
    array goes to `np.sum`. The ``+ 0.0`` start sums negative zeros to
    ``+0.0``, as `np.sum`."""
    if z.shape[-1] >= 8:
        return np.sum(z, axis=-1)
    out = z[..., 0] + 0.0
    for j in range(1, z.shape[-1]):
        out += z[..., j]
    return out


def inner_a(u, v, space: DiscreteSpace) -> float:
    """A-weighted inner product ``<A u, v>`` of two ``(dim,)`` vectors of
    `space`, each an array or an `HVector`."""
    u, v = _coeffs(u, space), _coeffs(v, space)
    return float(np.dot(space.operator.apply(u), v))


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
    return math.sqrt(q) + 0.0


def norm_a(x, space: DiscreteSpace):
    """A-norm of a ``(dim,)`` vector (a float) or of each row of a
    ``(k, dim)`` block (``(k,)`` norms, equal to the vector calls row by
    row), guarding against roundoff-negative quadratic forms. `x` is an
    array or an `HVector` of `space`."""
    x = _coeffs(x, space)
    if x.ndim == 1:
        return _root(float(np.dot(space.operator.apply(x), x)), x)
    # one operator application on the block; np.vecdot calls the BLAS ddot
    # of `inner_a`'s np.dot on each contiguous row, so it rounds the same
    products = np.ascontiguousarray(space.operator.apply(x.T).T)
    q = np.vecdot(products, x)
    low = q < 0.0
    for form, row in zip(q[low].tolist(), x[low]):
        _root(form, row)  # raises unless the form is roundoff
    return np.sqrt(np.where(low, 0.0, q)) + 0.0


def solve_a(h, space: DiscreteSpace) -> np.ndarray:
    """Solve ``A x = h`` with the operator's cached band Cholesky factor.

    Parameters
    ----------
    h : array_like
        Right-hand side (coefficients of a dual vector), ``(dim,)``.

    Returns the finite ``(dim,)`` coefficients from one ``dpbtrs`` solve;
    a zero right-hand side gives exact zeros.

    Raises
    ------
    ValueError
        If `h` is not a ``(dim,)`` vector, or from `DiscreteSpace.check`
        if the solution is not finite.
    IntegrityError
        If the operator is not symmetric or not positive definite.
    """
    b = np.asarray(h, dtype=float)
    if b.shape != (space.dim,):
        raise ValueError("right-hand side length does not match space dimension")
    x = dpbtrs(space.operator.factor(), b)[0] if b.any() else np.zeros(b.shape)
    return space.check(x)


def riesz_lift(f_pointwise, space: DiscreteSpace) -> np.ndarray:
    """Lift pointwise values into the space: solve ``A x = W f``.

    The result represents the functional ``v -> (f, v)_mass`` in the
    A-product, so ``inner_a(riesz_lift(f), v) == (f, v)_mass`` up to
    round-off. Takes and returns a ``(dim,)`` vector, as `solve_a` does.
    """
    f = np.asarray(f_pointwise, dtype=float)
    if f.shape != (space.dim,):
        raise ValueError("pointwise data length does not match space dimension")
    return solve_a(space.mass_weights * f, space)


def random_unit_rows(space: DiscreteSpace, rng: np.random.Generator,
                     k: int) -> np.ndarray:
    """`k` standard normal directions scaled to unit A-norm: the ``(k, dim)``
    rows of one ``rng.standard_normal((k, dim))``, so consecutive calls on
    one generator give the rows of one larger call. The rows are first
    scaled by the power of two `SpdOperator.row_scale`, exactly, so that
    their forms stay normal even where A's entries are near the ends of the
    float range. A form that is not positive raises `IntegrityError`.
    """
    rows = rng.standard_normal((k, space.dim)) * space.operator.row_scale
    norms = norm_a(rows, space)
    if not np.all(norms > 0.0):
        raise IntegrityError("drawn direction has a zero quadratic form; "
                             "operator is not positive definite")
    return rows * (1.0 / norms)[:, None]


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
        y = solve_a(mx, space)
        with np.errstate(over="ignore"):
            ynorm = float(np.linalg.norm(y))
        if ynorm == 0.0 or ynorm == math.inf:
            # the squares underflow once every entry is below about 1e-154
            # and overflow once one is above about 1e154
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
    """Probe strong monotonicity on 8 random vectors, drawn and tested as
    one block.

    Strong monotonicity ``<A x, x> >= theta (x, x)_mass`` is probed with
    ``theta = (1 / c^2)(1 - 1e-9)``, derived from the space's embedding
    constant c (computed here on first use), which cross-checks the power
    iteration behind c. Computing c factors the operator, and the factor
    checks that the matrix is exactly symmetric. The probes are seeded
    (seed 0), so a build is reproducible. Raises ``IntegrityError`` naming
    the values of the first failing probe.
    """
    x = np.random.default_rng(0).standard_normal((8, space.dim))
    theta = (1.0 / embedding_constant(space) ** 2) * (1.0 - 1e-9)
    quad = np.einsum("ij,ij->i", space.operator.apply(x.T).T, x)
    mass = (x * x) @ space.mass_weights
    bad = np.flatnonzero(quad < theta * mass * (1.0 - 1e-10) - 1e-14)
    if bad.size:
        i = bad[0]
        raise IntegrityError(
            f"strong monotonicity violated: {quad[i]} < theta * {mass[i]}")
