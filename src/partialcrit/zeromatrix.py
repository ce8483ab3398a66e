"""Nonnegative matrices that are convergent to zero, and dominance checks.

A nonnegative square matrix M is convergent to zero when its powers tend to
the zero matrix; equivalently its spectral radius is below one, equivalently
I - M is a nonsingular M-matrix, that is, every leading principal minor of
I - M is positive (Berman and Plemmons, *Nonnegative Matrices in the
Mathematical Sciences*, 1979, ch. 6). The verdict here is that minor test,
taken exactly. Vector sequences dominated componentwise by
``x_k <= M x_{k-1} + y_k`` with ``y_k -> 0`` then tend to zero themselves,
which is what the iteration analysis leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import IntegrityError

__all__ = [
    "MonotonyMatrix",
    "ConvergenceCertificate",
    "DominanceReport",
    "spectral_radius",
    "is_convergent_to_zero",
    "neumann_inverse",
    "verify_dominance",
]

_MAX_SIZE = 8


@dataclass(frozen=True)
class MonotonyMatrix:
    """Small nonnegative matrix of coupling coefficients."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("entries must form a square matrix")
        if a.shape[0] < 1 or a.shape[0] > _MAX_SIZE:
            raise ValueError(f"matrix size must be between 1 and {_MAX_SIZE}")
        if not np.all(np.isfinite(a)):
            raise ValueError("entries must be finite")
        if np.any(a < 0.0):
            raise ValueError("entries must be nonnegative")
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Whether a nonnegative matrix is convergent to zero, and its radius.

    ``rho_ok`` is the exact verdict: every leading principal minor of
    ``I - M`` is positive, which for nonnegative M holds exactly when
    ``rho(M) < 1`` (Berman and Plemmons 1979, ch. 6). ``spectral_radius`` is
    the reported number, from `spectral_radius`; within rounding of one it
    may read 1 under a true verdict.
    """

    spectral_radius: float
    rho_ok: bool

    @property
    def convergent(self) -> bool:
        return self.rho_ok


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of a componentwise dominance check over a trajectory."""

    dominance_ok: bool
    first_violation: int | None
    max_violation: float
    tail_sup: float
    tail_ok: bool | None


def _coerce(m) -> np.ndarray:
    return (m if isinstance(m, MonotonyMatrix) else MonotonyMatrix(m)).entries


def _balance(a: np.ndarray) -> np.ndarray:
    """``D^-1 A D`` for a diagonal ``D`` of powers of two, an exact
    similarity.

    The eigensolver scales a matrix whose largest entry is near the float
    limit down into range, which flushes entries many decades smaller to
    zero. Each exponent of ``D`` is a quarter of the log2 ratio of the
    row's to the column's off-diagonal sum, rounded: that evens out a
    2 by 2 matrix, and leaves a matrix whose row and column sums agree
    within a factor of 4, a symmetric one for instance, as it is. A
    similarity that would leave the float range is not applied.
    """
    # in Python floats, which for these small matrices beats numpy's per
    # call overhead; eighths of the entries, so that the sums stay finite
    off = [[0.125 * x if i != j else 0.0 for j, x in enumerate(row)]
           for i, row in enumerate(a.tolist())]
    t = [round(0.25 * (math.log2(r) - math.log2(c))) if r > 0.0 and c > 0.0
         else 0 for r, c in zip(map(sum, off), map(sum, zip(*off)))]
    if not any(t):
        return a
    b = np.ldexp(a, np.subtract.outer(t, t).T)
    return b if np.all(np.isfinite(b)) else a


def spectral_radius(m) -> float:
    """Spectral radius ``rho = max |lambda|`` of a small nonnegative matrix.

    One dense eigensolve of the balanced matrix (`_balance`), a similarity
    with the same eigenvalues. The result is checked against the
    Collatz–Wielandt bracket of that matrix: with ``x = |v|`` for the
    eigenvector ``v`` of a dominant eigenvalue,
    ``min (M x)_i / x_i <= rho <= max (M x)_i / x_i`` whenever ``x > 0``
    (irreducible M). A radius outside that bracket, widened by
    ``1e-6 * max(1, rho)``, raises ``IntegrityError``. Reducible inputs whose
    dominant eigenvector has a zero component skip the check. A radius
    outside the float range raises ``ValueError``.
    """
    a = _balance(_coerce(m))
    lam, vecs = np.linalg.eig(a)
    k = int(np.argmax(np.abs(lam)))
    rho = float(np.abs(lam[k]))
    if not math.isfinite(rho):
        raise ValueError("spectral radius leaves the float range")
    x = np.abs(vecs[:, k])
    if np.all(x > 0.0):
        # a ratio beyond the float range leaves an infinite, still valid,
        # upper end of the bracket
        with np.errstate(over="ignore"):
            ratios = (a @ x) / x
        slack = 1e-6 * max(1.0, rho)
        lo, hi = float(ratios.min()), float(ratios.max())
        if not lo - slack <= rho <= hi + slack:
            raise IntegrityError(
                f"eigenvalue radius {rho} lies outside the Collatz-Wielandt "
                f"bracket [{lo}, {hi}]"
            )
    return rho


def _leading_minors_positive(a: np.ndarray) -> bool:
    """Whether every leading principal minor of ``I - a`` is positive.

    Fraction-free (Bareiss) elimination without pivoting, in Python
    integers: every float is an integer over a power of two, so ``D (I - a)``
    for the largest such denominator ``D`` is an integer matrix, and each
    division below is exact. The k-th pivot is the k-th leading minor of
    that matrix, ``D^k`` times the one of ``I - a``.
    """
    ratios = [[x.as_integer_ratio() for x in row] for row in a.tolist()]
    shift = max(q.bit_length() for row in ratios for _, q in row) - 1
    rows = [[-(p << (shift + 1 - q.bit_length())) for p, q in row]
            for row in ratios]
    for i, row in enumerate(rows):
        row[i] += 1 << shift
    prev = 1
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row[k]
        if pivot <= 0:
            return False
        for row in rows[k + 1:]:
            for j in range(k + 1, len(row)):
                row[j] = (pivot * row[j] - row[k] * pivot_row[j]) // prev
        prev = pivot
    return True


def is_convergent_to_zero(m) -> ConvergenceCertificate:
    """Decide exactly whether ``M`` is convergent to zero.

    ``rho_ok`` holds when every leading principal minor of ``I - M`` is
    positive, the M-matrix criterion (Berman and Plemmons 1979, ch. 6),
    decided in exact integer arithmetic; the radius is `spectral_radius`'s.
    Raises ``ValueError`` when that radius leaves the float range, and
    ``IntegrityError`` when it falls outside its Collatz–Wielandt bracket.
    """
    a = _coerce(m)
    return ConvergenceCertificate(spectral_radius=spectral_radius(a),
                                  rho_ok=_leading_minors_positive(a))


def neumann_inverse(m) -> np.ndarray:
    """``(I - M)^-1``, the sum of the Neumann series, for a convergent M.

    A matrix that the exact M-matrix criterion of `is_convergent_to_zero`
    (Berman and Plemmons 1979, ch. 6) refuses raises ``ValueError``, as does
    an inverse that leaves the float range. The inverse is the direct one,
    ``np.linalg.inv(I - M)``, which within rounding of radius one carries
    the error of an ill-conditioned solve. The exact inverse is at least
    ``I``, so a solve that meets a zero pivot or returns a diagonal entry
    that is not positive raises ``ValueError`` as singular to working
    precision.
    """
    a = _coerce(m)
    if not _leading_minors_positive(a):
        raise ValueError("matrix is not convergent to zero "
                         f"(radius {spectral_radius(a)})")
    singular = "I - M is singular to working precision"
    try:
        inv = np.linalg.inv(np.eye(a.shape[0]) - a)
    except np.linalg.LinAlgError:
        raise ValueError(singular) from None
    if not np.all(np.isfinite(inv)):
        raise ValueError("(I - M)^-1 leaves the float range")
    if not np.all(np.diag(inv) > 0.0):
        raise ValueError(singular)
    return inv


def verify_dominance(x_seq, y_seq, m, slack: float = 0.0,
                     tail_threshold: float | None = None) -> DominanceReport:
    """Check ``x_k <= M x_{k-1} + y_k + slack`` componentwise for k >= 1, in
    a few passes over the steps x n array: each step's margin is the exact
    maximum of its row, a running ``np.maximum`` over the n columns.

    Parameters
    ----------
    x_seq, y_seq : sequences of finite nonnegative vectors, equal
        length >= 2. ``y_seq[0]`` is never used.
    slack : float
        Uniform finite additive tolerance applied to every component.
    tail_threshold : float, optional
        When given, also report whether ``max ||x_k||_inf`` over the final
        quarter of the trajectory dropped below it.
    """
    xs = np.asarray(x_seq, dtype=float)
    ys = np.asarray(y_seq, dtype=float)
    if xs.ndim != 2 or ys.ndim != 2:
        raise ValueError("sequences must be two-dimensional arrays of vectors")
    if xs.shape != ys.shape:
        raise ValueError("x and y sequences must have matching shapes")
    if xs.shape[0] < 2:
        raise ValueError("need at least two steps")
    if not all(np.isfinite(a).all() for a in (xs, ys, slack)):
        raise ValueError("dominance sequences and slack must be finite")
    if np.any(xs < 0.0) or np.any(ys < 0.0):
        raise ValueError("dominance sequences must be nonnegative")
    a = _coerce(m)
    if a.shape[0] != xs.shape[1]:
        raise ValueError("matrix size does not match vector length")

    # a bound that leaves the float range is +inf, and its step dominated
    with np.errstate(over="ignore"):
        gaps = xs[1:] - (xs[:-1] @ a.T + ys[1:] + slack)
    margins = reduce(np.maximum, gaps.T)
    violating = np.flatnonzero(margins > 0.0)
    tail_sup = float(np.max(np.abs(xs[-math.ceil(len(xs) / 4):])))
    return DominanceReport(
        dominance_ok=violating.size == 0,
        first_violation=int(violating[0]) + 1 if violating.size else None,
        max_violation=float(np.max(margins)),
        tail_sup=tail_sup,
        tail_ok=None if tail_threshold is None else bool(tail_sup <= tail_threshold),
    )
