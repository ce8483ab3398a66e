"""Nonnegative matrices that are convergent to zero, and dominance checks.

A nonnegative square matrix M is convergent to zero when its powers tend to
the zero matrix; equivalently its spectral radius is below one, equivalently
I - M is invertible with a nonnegative inverse. Vector sequences dominated
componentwise by ``x_k <= M x_{k-1} + y_k`` with ``y_k -> 0`` then tend to
zero themselves, which is what the iteration analysis leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
_LOG_DECAYED = math.log(1e-6)


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
    """Three characterizations of convergence to zero, evaluated together.

    ``spectral_radius`` is one eigensolve checked against its
    Collatz–Wielandt bracket; ``neumann_ok`` says that ``I - M`` has a
    nonnegative inverse; ``powers_decay`` says that ``M^(2^64)`` has
    infinity norm below 1e-6, found by squaring with norm tracking until a
    power is below that (then every later one is) or 64 times. Outside a
    thin band around spectral radius one the three booleans agree, and
    `is_convergent_to_zero` enforces that agreement.
    """

    spectral_radius: float
    rho_ok: bool
    neumann_ok: bool
    powers_decay: bool

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
    if isinstance(m, MonotonyMatrix):
        return m.entries
    return MonotonyMatrix(np.asarray(m, dtype=float)).entries


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
        ratios = (a @ x) / x
        slack = 1e-6 * max(1.0, rho)
        lo, hi = float(ratios.min()), float(ratios.max())
        if not lo - slack <= rho <= hi + slack:
            raise IntegrityError(
                f"eigenvalue radius {rho} lies outside the Collatz-Wielandt "
                f"bracket [{lo}, {hi}]"
            )
    return rho


def _neumann_ok(a: np.ndarray, rho_ok: bool) -> bool:
    n = a.shape[0]
    try:
        inv = np.linalg.inv(np.eye(n) - a)
    except np.linalg.LinAlgError:
        return False
    if not np.all(np.isfinite(inv)):
        if rho_ok:
            raise ValueError("(I - M)^-1 leaves the float range")
        return False
    return bool(np.all(inv >= -1e-12))


def _powers_decay(a: np.ndarray) -> bool:
    # track log ||M^(2^k)||_inf through up to 64 normalized squarings to
    # dodge overflow/underflow; decayed means ||M^(2^64)||_inf < 1e-6. The
    # inf-norm is submultiplicative, so once a tracked power is below 1e-6
    # every later one is smaller, and the verdict is settled
    norm = float(np.abs(a).sum(axis=1).max())
    if norm == 0.0:
        return True
    log_norm = math.log(norm)
    p = a / norm
    for _ in range(64):
        if log_norm < _LOG_DECAYED:
            return True
        p = p @ p
        norm = float(np.abs(p).sum(axis=1).max())
        if norm == 0.0:
            return True
        log_norm = 2.0 * log_norm + math.log(norm)
        p = p / norm
        if log_norm > 1e6:
            return False
    return log_norm < _LOG_DECAYED


def is_convergent_to_zero(m) -> ConvergenceCertificate:
    """Evaluate all three convergence characterizations.

    ``rho_ok`` means ``rho < 1 - 1e-9`` for the radius of `spectral_radius`.
    Raises ``IntegrityError`` if such a radius fails either of the other two
    checks, or if the radius falls outside its Collatz–Wielandt bracket;
    either signals a numerical inconsistency, not a borderline input.
    Raises ``ValueError`` when the radius, or ``(I - M)^-1`` under a radius
    below one, leaves the float range.
    """
    a = _coerce(m)
    rho = spectral_radius(a)
    rho_ok = rho < 1.0 - 1e-9
    neumann = _neumann_ok(a, rho_ok)
    powers = _powers_decay(a)
    if rho_ok and not (neumann and powers):
        raise IntegrityError(
            f"certificate inconsistency: rho={rho} but neumann_ok={neumann}, "
            f"powers_decay={powers}"
        )
    return ConvergenceCertificate(
        spectral_radius=float(rho), rho_ok=bool(rho_ok),
        neumann_ok=bool(neumann), powers_decay=bool(powers),
    )


def neumann_inverse(m) -> np.ndarray:
    """Inverse of ``I - M`` for a convergent matrix, validated by the series.

    The partial sums ``S_m = I + M + ... + M^(m-1)`` are doubled,
    ``S_2m = S_m + S_m M^m``, until ``M^m`` is negligible (at most 64
    doublings, i.e. 2^64 terms), and compared with the direct inverse to
    1e-8 relative to its largest entry.
    """
    a = _coerce(m)
    rho = spectral_radius(a)
    if rho >= 1.0:
        raise ValueError(f"matrix is not convergent to zero (radius {rho})")
    n = a.shape[0]
    inv = np.linalg.inv(np.eye(n) - a)
    total = np.eye(n)
    power = a
    for _ in range(64):
        total = total + total @ power
        power = power @ power
        if float(np.abs(power).max()) <= 1e-15 * max(float(np.abs(total).max()), 1.0):
            break
    scale = max(float(np.abs(inv).max()), 1.0)
    if float(np.abs(inv - total).max()) > 1e-8 * scale:
        raise IntegrityError("direct inverse disagrees with the partial series")
    return inv


def verify_dominance(x_seq, y_seq, m, slack: float = 0.0,
                     tail_threshold: float | None = None) -> DominanceReport:
    """Check ``x_k <= M x_{k-1} + y_k + slack`` componentwise for k >= 1.

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

    margins = np.max(xs[1:] - (xs[:-1] @ a.T + ys[1:] + slack), axis=1)
    violating = np.flatnonzero(margins > 0.0)
    norms = np.max(np.abs(xs), axis=1)
    tail_len = max(1, int(math.ceil(len(norms) * 0.25)))
    tail_sup = float(np.max(norms[-tail_len:]))
    return DominanceReport(
        dominance_ok=violating.size == 0,
        first_violation=int(violating[0]) + 1 if violating.size else None,
        max_violation=float(np.max(margins)),
        tail_sup=tail_sup,
        tail_ok=None if tail_threshold is None else bool(tail_sup <= tail_threshold),
    )
