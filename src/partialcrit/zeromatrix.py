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

    ``powers_decay`` squares the matrix 64 times (with norm tracking), so it
    probes an astronomically high power; outside a thin band around spectral
    radius one the three booleans agree, and `is_convergent_to_zero`
    enforces that agreement.
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
    step_margins: tuple[float, ...]
    norms: tuple[float, ...]
    tail_sup: float
    tail_ok: bool | None


def _coerce(m) -> np.ndarray:
    if isinstance(m, MonotonyMatrix):
        return m.entries
    return MonotonyMatrix(np.asarray(m, dtype=float)).entries


def _radius_closed_form(a: np.ndarray) -> float:
    if a.shape[0] == 1:
        return float(a[0, 0])
    if a.shape[0] == 2:
        # nonnegative off-diagonal product keeps the discriminant nonnegative
        tr = a[0, 0] + a[1, 1]
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        disc = max((a[0, 0] - a[1, 1]) ** 2 + 4.0 * a[0, 1] * a[1, 0], 0.0)
        root = 0.5 * (tr + math.sqrt(disc))
        return float(max(root, abs(det) / root if root > 0.0 else 0.0))
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def spectral_radius(m, tol: float = 1e-8, max_iters: int = 20000) -> float:
    """Spectral radius of a small nonnegative matrix.

    Power iteration on the shifted matrix ``M + sigma I`` (the shift keeps
    the dominant eigenvalue simple and real), bracketing the radius by
    min/max componentwise ratios until the bracket is tighter than `tol`
    relative. Defective or reducible inputs can stall the bracket; those
    fall back to the closed form (order two) or a dense eigenvalue solve.
    Both routes are cross-checked against each other.
    """
    a = _coerce(m)
    n = a.shape[0]
    amax = float(a.max())
    if amax == 0.0:
        return 0.0
    sigma = 1.0 + amax
    b = a + sigma * np.eye(n)
    x = np.full(n, 1.0 / n)
    estimate = None
    for _ in range(max_iters):
        y = b @ x
        ratios = y / x
        hi = float(ratios.max())
        lo = float(ratios.min())
        if hi - lo <= tol * hi:
            estimate = 0.5 * (hi + lo) - sigma
            break
        x = y / float(y.sum())
    reference = _radius_closed_form(a)
    if estimate is None:
        return max(reference, 0.0)
    if abs(estimate - reference) > 1e-6 * max(1.0, reference):
        raise IntegrityError(
            f"power iteration ({estimate}) disagrees with eigenvalue route ({reference})"
        )
    return max(estimate, 0.0)


def _neumann_ok(a: np.ndarray) -> bool:
    n = a.shape[0]
    try:
        inv = np.linalg.inv(np.eye(n) - a)
    except np.linalg.LinAlgError:
        return False
    if not np.all(np.isfinite(inv)):
        return False
    return bool(np.all(inv >= -1e-12))


def _powers_decay(a: np.ndarray, squarings: int = 64,
                  threshold: float = 1e-6) -> bool:
    # track log ||M^(2^k)||_inf through normalized squarings to dodge
    # overflow/underflow
    norm = float(np.abs(a).sum(axis=1).max())
    if norm == 0.0:
        return True
    log_norm = math.log(norm)
    p = a / norm
    for _ in range(squarings):
        p = p @ p
        norm = float(np.abs(p).sum(axis=1).max())
        if norm == 0.0:
            return True
        log_norm = 2.0 * log_norm + math.log(norm)
        p = p / norm
        if log_norm < -1e6:
            return True
        if log_norm > 1e6:
            return False
    return log_norm < math.log(threshold)


def is_convergent_to_zero(m) -> ConvergenceCertificate:
    """Evaluate all three convergence characterizations.

    Raises ``IntegrityError`` if a radius strictly below one fails either of
    the other two checks; that combination signals a numerical
    inconsistency, not a borderline input.
    """
    a = _coerce(m)
    rho = spectral_radius(a)
    rho_ok = rho < 1.0 - 1e-9
    neumann = _neumann_ok(a)
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


def neumann_inverse(m, validate_tol: float = 1e-8) -> np.ndarray:
    """Inverse of ``I - M`` for a convergent matrix, validated by the series.

    The partial sums ``S_m = I + M + ... + M^(m-1)`` are doubled,
    ``S_2m = S_m + S_m M^m``, until ``M^m`` is negligible (at most 64
    doublings, i.e. 2^64 terms), and compared with the direct inverse.
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
    if float(np.abs(inv - total).max()) > validate_tol * scale:
        raise IntegrityError("direct inverse disagrees with the partial series")
    return inv


def verify_dominance(x_seq, y_seq, m, slack: float = 0.0,
                     tail_threshold: float | None = None,
                     tail_fraction: float = 0.25) -> DominanceReport:
    """Check ``x_k <= M x_{k-1} + y_k + slack`` componentwise for k >= 1.

    Parameters
    ----------
    x_seq, y_seq : sequences of nonnegative vectors, equal length >= 2.
        ``y_seq[0]`` is never used.
    slack : float
        Uniform additive tolerance applied to every component.
    tail_threshold : float, optional
        When given, also report whether ``max ||x_k||_inf`` over the final
        `tail_fraction` of the trajectory dropped below it.
    """
    xs = np.asarray(x_seq, dtype=float)
    ys = np.asarray(y_seq, dtype=float)
    if xs.ndim != 2 or ys.ndim != 2:
        raise ValueError("sequences must be two-dimensional arrays of vectors")
    if xs.shape != ys.shape:
        raise ValueError("x and y sequences must have matching shapes")
    if xs.shape[0] < 2:
        raise ValueError("need at least two steps")
    if np.any(xs < 0.0) or np.any(ys < 0.0):
        raise ValueError("dominance sequences must be nonnegative")
    a = _coerce(m)
    if a.shape[0] != xs.shape[1]:
        raise ValueError("matrix size does not match vector length")

    margins = np.max(xs[1:] - (xs[:-1] @ a.T + ys[1:] + slack), axis=1)
    violating = np.flatnonzero(margins > 0.0)
    norms = np.max(np.abs(xs), axis=1)
    tail_len = max(1, int(math.ceil(len(norms) * tail_fraction)))
    tail_sup = float(np.max(norms[-tail_len:]))
    return DominanceReport(
        dominance_ok=violating.size == 0,
        first_violation=int(violating[0]) + 1 if violating.size else None,
        max_violation=float(np.max(margins)),
        step_margins=tuple(margins.tolist()),
        norms=tuple(norms.tolist()),
        tail_sup=tail_sup,
        tail_ok=None if tail_threshold is None else bool(tail_sup <= tail_threshold),
    )
