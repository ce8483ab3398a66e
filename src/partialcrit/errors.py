"""Exception types shared across the package."""

from __future__ import annotations


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations or stalled.

    Carries the iteration count, so callers can report how far the solve got.
    """

    def __init__(self, message: str, iterations: int = -1):
        super().__init__(message)
        self.iterations = iterations


class SchemeStageError(ConvergenceError):
    """Inner solver failure inside an outer stage; records the stage index."""

    def __init__(self, message: str, stage: int, side: str,
                 iterations: int = -1):
        super().__init__(message, iterations=iterations)
        self.stage = stage
        self.side = side


class IntegrityError(RuntimeError):
    """An internal cross-check failed (operator symmetry, certificate
    consistency, closed-form disagreement). Indicates a broken input or a
    bug, never a tolerance issue."""


class HypothesisError(RuntimeError):
    """A structural hypothesis required by the solver does not hold and the
    caller did not ask to override it."""
