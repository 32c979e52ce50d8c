"""Exception types shared across the toolkit."""

__all__ = [
    "Dae2OdeError",
    "ResidualTooLarge",
    "NotEquivalent",
    "NonFiniteP",
    "NoStabilizingStart",
    "NotStabilizable",
    "InconsistentInitialState",
    "ConstraintViolated",
    "OrderedSchurFailed",
]


class Dae2OdeError(Exception):
    """Base class for all package-specific failures."""


class ResidualTooLarge(Dae2OdeError):
    """A linear system that theory says is solvable had no solution within tol."""


class NotEquivalent(Dae2OdeError):
    """No feedback equivalence could be recovered within tolerance."""


class NonFiniteP(Dae2OdeError):
    """Riccati integration, or the closed loop it drives, produced non-finite entries."""


class NoStabilizingStart(Dae2OdeError):
    """No stabilizing solution of the algebraic Riccati equation was found."""


class NotStabilizable(Dae2OdeError):
    """The infinite-horizon problem is unsolvable from the given value."""


class InconsistentInitialState(Dae2OdeError):
    """The requested initial value admits no solution of the DAE."""


class ConstraintViolated(Dae2OdeError):
    """A replayed trajectory failed the algebraic constraint check."""


class OrderedSchurFailed(Dae2OdeError):
    """No ordered real Schur form splitting off the stable modes was found."""
