"""Exception types shared across the toolkit."""

__all__ = [
    "Dae2OdeError",
    "ResidualTooLarge",
    "NotInvariant",
    "NotEquivalent",
    "NonFiniteP",
    "NoStabilizingStart",
    "NotStabilizable",
    "InconsistentInitialState",
    "ConstraintViolated",
]


class Dae2OdeError(Exception):
    """Base class for all package-specific failures."""


class ResidualTooLarge(Dae2OdeError):
    """A linear system that theory says is solvable had no solution within tol."""


class NotInvariant(Dae2OdeError):
    """A restriction was requested onto a subspace that is not invariant."""


class NotEquivalent(Dae2OdeError):
    """No feedback equivalence could be recovered within tolerance."""


class NonFiniteP(Dae2OdeError):
    """Riccati integration produced non-finite entries."""


class NoStabilizingStart(Dae2OdeError):
    """No stabilizing solution of the algebraic Riccati equation was found."""


class NotStabilizable(Dae2OdeError):
    """The infinite-horizon problem is unsolvable from the given value."""


class InconsistentInitialState(Dae2OdeError):
    """The requested initial value admits no solution of the DAE."""


class ConstraintViolated(Dae2OdeError):
    """A replayed trajectory failed the algebraic constraint check."""
