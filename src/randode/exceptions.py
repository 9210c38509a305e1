"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the domain a routine is defined on."""


class NumericalError(ArithmeticError):
    """A computation produced a non-finite value.

    ``step`` is the scheme step and ``replication`` the Monte Carlo
    replication index where it happened, when known.
    """

    def __init__(self, message, step=None, replication=None):
        super().__init__(message)
        self.step = step
        self.replication = replication


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget.

    ``step`` is the scheme step and ``replication`` the Monte Carlo
    replication index where it happened, when known.
    """

    def __init__(self, message, step=None, replication=None):
        super().__init__(message)
        self.step = step
        self.replication = replication


class ReferenceSolutionError(RuntimeError):
    """A reference solution could not be evaluated where requested."""
