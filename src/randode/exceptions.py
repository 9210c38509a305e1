"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the domain a routine is defined on."""


class _RunError(Exception):
    """A run failed: ``step`` is the scheme step and ``replication`` the Monte Carlo
    replication index where it happened, when known."""

    def __init__(self, message, step=None, replication=None):
        super().__init__(message)
        self.step = step
        self.replication = replication


class NumericalError(_RunError, ArithmeticError):
    """A computation produced a non-finite value."""


class ConvergenceError(_RunError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class WorkerError(_RunError, RuntimeError):
    """A process pool worker died while it ran a chunk of replications."""


class ReferenceSolutionError(RuntimeError):
    """A reference solution could not be evaluated where requested."""
