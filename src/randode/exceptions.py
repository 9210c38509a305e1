"""Exception types shared across the package, and the one check of integer counts."""

import numbers


class DomainError(ValueError):
    """An argument lies outside the domain a routine is defined on."""


def _check_counts(least: int = 1, /, **counts) -> None:
    """Raise a DomainError for the first count that is not an integer >= least."""
    for name, count in counts.items():
        if not isinstance(count, numbers.Integral) or count < least:
            raise DomainError(f"{name} must be >= {least} and an integer: {count!r} is not an "
                              f"integer >= {least}")


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
