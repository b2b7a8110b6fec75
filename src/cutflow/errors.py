"""Exception types shared across the package.

Exit-code mapping used by the CLI: ConfigurationError -> 2;
NonconvergenceError, SolverError and CapacityError -> 3, with a
diagnostic.txt in the output directory; OutputError -> 4.
"""


class ConfigurationError(ValueError):
    """Invalid run configuration or constructor arguments at setup time."""


class CapacityError(RuntimeError):
    """A hard structural cap was exceeded (e.g. enrichment levels at a node)."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class SolverError(RuntimeError):
    """Linear solver failure (structural or numerical singularity).

    Carries, for transient runs, the failing step.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class NonconvergenceError(RuntimeError):
    """Nonlinear or time-step iteration failed to converge.

    Carries the residual trace and, for transient runs, the failing step.
    """

    def __init__(self, message, trace=None, step=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []
        self.step = step


class OutputError(OSError):
    """Failure writing result files."""
