"""Exception hierarchy shared by all modules."""


class HypersintError(Exception):
    """Base class for all package-specific errors."""


class OutOfWindowError(HypersintError, ValueError):
    """A quantum number lies outside its quantization window."""


class NoBoundStateError(OutOfWindowError):
    """Requested level is outside the bound-state window (or spectrum empty)."""


class OutOfDomainError(HypersintError, ValueError):
    """Chart coordinates outside the chart's domain, or a point off the surface."""


class SingularConfigurationError(HypersintError, ValueError):
    """Evaluation at a singular configuration (e.g. w2 = 0 for a 1/w2^2 term)."""


class ParameterPoleError(HypersintError, ValueError):
    """A Gamma/Pochhammer factor hit a non-positive integer before termination."""


class NonFiniteValueError(HypersintError, ArithmeticError):
    """A NaN or infinity appeared where a finite value is required."""


class SolverFailureError(HypersintError, RuntimeError):
    """Root solver could not reach the requested residual floor."""

    def __init__(self, message: str, best_residual: float | None = None):
        super().__init__(message)
        self.best_residual = best_residual
