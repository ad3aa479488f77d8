"""Exception hierarchy shared across the package.

Validation errors (bad user input, infeasible parameters) and numerical
errors (the geometry itself breaks down) are kept on separate branches so
the command-line layer can map them to distinct exit codes.
"""


class Bour4Error(Exception):
    """Base class for everything raised on purpose by this package."""


class ValidationError(Bour4Error):
    """Bad input: malformed expression, parameter out of range, bad spec file."""


class NumericalError(Bour4Error):
    """The computation is well-posed but fails at the given data."""


class ExprSyntaxError(ValidationError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ValidationError):
    def __init__(self, name, offset=None):
        loc = f" (offset {offset})" if offset is not None else ""
        super().__init__(f"unknown identifier '{name}'{loc}")
        self.name = name
        self.offset = offset


class EvalDomainError(NumericalError):
    """Evaluation left the real domain of some sub-expression."""

    def __init__(self, message, subexpr=None):
        if subexpr is not None:
            message = f"{message} in '{subexpr}'"
        super().__init__(message)
        self.subexpr = subexpr


class NonFiniteError(NumericalError):
    """A value overflowed or became undefined (inf or nan)."""


class DegenerateSurfaceError(NumericalError):
    """det(g) vanishes: the induced metric is degenerate at this point."""


class NotSpacelikeError(NumericalError):
    """det(g) < 0: the surface is timelike where a spacelike one was required."""


class FrameFailureError(NumericalError):
    """No orthonormal tangent/normal frame exists under the requested convention."""


class InfeasibleGaugeError(ValidationError):
    """The gauge constraint forces a negative square on part of the domain."""

    def __init__(self, message, interval=None):
        if interval is not None:
            message = f"{message} on u in [{interval[0]:.6g}, {interval[1]:.6g}]"
        super().__init__(message)
        self.interval = interval


class QuadratureError(NumericalError):
    """Adaptive integration failed to converge (singular or wild integrand)."""
