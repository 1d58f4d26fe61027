"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter lies outside its admissible set (e.g. a stability index
    outside (0, 2], a skewness outside [-1, 1], a negative scale)."""


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class InfiniteQuasinormError(ArithmeticError):
    """The variable-exponent modular stays above 1, or is not finite, at
    every scaling up to 2^200 times the first, so no finite quasinorm."""


class QuadratureError(ArithmeticError):
    """Quadrature missed its tolerance within its refinement limits, as at a
    singularity or kink the integrand does not declare as a breakpoint."""


class GridResolutionError(ValueError):
    """A requested lag/increment is too small for the dyadic grid in use.

    The message names the minimum level that would resolve the request.
    """
