"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter lies outside its admissible set (e.g. a stability index
    outside (0, 2], a skewness outside [-1, 1], a negative scale)."""


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class InfiniteQuasinormError(ArithmeticError):
    """The variable-exponent modular integral is non-finite for every
    positive scaling, so the function has no finite quasinorm."""


class QuadratureError(ArithmeticError):
    """Quadrature missed its tolerance within its refinement limits, as at a
    singularity or kink the integrand does not declare as a breakpoint."""


class GridResolutionError(ValueError):
    """A requested lag/increment is too small for the dyadic grid in use.

    The message names the minimum level that would resolve the request.
    """
