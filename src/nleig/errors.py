"""Exception types shared across the package.

Every error names the invariant it guards so that CLI messages and test
assertions can point at the failing condition directly.
"""


class NleigError(Exception):
    """Base class for all package-specific errors."""


class GridMismatchError(NleigError):
    """Two profiles that must share a grid do not."""


class OddPointCountError(NleigError):
    """Grid point count must be even so that the node x = 0 exists."""


class UnderResolvedError(NleigError):
    """Grid too coarse (or too short) to resolve the requested kernel."""


class DomainBreachError(NleigError):
    """Nonlinearity evaluated at or beyond its domain boundary."""

    def __init__(self, sup_value: float, sup_domain: float):
        self.sup_value = float(sup_value)
        self.sup_domain = float(sup_domain)
        super().__init__(
            f"nonlinearity argument reached sup = {sup_value:.6g} "
            f">= domain boundary {sup_domain:.6g}; step rejected, no damping applied"
        )


class ZeroGradientError(NleigError):
    """Energy gradient vanished; the improvement step is undefined."""


class MonotonicityViolationError(NleigError):
    """Energy decreased beyond slack; signals discretization failure."""


class NumericalOverflowError(NleigError):
    """A norm, an energy or a convolution left the floating-point range."""


class SymbolPoleError(NleigError):
    """Modified-kernel symbol denominator 1 - c*bhat^2 is not positive."""


class NonPositiveTailError(NleigError):
    """Tail-rate fit requires strictly positive samples in the window."""


class EmptyResultError(NleigError):
    """Plot-data emission called with no rows."""


class KernelAssumptionError(NleigError):
    """Kernel fails an assumption required by the requested computation."""

