"""Exception types shared across the package.

Every error names the invariant it guards so that CLI messages and test
assertions can point at the failing condition directly.
"""


class NleigError(Exception):
    """Base class for all package-specific errors; the CLI exits 2 on one."""


class ComputationError(NleigError):
    """A computation failed at run time on valid input; the CLI exits 3."""


class GridMismatchError(NleigError):
    """Two profiles that must share a grid do not."""


class OddPointCountError(NleigError):
    """Grid point count must be even so that the node x = 0 exists."""


class UnderResolvedError(NleigError):
    """Grid too coarse (or too short) to resolve the requested kernel."""


class DomainBreachError(ComputationError):
    """Nonlinearity evaluated at or beyond its domain boundary."""

    def __init__(self, sup_value: float, sup_domain: float):
        self.sup_value = float(sup_value)
        self.sup_domain = float(sup_domain)
        super().__init__(
            f"nonlinearity argument reached sup = {sup_value:.6g} "
            f">= domain boundary {sup_domain:.6g}; step rejected, no damping applied"
        )


class ZeroGradientError(ComputationError):
    """Energy gradient vanished; the improvement step is undefined."""


class MonotonicityViolationError(ComputationError):
    """Energy decreased beyond slack; signals discretization failure."""


class NumericalOverflowError(ComputationError):
    """A norm, an energy or a convolution left the floating-point range."""


class SymbolPoleError(ComputationError):
    """Modified-kernel symbol denominator 1 - c*bhat^2 is not positive."""


class NonPositiveTailError(ComputationError):
    """Tail-rate fit requires strictly positive samples in the window."""


class KernelAssumptionError(NleigError):
    """Kernel fails an assumption required by the requested computation."""

