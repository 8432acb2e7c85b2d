"""Convolution kernels and their analytic metadata.

Each kernel couples a sampled profile with the DFT symbol used for fast
convolution and with the scalar quantities the asymptotic predictions need:
mass, second moment, bhat''(0), a(0) = integral of b^2, a''(0), and the
energy ceiling K_max = 1/(2 a(0)) relevant to singular nonlinearities.  A
kernel stores the second moment and a''(0); the others derive from them and
from the profile.

Sampled kernels (gaussian, indicator, two-bump, custom) are all built by
kernel_from_samples, which derives the symbol from the samples, so
symbol-based convolution coincides with the direct circular sum.
The spectral ODE kernel is defined by its symbol (1 + k^2)^(-1/2); its
profile samples carry a logarithmic singularity at x = 0 smoothed at grid
scale, and cone/boundedness validation is skipped for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .config import fields_table, read_fields
from .errors import NumericalOverflowError, UnderResolvedError
from .grid import ConeReport, Grid, Profile, cone_check, require_same_grid


@dataclass(frozen=True, eq=False)
class Kernel:
    """A convolution kernel b: its profile, its DFT symbol and the two
    constants measured on them, the second moment and a''(0); mass, a(0),
    bhat''(0), K_max and a_smooth derive from these."""

    profile: Profile
    symbol: np.ndarray  # bhat at grid.rfft_frequencies
    second_moment: float
    a_pp0: float  # nan when a = b*b is not twice differentiable
    spectral: bool
    label: str
    exp_moment: Callable[[float], float] | None = None  # integral b(y) e^(lam y) dy
    moment_abscissa: float = np.inf

    def __post_init__(self):
        sym = np.asarray(self.symbol, dtype=np.float64).copy()
        sym.flags.writeable = False
        object.__setattr__(self, "symbol", sym)

    @property
    def grid(self) -> Grid:
        return self.profile.grid

    @cached_property
    def mass(self) -> float:
        return float(self.grid.spacing * np.sum(self.profile.samples))

    @cached_property
    def a0(self) -> float:
        """a(0) = integral of b^2."""
        return float(self.grid.spacing * np.sum(self.profile.samples**2))

    @property
    def bhat_pp0(self) -> float:
        return -self.second_moment

    @property
    def k_max_norm(self) -> float:
        """The energy ceiling K_max = 1/(2 a(0))."""
        return 1.0 / (2.0 * self.a0)

    @property
    def a_smooth(self) -> bool:
        """a and a'' bounded and integrable."""
        return math.isfinite(self.a_pp0)

    def convolve(self, w: Profile) -> Profile:
        """Circular convolution b * w through the stored symbol, in node order:
        for even n the shift to FFT order is a roll by n/2, which commutes."""
        require_same_grid(self.profile, w)
        out = np.fft.irfft(self.symbol * np.fft.rfft(w.samples), self.grid.point_count)
        try:
            return Profile(w.grid, out)  # rejects non-finite samples
        except ValueError:
            raise NumericalOverflowError("convolution produced non-finite values") from None


def _symbol_from_samples(grid: Grid, samples: np.ndarray) -> np.ndarray:
    # real part only: the kernel is even, so its symbol is real
    return grid.spacing * np.fft.rfft(np.fft.ifftshift(samples)).real


def samples_from_symbol(grid: Grid, symbol: np.ndarray) -> np.ndarray:
    """Samples in node order, centred at x = 0, of the kernel with this symbol."""
    return np.fft.fftshift(np.fft.irfft(symbol, grid.point_count)) / grid.spacing


def _a_pp0_from_symbol(grid: Grid, symbol: np.ndarray) -> float:
    # a''(0) = -(1/2L) * sum over all modes of k^2 bhat(k)^2
    total = np.sum(grid.rfft_multiplicity * (grid.rfft_frequencies * symbol) ** 2)
    return float(-total / (2.0 * grid.half_period))


def kernel_from_samples(
    grid: Grid,
    samples: np.ndarray,
    *,
    label: str = "custom",
    normalize: bool = True,
    a_smooth: bool = False,
    exp_moment=None,
    moment_abscissa: float = math.inf,
) -> Kernel:
    """Wrap arbitrary samples as a kernel (metadata computed, no validation).

    a_smooth says that a = b*b is twice differentiable, so a''(0) is read
    off the symbol; otherwise it is nan.  exp_moment, when given, is the
    closed-form two-sided exponential moment used by tail analysis;
    moment_abscissa bounds where it stays finite."""
    samples = np.asarray(samples, dtype=np.float64)
    if normalize:
        raw_mass = grid.spacing * np.sum(samples)
        if not raw_mass > 0:
            raise ValueError("kernel mass must be positive to normalize")
        samples = samples / raw_mass
    symbol = _symbol_from_samples(grid, samples)
    return Kernel(
        profile=Profile(grid, samples),
        symbol=symbol,
        second_moment=float(grid.spacing * np.sum(grid.nodes**2 * samples)),
        a_pp0=_a_pp0_from_symbol(grid, symbol) if a_smooth else float("nan"),
        spectral=False,
        label=label,
        exp_moment=exp_moment,
        moment_abscissa=moment_abscissa,
    )


def _check_bumps(grid: Grid, width: float, separation: float) -> None:
    """Gaussian bumps of this width centred at +-separation are resolved:
    h <= width/4, and the half period holds separation + 8 widths."""
    if not width > 0:
        raise ValueError(f"width must be positive, got {width}")
    if grid.spacing > width / 4.0:
        raise UnderResolvedError(
            f"grid spacing {grid.spacing:.4g} exceeds width/4 = {width / 4.0:.4g}"
        )
    bound = separation + 8.0 * width
    if grid.half_period < bound:
        raise UnderResolvedError(f"half period {grid.half_period:.4g} below "
                                 f"{bound:.4g}, the bump centre plus 8*width")


def gaussian_kernel(grid: Grid, width: float = 1.0) -> Kernel:
    """Unit-mass Gaussian of the given width (standard deviation)."""
    _check_bumps(grid, width, 0.0)
    x = grid.nodes
    samples = np.exp(-(x**2) / (2.0 * width**2))
    w2 = width * width
    return kernel_from_samples(
        grid,
        samples,
        label=f"gaussian(width={width:g})",
        a_smooth=True,
        exp_moment=lambda lam: float(np.exp(0.5 * w2 * lam * lam)),
    )


def indicator_kernel(grid: Grid) -> Kernel:
    """Indicator of [-1/2, 1/2] as cell averages: each sample is the fraction
    of [x - h/2, x + h/2] inside [-1/2, 1/2], so a node on an edge carries
    the half value and the discrete mass and second moment converge at
    second order in h on any grid, edges on nodes or not."""
    if grid.spacing > 1.0 / 8.0:
        raise UnderResolvedError(
            f"grid spacing {grid.spacing:.4g} exceeds 1/8 for the indicator kernel"
        )
    if grid.half_period < 2.0:
        raise UnderResolvedError("half period below 2; b*b would wrap around")
    x = grid.nodes
    samples = np.clip((0.5 - np.abs(x)) / grid.spacing + 0.5, 0.0, 1.0)

    def exp_moment(lam: float) -> float:
        if lam == 0.0:
            return 1.0
        return float(2.0 * np.sinh(0.5 * lam) / lam)

    return kernel_from_samples(grid, samples, label="indicator", exp_moment=exp_moment)


def spectral_ode_kernel(grid: Grid) -> Kernel:
    """Kernel defined by the symbol (1 + k^2)^(-1/2), so that a = b*b has
    symbol (1 + k^2)^(-1) and the eigenvalue equation reduces to the ODE
    sigma (U - U'') = f(U)."""
    if grid.nyquist < 20.0:
        raise UnderResolvedError(
            f"Nyquist frequency {grid.nyquist:.4g} below 20 for the spectral kernel"
        )
    k = grid.rfft_frequencies
    symbol = 1.0 / np.sqrt(1.0 + k * k)

    def exp_moment(lam: float) -> float:
        if abs(lam) >= 1.0:
            return float("inf")
        return float(1.0 / np.sqrt(1.0 - lam * lam))

    return Kernel(
        profile=Profile(grid, samples_from_symbol(grid, symbol)),
        symbol=symbol,
        second_moment=1.0,  # -bhat''(0), exactly
        a_pp0=float("nan"),  # a = exp(-|x|)/2 is not C^2 at 0
        spectral=True,
        label="ode",
        exp_moment=exp_moment,
        moment_abscissa=1.0,
    )


def two_bump_kernel(grid: Grid, width: float = 0.6, separation: float = 6.0) -> Kernel:
    """Sum of two separated Gaussians; even and positive but not unimodal.

    Violates the unimodality part of the kernel assumptions on purpose; used
    for exploratory runs probing uniqueness failure.
    """
    if not separation > 0:
        raise ValueError(f"separation must be positive, got {separation}")
    _check_bumps(grid, width, separation)
    x = grid.nodes
    samples = np.exp(-((x - separation) ** 2) / (2.0 * width**2)) + np.exp(
        -((x + separation) ** 2) / (2.0 * width**2)
    )
    return kernel_from_samples(
        grid,
        samples,
        label=f"two_bump(width={width:g},separation={separation:g})",
        a_smooth=True,
    )


@dataclass(frozen=True)
class KernelValidationReport:
    """Outcome of the standing-assumption checks for a kernel."""

    mass_error: float
    cone: ConeReport | None  # None when cone checks are skipped (spectral)
    failures: tuple[str, ...]

    @property
    def cone_checked(self) -> bool:
        return self.cone is not None

    @property
    def passed(self) -> bool:
        return not self.failures


# the mass error and the cone deviations, relative to max b, that still pass
_VALIDATION_TOL = 1e-6


def validate_kernel(kernel: Kernel) -> KernelValidationReport:
    """Check unit mass, finite positive moments, and cone membership of the
    profile (evenness, nonnegativity, unimodality), each within
    _VALIDATION_TOL.  Cone checks are skipped for spectral kernels whose
    samples carry a smoothed singularity."""
    failures = []
    mass_error = abs(kernel.mass - 1.0)
    if mass_error > _VALIDATION_TOL:
        failures.append(f"mass deviates from 1 by {mass_error:.3g}")
    if not np.isfinite(kernel.second_moment) or kernel.second_moment <= 0:
        failures.append("second moment not finite and positive")
    if not np.isfinite(kernel.a0) or kernel.a0 <= 0:
        failures.append("integral of b^2 not finite and positive")
    cone = None if kernel.spectral else cone_check(kernel.profile)
    if cone is not None:
        scale = max(abs(kernel.profile.max), 1e-300)
        if cone.even_deviation > _VALIDATION_TOL * scale:
            failures.append(f"evenness violated by {cone.even_deviation:.3g}")
        if cone.min_value < -_VALIDATION_TOL * scale:
            failures.append(f"nonnegativity violated: min = {cone.min_value:.3g}")
        if cone.unimodality_deviation > _VALIDATION_TOL * scale:
            failures.append(
                f"unimodality violated by {cone.unimodality_deviation:.3g}"
            )
    return KernelValidationReport(mass_error, cone, tuple(failures))


@dataclass(frozen=True)
class _Kind:
    """One kernel kind: its builder, the parameters it takes with their
    defaults, and the resolution scale grid policies size grids by."""

    builder: Callable[..., Kernel]
    defaults: dict
    length_scale: float | None = None  # None: the width parameter is the scale


_KINDS = {
    "gaussian": _Kind(gaussian_kernel, {"width": 1.0}),
    "indicator": _Kind(indicator_kernel, {}, length_scale=0.5),
    "ode": _Kind(spectral_ode_kernel, {}, length_scale=1.0),
    "two_bump": _Kind(two_bump_kernel, {"width": 0.6, "separation": 6.0}),
}


@dataclass(frozen=True)
class KernelSpec:
    """Grid-independent kernel description, buildable on any adequate grid.

    A parameter left at None takes its kind's default; a parameter the kind
    does not take is rejected."""

    kind: str  # gaussian | indicator | ode | two_bump
    width: float | None = None
    separation: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown kernel kind {self.kind!r}; expected one of {sorted(_KINDS)}"
            )
        foreign = [name for name, value in self._given().items()
                   if name not in _KINDS[self.kind].defaults]
        if foreign:
            raise ValueError(f"kernel kind {self.kind!r} takes no {sorted(foreign)}")

    def _given(self) -> dict:
        given = {"width": self.width, "separation": self.separation}
        return {name: value for name, value in given.items() if value is not None}

    def _parameters(self) -> dict:
        return {**_KINDS[self.kind].defaults, **self._given()}

    def build(self, grid: Grid) -> Kernel:
        return _KINDS[self.kind].builder(grid, **self._parameters())

    @property
    def length_scale(self) -> float:
        """Resolution scale used by grid policies."""
        scale = _KINDS[self.kind].length_scale
        return self._parameters()["width"] if scale is None else scale

    def to_config(self) -> dict:
        # parameters left at their defaults stay out of the echo
        return {"kind": self.kind, **self._given()}


def kernel_spec_from_config(cfg: dict) -> KernelSpec:
    return KernelSpec(**read_fields(cfg, fields_table(KernelSpec), "kernel section"))
