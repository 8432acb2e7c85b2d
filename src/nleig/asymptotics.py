"""Asymptotic predictions and the experiments verifying them.

Three regimes are covered:
  * exponential tail decay, through the modified kernel a_c with symbol
    bhat^2 / (1 - c bhat^2) and the rate equation M(lambda) = sigma/f'(0),
    where M is the squared exponential moment of the kernel;
  * the shallow-water (small K) limit, where sigma - alpha ~ d0 eps^2 with
    K = eps^3 and the rescaled profile approaches a sech^2 wave;
  * the high-energy limit K -> K_max for singular nonlinearities, where U
    approaches a/a(0) and sigma eps^(m+1/2) approaches a Gamma-function
    constant eta0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import KernelAssumptionError, NonPositiveTailError, SymbolPoleError
from .grid import Grid, Profile, dot, make_grid
from .kernels import Kernel, KernelSpec, samples_from_symbol
from .nonlinearity import Nonlinearity
from .solver import Solution, SolverConfig, SweepEntry, attempt, point_label

# the fractions of the half period that the tail fit reads unless told otherwise
TAIL_WINDOW = (0.5, 0.8)


def modified_kernel_ac(kernel: Kernel, c: float) -> Profile:
    """Profile of a_c with symbol bhat^2 / (1 - c bhat^2).

    Defined for c below 1/max(bhat^2); at c -> 0 it reduces to b*b, and its
    Neumann series sums the iterated self-convolutions of b*b.
    """
    bb = kernel.symbol**2
    denom = 1.0 - c * bb
    if np.min(denom) <= 0.0:
        raise SymbolPoleError(
            f"1 - c*bhat^2 reaches {np.min(denom):.3g} <= 0 for c = {c:.6g}"
        )
    grid = kernel.grid
    return Profile(grid, samples_from_symbol(grid, bb / denom))


@dataclass(frozen=True)
class BlowUpBounded:
    """Tail decay limited by the kernel's own tail: the moment equation has
    no root below lambda_max."""

    lambda_max: float


def _grid_exp_moment(kernel: Kernel):
    samples = kernel.profile.samples
    x = kernel.grid.nodes
    h = kernel.grid.spacing

    def moment(lam: float) -> float:
        with np.errstate(over="ignore"):
            return float(h * np.sum(samples * np.exp(lam * x)))

    return moment


def decay_rate_theory(kernel: Kernel, sigma: float, alpha: float):
    """Solve M(lambda) = sigma/alpha for the predicted tail rate of U, where
    M(lambda) is the squared exponential moment of b.

    Returns the root as a float, or BlowUpBounded(lambda_max) when M stays
    below the target up to just below the moment's abscissa of convergence,
    lambda_max.  For a moment finite everywhere the bracket doubles from 1
    up to 1e9, which is then lambda_max.
    """
    target = sigma / alpha
    if not target > 1.0:
        raise ValueError(f"sigma/alpha must exceed 1, got {target:.6g}")
    moment = kernel.exp_moment if kernel.exp_moment is not None else _grid_exp_moment(kernel)

    def big_m(lam: float) -> float:
        v = moment(lam)
        return v * v

    abscissa = float(kernel.moment_abscissa)
    finite = math.isfinite(abscissa)
    top = abscissa * (1.0 - 1e-13) if finite else 1e9
    lo, hi = 0.0, top if finite else 1.0
    while big_m(hi) < target:
        if hi >= top:
            return BlowUpBounded(abscissa if finite else top)
        lo, hi = hi, min(2.0 * hi, top)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if big_m(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
    return float(0.5 * (lo + hi))


def tail_window(window) -> tuple[float, float]:
    """The fractions (w0, w1) of a tail window; a ValueError unless
    0 < w0 < w1 <= 1."""
    w0, w1 = window
    if not 0.0 < w0 < w1 <= 1.0:
        raise ValueError(f"window fractions must satisfy 0 < w0 < w1 <= 1, got {window}")
    return w0, w1


def tail_nodes(grid: Grid, window) -> tuple[np.ndarray, float, float]:
    """The nodes of grid in the tail window [w0*L, w1*L], as a mask, with the
    window's ends (x_lo, x_hi); a ValueError unless the fractions are valid
    and the window holds at least 3 nodes, the fewest a line fit can judge."""
    w0, w1 = tail_window(window)
    x_lo, x_hi = w0 * grid.half_period, w1 * grid.half_period
    mask = (grid.nodes >= x_lo) & (grid.nodes <= x_hi)
    if np.count_nonzero(mask) < 3:
        raise ValueError(f"tail window {list(window)} = [{x_lo:.4g}, {x_hi:.4g}] "
                         "contains fewer than 3 grid points")
    return mask, x_lo, x_hi


def fit_tail_rate(u: Profile, window: tuple[float, float] = TAIL_WINDOW):
    """Least-squares slope of log U on x in [w0*L, w1*L].

    Returns (rate, r_squared, (x_lo, x_hi)); raises NonPositiveTailError when
    the window contains non-positive samples.
    """
    mask, x_lo, x_hi = tail_nodes(u.grid, window)
    vals = u.samples[mask]
    if np.min(vals) <= 0.0:
        raise NonPositiveTailError(
            f"tail window [{x_lo:.4g}, {x_hi:.4g}] contains non-positive samples"
        )
    x = u.grid.nodes[mask]
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(-slope), float(r2), (float(x_lo), float(x_hi))


@dataclass(frozen=True)
class DecayReport:
    """Theoretical versus fitted tail rates for one solution."""

    c: float
    a_c: Profile
    lambda_theory: float | BlowUpBounded
    lambda_fit: float
    fit_r2: float
    fit_window: tuple[float, float]


def decay_report(
    kernel: Kernel,
    nl: Nonlinearity,
    sol: Solution,
    c: float | None = None,
    window: tuple[float, float] = TAIL_WINDOW,
) -> DecayReport:
    """Assemble the decay diagnostics; c defaults to the midpoint of the
    admissible interval (alpha/sigma, 1), and a c outside it is a
    ValueError."""
    lower = nl.alpha / sol.sigma
    if c is None:
        c = 0.5 * (lower + 1.0)
    elif not lower < c < 1.0:
        raise ValueError(f"c = {c:.6g} must lie in (alpha/sigma, 1) = ({lower:.6g}, 1)")
    a_c = modified_kernel_ac(kernel, c)
    lam_theory = decay_rate_theory(kernel, sol.sigma, nl.alpha)
    lam_fit, r2, win = fit_tail_rate(sol.U, window)
    return DecayReport(
        c=float(c),
        a_c=a_c,
        lambda_theory=lam_theory,
        lambda_fit=lam_fit,
        fit_r2=r2,
        fit_window=win,
    )


# ---------------------------------------------------------------------------
# solution families: one solve per point of a descending sweep


@dataclass(frozen=True)
class FamilyResult:
    """Rows, predictor constants and solves of a family sweep, in point
    order: entries[i] is the SweepEntry of the solve behind rows[i]."""

    rows: list
    predictors: dict
    entries: list[SweepEntry]


def _family_points(values, name: str, policy, spec: KernelSpec):
    """The descending points of a family, the first point's kernel (the probe
    that supplies the predictors) and the kernels of all points in order,
    each later one built when the sweep reaches it.  Every grid is sized
    before the first solve, so a point out of range or oversized fails the
    sweep at once."""
    points = [float(v) for v in values]
    if not points:
        raise ValueError(f"{name} list is empty")
    if any(b >= a for a, b in zip(points, points[1:])):
        raise ValueError(f"{name} values must be strictly descending")
    grids = [policy.grid_for(p, spec.length_scale) for p in points]
    probe = spec.build(grids[0])
    return points, probe, itertools.chain([probe], map(spec.build, grids[1:]))


def _power_of_two_grid(point: str, half_period: float, h_max: float,
                       max_points: int) -> Grid:
    """The grid of the given half period with the fewest power-of-two points
    whose spacing is at most h_max; errors name the family point, as
    "eps = 0.1"."""
    count = 2.0 * half_period / h_max if h_max > 0.0 else math.nan
    if not 0.0 < count < math.inf:
        raise ValueError(f"{point} needs spacing {h_max:g} at half period "
                         f"{half_period:g}: no finite, positive point count")
    n = 2 ** math.ceil(math.log2(count))
    if n > max_points:
        raise ValueError(f"{point} needs {n} points, above the cap {max_points}")
    return make_grid(half_period, n)


def _solve_family(nl, name, points, kernels, row_type, point, measure, predictors,
                  tol_residual, max_iter) -> FamilyResult:
    """Solve at each point with its kernel, its entry labelled by the point
    as point_label(name, p), and record one row_type(*head, sigma,
    *measured) row.  point(p, kernel) returns (head, K, initial
    profile); measure(p, kernel, solution) returns the row's remaining fields
    for a converged solve.  A failed point's row keeps the row type's NaN
    measurements, and its sigma too when the solve returned without
    converging; either way the sweep continues."""
    rows, entries = [], []
    for p, kernel in zip(points, kernels):
        head, K, init = point(p, kernel)
        cfg = SolverConfig(K=K, tol_residual=tol_residual, max_iter=max_iter,
                           init_profile=init)
        entry = attempt(cfg, kernel, nl, label=point_label(name, p))
        sol = entry.solution
        measured = measure(p, kernel, sol) if entry.error is None else ()
        rows.append(row_type(*head, math.nan if sol is None else sol.sigma, *measured))
        entries.append(entry)
    return FamilyResult(rows, predictors, entries)


# ---------------------------------------------------------------------------
# shallow-water (small K) limit


def kdv_predicted_d0(alpha: float, beta: float, bhat_pp0: float) -> float:
    """Leading coefficient of sigma - alpha ~ d0 eps^2 at K = eps^3."""
    if not alpha > 0 or not beta > 0:
        raise ValueError("alpha and beta must be positive")
    if not bhat_pp0 < 0:
        raise ValueError("bhat''(0) must be negative")
    return float(
        beta ** (4.0 / 3.0)
        / (3.0 ** (2.0 / 3.0) * alpha ** (1.0 / 3.0) * abs(bhat_pp0) ** (1.0 / 3.0))
    )


def kdv_profile(kappa1: float, kappa2: float, xbar: np.ndarray) -> np.ndarray:
    """Limit wave (3 kappa1 / 2 kappa2) sech^2(sqrt(kappa1) xbar / 2), the
    localized solution of U'' - kappa1 U + kappa2 U^2 = 0."""
    z = 0.5 * np.sqrt(kappa1) * np.asarray(xbar, dtype=np.float64)
    with np.errstate(over="ignore"):
        sech2 = 1.0 / np.cosh(z) ** 2
    return (1.5 * kappa1 / kappa2) * sech2


# how far bhat^2 may exceed 1/(1 + C k^2), in rounding, and still pass
_KDV_SLACK = 1e-9


def check_kdv_assumption(kernel: Kernel):
    """Verify the symbol bounds bhat^2 >= 1 - C k^2 and
    bhat^2 <= 1/(1 + C k^2) on the grid for a single constant C, up to
    _KDV_SLACK.

    Returns (ok, C, message); the tight C from the lower bound is tested
    against the upper bound.
    """
    k = kernel.grid.rfft_frequencies[1:]
    b2 = kernel.symbol[1:] ** 2
    c_low = float(np.max((1.0 - b2) / (k * k)))
    if not np.isfinite(c_low) or c_low <= 0:
        return False, c_low, "no positive curvature constant near k = 0"
    bound = 1.0 / (1.0 + c_low * k * k)
    worst = float(np.max(b2 - bound))
    if worst > _KDV_SLACK:
        return (
            False,
            c_low,
            f"bhat^2 exceeds 1/(1 + C k^2) by {worst:.3g} for C = {c_low:.4g}",
        )
    return True, c_low, ""


@dataclass(frozen=True)
class KdvGridPolicy:
    """Grid sizing for the small-K sweep: the half period grows like 1/eps so
    the rescaled domain eps*L stays fixed, and the spacing resolves both the
    kernel and the eps-scaled wave.

    Periodic wrap-around biases sigma by roughly exp(-sqrt(kappa1) eps L),
    which must stay below the intrinsic O(eps^2) convergence error for the
    ratio (sigma - alpha)/eps^2 to approach its limit monotonically; eps*L
    of 30 keeps that bias near 1e-6 while the point count stays in budget."""

    l_floor: float = 25.0
    l_over_eps: float = 30.0
    kernel_fraction: float = 1.0 / 8.0
    feature_fraction: float = 1.0 / 16.0
    max_points: int = 2**15

    def grid_for(self, eps: float, kernel_scale: float) -> Grid:
        if not eps > 0:
            raise ValueError(f"eps = {eps:g} must be positive")
        half_period = max(self.l_floor, self.l_over_eps / eps)
        h_max = min(
            kernel_scale * self.kernel_fraction,
            self.feature_fraction / eps,
        )
        return _power_of_two_grid(f"eps = {eps:g}", half_period, h_max, self.max_points)


@dataclass(frozen=True)
class KdvRow:
    """One eps of the small-K sweep; field order is the CSV column order."""

    eps: float
    sigma: float
    d_ratio: float = math.nan  # (sigma - alpha) / eps^2
    profile_err: float = math.nan  # L2 distance of the rescaled U to the limit wave


def kdv_experiment(
    spec: KernelSpec,
    nl: Nonlinearity,
    eps_list,
    policy: KdvGridPolicy | None = None,
    tol_residual: float = SolverConfig.tol_residual,
    max_iter: int = SolverConfig.max_iter,
) -> FamilyResult:
    """Sweep K = eps^3 downward and compare against the shallow-water
    predictions; each eps gets its own grid from the policy and an initial
    profile seeded with the predicted limit wave."""
    eps_values, probe_kernel, kernels = _family_points(eps_list, "eps",
                                                       policy or KdvGridPolicy(), spec)
    ok, c_const, message = check_kdv_assumption(probe_kernel)
    if not ok:
        raise KernelAssumptionError(
            f"kernel fails the small-K symbol bounds: {message}"
        )
    bpp = probe_kernel.bhat_pp0
    # The limit wave solves Ubar'' - kappa1 Ubar + kappa2 Ubar^2 = 0, whose
    # quadratic term comes from the r^2 Taylor coefficient of f, i.e. beta/2.
    beta_quad = 0.5 * nl.beta
    d0 = kdv_predicted_d0(nl.alpha, beta_quad, bpp)
    kappa1 = d0 / (nl.alpha * abs(bpp))
    kappa2 = beta_quad / (nl.alpha * abs(bpp))
    predictors = {
        "d0": d0,
        "kappa1": kappa1,
        "kappa2": kappa2,
        "bhat_pp0": bpp,
        "alpha": nl.alpha,
        "beta_quad": beta_quad,
        "limit_amplitude": 1.5 * kappa1 / kappa2,
        "symbol_bound_constant": c_const,
    }

    def point(eps, kernel):
        grid = kernel.grid
        init = Profile(grid, eps**2 * kdv_profile(kappa1, kappa2, eps * grid.nodes))
        return (eps,), eps**3, init

    def measure(eps, kernel, sol):
        grid = kernel.grid
        d_ratio = (sol.sigma - nl.alpha) / eps**2
        limit = kdv_profile(kappa1, kappa2, eps * grid.nodes)
        diff = sol.U.samples / eps**2 - limit
        return d_ratio, float(np.sqrt(eps * grid.spacing * dot(diff, diff)))

    return _solve_family(nl, "eps", eps_values, kernels, KdvRow, point, measure,
                         predictors, tol_residual, max_iter)


# ---------------------------------------------------------------------------
# high-energy limit (singular nonlinearity, K -> K_max)


def eta0_predicted(a0: float, a_pp0: float, m: float) -> float:
    """Limit of sigma eps^(m+1/2):
    sqrt(2 pi) sqrt(a(0)^3 / |a''(0)|) Gamma(m + 1/2) / Gamma(m + 1)."""
    if not a0 > 0:
        raise ValueError("a(0) must be positive")
    if not np.isfinite(a_pp0) or a_pp0 == 0:
        raise ValueError("a''(0) must be finite and nonzero")
    if not m > 0:
        raise ValueError("m must be positive")
    try:
        gamma_ratio = math.exp(math.lgamma(m + 0.5) - math.lgamma(m + 1.0))
    except OverflowError:  # lgamma leaves the float range near m = 2.5e305
        raise ValueError(f"m = {m:g} is too large for Gamma(m + 1/2)") from None
    return float(math.sqrt(2.0 * math.pi) * math.sqrt(a0**3 / abs(a_pp0)) * gamma_ratio)


@dataclass(frozen=True)
class HighEnergyGridPolicy:
    """Grid sizing for the near-ceiling sweep: the spacing resolves both the
    kernel and the sqrt(eps)-wide saturation zone of the profile peak."""

    half_period: float = 25.0
    kernel_fraction: float = 1.0 / 8.0
    peak_fraction: float = 1.0 / 16.0
    eps_proxy: float = 0.5  # eps_delta is of order delta * eps_proxy
    max_points: int = 2**15

    def grid_for(self, delta: float, kernel_scale: float) -> Grid:
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta = {delta:g} must lie in (0, 1)")
        h_max = min(
            kernel_scale * self.kernel_fraction,
            self.peak_fraction * math.sqrt(delta * self.eps_proxy),
        )
        return _power_of_two_grid(f"delta = {delta:g}", self.half_period, h_max,
                                  self.max_points)


@dataclass(frozen=True)
class HighEnergyRow:
    """One delta of the near-ceiling sweep; field order is the CSV order."""

    delta: float
    K: float
    sigma: float
    eps_delta: float = math.nan  # 1 - U(0)
    eta: float = math.nan  # sigma * eps_delta^(m + 1/2)
    sup_err: float = math.nan  # sup |U - a/a(0)|


def high_energy_experiment(
    spec: KernelSpec,
    nl: Nonlinearity,
    delta_list,
    policy: HighEnergyGridPolicy | None = None,
    tol_residual: float = SolverConfig.tol_residual,
    max_iter: int = SolverConfig.max_iter,
) -> FamilyResult:
    """Sweep K = (1 - delta) K_max downward in delta; requires the singular
    nonlinearity, of exponent m = nl.m, and a kernel whose autocorrelation
    a = b*b is twice differentiable with a, a'' bounded and integrable."""
    if nl.kind != "singular":
        raise ValueError("high-energy requires the singular nonlinearity (kind 'singular')")
    deltas, probe_kernel, kernels = _family_points(delta_list, "delta",
                                                   policy or HighEnergyGridPolicy(), spec)
    if not probe_kernel.a_smooth:
        raise KernelAssumptionError(
            f"kernel {probe_kernel.label}: autocorrelation a = b*b lacks a bounded, "
            "integrable second derivative; the high-energy limit requires it"
        )
    predictors = {
        "m": nl.m,
        "eta0": eta0_predicted(probe_kernel.a0, probe_kernel.a_pp0, nl.m),
        "a0": probe_kernel.a0,
        "a_pp0": probe_kernel.a_pp0,
        "k_max": probe_kernel.k_max_norm,
    }

    def point(delta, kernel):
        K = (1.0 - delta) * kernel.k_max_norm
        return (delta, K), K, kernel.profile.scaled(1.0 / kernel.a0)

    def measure(delta, kernel, sol):
        eps_delta = 1.0 - sol.U.value_at_zero()
        eta = sol.sigma * eps_delta ** (nl.m + 0.5)
        a_profile = kernel.convolve(kernel.profile)
        sup_err = float(np.max(np.abs(sol.U.samples - a_profile.samples / kernel.a0)))
        return eps_delta, eta, sup_err

    return _solve_family(nl, "delta", deltas, kernels, HighEnergyRow, point, measure,
                         predictors, tol_residual, max_iter)
