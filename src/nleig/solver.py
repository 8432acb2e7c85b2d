"""Energy-monotone fixed-point iteration for the eigenvalue problem
sigma V = b * f(b * V).

The improvement map T(V) = mu(V) grad P(V) with mu(V) = ||V|| / ||grad P(V)||
never decreases P while preserving the norm, so iterating it inside the
constraint sphere K(V) = K climbs the energy landscape toward a constrained
maximizer, which solves the eigenvalue equation with sigma = 1/mu.  Each
accepted iterate is symmetrized (evenness pins the peak at x = 0) and
renormalized to the exact constraint; cone deviations are measured, never
projected away.  An energy decrease beyond both the slack and P's own
rounding signals discretization failure and aborts the run.

Where the plain map contracts slowly (near sigma = f'(0), the small-K
limit), the loop mixes a Fourier-preconditioned map instead, the fixed-K
form of accelerated imaginary-time evolution, by a safeguarded secant step
over its last two iterates; a mixed candidate replaces the plain step only
when P falls by no more than its rounding and the iterate stays in the cone.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    MonotonicityViolationError,
    NumericalOverflowError,
    ZeroGradientError,
)
from .functionals import EnergyRecord, energies_of_u, eval_K, grad_p_of_u, p_of_u
from .grid import (
    ConeReport,
    Grid,
    Profile,
    cone_check,
    dot,
    even_part,
    l2_norm,
    norm,
    write_json,
    write_profile_csv,
)
from .kernels import Kernel
from .nonlinearity import Nonlinearity


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of one constrained solve.

    init_profile, when given, seeds the iteration (rescaled to the target K);
    otherwise a centered Gaussian bump of init_width is used, defaulting to
    twice the kernel's root second moment.  Construction rejects values no
    solve can use with a ValueError naming the condition.
    """

    K: float
    tol_residual: float = 1e-10
    max_iter: int = 100_000
    init_profile: Profile | None = None
    init_width: float | None = None
    monotonicity_slack: float = 1e-12
    record_trace: bool = False  # costs a cone check and a K evaluation per step

    def __post_init__(self):
        if not self.K > 0:
            raise ValueError(f"K must be positive, got {self.K}")
        if not math.isfinite(self.K):
            raise ValueError(f"K must be finite, got {self.K}")
        # ||T(V) - V|| <= 2 ||V|| since T keeps the norm: 2 or more always holds
        if not 0 < self.tol_residual < 2:
            raise ValueError(f"tol_residual must lie in (0, 2), got {self.tol_residual}")
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.init_width is not None and not self.init_width > 0:
            raise ValueError(f"init_width must be positive, got {self.init_width}")
        if not self.monotonicity_slack >= 0:
            raise ValueError(
                f"monotonicity_slack must be nonnegative, got {self.monotonicity_slack}"
            )


@dataclass(frozen=True)
class IterationTrace:
    """Per-iteration diagnostics of the iterate each step ends on; a
    rejected mixed step repeats the unchanged iterate's entry, with the
    residual it measured."""

    p_values: np.ndarray
    residuals: np.ndarray
    constraint_errors: np.ndarray  # |K(V_j)/K - 1|
    cone_deviations: np.ndarray  # worst cone deviation relative to max V


@dataclass(frozen=True)
class Solution:
    """Converged (or exhausted) state of one solve."""

    V: Profile
    U: Profile
    sigma: float
    K: float
    energies: EnergyRecord
    residual: float
    el_residual: float
    iterations: int
    converged: bool
    cone: ConeReport
    trace: IterationTrace | None = None
    max_p_drop: float = 0.0  # largest relative drop of P on an accepted step
    contraction_rate: float = math.nan  # mean residual ratio per step, last 10 steps
    accelerated_steps: int = 0  # accepted mixed candidates
    rejected_steps: int = 0  # mixed candidates the safeguard turned down

    @property
    def transforms(self) -> int:
        """FFTs: 4 per step, 4 per mixed candidate, 4 outside the loop."""
        return 4 * (1 + self.iterations + self.accelerated_steps + self.rejected_steps)


def _finite(value: float, name: str, iteration: int) -> float:
    if not math.isfinite(value):
        raise NumericalOverflowError(
            f"{name} is {value} at iteration {iteration}; the iterate overflowed"
        )
    return value


def _step(u: Profile, norm_v: float, kernel: Kernel, nl: Nonlinearity, iteration: int):
    """Samples of T(V) = mu grad P(V) and mu = ||V|| / ||grad P(V)||, from
    U = b*V and norm_v = ||V||."""
    g = grad_p_of_u(u, kernel, nl)
    norm_g = _finite(l2_norm(g), "||grad P||", iteration)
    if norm_g == 0.0:
        raise ZeroGradientError("grad P vanished; improvement step undefined")
    mu = norm_v / norm_g
    return mu * g.samples, mu


def improvement_step(v: Profile, kernel: Kernel, nl: Nonlinearity):
    """One application of T: returns (T(V), mu).  T preserves the L2 norm
    and never decreases P; raises ZeroGradientError when grad P vanishes
    and NumericalOverflowError when its norm overflows."""
    t, mu = _step(kernel.convolve(v), l2_norm(v), kernel, nl, 1)
    return Profile(v.grid, t), mu


def _start_width(cfg: SolverConfig, kernel: Kernel) -> float:
    """init_width, else twice the kernel's root second moment."""
    if cfg.init_width is not None:
        return cfg.init_width
    return 2.0 * float(np.sqrt(kernel.second_moment))


def _default_initial(cfg: SolverConfig, kernel: Kernel) -> Profile:
    grid = kernel.grid
    width = _start_width(cfg, kernel)
    x = grid.nodes
    # a numpy square overflows to inf (a flat start) where a float one raises
    return Profile(grid, np.exp(-(x**2) / (2.0 * np.float64(width) ** 2)))


def _on_sphere(samples: np.ndarray, grid: Grid, K: float) -> np.ndarray:
    """The samples rescaled onto the sphere (1/2)||V||^2 = K."""
    length = norm(samples, grid)
    if length == 0.0:
        raise ValueError("cannot rescale the zero profile to a positive K")
    return samples * float(np.sqrt(2.0 * K) / length)


def _cone_deviation(v: Profile) -> float:
    """Worst cone deviation of V relative to max V."""
    return cone_check(v).worst / max(v.max, 1e-300)


# Mixing engages once the plain residuals shrink by less than
# _GATE_RATE per step over the last _GATE_WINDOW steps.  The gate is about
# cost: a candidate takes 4 more FFTs and may be rejected, so where the plain
# map already contracts fast, mixing takes more steps (ungated, sweep-k's
# K = 4 ... 32 took 110/61/47/33 steps against 62/36/29/22 plain); below a
# rate of about 0.8 it does not pay.  Measured plain rates: sweep-k
# 0.948/0.920/0.876/0.813/... from K = 0.25 up, decay 0.893, high-energy at
# most 0.04, the small-K sweep at least 0.98.  So 0.9 mixes sweep-k's two
# smallest K and the small-K sweep and leaves decay plain.  The largest
# single-step ratio of a plain solve is 0.893 on decay and 0.876 on sweep-k's
# K = 1, so no window opens the gate there.  Three steps, because the
# small-K sweep's first plain steps contract at 0.984-0.996 and gain almost
# nothing (windows of 10/5/3/2/1 steps took that sweep 56/42/36/34/31
# steps), and a mean over three ratios does not open on one transient ratio.
# Mixing does not cost tail accuracy (decay mixed at a gate of 0.8 fits the
# converged tail rate), but a gate below decay's rate waits on a benchmark
# that reads decay's tail gap against a converged tail.
_GATE_WINDOW = 3
_GATE_RATE = 0.9
_RATE_WINDOW = 10  # steps behind Solution.contraction_rate

# A mixed candidate's allowance, in place of a plain step's
# monotonicity_slack: 64 eps relative to |P|, P's rounding near convergence.
# The small-K sweep's candidates "lowered" P by 2e-16 to 8e-15 relative;
# turning each down cost a plain step that gained nothing.  It is fixed, so
# an infinite slack leaves the safeguard on.
_P_ROUNDING = 64 * np.finfo(np.float64).eps


# A proposal lowers P only when its drop exceeds both its allowance and
# _FLOOR_MULTIPLE times P's rounding floor at the new iterate: a plain step
# that does so raises, a candidate that does so is turned down.  Near the
# pole of a singular f the floor nears the slack: 7.8e-13 relative at delta
# 0.002, where drops of 1.03-1.28e-12, beyond the slack, were 1.3-1.7 times
# the floor (at most 1.4 times near delta 0.001 and 0.0005).  At small K it
# passes 64 eps: exp at K 1e-15 (gaussian width 1, L 25, n 512) turned down
# 707 candidates and took 1922 steps when a candidate's drop was judged
# against 64 eps alone, 1 and 511 against both.  A wrong F or a lost
# symmetrization drops P by far more.
_FLOOR_MULTIPLE = 4


def _p_floor(u: Profile, nl: Nonlinearity) -> float:
    """P's rounding floor at U = b*V, eps h sum (|U f(U)| + nl.F_rounding(U)):
    the change in P = h sum F(U) when each sample of U moves by its
    rounding, plus the rounding of evaluating F where its formula cancels.
    With exp at K 1e-12, the second term is 4.4e-9 of P and the first
    4.4e-16."""
    spread = np.abs(u.samples * nl.f(u.samples))
    if nl.F_rounding is not None:
        spread += nl.F_rounding(u.samples)
    return float(np.finfo(np.float64).eps * u.grid.spacing * np.sum(spread))


def _rate(residuals, steps: int) -> float:
    """Mean factor per step by which the residuals shrank over the last
    `steps` steps."""
    return (residuals[-1] / residuals[-1 - steps]) ** (1.0 / steps)


def _secant(f: np.ndarray, g: np.ndarray, last) -> np.ndarray | None:
    """Secant step (Anderson mixing of depth 1) of G from the current pair
    (f, g) = (G(V) - V, G(V)) and the previous pair `last`:
    g - gamma (g - g_prev), gamma = <df, f>/<df, df> with df = f - f_prev.
    None when there is no previous pair, df = 0 or gamma is not finite."""
    if last is None:
        return None
    df = f - last[0]
    df_df = dot(df, df)
    # a numpy quotient overflows to inf where a float one raises
    gamma = np.float64(dot(df, f)) / df_df if df_df > 0.0 else math.nan
    return g - gamma * (g - last[1]) if math.isfinite(gamma) else None


def _preconditioned(g: np.ndarray, v: np.ndarray, kernel: Kernel,
                    alpha: float) -> np.ndarray | None:
    """One accelerated imaginary-time step at fixed K (Yang & Lakoba 2008)
    from g = grad P(V): V + M^-1 (g - lam V) with the Fourier-diagonal
    M = mu - alpha bhat^2, mu = <g, V>/<V, V> and lam = <g, W>/<V, W>,
    W = M^-1 V.  None unless min M > 0 (the paper gives sigma > f'(0) only
    at solutions) or when the result is not finite.  M depends only on the
    frequency, so node order needs no shift; 4 FFTs when min M > 0."""
    # a numpy quotient gives inf or nan where a float one raises
    mu = np.float64(dot(g, v)) / dot(v, v)
    m = mu - alpha * kernel.symbol**2
    if not np.min(m) > 0.0:
        return None
    n = kernel.grid.point_count
    v_hat = np.fft.rfft(v)
    w = np.fft.irfft(v_hat / m, n)
    lam = np.float64(dot(g, w)) / dot(v, w)
    out = v + np.fft.irfft((np.fft.rfft(g) - lam * v_hat) / m, n)
    return out if np.all(np.isfinite(out)) else None


def _check_below_k_max(K: float, kernel: Kernel, nl: Nonlinearity) -> None:
    """A ValueError unless K < K_max when the nonlinearity is singular: b*V
    must stay inside f's domain."""
    if nl.sup_domain != np.inf and K >= kernel.k_max_norm:
        raise ValueError(
            f"K = {K:.6g} must stay below K_max = {kernel.k_max_norm:.6g} "
            "for a singular nonlinearity"
        )


def solve(cfg: SolverConfig, kernel: Kernel, nl: Nonlinearity) -> Solution:
    """Iterate the improvement map at fixed K until the relative fixed-point
    residual ||T(V) - V|| / ||V|| drops below tol_residual.

    Each step is one proposal, one evaluation and one acceptance.  The
    proposal is the plain step G(V), the even part of T(V) on the sphere, or,
    once the residuals shrink by less than _GATE_RATE per step over the last
    _GATE_WINDOW steps, a mixed candidate in its place: the secant step of
    the preconditioned map Gp (the even part of _preconditioned's step,
    renormalized to K) over the last two iterates, or Gp(V) without a
    previous pair, renormalized to K; where min M <= 0 there is none.  The
    evaluation convolves the proposal and computes its P.  The acceptance
    finds P lowered when it falls by more than both the proposal's relative
    allowance (monotonicity_slack for the plain step, _P_ROUNDING for a
    candidate, whatever the slack) and _FLOOR_MULTIPLE times P's rounding
    floor (_p_floor).  A plain step is accepted, or raises when P is
    lowered; a candidate is accepted only when P is not lowered and its
    cone deviation is no worse than G(V)'s; a rejected
    candidate leaves the iterate, drops the pair and makes the next step
    plain, since Gp(V) would repeat it.  A step counts as one iteration and costs 4 FFTs, a
    candidate 4 more, the solve 4 outside the loop: transforms =
    4 (1 + iterations + accelerated_steps + rejected_steps).

    Returns a Solution with converged=False when max_iter is exhausted; the
    caller decides whether that is fatal.  Raises MonotonicityViolationError
    when a plain step fails the monotonicity guard, DomainBreachError
    when an iterate pushes b*V outside the nonlinearity's domain, and
    NumericalOverflowError when the energy or the gradient norm overflows.
    """
    _check_below_k_max(cfg.K, kernel, nl)
    grid = kernel.grid

    v0 = cfg.init_profile if cfg.init_profile is not None else _default_initial(cfg, kernel)
    if v0.grid != grid:
        raise ValueError("initial profile lives on a different grid than the kernel")
    v = Profile(grid, _on_sphere(v0.samples, grid, cfg.K))
    target_norm = float(np.sqrt(2.0 * cfg.K))

    u = kernel.convolve(v)
    p_prev = _finite(p_of_u(u, nl), "P", 0)

    trace_p, trace_res, trace_kerr, trace_cone = [], [], [], []
    max_p_drop = 0.0
    recent = deque(maxlen=_RATE_WINDOW + 1)  # residuals of the last iterates
    mixing = False  # set once the gate has opened
    resting = False  # set by a rejected candidate: the next step is plain
    last = None  # (f, Gp(V)) of the previous iterate, while mixing
    accelerated = rejected = 0

    for iterations in range(1, cfg.max_iter + 1):  # max_iter >= 1: residual is bound
        t_samples, mu = _step(u, target_norm, kernel, nl, iterations)
        residual = norm(t_samples - v.samples, grid) / target_norm
        recent.append(residual)
        if not mixing and len(recent) > _GATE_WINDOW:
            mixing = _rate(recent, _GATE_WINDOW) > _GATE_RATE

        # proposal: the plain step G(V), or a mixed candidate in its place
        g = Profile(grid, _on_sphere(even_part(t_samples), grid, cfg.K))
        proposal = g
        pre = None
        if mixing and not resting:
            # t_samples / mu, not _step's gradient, whose rounding moves step counts
            pre = _preconditioned(t_samples / mu, v.samples, kernel, nl.alpha)
        resting = False
        if pre is None:
            last = None
        else:
            gp = _on_sphere(even_part(pre), grid, cfg.K)
            f = gp - v.samples
            secant, last = _secant(f, gp, last), (f, gp)
            proposal = Profile(grid, _on_sphere(gp if secant is None else secant, grid, cfg.K))

        # evaluation
        u_next = kernel.convolve(proposal)
        p_next = _finite(p_of_u(u_next, nl), "P", iterations)

        # acceptance: P is lowered when it falls by more than both the
        # proposal's allowance and _FLOOR_MULTIPLE times its rounding floor
        allowance = cfg.monotonicity_slack if proposal is g else _P_ROUNDING
        lowered = p_next < p_prev - allowance * abs(p_prev)
        if lowered:  # read the floor only past the allowance
            floor = _p_floor(u_next, nl)
            lowered = p_prev - p_next > _FLOOR_MULTIPLE * floor
        if lowered and proposal is g:
            raise MonotonicityViolationError(
                f"P decreased from {p_prev:.17g} to {p_next:.17g} at iteration "
                f"{iterations}; slack {cfg.monotonicity_slack:g} and "
                f"{_FLOOR_MULTIPLE} times P's rounding floor {floor:.3g} exceeded"
            )
        if not lowered and (proposal is g or _cone_deviation(proposal) <= _cone_deviation(g)):
            max_p_drop = max(max_p_drop, (p_prev - p_next) / max(abs(p_prev), 1e-300))
            accelerated += proposal is not g
            v, u, p_prev = proposal, u_next, p_next
        else:
            last, resting = None, True
            rejected += 1

        if cfg.record_trace:
            trace_p.append(p_prev)
            trace_res.append(residual)
            trace_kerr.append(abs(eval_K(v) / cfg.K - 1.0))
            trace_cone.append(_cone_deviation(v))

        if residual <= cfg.tol_residual:
            break

    # final Rayleigh-type quotient and Euler-Lagrange residual at the last iterate
    g = grad_p_of_u(u, kernel, nl)
    norm_v = l2_norm(v)
    sigma = l2_norm(g) / norm_v
    el_residual = norm(sigma * v.samples - g.samples, grid) / (sigma * norm_v)

    trace = None
    if cfg.record_trace:
        trace = IterationTrace(
            p_values=np.asarray(trace_p),
            residuals=np.asarray(trace_res),
            constraint_errors=np.asarray(trace_kerr),
            cone_deviations=np.asarray(trace_cone),
        )
    return Solution(
        V=v,
        U=u,
        sigma=float(sigma),
        K=cfg.K,
        energies=energies_of_u(v, u, p_prev, nl.alpha),
        residual=residual,
        el_residual=el_residual,
        iterations=iterations,
        converged=residual <= cfg.tol_residual,
        cone=cone_check(v),
        trace=trace,
        max_p_drop=max_p_drop,
        contraction_rate=_rate(recent, len(recent) - 1) if len(recent) > 1 else math.nan,
        accelerated_steps=accelerated,
        rejected_steps=rejected,
    )


@dataclass(frozen=True)
class SweepEntry:
    """One solve, isolated: error is None when it converged,
    "no convergence in <max_iter> iterations (residual <r>)" when it ran out
    of iterations (solution kept), and "<Type>: <message>" when it raised
    (solution None).  label names the solve within its run, as "K=2" or
    "width=1.5"; a single solve has none."""

    K: float
    solution: Solution | None
    error: str | None = None
    label: str = ""

    @classmethod
    def returned(cls, sol: Solution, label: str = "") -> SweepEntry:
        """The entry of a solve that returned, converged or not; one that
        did not converge ran all max_iter steps."""
        if sol.converged:
            return cls(sol.K, sol, None, label)
        return cls(sol.K, sol, f"no convergence in {sol.iterations} iterations "
                               f"(residual {sol.residual:.3g})", label)

    def warnings(self) -> list[str]:
        """What this solve warns about, each line after "<label>: " when it
        has a label: an energy drop beyond the solver's default slack (a drop
        within it is rounding), then the error, always the last line."""
        lines = []
        sol = self.solution
        if sol is not None and sol.max_p_drop > SolverConfig.monotonicity_slack:
            lines.append(f"energy decreased by relative {sol.max_p_drop:.3g} during the run")
        if self.error is not None:
            lines.append(self.error)
        return [f"{self.label}: {line}" if self.label else line for line in lines]


def point_label(name: str, value: float) -> str:
    """"<name>=<value>", the label of one point of a run: the value as
    formatted by :g when that reads back as the same float, else its repr,
    so two distinct points never share a label."""
    value = float(value)
    short = f"{value:g}"
    return f"{name}={short if float(short) == value else repr(value)}"


def attempt(cfg: SolverConfig, kernel: Kernel, nl: Nonlinearity, label: str | None = None,
            **changes) -> SweepEntry:
    """Solve at cfg with `changes` applied (as by dataclasses.replace, whose
    validation counts as part of the solve), recording a failure in the
    entry instead of raising it, so a family continues past a bad point.
    The entry is labelled point_label("K", K) unless label gives one."""
    K = changes.get("K", cfg.K)
    label = point_label("K", K) if label is None else label
    try:
        sol = solve(replace(cfg, **changes), kernel, nl)
    except Exception as exc:  # per-point isolation: the family continues
        return SweepEntry(K, None, f"{type(exc).__name__}: {exc}", label)
    return SweepEntry.returned(sol, label)


def sweep_K(
    k_values,
    cfg: SolverConfig,
    kernel: Kernel,
    nl: Nonlinearity,
    warm_start: bool = False,
) -> list[SweepEntry]:
    """Solve for each K of a strictly ascending list of positive, finite
    values, below K_max for a singular nonlinearity, one after another;
    failures are recorded per entry and the sweep continues.  Each solve
    starts from cfg.init_profile, or, under warm_start, from the last
    converged profile once there is one."""
    ks = [float(k) for k in k_values]
    if not ks:
        raise ValueError("K list is empty")
    if not all(0.0 < k < math.inf for k in ks):
        raise ValueError(f"K values must be positive and finite, got {ks}")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("K values must be strictly ascending")
    _check_below_k_max(ks[-1], kernel, nl)  # the largest K, before any solve
    entries = []
    previous = cfg.init_profile
    for k in ks:
        entry = attempt(cfg, kernel, nl, K=k, init_profile=previous)
        entries.append(entry)
        if warm_start and entry.error is None:
            previous = entry.solution.V
    return entries


@dataclass(frozen=True)
class UniquenessReport:
    """Outcome of repeated solves from varied initializations, start by
    start in the order of widths: entries[i] is start i's solve, so the
    counters of every solve that returned (iterations, max_p_drop,
    accelerated and rejected steps) stay visible.  The largest pairwise
    distance and sigma gap between converged starts are None with fewer
    than two; everything else is read off the entries."""

    widths: tuple[float, ...]
    distance_tol: float
    entries: tuple[SweepEntry, ...]
    max_l2_distance: float | None
    max_sigma_gap: float | None

    @property
    def n_starts(self) -> int:
        return len(self.entries)

    @property
    def sigmas(self) -> tuple[float | None, ...]:
        """Each start's sigma, None unless it converged."""
        return tuple(entry.solution.sigma if entry.error is None else None
                     for entry in self.entries)

    @property
    def n_converged(self) -> int:
        return sum(entry.error is None for entry in self.entries)

    @property
    def failures(self) -> tuple[str, ...]:
        """The labelled error of each start that did not converge, as its
        warnings end."""
        return tuple(entry.warnings()[-1] for entry in self.entries
                     if entry.error is not None)

    @property
    def supports_conjecture(self) -> bool:
        """Every start converged, all to the same profile within
        distance_tol."""
        return self.n_converged == self.n_starts and (
            self.max_l2_distance is None or self.max_l2_distance <= self.distance_tol)


def probe_distance_tol(value: float) -> float:
    """A uniqueness probe's distance_tol; a ValueError unless
    0 < distance_tol < inf: a tolerance of 0 asks for bit-identical limits,
    a negative one is never met and an infinite one always is."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"distance_tol must lie in (0, inf), got {value}")
    return value


def uniqueness_probe(
    cfg: SolverConfig,
    kernel: Kernel,
    nl: Nonlinearity,
    n_starts: int = 5,
    seed: int = 0,
    distance_tol: float = 1e-6,
) -> UniquenessReport:
    """Solve from n_starts cone initializations with seeded bump widths, one
    after another, and compare the converged limits pairwise.  A failed
    start is recorded, not fatal; the conjecture is supported only when every
    start converged, and all to the same profile within distance_tol."""
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    probe_distance_tol(distance_tol)
    base_width = _start_width(cfg, kernel)
    rng = np.random.default_rng(seed)
    factors = np.exp(rng.uniform(np.log(1.0 / 3.0), np.log(3.0), size=n_starts))
    factors[0] = 1.0
    widths = tuple(float(base_width * f) for f in factors)

    entries = tuple(attempt(cfg, kernel, nl, label=point_label("width", width),
                            init_profile=None, init_width=width) for width in widths)
    converged = [entry.solution for entry in entries if entry.error is None]
    pairs = list(itertools.combinations(converged, 2))
    distances = [norm(a.V.samples - b.V.samples, kernel.grid) for a, b in pairs]
    return UniquenessReport(
        widths=widths,
        distance_tol=distance_tol,
        entries=entries,
        max_l2_distance=max(distances, default=None),
        max_sigma_gap=max((abs(a.sigma - b.sigma) for a, b in pairs), default=None),
    )


def solution_to_dict(sol: Solution) -> dict:
    return {
        "sigma": sol.sigma,
        "K": sol.K,
        "P": sol.energies.P,
        "Q": sol.energies.Q,
        "sup_U": sol.energies.sup_U,
        "residual": sol.residual,
        "el_residual": sol.el_residual,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "cone": asdict(sol.cone),
        "grid": {
            "half_period": sol.V.grid.half_period,
            "point_count": sol.V.grid.point_count,
        },
    }


def save_solution(sol: Solution, out_dir, stem: str = "") -> None:
    """Write solution.json plus V.csv and U.csv (optionally stem-prefixed)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    prefix = f"{stem}_" if stem else ""
    write_json(out / f"{prefix}solution.json", solution_to_dict(sol))
    write_profile_csv(sol.V, out / f"{prefix}V.csv")
    write_profile_csv(sol.U, out / f"{prefix}U.csv")

