"""Energy-monotone fixed-point iteration for the eigenvalue problem
sigma V = b * f(b * V).

The improvement map T(V) = mu(V) grad P(V) with mu(V) = ||V|| / ||grad P(V)||
never decreases P while preserving the norm, so iterating it inside the
constraint sphere K(V) = K climbs the energy landscape toward a constrained
maximizer, which solves the eigenvalue equation with sigma = 1/mu.  Each
accepted iterate is symmetrized (evenness pins the peak at x = 0) and
renormalized to the exact constraint; cone deviations are measured, never
projected away.  An energy decrease beyond slack signals discretization
failure and aborts the run.

Where the plain map contracts slowly (near sigma = f'(0), the small-K
limit), the loop mixes a Fourier-preconditioned map instead, the fixed-K
form of accelerated imaginary-time evolution, by a safeguarded secant step
over its last two iterates; a mixed candidate replaces the plain step only
when it keeps P nondecreasing and the iterate in the cone.
"""

from __future__ import annotations

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
    max_p_drop: float = 0.0  # largest relative drop of P, also with the trace off
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
    report = cone_check(v)
    worst = max(
        report.even_deviation,
        max(0.0, -report.min_value),
        report.unimodality_deviation,
    )
    return worst / max(v.max, 1e-300)


# Mixing engages once the plain residuals shrink by less than
# _GATE_RATE per step over _RATE_WINDOW steps.  The gate is about cost: a
# candidate takes 4 more FFTs and may be rejected, so where the plain map
# already contracts fast, mixing takes more steps (ungated, sweep-k's
# K = 4 ... 32 took 110/61/47/33 steps against 62/36/29/22 plain); below a
# rate of about 0.8 it does not pay.  Measured plain rates: sweep-k
# 0.948/0.920/0.876/0.813/... from K = 0.25 up, decay 0.893, high-energy at
# most 0.04, the small-K sweep at least 0.98.  So 0.9 mixes sweep-k's two
# smallest K and the small-K sweep and leaves decay plain.  Mixing does not
# cost tail accuracy (decay mixed at a gate of 0.8 fits the converged tail
# rate), but a gate below decay's rate waits on a benchmark that reads
# decay's tail gap against a converged tail.
_RATE_WINDOW = 10
_GATE_RATE = 0.9


def _rate(residuals) -> float:
    """Mean factor per step by which the residuals shrank."""
    return (residuals[-1] / residuals[0]) ** (1.0 / (len(residuals) - 1))


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


def solve(cfg: SolverConfig, kernel: Kernel, nl: Nonlinearity) -> Solution:
    """Iterate the improvement map at fixed K until the relative fixed-point
    residual ||T(V) - V|| / ||V|| drops below tol_residual.

    Each step is one proposal, one evaluation and one acceptance.  The
    proposal is the plain step G(V), the even part of T(V) on the sphere, or,
    once the residuals shrink by less than _GATE_RATE per step, a mixed
    candidate in its place: the secant step of the preconditioned map Gp
    (the even part of _preconditioned's step, renormalized to K) over the
    last two iterates, or Gp(V) without a previous pair, renormalized to K;
    where min M <= 0 there is none.  The evaluation convolves the proposal
    and computes its P.  A plain step is accepted subject to the
    monotonicity guard, a candidate only when P does not drop and its cone
    deviation is no worse than G(V)'s; a rejected candidate leaves the
    iterate, drops the pair and makes the next step plain, since Gp(V)
    would repeat it.  A step counts as one iteration and costs 4 FFTs, a
    candidate 4 more, the solve 4 outside the loop: transforms =
    4 (1 + iterations + accelerated_steps + rejected_steps).

    Returns a Solution with converged=False when max_iter is exhausted; the
    caller decides whether that is fatal.  Raises MonotonicityViolationError
    when P decreases by more than the relative slack, DomainBreachError
    when an iterate pushes b*V outside the nonlinearity's domain, and
    NumericalOverflowError when the energy or the gradient norm overflows.
    """
    if nl.sup_domain != np.inf and cfg.K >= kernel.k_max_norm:
        raise ValueError(
            f"K = {cfg.K:.6g} must stay below K_max = {kernel.k_max_norm:.6g} "
            "for a singular nonlinearity"
        )
    grid = kernel.grid

    v0 = cfg.init_profile if cfg.init_profile is not None else _default_initial(cfg, kernel)
    if v0.grid != grid:
        raise ValueError("initial profile lives on a different grid than the kernel")
    v = Profile(grid, _on_sphere(v0.samples, grid, cfg.K))
    target_norm = float(np.sqrt(2.0 * cfg.K))

    u = kernel.convolve(v)
    p_prev = _finite(p_of_u(u, nl), "P", 0)

    trace_p, trace_res, trace_kerr, trace_cone = [], [], [], []
    converged = False
    residual = np.inf
    iterations = 0
    max_p_drop = 0.0
    recent = deque(maxlen=_RATE_WINDOW + 1)  # residuals of the last iterates
    mixing = False  # set once the gate has opened
    resting = False  # set by a rejected candidate: the next step is plain
    last = None  # (f, Gp(V)) of the previous iterate, while mixing
    accelerated = rejected = 0

    for iterations in range(1, cfg.max_iter + 1):
        t_samples, mu = _step(u, target_norm, kernel, nl, iterations)
        residual = norm(t_samples - v.samples, grid) / target_norm
        recent.append(residual)
        if not mixing and len(recent) == recent.maxlen and _rate(recent) > _GATE_RATE:
            mixing = True

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
            gp = Profile(grid, _on_sphere(even_part(pre), grid, cfg.K)).samples
            f = gp - v.samples
            secant, last = _secant(f, gp, last), (f, gp)
            proposal = Profile(grid, _on_sphere(gp if secant is None else secant, grid, cfg.K))

        # evaluation
        u_next = kernel.convolve(proposal)
        p_next = _finite(p_of_u(u_next, nl), "P", iterations)

        # acceptance
        if proposal is g:
            if p_next < p_prev - cfg.monotonicity_slack * abs(p_prev):
                raise MonotonicityViolationError(
                    f"P decreased from {p_prev:.17g} to {p_next:.17g} at iteration "
                    f"{iterations}; slack {cfg.monotonicity_slack:g} exceeded"
                )
            max_p_drop = max(max_p_drop, (p_prev - p_next) / max(abs(p_prev), 1e-300))
            v, u, p_prev = g, u_next, p_next
        elif p_next >= p_prev and _cone_deviation(proposal) <= _cone_deviation(g):
            v, u, p_prev = proposal, u_next, p_next
            accelerated += 1
        else:
            last, resting = None, True
            rejected += 1

        if cfg.record_trace:
            trace_p.append(p_prev)
            trace_res.append(residual)
            trace_kerr.append(abs(eval_K(v) / cfg.K - 1.0))
            trace_cone.append(_cone_deviation(v))

        if residual <= cfg.tol_residual:
            converged = True
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
        converged=converged,
        cone=cone_check(v),
        trace=trace,
        max_p_drop=max_p_drop,
        contraction_rate=_rate(recent) if len(recent) > 1 else math.nan,
        accelerated_steps=accelerated,
        rejected_steps=rejected,
    )


@dataclass(frozen=True)
class SweepEntry:
    """One solve of a family, isolated: error is None when it converged,
    "no convergence in <max_iter> iterations (residual <r>)" when it ran out
    of iterations (solution kept), and "<Type>: <message>" when it raised
    (solution None)."""

    K: float
    solution: Solution | None
    error: str | None = None


def attempt(cfg: SolverConfig, kernel: Kernel, nl: Nonlinearity, **changes) -> SweepEntry:
    """Solve at cfg with `changes` applied (as by dataclasses.replace, whose
    validation counts as part of the solve), recording a failure in the
    entry instead of raising it, so a family continues past a bad point."""
    K = changes.get("K", cfg.K)
    try:
        run_cfg = replace(cfg, **changes)
        sol = solve(run_cfg, kernel, nl)
    except Exception as exc:  # per-point isolation: the family continues
        return SweepEntry(K, None, f"{type(exc).__name__}: {exc}")
    if sol.converged:
        return SweepEntry(K, sol)
    return SweepEntry(K, sol, f"no convergence in {run_cfg.max_iter} iterations "
                              f"(residual {sol.residual:.3g})")


def sweep_K(
    k_values,
    cfg: SolverConfig,
    kernel: Kernel,
    nl: Nonlinearity,
    warm_start: bool = False,
) -> list[SweepEntry]:
    """Solve for each K of a strictly ascending list of positive, finite
    values, one after another; failures are recorded per entry and the sweep
    continues.  Each solve starts from cfg.init_profile, or, under
    warm_start, from the last converged profile once there is one."""
    ks = [float(k) for k in k_values]
    if not ks:
        raise ValueError("K list is empty")
    if not all(0.0 < k < math.inf for k in ks):
        raise ValueError(f"K values must be positive and finite, got {ks}")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("K values must be strictly ascending")
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
    """Outcome of repeated solves from varied initializations.  entries
    holds each start's solve in the order of widths, so the counters of
    every solve that returned (iterations, max_p_drop, accelerated and
    rejected steps) stay visible; failures holds the error of each start
    that did not converge, prefixed with its width."""

    n_starts: int
    widths: tuple[float, ...]
    sigmas: tuple[float, ...]
    n_converged: int
    max_l2_distance: float
    max_sigma_gap: float
    distance_tol: float
    supports_conjecture: bool
    failures: tuple[str, ...]
    entries: tuple[SweepEntry, ...]


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
    after another, and compare the limits pairwise.  A failed start is
    recorded, not fatal; the conjecture is supported only when every start
    converged to the same profile within distance_tol."""
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    probe_distance_tol(distance_tol)
    base_width = _start_width(cfg, kernel)
    rng = np.random.default_rng(seed)
    factors = np.exp(rng.uniform(np.log(1.0 / 3.0), np.log(3.0), size=n_starts))
    factors[0] = 1.0
    widths = tuple(float(base_width * f) for f in factors)

    entries = [attempt(cfg, kernel, nl, init_profile=None, init_width=width)
               for width in widths]
    converged = [entry.solution for entry in entries if entry.error is None]
    failures = tuple(f"width {width:.4g}: {entry.error}"
                     for width, entry in zip(widths, entries) if entry.error is not None)

    max_distance = 0.0
    max_sigma_gap = 0.0
    for i in range(len(converged)):
        for j in range(i + 1, len(converged)):
            diff = converged[i].V.samples - converged[j].V.samples
            max_distance = max(max_distance, norm(diff, kernel.grid))
            max_sigma_gap = max(
                max_sigma_gap, abs(converged[i].sigma - converged[j].sigma)
            )
    supports = len(converged) == n_starts and max_distance <= distance_tol
    return UniquenessReport(
        n_starts=n_starts,
        widths=widths,
        sigmas=tuple(float(s.sigma) for s in converged),
        n_converged=len(converged),
        max_l2_distance=max_distance,
        max_sigma_gap=max_sigma_gap,
        distance_tol=distance_tol,
        supports_conjecture=supports,
        failures=failures,
        entries=tuple(entries),
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

