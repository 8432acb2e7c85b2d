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
limit), the loop proposes a mixed candidate instead: an inexact Newton step
on the even tangent space, solved by conjugate gradients under a Fourier
preconditioner, or, where that step would leave the cone, the
preconditioned map itself, the fixed-K form of accelerated imaginary-time
evolution, which is the first preconditioned residual of the same CG run.
A candidate is proposed only when it stays in the cone, and replaces the
plain step only when P falls by no more than its rounding.
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
from .functionals import eval_K, grad_p_of_u, p_of_u, q_of_u
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
    twice the kernel's root second moment.  The solve stops at the first
    iterate whose residual ||T(V) - V|| / ||V|| is at most tol_residual, or
    at the iterate max_iter steps made, and returns that iterate.
    Construction rejects values no solve can use with a ValueError naming
    the condition.
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
        # the Gaussian start divides by the width's square, which must not underflow
        width = self.init_width
        if width is not None and not (width > 0 and width * width > 0):
            raise ValueError("init_width must be positive, with a square that does not "
                             f"underflow to 0, got {width}")
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
    """Converged (or exhausted) state of one solve: residual, el_residual,
    sigma, P, Q and cone all describe the returned V, and contraction_rate
    is NaN when no step was taken."""

    V: Profile
    U: Profile
    sigma: float
    K: float
    P: float  # P(V), the last accepted p_of_u(U)
    Q: float  # Q(V), q_of_u(U)
    residual: float  # ||T(V) - V|| / ||V||
    el_residual: float  # ||sigma V - grad P(V)|| / (sigma ||V||)
    iterations: int  # the steps that made V, 0 when the start converged
    converged: bool
    cone: ConeReport
    trace: IterationTrace | None = None
    max_p_drop: float = 0.0  # largest relative drop of P on an accepted step
    contraction_rate: float = math.nan  # mean residual ratio per step, last 10 steps
    accelerated_steps: int = 0  # accepted mixed candidates
    rejected_steps: int = 0  # mixed candidates turned down for lowering P
    transforms: int = 0  # rfft and irfft calls the solve made

    @property
    def error(self) -> str | None:
        """None once converged, else the non-convergence line; a solve that
        did not converge ran all max_iter steps."""
        if self.converged:
            return None
        return f"no convergence in {self.iterations} iterations (residual {self.residual:.3g})"


class _Transforms:
    """numpy's rfft and irfft of samples on n points, each call counted."""

    def __init__(self, n: int):
        self.n = n
        self.count = 0

    def rfft(self, samples: np.ndarray) -> np.ndarray:
        self.count += 1
        return np.fft.rfft(samples)

    def irfft(self, coefficients: np.ndarray) -> np.ndarray:
        self.count += 1
        return np.fft.irfft(coefficients, self.n)


def _finite(value: float, name: str, iteration: int) -> float:
    if not math.isfinite(value):
        raise NumericalOverflowError(
            f"{name} is {value} at iteration {iteration}; the iterate overflowed"
        )
    return value


def _step(u: Profile, norm_v: float, kernel: Kernel, nl: Nonlinearity, iteration: int):
    """Samples of T(V) = mu grad P(V), mu = ||V|| / ||grad P(V)|| and grad P(V),
    from U = b*V and norm_v = ||V||.  An overflow is named by f(U)'s Profile
    check or by _finite, not warned about."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = grad_p_of_u(u, kernel, nl)
        norm_g = _finite(l2_norm(g), "||grad P||", iteration)
    if norm_g == 0.0:
        raise ZeroGradientError("grad P vanished; improvement step undefined")
    mu = norm_v / norm_g
    return mu * g.samples, mu, g


def improvement_step(v: Profile, kernel: Kernel, nl: Nonlinearity):
    """One application of T: returns (T(V), mu).  T preserves the L2 norm
    and never decreases P; raises ZeroGradientError when grad P vanishes
    and NumericalOverflowError when its norm overflows."""
    t, mu, _ = _step(kernel.convolve(v), l2_norm(v), kernel, nl, 1)
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
    # a numpy square overflows to inf (a flat start) where a float one raises,
    # and x^2 over a tiny square overflows to inf (a zero sample)
    with np.errstate(over="ignore"):
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
# _GATE_RATE per step over the last _GATE_WINDOW steps.  Newton-CG no longer
# needs the gate to save work: with the rate at 0 (three plain steps, then
# Newton) it takes sweep-k's K = 1 ... 32 in 7/7/7/6/7/7 steps and
# 66/66/68/51/66/59 FFTs, and from the first step in 5/4/4/4/5/5 steps and
# 69/52/54/52/63/57 FFTs, where the plain map takes 148/95/61/35/28/21 steps
# and 596/384/248/144/116/88 FFTs.  The gate stays because decay, mixed,
# converges its 1e-10 solve further into the tail, which the benchmark reads
# as a worse tail gap against an unconverged tail.
# Measured plain rates: sweep-k 0.948/0.920/0.876/0.813/... from K = 0.25
# up, decay 0.893, high-energy at most 0.04, the small-K sweep at least 0.98.
# So 0.9 mixes sweep-k's two smallest K and the small-K sweep and leaves
# decay plain.  The largest single-step ratio of a plain solve is 0.893 on
# decay and 0.876 on sweep-k's K = 1, so no window opens the gate there.
# The small-K sweep's first plain steps contract at 0.984-0.996 and gain
# almost nothing, so a short window pays there: without the seeded rule
# below, windows of 10/5/3/2/1 steps take that sweep 34/19/13/11/8 steps.
# Three, not fewer, because a mean over three ratios does not open on one
# transient ratio.
#
# A seeded solve need not fill the window: the gate also opens on any step
# where f'(0)/sigma shows the plain map slow and the iterate is near a fixed
# point.  The plain map contracts at lambda_2/sigma, and lambda_2 is at least about
# f'(0) (f' >= f'(0) on U >= 0 and bhat is near 1 on the cell's lowest even
# modes), so alpha mu = f'(0)/sigma above _GATE_RATE bounds the rate above
# it: it read 0.927/0.886/0.824/0.735 against rates 0.948/0.920/0.876/0.813
# on sweep-k's K = 0.25 ... 2, 0.834 against 0.893 on decay.  The residual
# clause keeps a cold start out of Newton until it nears the maximizer: the
# small-K sweep's seeds start at residuals of 3.8e-6 or less, while a switch
# at 0.05 sent a cold start at K = 0.03 (gaussian width 1, exp, L 25,
# n 2000) to a saddle, where it took 471 steps, 227 of them rejected,
# against 16 through the window.
_GATE_WINDOW = 3
_GATE_RATE = 0.9
_SEEDED_RESIDUAL = 1e-3
_RATE_WINDOW = 10  # steps behind Solution.contraction_rate

# A mixed candidate's allowance, in place of a plain step's
# monotonicity_slack: 64 eps relative to |P|, P's rounding near convergence.
# A candidate near a fixed point "lowers" P by rounding: solved to 1e-14,
# the small-K sweep's eps = 0.2 point lowers it by 6.5e-16 relative on its
# third candidate (at 1e-10 no candidate of that sweep or of sweep-k lowers
# P).  Turning such a candidate down costs a plain step that gains nothing.
# It is fixed, so an infinite slack leaves the safeguard on.
_P_ROUNDING = 64 * np.finfo(np.float64).eps


def _keeps_cone(candidate: Profile, g: Profile) -> bool:
    """The cone clause of a candidate: its deviation is within _P_ROUNDING of
    G(V)'s, or G(V) itself leaves the cone beyond rounding, where there is no
    cone left to keep (a kernel outside the paper's class, such as two_bump)."""
    cone_g = _cone_deviation(g)
    return cone_g > _P_ROUNDING or _cone_deviation(candidate) <= cone_g + _P_ROUNDING


# A proposal lowers P only when its drop exceeds both its allowance and
# _FLOOR_MULTIPLE times P's rounding floor at the new iterate: a plain step
# that does so raises, a candidate that does so is turned down.  Near the
# pole of a singular f the floor nears the slack: 7.8e-13 relative at delta
# 0.002.  Solved to 1e-11, 2 of 150 deltas within 1e-6 relative of 0.002
# lowered P on their third, plain step by 1.06-1.12e-12, beyond the slack,
# at 1.36-1.44 times the floor; solved to 1e-10, none does.  Near delta
# 0.001 and 0.0005 (grids of 2^16 points) 1 and 3 of 20 do, at 0.34-0.67
# times the floor.  At small K it passes 64 eps: exp at K 1e-15 (gaussian
# width 1, L 25, n 512) turned down 706 candidates and took 1921 steps when
# a candidate's drop was judged against 64 eps alone, none and 510 against
# both.  A wrong F or a lost symmetrization drops P by far more.
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


_CG_MAX_ITER = 50


def _newton(g: np.ndarray, v: np.ndarray, u: Profile, residual: float, kernel: Kernel,
            nl: Nonlinearity, ffts: _Transforms):
    """Inexact Newton step d for sigma V = grad P(V) on the even tangent
    space {d even, <d, V> = 0} (Yang 2009), from g = grad P(V) and U = b*V:
    (sigma - P L P) d = P (g - sigma V), with L w = b*(f'(U) b*w),
    sigma = <g, V>/<V, V> and P the orthogonal projection off V.  Solved by
    conjugate gradients on the real rfft coefficients of even node-ordered
    profiles, with Parseval weights, preconditioned by the Fourier-diagonal
    M = sigma - alpha bhat^2 under the oblique projection through W = M^-1 V,
    and stopped at a relative residual of min(0.5, sqrt(residual)) or after
    _CG_MAX_ITER iterations.

    Returns (d, z0), z0 the rfft coefficients of the first preconditioned
    residual.  Since <V, g - sigma V> = 0, z0 = M^-1 g - lam W with
    lam = <g, W>/<V, W>, so V + irfft(z0) is Gp(V), one accelerated
    imaginary-time step at fixed K (Yang & Lakoba 2008).  (None, None) when
    min M <= 0 (the paper gives sigma > f'(0) only at solutions), (None, z0)
    when the first <p, Ap> is not positive; a later one ends the iteration.
    A non-finite value ends in a non-finite d or z0, for the caller to read.
    3 FFTs and 2 per iteration."""
    # a numpy quotient gives inf or nan where a float one raises
    sigma = np.float64(dot(g, v)) / dot(v, v)
    m = sigma - nl.alpha * kernel.symbol**2
    if not np.min(m) > 0.0:
        return None, None
    # an even profile's rfft is real, and sum(a b) = sum(weights a_hat b_hat)
    weights = np.full(m.shape, 2.0 / ffts.n)
    weights[0] = weights[-1] = 1.0 / ffts.n

    def inner(a, b):
        return np.float64(dot(weights * a, b))

    b_hat, fp = kernel.symbol, nl.f_prime(u.samples)
    v_hat = ffts.rfft(v).real
    w_hat = v_hat / m
    v_v, v_w = inner(v_hat, v_hat), inner(v_hat, w_hat)

    def off_v(a):  # P a
        return a - (inner(v_hat, a) / v_v) * v_hat

    def apply(p):  # (sigma - P L P) p, p orthogonal to V
        return sigma * p - off_v(b_hat * ffts.rfft(fp * ffts.irfft(b_hat * p)).real)

    def precondition(r):  # M^-1 r moved along W back to <V, .> = 0
        return r / m - (inner(w_hat, r) / v_w) * w_hat

    with np.errstate(over="ignore", invalid="ignore"):
        r = off_v(ffts.rfft(g - sigma * v).real)
        x = np.zeros_like(r)
        stop = min(0.5, math.sqrt(residual)) * np.sqrt(inner(r, r))
        p = z = z0 = precondition(r)
        r_z = inner(r, z)
        for cg_iteration in range(_CG_MAX_ITER):
            a_p = apply(p)
            p_a_p = inner(p, a_p)
            if not p_a_p > 0.0:
                if cg_iteration == 0:
                    return None, z0
                break
            step = r_z / p_a_p
            x += step * p
            r -= step * a_p
            if np.sqrt(inner(r, r)) <= stop:
                break
            z = precondition(r)
            r_z, r_z_prev = inner(r, z), r_z
            p = z + (r_z / r_z_prev) * p
        return ffts.irfft(x), z0


def _candidate(v: Profile, g: np.ndarray, u: Profile, plain: Profile, residual: float,
               kernel: Kernel, nl: Nonlinearity, K: float,
               ffts: _Transforms) -> Profile | None:
    """The mixed candidate from g = grad P(V), U = b*V and the plain step
    G(V), even and on the sphere (1/2)||V||^2 = K: the Newton step V + d
    when it is finite and keeps the cone against G(V) (_keeps_cone), else
    Gp(V) = V + irfft(z0), read off the same CG run, on the same terms;
    None when neither exists.  The clause is read before any evaluation and
    with no FFT; the fallback costs one irfft."""
    grid = kernel.grid

    def kept(step):  # V + step, even and on the sphere, if finite and in the cone
        samples = v.samples + step
        if not np.all(np.isfinite(samples)):
            return None
        candidate = Profile(grid, _on_sphere(even_part(samples), grid, K))
        return candidate if _keeps_cone(candidate, plain) else None

    d, z0 = _newton(g, v.samples, u, residual, kernel, nl, ffts)
    newton = None if d is None else kept(d)
    if newton is not None or z0 is None:
        return newton
    return kept(ffts.irfft(z0))


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
    residual ||T(V) - V|| / ||V|| is at most tol_residual.

    Each pass measures the residual of the current iterate from its
    gradient, and returns that iterate when the residual is at most
    tol_residual or max_iter steps have been taken; sigma and el_residual
    are read off the same gradient.  Otherwise it takes a step.

    Each step is one proposal, one evaluation and one acceptance.  The
    proposal is the plain step G(V), the even part of T(V) on the sphere, or,
    once the residuals shrink by less than _GATE_RATE per step over the last
    _GATE_WINDOW steps, or from a step where alpha mu > _GATE_RATE and the
    residual is below _SEEDED_RESIDUAL, a mixed candidate in its place
    (_candidate): the Newton step when it keeps the cone, else Gp(V), the
    preconditioned step, when it does (_keeps_cone: a cone deviation within
    _P_ROUNDING of G(V)'s, or G(V)'s beyond _P_ROUNDING); where neither
    does, or min M <= 0, there is none.  The evaluation convolves the proposal and
    computes its P.  The acceptance reads P alone: P is lowered when it
    falls by more than both the proposal's relative allowance
    (monotonicity_slack for the plain step, _P_ROUNDING for a candidate,
    whatever the slack) and _FLOOR_MULTIPLE times P's rounding floor
    (_p_floor).  A plain step is accepted, or raises when P is lowered;
    a candidate is accepted unless P is lowered, and a rejected candidate
    leaves the iterate and makes the next step plain, since the same V
    would propose it again.  A step counts as one iteration; transforms
    counts every rfft and irfft the solve made.

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

    ffts = _Transforms(grid.point_count)
    u = kernel.convolve(v)
    ffts.count += 2  # each Kernel.convolve is one rfft and one irfft
    # an overflowing P is named by _finite, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        p_prev = _finite(p_of_u(u, nl), "P", 0)

    trace_p, trace_res, trace_kerr, trace_cone = [], [], [], []
    max_p_drop = 0.0
    recent = deque(maxlen=_RATE_WINDOW + 1)  # residuals of the last iterates
    mixing = False  # set once the gate has opened
    resting = False  # set by a rejected candidate: the next step is plain
    accelerated = rejected = 0

    for iterations in itertools.count():  # the steps taken so far
        t_samples, mu, grad = _step(u, target_norm, kernel, nl, iterations + 1)
        ffts.count += 2  # grad P's convolution
        residual = norm(t_samples - v.samples, grid) / target_norm
        recent.append(residual)
        if residual <= cfg.tol_residual or iterations == cfg.max_iter:
            # Rayleigh-type quotient and Euler-Lagrange residual of the returned V
            norm_v = l2_norm(v)
            sigma = l2_norm(grad) / norm_v
            el_residual = norm(sigma * v.samples - grad.samples, grid) / (sigma * norm_v)
            break
        del grad  # no n-length array lives through the evaluation's convolution
        if not mixing:
            mixing = ((nl.alpha * mu > _GATE_RATE and residual < _SEEDED_RESIDUAL)
                      or (len(recent) > _GATE_WINDOW
                          and _rate(recent, _GATE_WINDOW) > _GATE_RATE))

        # proposal: the plain step G(V), or a mixed candidate in its place
        g = Profile(grid, _on_sphere(even_part(t_samples), grid, cfg.K))
        proposal = g
        if mixing and not resting:
            # t_samples / mu, not _step's gradient, whose rounding moves step counts
            candidate = _candidate(v, t_samples / mu, u, g, residual, kernel, nl, cfg.K, ffts)
            if candidate is not None:
                proposal = candidate
        resting = False

        # evaluation
        u_next = kernel.convolve(proposal)
        ffts.count += 2  # the proposal's
        with np.errstate(over="ignore", invalid="ignore"):
            p_next = _finite(p_of_u(u_next, nl), "P", iterations + 1)

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
                f"{iterations + 1}; slack {cfg.monotonicity_slack:g} and "
                f"{_FLOOR_MULTIPLE} times P's rounding floor {floor:.3g} exceeded"
            )
        if not lowered:
            max_p_drop = max(max_p_drop, (p_prev - p_next) / max(abs(p_prev), 1e-300))
            accelerated += proposal is not g
            v, u, p_prev = proposal, u_next, p_next
        else:
            resting = True
            rejected += 1

        if cfg.record_trace:
            trace_p.append(p_prev)
            trace_res.append(residual)
            trace_kerr.append(abs(eval_K(v) / cfg.K - 1.0))
            trace_cone.append(_cone_deviation(v))

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
        P=p_prev,
        Q=q_of_u(u, nl.alpha),
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
        transforms=ffts.count,
    )


@dataclass(frozen=True)
class SweepEntry:
    """One solve, isolated: error is None when it converged, the solution's
    own error when it ran out of iterations (solution kept), and
    "<Type>: <message>" when it raised (solution None).  label names the
    solve within its run, as "K=2" or "width=1.5"; a single solve has none."""

    K: float
    solution: Solution | None
    error: str | None = None
    label: str = ""

    def warnings(self) -> list[str]:
        """What this solve warns about, each line after "<label>: " when it
        has a label: an energy drop beyond the solver's default slack (a drop
        within it is rounding), a V that is constant to within _P_ROUNDING
        of its maximum, then the error, always the last line."""
        lines = []
        sol = self.solution
        if sol is not None and sol.max_p_drop > SolverConfig.monotonicity_slack:
            lines.append(f"energy decreased by relative {sol.max_p_drop:.3g} during the run")
        if sol is not None and sol.V.max - sol.V.samples.min() <= _P_ROUNDING * sol.V.max:
            lines.append("V is constant on the cell: a periodic fixed point, "
                         "not a localized profile")
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
    return SweepEntry(sol.K, sol, sol.error, label)


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
        "P": sol.P,
        "Q": sol.Q,
        "sup_U": sol.U.max,
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

