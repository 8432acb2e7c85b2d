"""Independent reference computations used across the test suite.

Everything here is deliberately naive: direct O(n^2) sums, Riemann sums,
central finite differences.  The library must agree with these, not the
other way around.  observed_solve records a solve's invariants step by step
through its observer.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from nleig import Profile, cone_check, eval_K, eval_P, solve


def direct_convolution(kernel_samples: np.ndarray, w: np.ndarray, h: float) -> np.ndarray:
    """Periodic convolution as an explicit Riemann sum, no FFT.

    Samples live in natural grid order, x = -L first, with the node x = d*h
    sitting at index (d + n//2) mod n.
    """
    n = w.size
    i = np.arange(n)
    # matrix of kernel values b(x_i - x_j), wrapped periodically
    idx = (i[:, None] - i[None, :] + n // 2) % n
    return h * (kernel_samples[idx] @ w)


def riemann(values: np.ndarray, h: float) -> float:
    """Periodic-grid quadrature: the Riemann sum is already trapezoidal."""
    return float(h * np.sum(values))


def random_cone_profile(rng: np.random.Generator, grid, kind: str | None = None) -> Profile:
    """Random even, nonnegative, unimodal profile.

    Two families: smooth superpositions of centered Gaussian bumps, and rough
    staircases built by mirroring a sorted random sequence.
    """
    if kind is None:
        kind = "smooth" if rng.uniform() < 0.5 else "staircase"
    x = grid.nodes
    if kind == "smooth":
        n_bumps = rng.integers(1, 4)
        samples = np.zeros_like(x)
        for _ in range(n_bumps):
            width = rng.uniform(0.5, 0.25 * grid.half_period)
            height = rng.uniform(0.1, 2.0)
            samples += height * np.exp(-0.5 * (x / width) ** 2)
        return Profile(grid, samples)
    n = grid.point_count
    # descending-from-center right half, mirrored; index n//2 is x = 0
    right = np.sort(rng.uniform(0.0, 1.0, size=n // 2))[::-1]
    samples = np.empty(n)
    samples[n // 2:] = right
    samples[1:n // 2] = right[1:n // 2][::-1]
    samples[0] = right[-1]  # x = -L matches the far tail
    return Profile(grid, samples)


def fd_grad_p(v: Profile, kernel, nl, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of P with respect to each node value,
    divided by the grid weight h so the result is comparable to b*f(b*V)."""
    base = v.samples
    h = v.grid.spacing
    out = np.empty_like(base)
    for i in range(base.size):
        bumped = base.copy()
        bumped[i] = base[i] + step
        p_plus = eval_P(Profile(v.grid, bumped), kernel, nl)
        bumped[i] = base[i] - step
        p_minus = eval_P(Profile(v.grid, bumped), kernel, nl)
        out[i] = (p_plus - p_minus) / (2.0 * step * h)
    return out


def ode_homoclinic(sigma: float, x: np.ndarray) -> np.ndarray:
    """Closed-form localized solution of sigma (U - U'') = U + U^2:
    U(x) = (3(sigma-1)/2) sech^2(sqrt((sigma-1)/sigma) x / 2)."""
    amp = 1.5 * (sigma - 1.0)
    rate = 0.5 * np.sqrt((sigma - 1.0) / sigma)
    z = np.abs(rate * x)
    return amp * (2.0 * np.exp(-z) / (1.0 + np.exp(-2.0 * z))) ** 2


def bisect(fn, lo: float, hi: float, steps: int = 200) -> float:
    """Plain bisection for an increasing objective with a sign change."""
    f_lo = fn(lo)
    f_hi = fn(hi)
    if not (f_lo < 0 < f_hi):
        raise ValueError("no sign change on the bracket")
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if fn(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


Steps = namedtuple("Steps", "p_values residuals constraint_errors cone_deviations")


def observed_solve(cfg, kernel, nl):
    """solve(cfg, kernel, nl) and its Steps: arrays of each step's P,
    residual, constraint error |K(V)/K - 1| and worst cone deviation
    relative to max V, for the iterate the step ends on."""
    rows = []

    def observe(iteration, v, p, residual):
        rows.append((p, residual, abs(eval_K(v) / cfg.K - 1.0),
                     cone_check(v).worst / max(v.max, 1e-300)))

    sol = solve(cfg, kernel, nl, observe)
    return sol, Steps(*np.array(rows, dtype=float).reshape(-1, 4).T)
