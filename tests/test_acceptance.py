"""Acceptance suite: ten end-to-end criteria, one test per criterion.

Each test prints a single line "criterion NN: PASS/FAIL - detail" so the
run log doubles as a report.  Shared solves are module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from nleig import (
    KernelSpec,
    SolverConfig,
    decay_rate_theory,
    exp_nonlinearity,
    fit_tail_rate,
    gaussian_kernel,
    grad_P,
    high_energy_experiment,
    kdv_experiment,
    make_grid,
    modified_kernel_ac,
    quadratic_nonlinearity,
    save_solution,
    singular_nonlinearity,
    solve,
    spectral_ode_kernel,
    two_bump_kernel,
    uniqueness_probe,
)
from oracles import (
    direct_convolution,
    fd_grad_p,
    observed_solve,
    ode_homoclinic,
    random_cone_profile,
)


def _report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


@pytest.fixture(scope="module")
def ode_solution():
    grid = make_grid(40.0, 4096)
    kernel = spectral_ode_kernel(grid)
    nl = quadratic_nonlinearity(1.0, 2.0)
    start = time.perf_counter()
    sol = solve(SolverConfig(K=0.95), kernel, nl)
    seconds = time.perf_counter() - start
    return kernel, nl, sol, seconds


@pytest.fixture(scope="module")
def gauss_runs():
    grid = make_grid(25.0, 2000)
    kernel = gaussian_kernel(grid)
    nl = exp_nonlinearity()
    runs, steps = {}, {}
    for K in (0.5, 1.0, 2.0):
        runs[K], steps[K] = observed_solve(SolverConfig(K=K), kernel, nl)
    return kernel, nl, runs, steps


@pytest.fixture(scope="module")
def kdv_result():
    start = time.perf_counter()
    res = kdv_experiment(
        KernelSpec(kind="gaussian", width=1.0), exp_nonlinearity(), [0.2, 0.1, 0.05]
    )
    return res, time.perf_counter() - start


@pytest.fixture(scope="module")
def he_result():
    return high_energy_experiment(
        KernelSpec(kind="gaussian", width=1.0), singular_nonlinearity(4.0),
        [0.2, 0.1, 0.05, 0.02],
    )


def test_criterion_01_closed_form_oracle(ode_solution):
    kernel, _, sol, seconds = ode_solution
    assert sol.converged
    exact = ode_homoclinic(sol.sigma, kernel.profile.grid.nodes)
    rel = np.linalg.norm(sol.U.samples - exact) / np.linalg.norm(exact)
    ok = 1.3 <= sol.sigma <= 1.6 and rel <= 1e-3 and seconds <= 30.0
    _report(
        1, ok,
        f"sigma = {sol.sigma:.9f}, relative L2 error vs sech^2 oracle = {rel:.3e}, "
        f"solved in {seconds:.2f} s",
    )


def test_criterion_02_euler_lagrange_residual(gauss_runs):
    _, nl, runs, _ = gauss_runs
    details = []
    ok = True
    for K, sol in runs.items():
        gap = sol.sigma * K - sol.P
        ok &= sol.converged and sol.el_residual <= 1e-9
        ok &= sol.sigma > nl.alpha and gap >= -1e-9
        details.append(f"K={K:g}: el_residual={sol.el_residual:.2e}, "
                       f"sigma={sol.sigma:.6f}, sigma*K-P={gap:.2e}")
    _report(2, ok, "; ".join(details))


def test_criterion_03_iteration_invariants(gauss_runs):
    _, _, _, steps = gauss_runs
    ok = True
    details = []
    for K, tr in steps.items():
        p = np.asarray(tr.p_values)
        drops = np.min(np.diff(p) + 1e-12 * np.abs(p[:-1]), initial=0.0)
        worst_constraint = max(tr.constraint_errors)
        worst_cone = max(tr.cone_deviations)
        ok &= drops >= 0.0 and worst_constraint <= 1e-12 and worst_cone <= 1e-9
        details.append(
            f"K={K:g}: {len(p)} steps, constraint<={worst_constraint:.1e}, "
            f"cone<={worst_cone:.1e}"
        )
    _report(3, ok, "energy nondecreasing on every accepted step; " + "; ".join(details))


def test_criterion_04_super_quadraticity(gauss_runs, ode_solution):
    _, nl_g, runs, _ = gauss_runs
    _, nl_o, sol_o, _ = ode_solution
    pairs = [(nl_g.alpha, sol.P, sol.K) for sol in runs.values()]
    pairs.append((nl_o.alpha, sol_o.P, sol_o.K))
    margins = [(P - alpha * K) / K for alpha, P, K in pairs]
    ok = all(m > 0 for m in margins)
    _report(
        4, ok,
        "P > alpha*K on all validated runs, margins per unit K: "
        + ", ".join(f"{m:.3f}" for m in margins),
    )


def test_criterion_05_tail_decay(ode_solution):
    kernel, nl, sol, _ = ode_solution
    rate, r2, window = fit_tail_rate(sol.U)
    lam = decay_rate_theory(kernel, sol.sigma, nl.alpha)
    rel_gap = abs(rate - lam) / lam
    c = 0.5 * (nl.alpha / sol.sigma + 1.0)
    a_c = modified_kernel_ac(kernel, c)
    positive = bool(np.all(a_c.samples > 0))
    dom_const = float(np.max(sol.U.samples / a_c.samples))
    ok = (r2 >= 0.999 and rel_gap <= 0.05 and positive
          and np.isfinite(dom_const) and dom_const > 0)
    _report(
        5, ok,
        f"fit rate {rate:.6f} vs theory {lam:.6f} ({100 * rel_gap:.2f}% gap, "
        f"r^2 = {r2:.6f}, window {window}); a_c dominates U with "
        f"C = {dom_const:.3f}",
    )


def test_criterion_06_kdv_limit(kdv_result):
    res, seconds = kdv_result
    d0 = res.predictors["d0"]
    gaps = [abs(row.d_ratio - d0) for row in res.rows]
    errs = [row.profile_err for row in res.rows]
    points = max(e.solution.V.grid.point_count for e in res.entries)
    ok = ([e.error for e in res.entries] == [None] * 3
          and gaps[-1] <= 0.10 * d0
          and all(a > b for a, b in zip(gaps, gaps[1:]))
          and all(a > b for a, b in zip(errs, errs[1:]))
          and seconds <= 600.0 and points <= 2**15)
    _report(
        6, ok,
        f"d_ratio at eps=0.05 within {100 * gaps[-1] / d0:.2f}% of d0 = {d0:.6f}; "
        f"|d_ratio - d0| = {[f'{g:.2e}' for g in gaps]}, profile errors = "
        f"{[f'{e:.2e}' for e in errs]} (both strictly decreasing); "
        f"{seconds:.1f} s, max n = {points}",
    )


def test_criterion_07_high_energy_limit(he_result):
    res = he_result
    eta0 = res.predictors["eta0"]
    eps = [row.eps_delta for row in res.rows]
    sups = [row.sup_err for row in res.rows]
    eta_gaps = [abs(row.eta - eta0) for row in res.rows]
    ok = ([e.error for e in res.entries] == [None] * 4
          and all(a > b for a, b in zip(eps, eps[1:]))
          and all(a > b for a, b in zip(sups, sups[1:]))
          and all(a > b for a, b in zip(eta_gaps, eta_gaps[1:]))
          and eta_gaps[-1] <= 0.15 * eta0)
    _report(
        7, ok,
        f"eta at delta=0.02 within {100 * eta_gaps[-1] / eta0:.2f}% of eta0 = "
        f"{eta0:.6f}; eps_delta = {[f'{e:.3e}' for e in eps]} and sup errors = "
        f"{[f'{s:.3e}' for s in sups]} strictly decreasing",
    )


def test_criterion_08_discrete_oracles():
    grid = make_grid(8.0, 256)
    kernel = gaussian_kernel(grid, width=0.9)
    nl = exp_nonlinearity()
    rng = np.random.default_rng(8)
    worst_conv = 0.0
    for i in range(100):
        w = random_cone_profile(rng, grid, "smooth" if i % 2 == 0 else "staircase")
        dft = kernel.convolve(w).samples
        direct = direct_convolution(kernel.profile.samples, w.samples, grid.spacing)
        worst_conv = max(worst_conv,
                         np.max(np.abs(dft - direct)) / np.max(np.abs(direct)))
    worst_grad = 0.0
    for i in range(10):
        w = random_cone_profile(rng, grid, "smooth" if i % 2 == 0 else "staircase")
        g = grad_P(w, kernel, nl).samples
        fd = fd_grad_p(w, kernel, nl)
        worst_grad = max(worst_grad, np.linalg.norm(g - fd) / np.linalg.norm(g))
    ok = worst_conv <= 1e-10 and worst_grad <= 1e-6
    _report(
        8, ok,
        f"DFT vs direct convolution: {worst_conv:.2e} over 100 cone profiles; "
        f"grad P vs finite differences: {worst_grad:.2e} over 10 profiles",
    )


def test_criterion_09_uniqueness_probe(gauss_runs):
    kernel, nl, _, _ = gauss_runs
    grid = kernel.profile.grid
    probe = uniqueness_probe(SolverConfig(K=1.0), kernel, nl,
                             n_starts=5, seed=0)
    two_bump = two_bump_kernel(grid, width=0.6, separation=6.0)
    explore = SolverConfig(K=4.0, monotonicity_slack=float("inf"))
    counter = uniqueness_probe(explore, two_bump, nl, n_starts=5, seed=0)
    ok = (probe.supports_conjecture and probe.max_l2_distance <= 1e-6
          and probe.n_converged == 5 and not counter.supports_conjecture)
    _report(
        9, ok,
        f"5 starts at K=1 agree to {probe.max_l2_distance:.2e} in L2 (support: yes); "
        f"two-bump exploratory run at K=4 separates starts by "
        f"{counter.max_l2_distance:.3f} (support: no)",
    )


def test_criterion_10_determinism(tmp_path):
    grid = make_grid(25.0, 2000)
    kernel = gaussian_kernel(grid)
    nl = exp_nonlinearity()
    blobs = []
    for name in ("first", "second"):
        sol = solve(SolverConfig(K=1.0), kernel, nl)
        save_solution(sol, tmp_path / name)
        blobs.append((tmp_path / name / "V.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    _report(10, ok, f"two fresh K=1 runs wrote byte-identical V.csv "
                    f"({len(blobs[0])} bytes)")
