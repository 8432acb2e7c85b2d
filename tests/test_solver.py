"""Improvement iteration: fixed points, invariants, sweeps, multistart."""

import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from nleig import (
    KdvGridPolicy,
    KernelSpec,
    MonotonicityViolationError,
    Nonlinearity,
    NumericalOverflowError,
    Profile,
    SolverConfig,
    SweepEntry,
    ZeroGradientError,
    attempt,
    eval_K,
    eval_P,
    exp_nonlinearity,
    grad_P,
    gaussian_kernel,
    high_energy_experiment,
    improvement_step,
    kdv_experiment,
    kdv_profile,
    l2_norm,
    make_grid,
    quadratic_nonlinearity,
    save_solution,
    singular_nonlinearity,
    solution_to_dict,
    solve,
    spectral_ode_kernel,
    sweep_K,
    two_bump_kernel,
    uniqueness_probe,
)
from nleig import solver
from nleig.grid import even_part, mirror
from nleig.solver import _Transforms, point_label
from oracles import observed_solve, random_cone_profile

G = make_grid(25.0, 2000)
KERNEL = gaussian_kernel(G, width=1.0)
NL = exp_nonlinearity()


@pytest.fixture(scope="module")
def reference_run():
    return observed_solve(SolverConfig(K=1.0, tol_residual=1e-10), KERNEL, NL)


@pytest.fixture(scope="module")
def reference_solution(reference_run):
    return reference_run[0]


def test_linear_nonlinearity_fixes_constants():
    # with f(r) = alpha r, unit-mass convolution leaves constants untouched,
    # so a constant profile is an exact fixed point with mu = 1/alpha
    linear = Nonlinearity(
        kind="linear-probe", alpha=2.0, beta=0.0,
        f=lambda r: 2.0 * r, f_prime=lambda r: 2.0 + 0.0 * r,
        antiderivative=lambda r: r * r,
    )
    const = Profile(G, np.full(G.point_count, 0.7))
    t, mu = improvement_step(const, KERNEL, linear)
    assert mu == pytest.approx(0.5, rel=1e-13)
    assert np.max(np.abs(t.samples - const.samples)) <= 1e-12


def test_improvement_step_preserves_norm_and_raises_p():
    rng = np.random.default_rng(42)
    for _ in range(10):
        v = random_cone_profile(rng, G)
        t, mu = improvement_step(v, KERNEL, NL)
        assert l2_norm(t) == pytest.approx(l2_norm(v), rel=1e-12)
        p_before = eval_P(v, KERNEL, NL)
        p_after = eval_P(t, KERNEL, NL)
        assert p_after >= p_before - 1e-12 * abs(p_before)
        assert mu > 0


def test_converged_solution_is_a_fixed_point(reference_solution):
    sol = reference_solution
    assert sol.converged
    t, mu = improvement_step(sol.V, KERNEL, NL)
    rel = l2_norm(Profile(G, t.samples - sol.V.samples)) / l2_norm(sol.V)
    assert rel <= 5e-10
    assert mu == pytest.approx(1.0 / sol.sigma, rel=1e-9)


def test_solution_describes_its_own_v(reference_solution):
    # residual and el_residual are measured on the returned V, not on the
    # iterate one step before it: a plain solve, the seeded small-K eps = 0.2
    # solve and a solve stopped by max_iter
    spec, eps = KernelSpec(kind="gaussian", width=1.0), 0.2
    seeded = kdv_experiment(spec, NL, [eps]).entries[0].solution
    stopped = solve(SolverConfig(K=1.0, max_iter=20), KERNEL, NL)
    assert not stopped.converged and stopped.iterations == 20
    small_k_kernel = spec.build(KdvGridPolicy().grid_for(eps, spec.length_scale))
    for sol, kernel in ((reference_solution, KERNEL), (seeded, small_k_kernel),
                        (stopped, KERNEL)):
        t, _ = improvement_step(sol.V, kernel, NL)
        own = l2_norm(Profile(sol.V.grid, t.samples - sol.V.samples)) / l2_norm(sol.V)
        assert sol.residual == pytest.approx(own, rel=1e-3)
        assert sol.el_residual == pytest.approx(own, rel=1e-3)


def test_solve_regression_pin(reference_solution):
    sol = reference_solution
    # frozen after first computation on this grid; guards against drift
    assert sol.sigma == pytest.approx(1.213013143093, rel=1e-6)
    assert sol.el_residual <= 1e-9
    assert sol.iterations < 1000
    assert sol.P > sol.Q
    assert eval_K(sol.V) == pytest.approx(1.0, rel=1e-12)
    assert sol.cone.in_cone(1e-9 * sol.V.max)


def test_solve_trace_shapes(reference_run):
    sol, tr = reference_run
    n = sol.iterations
    assert tr.p_values.shape == (n,)
    assert tr.residuals.shape == (n,)
    assert tr.constraint_errors.shape == (n,)
    assert tr.cone_deviations.shape == (n,)
    assert np.all(np.diff(tr.p_values) >= -1e-12 * np.abs(tr.p_values[:-1]))


def test_fast_contraction_takes_only_plain_steps(reference_solution):
    # at K = 1 the plain map contracts well below the mixing gate's rate,
    # so the solve takes exactly the plain iteration's steps
    sol = reference_solution
    assert sol.accelerated_steps == 0 and sol.rejected_steps == 0
    assert sol.iterations == 148
    assert sol.contraction_rate < solver._GATE_RATE


def test_plain_step_is_the_even_part_of_t_on_the_sphere(monkeypatch):
    # the reference config's steps are all plain: one step takes the even
    # part of T(V) and rescales it onto the sphere K(V) = K
    cfg = SolverConfig(K=1.0, max_iter=1)
    v = solve(cfg, KERNEL, NL).V
    assert np.array_equal(v.samples, mirror(v.samples))
    assert abs(eval_K(v) - 1.0) <= 1e-14
    start = solver._default_initial(cfg, KERNEL)
    t, _ = improvement_step(start.scaled(np.sqrt(2.0) / l2_norm(start)), KERNEL, NL)
    even = Profile(G, even_part(t.samples))
    expected = even.scaled(np.sqrt(2.0) / l2_norm(even))
    assert np.max(np.abs(v.samples - expected.samples)) <= 1e-13
    # a plain step builds 4 Profiles: f(U), grad P = b*f(U), G(V) and b*G(V)
    built = []
    post_init = Profile.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Profile, "__post_init__", counted)
    counts = []
    for max_iter in (5, 6):
        built.clear()
        sol = solve(replace(cfg, max_iter=max_iter), KERNEL, NL)
        assert sol.iterations == max_iter and sol.accelerated_steps == 0
        counts.append(len(built))
    assert counts[1] - counts[0] == 4


def test_accelerated_solve_keeps_the_invariants():
    # the small-K sweep's eps = 0.2 and 0.05 points, observed: the plain map
    # contracts at a rate near 1 there (1855 and 13191 plain steps to
    # converge), so the solve mixes, and its Newton steps converge in 6
    spec, nl = KernelSpec(kind="gaussian", width=1.0), exp_nonlinearity()
    for eps in (0.2, 0.05):
        family = kdv_experiment(spec, nl, [eps])
        grid = KdvGridPolicy().grid_for(eps, spec.length_scale)
        init = Profile(grid, eps**2 * kdv_profile(family.predictors["kappa1"],
                                                  family.predictors["kappa2"],
                                                  eps * grid.nodes))
        sol, tr = observed_solve(SolverConfig(K=eps**3, init_profile=init, max_iter=300_000),
                                 spec.build(grid), nl)
        assert sol.converged and sol.accelerated_steps > 0
        assert sol.iterations <= 6
        # the observer changes nothing along the path
        unobserved = family.entries[0].solution
        assert (sol.iterations, sol.sigma) == (unobserved.iterations, unobserved.sigma)
        assert sol.accelerated_steps == unobserved.accelerated_steps
        assert tr.p_values.shape == (sol.iterations,)
        assert np.all(np.diff(tr.p_values) >= -1e-12 * np.abs(tr.p_values[:-1]))
        assert np.max(tr.cone_deviations) <= 1e-12
        assert np.max(tr.constraint_errors) <= 1e-12
        assert sol.cone.in_cone(1e-12 * sol.V.max)


def test_slow_contraction_at_small_k_mixes():
    # at K = 0.25 the plain map contracts at 0.948 per step (356 plain steps
    # to converge), above the mixing gate's rate, so the solve mixes
    kernel = gaussian_kernel(make_grid(50.0, 2048), width=1.0)
    sol = solve(SolverConfig(K=0.25), kernel, NL)
    assert sol.accelerated_steps > 0 and sol.iterations <= 100
    assert sol.converged
    assert sol.sigma > NL.alpha
    assert sol.P > sol.Q
    assert sol.cone.in_cone(1e-9 * sol.V.max)
    # the plain iteration's sigma
    assert sol.sigma == pytest.approx(1.0790586609686053, rel=1e-9)


def test_near_branch_point_solve_converges():
    # where the localized solution branches off the constant one, the plain
    # map contracts at a rate near 1: without mixing this solve did not
    # converge in 20000 steps
    grid = make_grid(16.0, 256)
    kernel = gaussian_kernel(grid, width=1.5234375)
    nl = quadratic_nonlinearity(1.71875, 1.0)
    cfg = SolverConfig(K=0.75 * kernel.k_max_norm, tol_residual=1e-9, max_iter=20_000)
    sol = solve(cfg, kernel, nl)
    assert sol.converged and sol.iterations < 500
    assert sol.accelerated_steps > 0
    assert sol.sigma > nl.alpha
    assert sol.P > sol.Q
    assert sol.cone.in_cone(1e-9 * sol.V.max)


def test_newton_step_matches_a_dense_solve():
    # (sigma - P L P) d = P (g - sigma V) on the even tangent space of an
    # iterate short of the solution, against np.linalg.solve on an
    # orthonormal basis of {d even, <d, V> = 0}
    grid = make_grid(8.0, 64)
    kernel = gaussian_kernel(grid, width=1.0)
    v = solve(SolverConfig(K=0.5, max_iter=3), kernel, NL).V
    u = kernel.convolve(v)
    g = grad_P(v, kernel, NL).samples
    # a residual of 1e-30 asks CG for a relative residual of 1e-15
    d, _ = solver._newton(g, v.samples, u, 1e-30, kernel, NL, _Transforms(grid.point_count))
    eye = np.eye(grid.point_count)
    conv = np.column_stack([kernel.convolve(Profile(grid, e)).samples for e in eye])
    linear = conv @ np.diag(NL.f_prime(u.samples)) @ conv
    V = v.samples
    sigma = g @ V / (V @ V)
    even = 0.5 * (eye + np.column_stack([mirror(e) for e in eye]))
    off_v = eye - np.outer(V, V) / (V @ V)
    basis, singular, _ = np.linalg.svd(off_v @ even)
    basis = basis[:, singular > 1e-8]
    assert basis.shape[1] == grid.point_count // 2
    a = basis.T @ (sigma * eye - linear) @ basis
    dense = basis @ np.linalg.solve(a, basis.T @ (g - sigma * V))
    assert np.linalg.norm(dense) > 0.1 * np.linalg.norm(V)
    assert np.linalg.norm(d - dense) <= 1e-9 * np.linalg.norm(dense)


def test_preconditioned_step_is_one_inverse_iteration_step():
    # on the linear map g = (s + A) V with A = alpha bhat^2 Fourier-diagonal,
    # M = mu - A and V + M^-1 (g - lam V) = (s + mu - lam) M^-1 V: one step of
    # inverse iteration with the shift mu.  That step, Gp(V), is V + irfft(z0)
    # with z0 the first preconditioned residual of _newton's CG run
    alpha, s = 0.8, 0.3
    profile = random_cone_profile(np.random.default_rng(5), G)
    v, u = profile.samples, KERNEL.convolve(profile)
    a_sym = alpha * KERNEL.symbol**2
    g = np.fft.irfft((s + a_sym) * np.fft.rfft(v), G.point_count)
    mu = np.dot(g, v) / np.dot(v, v)
    m = mu - a_sym
    # the inverse of M in FFT order on the full spectrum, as an independent
    # check that node order needs no shift
    n = G.point_count
    m_full = m[np.minimum(np.arange(n), n - np.arange(n))]
    w = np.fft.fftshift(np.fft.ifft(np.fft.fft(np.fft.ifftshift(v)) / m_full).real)
    lam = np.dot(g, w) / np.dot(v, w)

    def newton(g, alpha):
        return solver._newton(g, v, u, 1.0, KERNEL, quadratic_nonlinearity(alpha, 1.0),
                              _Transforms(n))

    step = v + np.fft.irfft(newton(g, alpha)[1], n)
    assert np.max(np.abs(step - (s + mu - lam) * w)) <= 1e-12 * np.max(np.abs(step))
    # without the shift mu <= alpha max bhat^2, so M is not positive
    plain = np.fft.irfft(a_sym * np.fft.rfft(v), n)
    assert np.dot(plain, v) / np.dot(v, v) <= np.max(a_sym)
    for d, z0 in (newton(plain, alpha), newton(g, 1.0001 * mu / np.max(KERNEL.symbol**2))):
        assert d is None and z0 is None


def _quarter_period_off(v, g, u, plain, residual, kernel, nl, K, ffts):
    # a candidate, two bumps a quarter period off center, that always lowers P
    rolled = np.roll(v.samples, len(v.samples) // 4)
    return Profile(v.grid, solver._on_sphere(even_part(rolled), v.grid, K))


def test_rejected_candidate_is_followed_by_a_plain_step(monkeypatch):
    # a candidate builder whose candidate always lowers P: without a plain
    # step after each rejection the iterate and so the candidate would
    # repeat forever
    monkeypatch.setattr(solver, "_candidate", _quarter_period_off)
    sol = solve(SolverConfig(K=0.1), KERNEL, NL)
    assert sol.converged and sol.accelerated_steps == 0
    assert 0 < sol.rejected_steps <= (sol.iterations + 1) // 2


def test_candidate_lowering_p_is_rejected_under_infinite_slack(monkeypatch):
    # the rounding allowance is fixed: an infinite monotonicity_slack, which
    # only stops a plain step's drop from raising, leaves the safeguard on
    monkeypatch.setattr(solver, "_candidate", _quarter_period_off)
    sol = solve(SolverConfig(K=0.1, monotonicity_slack=math.inf), KERNEL, NL)
    assert sol.converged and sol.accelerated_steps == 0
    assert 0 < sol.rejected_steps <= (sol.iterations + 1) // 2
    assert sol.max_p_drop <= solver._P_ROUNDING


def test_accepted_candidate_drops_stay_within_p_rounding():
    # the small-K sweep's eps = 0.2 point, observed and solved to 1e-14: its
    # third candidate lowers P by rounding (6.5e-16 relative), which
    # max_p_drop records like a plain step's drop
    spec, nl, eps = KernelSpec(kind="gaussian", width=1.0), exp_nonlinearity(), 0.2
    predictors = kdv_experiment(spec, nl, [eps]).predictors
    grid = KdvGridPolicy().grid_for(eps, spec.length_scale)
    kernel = spec.build(grid)
    init = Profile(grid, eps**2 * kdv_profile(predictors["kappa1"], predictors["kappa2"],
                                              eps * grid.nodes))
    sol, steps = observed_solve(SolverConfig(K=eps**3, init_profile=init, tol_residual=1e-14),
                                kernel, nl)
    assert sol.converged and sol.rejected_steps == 0
    p0 = eval_P(Profile(grid, solver._on_sphere(init.samples, grid, eps**3)), kernel, nl)
    p = np.concatenate(([p0], steps.p_values))
    drops = -np.diff(p) / np.maximum(np.abs(p[:-1]), 1e-300)
    assert sol.max_p_drop == max(np.max(drops), 0.0)
    assert 0.0 < sol.max_p_drop <= solver._P_ROUNDING
    # the seeded gate opens on the first step: every drop is a candidate's
    assert sol.accelerated_steps == sol.iterations


def test_small_k_sweep_takes_few_steps():
    # sigma from solves at tol_residual 1e-13
    reference = [1.00766452755435, 1.00190992120838, 1.00047709320490]
    family = kdv_experiment(KernelSpec(kind="gaussian", width=1.0),
                            exp_nonlinearity(), [0.2, 0.1, 0.05])
    assert sum(e.solution.iterations for e in family.entries) <= 8
    for sol, sigma in zip((e.solution for e in family.entries), reference):
        assert sol.converged and sol.rejected_steps == 0
        # each solve starts from the predicted limit wave, so the gate opens
        # on its first step and every step is a candidate
        assert sol.accelerated_steps == sol.iterations
        assert sol.sigma == pytest.approx(sigma, rel=1e-10)


def test_seeded_small_k_solves_take_candidates_from_the_first_step():
    # seeded with the predicted limit wave, each small-K solve starts within
    # _SEEDED_RESIDUAL of its fixed point where f'(0)/sigma > _GATE_RATE, so
    # it takes candidates from the first step, and P never falls by more
    # than its rounding along the way
    spec, nl = KernelSpec(kind="gaussian", width=1.0), exp_nonlinearity()
    predictors = kdv_experiment(spec, nl, [0.2]).predictors
    for eps in (0.2, 0.1, 0.05):
        grid = KdvGridPolicy().grid_for(eps, spec.length_scale)
        kernel = spec.build(grid)
        init = Profile(grid, eps**2 * kdv_profile(predictors["kappa1"], predictors["kappa2"],
                                                  eps * grid.nodes))
        sol, steps = observed_solve(SolverConfig(K=eps**3, init_profile=init), kernel, nl)
        assert sol.converged and sol.rejected_steps == 0
        assert steps.residuals[0] < solver._SEEDED_RESIDUAL
        assert nl.alpha / sol.sigma > solver._GATE_RATE
        assert sol.accelerated_steps == sol.iterations
        p0 = eval_P(Profile(grid, solver._on_sphere(init.samples, grid, eps**3)), kernel, nl)
        p = np.concatenate(([p0], steps.p_values))
        assert np.all(np.diff(p) >= -solver._P_ROUNDING * np.abs(p[:-1]))


def test_cold_start_near_the_branch_point_waits_for_the_window():
    # K = 0.03 lies near the cell's branch point, where the plain map is
    # slow (f'(0)/sigma = 0.98) but the Gaussian start is far from the
    # maximizer: a residual switch of 0.05 in place of _SEEDED_RESIDUAL sent
    # Newton to a saddle and the solve took 472 steps, 227 of them rejected.
    # Through the rate window it takes 17
    sol, steps = observed_solve(SolverConfig(K=0.03), KERNEL, NL)
    assert sol.converged and sol.iterations <= 30
    assert sol.rejected_steps == 0 and sol.accelerated_steps > 0
    assert NL.alpha / sol.sigma > solver._GATE_RATE
    assert steps.residuals[0] > solver._SEEDED_RESIDUAL


def test_seeded_rule_stays_shut_where_the_plain_map_contracts_fast():
    # decay's solve: its residual passes _SEEDED_RESIDUAL on the way to
    # 1e-10, but f'(0)/sigma = 0.83 <= _GATE_RATE, so every step stays plain
    nl = quadratic_nonlinearity(1.0, 2.0)
    sol = solve(SolverConfig(K=0.3), spectral_ode_kernel(make_grid(60.0, 16384)), nl)
    assert sol.converged
    assert nl.alpha / sol.sigma <= solver._GATE_RATE
    assert sol.accelerated_steps == 0 and sol.rejected_steps == 0


def _count_ffts(monkeypatch) -> list:
    """Wrap numpy's rfft and irfft; the list returned grows by one per call."""
    calls = []
    for name in ("rfft", "irfft"):
        def counted(*args, _real=getattr(np.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


def _shifted_a_quarter_period(v, g, u, plain, residual, kernel, nl, K, ffts):
    # the rest rule's always-rejected candidate, _quarter_period_off's, made
    # as two eighth-period shifts in Fourier space through the solve's
    # counted transforms
    n, samples = ffts.n, v.samples
    phase = np.exp(-0.25j * np.pi * np.arange(n // 2 + 1))
    for _ in range(2):
        samples = ffts.irfft(phase * ffts.rfft(samples))
    return Profile(v.grid, solver._on_sphere(even_part(samples), v.grid, K))


def test_transforms_count_every_fft(reference_solution, monkeypatch):
    # a plain solve makes 4 FFTs per step (the gradient's convolution and
    # the new iterate's) and 4 for the first iterate and the result, and an
    # observed solve makes the same ones
    sol = reference_solution
    assert sol.transforms == 4 * (sol.iterations + 1)
    grid = make_grid(16.0, 256)
    kernel = gaussian_kernel(grid, width=1.5234375)
    nl = quadratic_nonlinearity(1.71875, 1.0)
    ffts = _count_ffts(monkeypatch)
    plain, _ = observed_solve(SolverConfig(K=1.0, tol_residual=1e-10), KERNEL, NL)
    assert len(ffts) == plain.transforms == sol.transforms
    ffts.clear()
    mixed = solve(SolverConfig(K=0.75 * kernel.k_max_norm, tol_residual=1e-9), kernel, nl)
    assert mixed.accelerated_steps + mixed.rejected_steps > 0
    assert len(ffts) == mixed.transforms
    # the rest rule: each rejected candidate is followed by a plain step
    monkeypatch.setattr(solver, "_candidate", _shifted_a_quarter_period)
    ffts.clear()
    rested = solve(SolverConfig(K=0.1), KERNEL, NL)
    assert rested.rejected_steps > 0 and rested.accelerated_steps == 0
    assert len(ffts) == rested.transforms


def _assert_same_solution(a, b):
    for field in fields(solver.Solution):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, Profile):
            assert np.array_equal(x.samples, y.samples), field.name
        else:
            assert x == y or (x != x and y != y), field.name


def test_observer_sees_each_step_and_changes_nothing(reference_solution, monkeypatch):
    # one call per step, numbered from 1, on a plain, a mixed and a resting
    # solve; each changes no field of the Solution, transforms included
    grid = make_grid(16.0, 256)
    kernel = gaussian_kernel(grid, width=1.5234375)
    nl = quadratic_nonlinearity(1.71875, 1.0)
    mixed_cfg = SolverConfig(K=0.75 * kernel.k_max_norm, tol_residual=1e-9)
    runs = [(SolverConfig(K=1.0, tol_residual=1e-10), KERNEL, NL), (mixed_cfg, kernel, nl)]
    for cfg, kern, nonlin in runs:
        calls = []
        observed = solve(cfg, kern, nonlin, lambda *step: calls.append(step))
        assert [call[0] for call in calls] == list(range(1, observed.iterations + 1))
        assert calls[-1][1] is observed.V and calls[-1][2] == observed.P
        _assert_same_solution(observed, solve(cfg, kern, nonlin))
    # a rejected candidate passes the unchanged V and its P again
    monkeypatch.setattr(solver, "_candidate", _shifted_a_quarter_period)
    calls = []
    rested = solve(SolverConfig(K=0.1), KERNEL, NL, lambda *step: calls.append(step))
    assert rested.rejected_steps > 0 and rested.accelerated_steps == 0
    assert len(calls) == rested.iterations
    repeats = [(before, after) for before, after in zip(calls, calls[1:])
               if after[1] is before[1]]
    assert len(repeats) == rested.rejected_steps
    assert all(after[2] == before[2] for before, after in repeats)
    _assert_same_solution(rested, solve(SolverConfig(K=0.1), KERNEL, NL))
    # a start that already meets tol_residual takes no step and calls nothing
    calls = []
    start = solve(SolverConfig(K=1.0, tol_residual=1e-6, init_profile=reference_solution.V),
                  KERNEL, NL, lambda *step: calls.append(step))
    assert start.converged and start.iterations == 0 and calls == []


def test_fallback_leaving_the_cone_is_never_evaluated(monkeypatch):
    # a Newton step that fails, with a fallback Gp(V) = V + side bumps at
    # |x| = L/2 that leaves the cone: no candidate is proposed, so the solve
    # takes the plain steps of a solve with no candidates, spending one irfft
    # on each fallback and none on its evaluation
    grid = make_grid(50.0, 2048)
    kernel = gaussian_kernel(grid, width=1.0)
    bumps = np.exp(-0.5 * (np.abs(grid.nodes) - 0.5 * grid.half_period) ** 2)
    z = np.fft.rfft(bumps).real
    cfg = SolverConfig(K=0.25)
    ffts = _count_ffts(monkeypatch)
    monkeypatch.setattr(solver, "_newton", lambda *args: (None, z))
    sol = solve(cfg, kernel, NL)
    assert sol.converged
    assert sol.accelerated_steps == 0 and sol.rejected_steps == 0
    assert len(ffts) == sol.transforms
    monkeypatch.setattr(solver, "_candidate", lambda *args: None)
    plain = solve(cfg, kernel, NL)
    assert (sol.iterations, sol.sigma) == (plain.iterations, plain.sigma)
    assert sol.transforms > plain.transforms  # the gate opened


def test_fallback_below_the_branch_point_costs_one_transform(monkeypatch):
    # below the branch point the maximizer is the constant c = sqrt(K/L),
    # with sigma = f(c)/c.  Newton steps there leave the cone, and each
    # fallback Gp(V) costs one irfft on top of them: 820 transforms, where a
    # second build of Gp(V) took 1043
    ffts = _count_ffts(monkeypatch)  # KERNEL's symbol is built already
    K = 0.014
    sol = solve(SolverConfig(K=K), KERNEL, NL)
    c = math.sqrt(K / G.half_period)
    assert sol.converged
    assert np.max(np.abs(sol.V.samples - c)) <= 1e-8 * c
    assert sol.sigma == pytest.approx(math.expm1(c) / c, rel=1e-12)
    assert len(ffts) == sol.transforms <= 900


def test_solve_respects_initial_profile():
    init = Profile(G, 1.0 / (1.0 + G.nodes * G.nodes))
    cfg = SolverConfig(K=1.0, init_profile=init, tol_residual=1e-10)
    sol = solve(cfg, KERNEL, NL)
    assert sol.converged
    assert sol.sigma == pytest.approx(1.213013143093, rel=1e-6)


def test_solve_validates_config():
    with pytest.raises(ValueError):
        solve(SolverConfig(K=0.0), KERNEL, NL)
    with pytest.raises(ValueError):
        solve(SolverConfig(K=-1.0), KERNEL, NL)
    # singular nonlinearity caps K strictly below K_max
    nl = singular_nonlinearity(4.0)
    with pytest.raises(ValueError):
        solve(SolverConfig(K=KERNEL.k_max_norm), KERNEL, nl)
    # initial profile must share the kernel's grid
    other = make_grid(25.0, 4096)
    init = Profile(other, np.exp(-other.nodes * other.nodes))
    with pytest.raises(ValueError):
        solve(SolverConfig(K=1.0, init_profile=init), KERNEL, NL)
    # the zero profile has no rescaling onto the sphere
    zero = Profile(G, np.zeros(G.point_count))
    with pytest.raises(ValueError, match="zero profile"):
        solve(SolverConfig(K=1.0, init_profile=zero), KERNEL, NL)


@pytest.mark.parametrize(
    "field, value",
    [
        ("K", np.inf),
        ("tol_residual", -1.0),
        ("max_iter", 0),
        ("init_width", -1.0),
        ("init_width", 1e-200),  # its square underflows: x = 0 would read 0/0
        ("monotonicity_slack", -1.0),
        ("tol_residual", np.inf),
        ("tol_residual", 1e308),
        ("tol_residual", 2.0),
    ],
)
def test_solver_config_rejects_unusable_values(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{"K": 1.0, field: value})


def test_huge_init_width_gives_the_flat_start_without_a_warning():
    # the width's square overflows to inf, with no RuntimeWarning (an error
    # under the suite's filter), and every sample reads 1
    start = solver._default_initial(SolverConfig(K=1.0, init_width=1e200), KERNEL)
    assert np.array_equal(start.samples, np.ones(G.point_count))


def test_solve_overflow_is_a_named_error():
    # exp(U) at K = 1e6 overflows the gradient norm in the first step, and at
    # K = 1e8 the first P; each is named with no RuntimeWarning (an error
    # under the suite's filter), so no errstate is needed here
    with pytest.raises(NumericalOverflowError, match=r"\|\|grad P\|\| is inf at iteration 1"):
        solve(SolverConfig(K=1e6), KERNEL, NL)
    with pytest.raises(NumericalOverflowError, match="P is inf at iteration 0"):
        solve(SolverConfig(K=1e8), KERNEL, NL)


def test_improvement_step_overflow_is_a_named_error():
    tall = Profile(G, 1e3 * np.exp(-G.nodes * G.nodes))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalOverflowError, match="grad P"):
            improvement_step(tall, KERNEL, NL)


def test_overflowing_f_is_a_named_error():
    # exp(U) overflows where U = b*V passes about 710, here at max U = 1155
    taller = Profile(G, 2000.0 * np.exp(-G.nodes * G.nodes))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalOverflowError, match=r"f\(U\)"):
            improvement_step(taller, KERNEL, NL)
        with pytest.raises(NumericalOverflowError, match=r"f\(U\)"):
            grad_P(taller, KERNEL, NL)


def test_solve_exhausting_max_iter_is_not_fatal():
    sol = solve(SolverConfig(K=1.0, max_iter=3), KERNEL, NL)
    assert not sol.converged
    assert sol.iterations == 3
    assert sol.residual > 1e-10


def test_monotonicity_guard_fires_for_far_off_center_start():
    # symmetrizing a start this far off center loses more potential than one
    # improvement step gains, so the slack check must abort the run
    bump = Profile(G, np.exp(-0.5 * (G.nodes - 10.0) ** 2))
    cfg = SolverConfig(K=8.0, init_profile=bump)
    with pytest.raises(MonotonicityViolationError):
        solve(cfg, KERNEL, NL)
    # infinite slack turns the same run into an exploratory one
    relaxed = SolverConfig(K=8.0, init_profile=bump, monotonicity_slack=np.inf)
    assert solve(relaxed, KERNEL, NL).converged


def test_drop_within_p_rounding_at_the_pole_does_not_raise():
    # at this delta near the pole of the singular f, solved to 1e-11, the
    # third plain step lowers P by 1.06e-12 relative: beyond the slack of
    # 1e-12, but 1.4 times P's rounding floor eps h sum|U f(U)| / |P| =
    # 7.8e-13, so the solve converges and its entry warns of the drop
    # instead of raising
    delta = 0.0019999990961935546
    result = high_energy_experiment(KernelSpec(kind="gaussian", width=1.0),
                                    singular_nonlinearity(4.0), [delta], tol_residual=1e-11)
    (entry,) = result.entries
    assert entry.error is None and entry.solution.converged
    assert entry.warnings() == [f"{point_label('delta', delta)}: energy decreased by "
                                "relative 1.06e-12 during the run"]


SMALL_K_KERNEL = gaussian_kernel(make_grid(25.0, 512), width=1.0)


@pytest.mark.parametrize("nl, K", [
    (exp_nonlinearity(), 1e-12),
    (exp_nonlinearity(), 1e-15),
    (exp_nonlinearity(), 1e-20),
    (singular_nonlinearity(4.0), 1e-6 * SMALL_K_KERNEL.k_max_norm),
])
def test_rounding_of_f_at_small_k_is_no_energy_drop(nl, K):
    # F's formula cancels at small U (expm1(r) - r, and the singular one's
    # two terms), so the computed P carries a rounding of about
    # eps h sum|U|: 4.4e-9 of P at K 1e-12 with exp, where eps h sum|U f(U)|
    # is 4.4e-16 of it.  The guard's floor holds both, so these converge.
    sol = solve(SolverConfig(K=K), SMALL_K_KERNEL, nl)
    assert sol.converged
    assert sol.sigma > nl.alpha


def test_candidate_drop_within_f_rounding_is_accepted():
    # at K 1e-15 P's rounding floor, which holds F's own rounding, is about
    # 1e-7 of P, far above _P_ROUNDING: a candidate judged against
    # _P_ROUNDING alone was turned down 707 times and the solve took 1922
    # steps; judged against the floor as well, as a plain step is, it takes
    # about 511
    nl = exp_nonlinearity()
    sol = solve(SolverConfig(K=1e-15), SMALL_K_KERNEL, nl)
    assert sol.converged
    assert sol.sigma > nl.alpha
    assert sol.rejected_steps <= 5
    assert sol.iterations < 700


@pytest.mark.parametrize("K", [1e-12, 1e-15, 1e-20])
def test_candidate_within_rounding_of_the_plain_steps_cone_is_accepted(K):
    # at small K candidates read cone deviations of 1e-16 to 7e-16 against
    # exactly 0 for G(V), with P not lowered: rounding, held by the clause
    sol = solve(SolverConfig(K=K), SMALL_K_KERNEL, exp_nonlinearity())
    assert sol.converged
    assert sol.rejected_steps == 0


def test_candidates_keep_no_cone_the_plain_step_leaves():
    # two_bump is outside the paper's class: G(V) leaves the cone by 5.5e-4
    # and each candidate by 4e-13 more.  Held to G(V)'s deviation, every
    # candidate was turned down at K = 3 and the solve took 43882 steps.
    # K = 3 lies near the cell's branch point 2.99, where the plain map
    # contracts at 0.99978: Newton steps converge in 23, secant steps took 129
    kernel = two_bump_kernel(make_grid(40.0, 4096), width=0.6, separation=6.0)
    cfg = SolverConfig(K=3.0, init_width=1.0, tol_residual=1e-11, max_iter=1000)
    sol = solve(cfg, kernel, exp_nonlinearity())
    assert sol.converged and sol.iterations <= 40
    assert sol.accelerated_steps > 0


@pytest.mark.parametrize("nl, K", [
    (exp_nonlinearity(), 0.5),
    (exp_nonlinearity(), 2.0),
    (exp_nonlinearity(), 8.0),
    (quadratic_nonlinearity(1.0, 2.0), 0.5),
    (quadratic_nonlinearity(1.0, 2.0), 2.0),
])
def test_energy_slope_in_k_is_the_multiplier_sigma(nl, K):
    # sigma is the Lagrange multiplier of max P on the sphere K(V) = K, so
    # the maximal energy P*(K) has slope sigma; central differences in K
    # approach it at second order
    grid = make_grid(25.0, 512)
    kernel = gaussian_kernel(grid, width=1.0)

    def p_star(k):
        return solve(SolverConfig(K=k, tol_residual=1e-13), kernel, nl).P

    sigma = solve(SolverConfig(K=K, tol_residual=1e-13), kernel, nl).sigma
    errors = [abs((p_star(K + dk) - p_star(K - dk)) / (2.0 * dk) - sigma) / sigma
              for dk in (2e-3, 1e-3)]
    assert errors[1] < 1e-6
    assert 3.0 <= errors[0] / errors[1] <= 5.0


def test_energy_drop_is_recorded_without_an_observer():
    # F with the wrong sign: T raises the true P, so the P the solver
    # checks falls at every step
    wrong_f = Nonlinearity(
        kind="wrong-antiderivative-probe", alpha=1.0, beta=1.0,
        f=np.expm1, f_prime=np.exp, antiderivative=lambda r: r - np.expm1(r),
    )
    init = Profile(G, np.exp(-G.nodes * G.nodes / 8.0))
    cfg = SolverConfig(K=1.0, max_iter=20, init_profile=init, monotonicity_slack=np.inf)
    quiet = solve(cfg, KERNEL, wrong_f)
    assert quiet.max_p_drop > 1e-12
    observed, steps = observed_solve(cfg, KERNEL, wrong_f)
    p0 = eval_P(init.scaled(np.sqrt(2.0) / l2_norm(init)), KERNEL, wrong_f)
    p = np.concatenate(([p0], steps.p_values))
    drops = -np.diff(p) / np.maximum(np.abs(p[:-1]), 1e-300)
    assert observed.max_p_drop == pytest.approx(max(np.max(drops), 0.0), rel=1e-12)
    assert observed.max_p_drop == quiet.max_p_drop
    with pytest.raises(MonotonicityViolationError):
        solve(SolverConfig(K=1.0, max_iter=20, init_profile=init), KERNEL, wrong_f)


def test_zero_gradient_is_reported():
    dead = Nonlinearity(
        kind="threshold-probe", alpha=1.0, beta=0.0,
        f=lambda r: np.maximum(r - 10.0, 0.0),
        f_prime=lambda r: (r > 10.0).astype(float),
        antiderivative=lambda r: 0.5 * np.maximum(r - 10.0, 0.0) ** 2,
    )
    with pytest.raises(ZeroGradientError):
        solve(SolverConfig(K=0.01, max_iter=5), KERNEL, dead)


def test_sweep_matches_single_solve_and_orders_output():
    cfg = SolverConfig(K=1.0, tol_residual=1e-10)
    single = solve(cfg, KERNEL, NL)
    entries = sweep_K([1.0], cfg, KERNEL, NL)
    assert len(entries) == 1
    assert entries[0].solution.sigma == single.sigma
    with pytest.raises(ValueError):
        sweep_K([2.0, 1.0], cfg, KERNEL, NL)
    with pytest.raises(ValueError):
        sweep_K([], cfg, KERNEL, NL)
    with pytest.raises(ValueError):
        sweep_K([-1.0, 0.5], cfg, KERNEL, NL)
    with pytest.raises(ValueError):
        sweep_K([float("nan")], cfg, KERNEL, NL)


def test_sweep_isolates_per_entry_failures():
    # the solve at K = 1e6 overflows f at its first step
    entries = sweep_K([0.5, 1.0, 1e6], SolverConfig(K=1.0), KERNEL, NL)
    assert entries[0].error is None and entries[0].solution.converged
    assert entries[1].error is None and entries[1].solution.converged
    assert entries[2].solution is None
    assert entries[2].error.startswith("NumericalOverflowError: ")
    # sigma grows with K
    assert entries[1].solution.sigma > entries[0].solution.sigma
    # a K at or above K_max fails the sweep before any solve
    k_max = KERNEL.k_max_norm
    with pytest.raises(ValueError, match="must stay below K_max"):
        sweep_K([0.5 * k_max, 1.5 * k_max], SolverConfig(K=1.0), KERNEL,
                singular_nonlinearity(4.0))


def test_attempt_records_each_outcome_in_the_entry():
    cfg = SolverConfig(K=1.0)
    converged = attempt(cfg, KERNEL, NL)
    assert converged.K == 1.0 and converged.error is None
    assert converged.solution.converged
    # an exhausted solve keeps its solution
    exhausted = attempt(cfg, KERNEL, NL, max_iter=3)
    assert not exhausted.solution.converged
    assert exhausted.error == ("no convergence in 3 iterations (residual "
                               f"{exhausted.solution.residual:.3g})")
    # a raising solve, or a change the config rejects, keeps none
    raised = attempt(cfg, KERNEL, singular_nonlinearity(4.0), K=2.0)
    assert raised.K == 2.0 and raised.solution is None
    assert raised.error == ("ValueError: K = 2 must stay below K_max = 1.77245 "
                            "for a singular nonlinearity")
    rejected = attempt(cfg, KERNEL, NL, K=-1.0)
    assert rejected.K == -1.0 and rejected.solution is None
    assert rejected.error.startswith("ValueError: K must be positive")


def test_entry_warnings_follow_one_rule(reference_solution):
    error = ("ValueError: K = 2 must stay below K_max = 1.77245 "
             "for a singular nonlinearity")
    raised = attempt(SolverConfig(K=1.0), KERNEL, singular_nonlinearity(4.0), K=2.0)
    assert raised.label == "K=2"
    assert raised.warnings() == [f"K=2: {error}"]
    named = attempt(SolverConfig(K=1.0), KERNEL, NL, label="start", max_iter=3)
    assert named.label == "start" and not named.solution.converged
    # an energy drop beyond the solver's default slack comes first, the error last
    dropped = replace(named, solution=replace(named.solution, max_p_drop=2e-6))
    assert dropped.warnings() == [
        "start: energy decreased by relative 2e-06 during the run", f"start: {named.error}"]
    # a drop within the slack is rounding
    within = replace(named.solution, max_p_drop=SolverConfig.monotonicity_slack)
    assert replace(named, solution=within, error=None).warnings() == []
    # every entry of a solve that returned carries the solution's own error
    assert named.error == named.solution.error == (
        f"no convergence in 3 iterations (residual {named.solution.residual:.3g})")
    # an entry without a label, as of a single solve, warns without a prefix
    sol = named.solution
    single = SweepEntry(sol.K, sol, sol.error)
    assert single.label == "" and single.warnings() == [named.error]
    assert reference_solution.error is None
    converged = SweepEntry(reference_solution.K, reference_solution, None, "K=1")
    assert converged.warnings() == []


def test_sweep_warm_start_converges_faster():
    cfg = SolverConfig(K=0.5)
    ks = [0.5, 0.6]
    cold = sweep_K(ks, cfg, KERNEL, NL, warm_start=False)
    warm = sweep_K(ks, cfg, KERNEL, NL, warm_start=True)
    assert warm[1].solution.iterations < cold[1].solution.iterations
    assert warm[1].solution.sigma == pytest.approx(cold[1].solution.sigma, rel=1e-9)


def test_uniqueness_probe_singleton_and_small():
    cfg = SolverConfig(K=1.0)
    one = uniqueness_probe(cfg, KERNEL, NL, n_starts=1, seed=3)
    assert one.n_converged == 1
    # one converged start has no pair to compare
    assert one.max_l2_distance is None and one.max_sigma_gap is None
    assert one.sigmas == (one.entries[0].solution.sigma,)
    assert one.supports_conjecture
    two = uniqueness_probe(cfg, KERNEL, NL, n_starts=2, seed=3)
    assert two.n_converged == 2
    assert two.max_l2_distance <= 1e-6
    assert two.supports_conjecture
    with pytest.raises(ValueError):
        uniqueness_probe(cfg, KERNEL, NL, n_starts=0)


@pytest.mark.parametrize("distance_tol", [-1.0, 0.0, np.inf, np.nan])
def test_uniqueness_probe_rejects_a_distance_tol_outside_0_inf(monkeypatch, distance_tol):
    # a tolerance of 0 asks for bit-identical limits, a negative one is never
    # met and an infinite one always is: the probe fails before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(solver, "attempt", no_solve)
    with pytest.raises(ValueError, match="distance_tol"):
        uniqueness_probe(SolverConfig(K=1.0), KERNEL, NL, n_starts=2,
                         distance_tol=distance_tol)


def test_save_solution_round_trip(tmp_path, reference_solution):
    save_solution(reference_solution, tmp_path)
    payload = json.loads((tmp_path / "solution.json").read_text())
    assert payload["sigma"] == reference_solution.sigma
    assert payload["converged"] is True
    for name, profile in (("V.csv", reference_solution.V), ("U.csv", reference_solution.U)):
        x, values = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1, unpack=True)
        assert np.array_equal(x, profile.grid.nodes)
        assert np.array_equal(values, profile.samples)
    d = solution_to_dict(reference_solution)
    assert d["K"] == 1.0 and d["iterations"] == reference_solution.iterations
