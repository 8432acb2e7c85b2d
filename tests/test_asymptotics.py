"""Tail decay, modified kernels, and the two limiting regimes."""

import math
import re
from dataclasses import fields

import numpy as np
import pytest

from nleig import (
    BlowUpBounded,
    HighEnergyGridPolicy,
    KdvGridPolicy,
    Kernel,
    KernelAssumptionError,
    KernelSpec,
    Nonlinearity,
    NonPositiveTailError,
    SolverConfig,
    SymbolPoleError,
    UnderResolvedError,
    check_kdv_assumption,
    decay_rate_theory,
    decay_report,
    eta0_predicted,
    exp_nonlinearity,
    fit_tail_rate,
    gaussian_kernel,
    high_energy_experiment,
    indicator_kernel,
    kdv_experiment,
    kdv_predicted_d0,
    kdv_profile,
    kernel_from_samples,
    make_grid,
    Profile,
    modified_kernel_ac,
    quadratic_nonlinearity,
    singular_nonlinearity,
    solve,
    spectral_ode_kernel,
    two_bump_kernel,
)
from oracles import bisect, riemann


# ---------------------------------------------------------------------------
# predicted leading coefficient and limit wave of the small-K regime


def test_kdv_predicted_d0_closed_forms():
    # unit alpha and beta with the indicator curvature 1/12 gives (4/3)^(1/3)
    assert kdv_predicted_d0(1.0, 1.0, -1.0 / 12.0) == pytest.approx(
        (4.0 / 3.0) ** (1.0 / 3.0), rel=1e-12
    )
    assert kdv_predicted_d0(1.0, 1.0, -1.0) == pytest.approx(3.0 ** (-2.0 / 3.0), rel=1e-12)
    # homogeneity in (alpha, beta)
    base = kdv_predicted_d0(1.0, 1.0, -1.0)
    assert kdv_predicted_d0(2.0, 3.0, -1.0) == pytest.approx(
        3.0 ** (4.0 / 3.0) * 2.0 ** (-1.0 / 3.0) * base, rel=1e-12
    )
    with pytest.raises(ValueError):
        kdv_predicted_d0(-1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        kdv_predicted_d0(1.0, 1.0, 0.5)


def test_kdv_profile_shape():
    assert kdv_profile(0.4, 0.8, np.array([0.0]))[0] == pytest.approx(1.5 * 0.4 / 0.8)
    xs = np.linspace(-8.0, 8.0, 101)
    vals = kdv_profile(0.3, 0.7, xs)
    assert np.allclose(vals, vals[::-1], atol=1e-15)
    assert np.all(vals > 0)
    # huge arguments underflow cleanly instead of overflowing
    assert kdv_profile(1.0, 1.0, np.array([1e4]))[0] == 0.0


def test_kdv_profile_solves_the_limit_ode():
    kappa1, kappa2 = 0.19078571, 0.5
    h = 1e-3
    xs = np.arange(-12.0, 12.0, h)
    u = kdv_profile(kappa1, kappa2, xs)
    upp = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    residual = upp - kappa1 * u[1:-1] + kappa2 * u[1:-1] ** 2
    assert np.max(np.abs(residual)) <= 1e-8


def test_kdv_limit_wave_mass_identity():
    # (1/2)||U0||^2 = 1 whenever kappa1, kappa2 derive from the d0 formula
    for alpha, beta, bpp in [(1.0, 1.0, -1.0), (1.0, 0.5, -1.0), (2.0, 3.0, -0.25)]:
        d0 = kdv_predicted_d0(alpha, beta, bpp)
        kappa1 = d0 / (alpha * abs(bpp))
        kappa2 = beta / (alpha * abs(bpp))
        h = 1e-3
        xs = np.arange(-400.0, 400.0, h)
        u0 = kdv_profile(kappa1, kappa2, xs)
        assert 0.5 * h * np.sum(u0 * u0) == pytest.approx(1.0, abs=1e-6)


def test_kdv_assumption_gate():
    g = make_grid(25.0, 2048)
    assert check_kdv_assumption(gaussian_kernel(g)) > 0
    assert check_kdv_assumption(indicator_kernel(g)) > 0
    assert check_kdv_assumption(spectral_ode_kernel(make_grid(25.0, 4096))) > 0
    # widely separated bumps put too much weight at high frequencies
    with pytest.raises(KernelAssumptionError,
                       match=r"^kernel fails the small-K symbol bounds: bhat\^2 exceeds"):
        check_kdv_assumption(two_bump_kernel(g, width=0.6, separation=6.0))
    # a spike of mass 2 has bhat = 2 at every k, so 1 - bhat^2 < 0 everywhere
    spike = np.zeros(g.point_count)
    spike[g.point_count // 2] = 2.0 / g.spacing
    with pytest.raises(KernelAssumptionError) as err:
        check_kdv_assumption(kernel_from_samples(g, spike, normalize=False))
    assert str(err.value) == ("kernel fails the small-K symbol bounds: "
                              "no positive curvature constant near k = 0")


def test_kdv_grid_policy():
    policy = KdvGridPolicy()
    g = policy.grid_for(0.1, 1.0)
    assert g.half_period == 300.0
    assert g.point_count & (g.point_count - 1) == 0  # power of two
    assert g.spacing <= 1.0 / 8.0
    # the floor takes over for moderate eps
    assert policy.grid_for(5.0, 1.0).half_period == 25.0
    with pytest.raises(ValueError):
        policy.grid_for(1e-4, 1.0)  # beyond the point cap


def test_kdv_experiment_single_eps_smoke():
    res = kdv_experiment(
        KernelSpec(kind="gaussian", width=1.0), exp_nonlinearity(), [0.25],
        tol_residual=1e-9,
    )
    assert [e.error for e in res.entries] == [None]
    row = res.rows[0]
    # beta enters the limit through the r^2 Taylor coefficient beta/2
    assert res.predictors["d0"] == pytest.approx(12.0 ** (-2.0 / 3.0), rel=1e-4)
    assert res.predictors["kappa2"] == pytest.approx(0.5, rel=1e-4)
    assert row.sigma > 1.0
    assert row.d_ratio == pytest.approx(res.predictors["d0"], rel=0.05)
    assert row.profile_err < 0.05
    assert res.predictors["limit_amplitude"] == pytest.approx(
        1.5 * res.predictors["kappa1"] / res.predictors["kappa2"], rel=1e-10
    )


def test_kdv_experiment_input_validation():
    spec = KernelSpec(kind="gaussian", width=1.0)
    nl = exp_nonlinearity()
    with pytest.raises(ValueError, match="eps list is empty"):
        kdv_experiment(spec, nl, [])
    with pytest.raises(ValueError):
        kdv_experiment(spec, nl, [0.1, 0.2])
    with pytest.raises(ValueError):
        kdv_experiment(spec, nl, [0.2, -0.1])
    with pytest.raises(KernelAssumptionError):
        kdv_experiment(KernelSpec(kind="two_bump", width=0.6, separation=6.0), nl, [0.2])


def test_kdv_experiment_records_a_raising_solve():
    # a domain far below the wave's amplitude makes the first energy
    # evaluation raise inside the solve
    capped = Nonlinearity(
        kind="capped-probe", alpha=1.0, beta=1.0, f=np.expm1, f_prime=np.exp,
        antiderivative=lambda r: np.expm1(r) - r, sup_domain=1e-9,
    )
    res = kdv_experiment(KernelSpec(kind="gaussian", width=1.0), capped, [0.25])
    assert [e.solution for e in res.entries] == [None]
    assert res.entries[0].error.startswith("DomainBreachError")
    row = res.rows[0]
    assert row.eps == 0.25
    assert all(math.isnan(v) for v in (row.sigma, row.d_ratio, row.profile_err))


@pytest.mark.parametrize(
    "experiment, args, message",
    [
        (kdv_experiment, (exp_nonlinearity(), [0.2, 0.01]),
         "eps = 0.01 needs 65536 points, above the cap 32768"),
        (high_energy_experiment, (singular_nonlinearity(4.0), [0.3, 0.001]),
         "delta = 0.001 needs 65536 points, above the cap 32768"),
    ],
    ids=["kdv", "high-energy"],
)
def test_oversized_family_grid_fails_before_any_solve(monkeypatch, experiment, args,
                                                      message):
    convolutions = []
    convolve = Kernel.convolve

    def counted(self, w):
        convolutions.append(w.grid.point_count)
        return convolve(self, w)

    monkeypatch.setattr(Kernel, "convolve", counted)
    with pytest.raises(ValueError, match=re.escape(message)):
        experiment(KernelSpec(kind="gaussian", width=1.0), *args)
    assert convolutions == []


def test_kdv_experiment_records_per_eps_failures():
    res = kdv_experiment(
        KernelSpec(kind="gaussian", width=1.0), exp_nonlinearity(), [0.25],
        max_iter=1,
    )
    assert res.entries[0].error is not None
    assert "convergence" in res.entries[0].error
    assert math.isnan(res.rows[0].d_ratio)
    assert math.isfinite(res.rows[0].sigma)  # the row keeps the last sigma


# ---------------------------------------------------------------------------
# tail decay rates


def test_decay_rate_ode_closed_form():
    k = spectral_ode_kernel(make_grid(25.0, 4096))
    # squared moment M = 1/(1 - lambda^2); at sigma/alpha = 2 the root is
    # sqrt(1/2)
    lam = decay_rate_theory(k, 2.0, 1.0)
    assert lam == pytest.approx(math.sqrt(0.5), abs=1e-8)
    assert decay_rate_theory(k, 1.0001, 1.0) < 0.02
    assert decay_rate_theory(k, 1.5, 1.0) < decay_rate_theory(k, 3.0, 1.0)
    with pytest.raises(ValueError):
        decay_rate_theory(k, 0.99, 1.0)


def test_decay_rate_indicator_vs_bisection_oracle():
    k = indicator_kernel(make_grid(25.0, 2000))
    target = 10.0
    lam = decay_rate_theory(k, 10.0, 1.0)
    oracle = bisect(
        lambda l: (2.0 * math.sinh(0.5 * l) / l) ** 2 - target, 1e-6, 50.0
    )
    assert lam == pytest.approx(oracle, rel=1e-10)


def test_decay_rate_grid_moment_fallback():
    g = make_grid(25.0, 2000)
    closed = gaussian_kernel(g)
    sampled = kernel_from_samples(g, closed.profile.samples)
    assert sampled.exp_moment is None
    lam_closed = decay_rate_theory(closed, 1.5, 1.0)
    lam_grid = decay_rate_theory(sampled, 1.5, 1.0)
    assert lam_grid == pytest.approx(lam_closed, rel=1e-6)


def test_decay_rate_blow_up_bounded_at_finite_abscissa():
    g = make_grid(20.0, 1024)
    samples = np.exp(-np.abs(g.nodes))
    k = kernel_from_samples(
        g, samples,
        exp_moment=lambda lam: 2.0 - math.sqrt(max(1.0 - lam, 0.0)),
        moment_abscissa=1.0,
    )
    lam = decay_rate_theory(k, 1.5, 1.0)
    assert lam == pytest.approx(1.0 - (2.0 - math.sqrt(1.5)) ** 2, rel=1e-10)
    out = decay_rate_theory(k, 5.0, 1.0)
    assert isinstance(out, BlowUpBounded)
    assert out.lambda_max == 1.0


def test_decay_rate_finds_a_large_root_of_a_moment_finite_everywhere():
    # M(lambda) = exp(w^2 lambda^2) passes 1e12 below the root, which a cap on
    # the moment would have read as a blow-up at lambda = 4
    k = gaussian_kernel(make_grid(25.0, 2000), width=1.34)
    lam = decay_rate_theory(k, 1e13, 1.0)
    assert lam == pytest.approx(math.sqrt(math.log(1e13)) / 1.34, rel=1e-12)


def test_decay_rate_blow_up_bounded_when_a_moment_finite_everywhere_stays_low():
    g = make_grid(20.0, 1024)
    k = kernel_from_samples(g, np.exp(-np.abs(g.nodes)), exp_moment=lambda lam: 1.5,
                            moment_abscissa=math.inf)
    assert decay_rate_theory(k, 2.0, 1.0) < 1e-13  # M = 2.25 > 2 from lambda = 0 on
    assert decay_rate_theory(k, 5.0, 1.0) == BlowUpBounded(1e9)


def test_fit_tail_rate_synthetic():
    g = make_grid(20.0, 1024)
    exp2 = Profile(g, np.exp(-2.0 * np.abs(g.nodes)))
    rate, r2, window = fit_tail_rate(exp2)
    assert rate == pytest.approx(2.0, abs=1e-6)
    assert r2 > 0.999999
    assert window == (10.0, 16.0)
    # algebraic decay is flagged by a visibly lower r^2
    alg = Profile(g, (1.0 + np.abs(g.nodes)) ** -3)
    _, r2_alg, _ = fit_tail_rate(alg)
    assert r2_alg < 0.999
    # window override
    rate, _, window = fit_tail_rate(exp2, window=(0.3, 0.6))
    assert window == (6.0, 12.0)
    assert rate == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(ValueError):
        fit_tail_rate(exp2, window=(0.8, 0.5))
    tent = Profile(g, np.maximum(0.0, 1.0 - np.abs(g.nodes)))
    with pytest.raises(NonPositiveTailError):
        fit_tail_rate(tent)


def test_modified_kernel_ode_symbol_closed_form():
    g = make_grid(25.0, 4096)
    k = spectral_ode_kernel(g)
    c = 0.3
    a_c = modified_kernel_ac(k, c)
    # symbol of a_c is 1/((1-c) + k^2); check by transforming back
    sym = g.spacing * np.fft.rfft(np.fft.ifftshift(a_c.samples)).real
    expected = 1.0 / ((1.0 - c) + g.rfft_frequencies**2)
    assert np.max(np.abs(sym - expected)) <= 1e-12
    assert np.all(a_c.samples > 0)
    with pytest.raises(SymbolPoleError):
        modified_kernel_ac(k, 1.0)


def test_modified_kernel_small_c_continuity():
    g = make_grid(25.0, 2000)
    k = gaussian_kernel(g)
    a = k.convolve(k.profile)
    for c, bound in [(1e-8, 1e-8), (1e-12, 1e-10)]:
        a_c = modified_kernel_ac(k, c)
        assert np.max(np.abs(a_c.samples - a.samples)) <= bound


def test_decay_report_on_ode_oracle():
    g = make_grid(40.0, 4096)
    k = spectral_ode_kernel(g)
    nl = quadratic_nonlinearity(1.0, 2.0)
    sol = solve(SolverConfig(K=0.95), k, nl)
    assert sol.converged
    report = decay_report(k, nl, sol)
    assert report.c == pytest.approx(0.5 * (nl.alpha / sol.sigma + 1.0))
    assert report.fit_r2 > 0.999
    assert report.lambda_fit == pytest.approx(report.lambda_theory, rel=0.05)
    # the modified kernel dominates the eigenfunction tail on the whole grid
    ratio = report.a_c.samples / sol.U.samples
    assert np.min(ratio) > 0


def test_decay_report_rejects_c_outside_the_admissible_interval():
    g = make_grid(20.0, 256)
    k = spectral_ode_kernel(g)
    nl = quadratic_nonlinearity(1.0, 2.0)
    sol = solve(SolverConfig(K=0.95, tol_residual=1e-5), k, nl)
    lower = nl.alpha / sol.sigma
    for c in (lower, 0.5 * lower, -1.0, 1.0):
        with pytest.raises(ValueError, match=r"\(alpha/sigma, 1\)"):
            decay_report(k, nl, sol, c=c)
    assert decay_report(k, nl, sol, c=0.5 * (lower + 1.0)).c == 0.5 * (lower + 1.0)


# ---------------------------------------------------------------------------
# high-energy limit


def test_eta0_closed_form_m4():
    # Gamma(4.5)/Gamma(5) = 6.5625 sqrt(pi) / 24
    ratio = 6.5625 * math.sqrt(math.pi) / 24.0
    assert eta0_predicted(1.0, -1.0, 4.0) == pytest.approx(
        math.sqrt(2.0 * math.pi) * ratio, rel=1e-12
    )
    # scaling in a0 and a''(0)
    assert eta0_predicted(4.0, -1.0, 4.0) == pytest.approx(
        8.0 * eta0_predicted(1.0, -1.0, 4.0), rel=1e-12
    )
    assert eta0_predicted(1.0, -4.0, 4.0) == pytest.approx(
        0.5 * eta0_predicted(1.0, -1.0, 4.0), rel=1e-12
    )
    with pytest.raises(ValueError):
        eta0_predicted(0.0, -1.0, 4.0)
    with pytest.raises(ValueError):
        eta0_predicted(1.0, 0.0, 4.0)
    with pytest.raises(ValueError, match="m must be positive"):
        eta0_predicted(1.0, -1.0, 0.0)


def test_eta0_gamma_ratio_stirling_tail():
    # Gamma(m + 1/2)/Gamma(m + 1) approaches m^(-1/2)
    eta = eta0_predicted(1.0, -1.0, 100.0)
    ratio = eta / math.sqrt(2.0 * math.pi)
    assert ratio == pytest.approx(100.0 ** -0.5, rel=0.01)


def test_high_energy_grid_policy():
    policy = HighEnergyGridPolicy()
    fine = policy.grid_for(0.02, 1.0)
    coarse = policy.grid_for(0.3, 1.0)
    assert fine.spacing < coarse.spacing
    assert fine.half_period == coarse.half_period == 25.0
    with pytest.raises(ValueError):
        policy.grid_for(1e-7, 1.0)


def test_high_energy_experiment_smoke():
    res = high_energy_experiment(KernelSpec(kind="gaussian", width=1.0),
                                 singular_nonlinearity(4.0), [0.3])
    assert [e.error for e in res.entries] == [None]
    row = res.rows[0]
    assert row.K == pytest.approx(0.7 * res.predictors["k_max"], rel=1e-12)
    assert 0.0 < row.eps_delta < 1.0
    assert row.eta == pytest.approx(row.sigma * row.eps_delta**4.5, rel=1e-12)
    assert row.sup_err < 0.2
    assert res.predictors["eta0"] == pytest.approx(
        eta0_predicted(res.predictors["a0"], res.predictors["a_pp0"], 4.0)
    )


def test_high_energy_rejects_rough_autocorrelation():
    for spec in (KernelSpec(kind="indicator"), KernelSpec(kind="ode")):
        with pytest.raises(KernelAssumptionError) as err:
            high_energy_experiment(spec, singular_nonlinearity(4.0), [0.3])
        assert "autocorrelation" in str(err.value)


def test_high_energy_input_validation():
    spec = KernelSpec(kind="gaussian", width=1.0)
    with pytest.raises(ValueError, match="delta list is empty"):
        high_energy_experiment(spec, singular_nonlinearity(4.0), [])
    with pytest.raises(ValueError):
        high_energy_experiment(spec, singular_nonlinearity(4.0), [0.1, 0.2])
    with pytest.raises(ValueError):
        high_energy_experiment(spec, singular_nonlinearity(4.0), [1.5])


@pytest.mark.parametrize(
    "policy, point, scale, message",
    [
        (KdvGridPolicy(), 0.0, 1.0, "eps = 0 must be positive"),
        (KdvGridPolicy(), math.inf, 1.0, "eps = inf needs spacing 0 at half period 25"),
        (KdvGridPolicy(), 1e308, 1.0, "eps = 1e+308 needs spacing 6.25e-310"),
        (KdvGridPolicy(), 0.1, 0.0, "eps = 0.1 needs spacing 0 at half period 300"),
        (KdvGridPolicy(l_floor=math.inf), 0.1, 1.0, "eps = 0.1 needs spacing 0.125 at half period inf"),
        (HighEnergyGridPolicy(), 0.0, 1.0, "delta = 0 must lie in (0, 1)"),
        (HighEnergyGridPolicy(peak_fraction=0.0), 0.1, 1.0, "delta = 0.1 needs spacing 0 at half period 25"),
        (HighEnergyGridPolicy(half_period=1e308), 0.1, 1.0,
         "delta = 0.1 needs spacing 0.0139754 at half period 1e+308"),
    ],
)
def test_family_grid_sizing_names_the_point(policy, point, scale, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        policy.grid_for(point, scale)


@pytest.mark.parametrize(
    "experiment, nl, policy",
    [(kdv_experiment, exp_nonlinearity(), KdvGridPolicy(l_floor=0.01, l_over_eps=0.001)),
     (high_energy_experiment, singular_nonlinearity(4.0), HighEnergyGridPolicy(half_period=0.01))],
    ids=["kdv", "high-energy"],
)
def test_family_grid_has_at_least_8_points(experiment, nl, policy):
    # a half period of 0.01 needs under one point at spacing 1/8: the grid
    # takes make_grid's 8, and the kernel's own gate names the real condition
    grid = policy.grid_for(0.5, 1.0)
    assert type(grid.point_count) is int and grid.point_count == 8
    with pytest.raises(UnderResolvedError,
                       match=re.escape("half period 0.01 below 8, the bump centre plus 8*width")):
        experiment(KernelSpec(kind="gaussian", width=1.0), nl, [0.5], policy=policy)


def test_eta0_beyond_the_gamma_range_is_a_value_error():
    with pytest.raises(ValueError, match="m = 1e\\+308"):
        eta0_predicted(1.0, -1.0, 1e308)


@pytest.mark.parametrize(
    "experiment, args, point_K",
    [(kdv_experiment, (exp_nonlinearity(), [0.4, 0.3]), lambda row: row.eps**3),
     (high_energy_experiment, (singular_nonlinearity(4.0), [0.3, 0.2]), lambda row: row.K)],
    ids=["kdv", "high-energy"],
)
def test_family_builds_each_point_kernel_once(monkeypatch, experiment, args, point_K):
    built = []
    build = KernelSpec.build

    def counted(self, grid):
        built.append(grid)
        return build(self, grid)

    monkeypatch.setattr(KernelSpec, "build", counted)
    res = experiment(KernelSpec(kind="gaussian", width=1.0), *args, max_iter=2)
    assert len(built) == 2
    # one entry per row, at the row's K
    assert len(res.entries) == len(res.rows) == 2
    assert [e.K for e in res.entries] == [point_K(row) for row in res.rows]
    # neither point converges in 2 steps: each row keeps its sigma, NaN beyond
    for entry, row in zip(res.entries, res.rows):
        assert "no convergence in 2 iterations" in entry.error
        assert row.sigma == entry.solution.sigma
        names = [f.name for f in fields(row)]
        assert all(math.isnan(getattr(row, name)) for name in names[names.index("sigma") + 1:])


def test_high_energy_rejects_a_regular_nonlinearity_before_any_build(monkeypatch):
    built = []
    build = KernelSpec.build

    def counted(self, grid):
        built.append(grid)
        return build(self, grid)

    monkeypatch.setattr(KernelSpec, "build", counted)
    with pytest.raises(ValueError, match=re.escape(
            "high-energy requires the singular nonlinearity (kind 'singular')")):
        high_energy_experiment(KernelSpec(kind="gaussian", width=1.0), exp_nonlinearity(),
                               [0.3])
    assert built == []
