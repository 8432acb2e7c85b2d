"""Kernel construction, metadata anchors, and validation gates."""

import math

import numpy as np
import pytest

from nleig import (
    KernelSpec,
    NumericalOverflowError,
    Profile,
    UnderResolvedError,
    gaussian_kernel,
    indicator_kernel,
    kernel_from_samples,
    kernel_spec_from_config,
    make_grid,
    spectral_ode_kernel,
    two_bump_kernel,
    validate_kernel,
)
from oracles import riemann

G = make_grid(25.0, 2000)  # h = 0.025; x = 1 and x = 1/2 are grid nodes


def test_gaussian_metadata_closed_forms():
    k = gaussian_kernel(G, width=1.0)
    assert k.mass == pytest.approx(1.0, abs=1e-12)
    assert k.second_moment == pytest.approx(1.0, abs=1e-10)
    # a(0) = integral of b^2 = 1/(2 sqrt(pi)) for a unit Gaussian
    assert k.a0 == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-12)
    assert k.a_pp0 == pytest.approx(-k.a0 / 2.0, rel=1e-8)
    assert k.k_max_norm == pytest.approx(1.0 / (2.0 * k.a0), rel=1e-12)
    # curvature of the symbol at k = 0 equals minus the second moment
    assert k.bhat_pp0 == pytest.approx(-1.0, rel=1e-6)
    assert k.a_smooth and not k.spectral
    # closed-form exponential moment exp(lambda^2/2) vs direct quadrature
    lam = 1.3
    direct = riemann(k.profile.samples * np.exp(lam * G.nodes), G.spacing)
    assert k.exp_moment(lam) == pytest.approx(math.exp(lam * lam / 2.0), rel=1e-12)
    assert direct == pytest.approx(k.exp_moment(lam), rel=1e-10)


@pytest.mark.parametrize("build, smooth", [
    (lambda: gaussian_kernel(G), True),
    (lambda: indicator_kernel(G), False),
    (lambda: spectral_ode_kernel(G), False),
    (lambda: two_bump_kernel(G), True),
    (lambda: kernel_from_samples(G, np.exp(-np.abs(G.nodes))), False),
], ids=["gaussian", "indicator", "ode", "two_bump", "from_samples"])
def test_derived_constants_follow_the_profile_and_moments(build, smooth):
    k = build()
    samples = k.profile.samples
    assert k.mass == float(G.spacing * np.sum(samples))
    assert k.a0 == float(G.spacing * np.sum(samples**2))
    assert k.k_max_norm == 1.0 / (2.0 * k.a0)
    assert k.bhat_pp0 == -k.second_moment
    assert k.a_smooth == math.isfinite(k.a_pp0) == smooth


def test_gaussian_width_scaling():
    k = gaussian_kernel(G, width=2.0)
    assert k.second_moment == pytest.approx(4.0, rel=1e-10)
    assert k.a0 == pytest.approx(1.0 / (4.0 * math.sqrt(math.pi)), rel=1e-12)
    assert k.exp_moment(0.7) == pytest.approx(math.exp(4.0 * 0.49 / 2.0), rel=1e-12)


def test_gaussian_resolution_gates():
    with pytest.raises(UnderResolvedError):
        gaussian_kernel(make_grid(25.0, 64), width=1.0)  # h too coarse
    with pytest.raises(UnderResolvedError):
        gaussian_kernel(make_grid(4.0, 2048), width=1.0)  # domain too short
    with pytest.raises(ValueError):
        gaussian_kernel(G, width=-1.0)


def test_kernel_from_samples_rebuilds_the_gaussian_bit_for_bit():
    built = gaussian_kernel(G, width=1.0)
    samples = np.exp(-(G.nodes**2) / 2.0)
    rebuilt = kernel_from_samples(G, samples, label=built.label, a_smooth=True,
                                  exp_moment=built.exp_moment)
    assert np.array_equal(rebuilt.profile.samples, built.profile.samples)
    assert np.array_equal(rebuilt.symbol, built.symbol)
    assert rebuilt.second_moment == built.second_moment
    assert rebuilt.a_pp0 == built.a_pp0
    assert math.isnan(kernel_from_samples(G, samples).a_pp0)


def test_two_bump_resolution_gates():
    # the half period holds the bump centre plus 8 widths: 6 + 8 * 0.6
    with pytest.raises(UnderResolvedError, match=r"half period 10 below 10\.8"):
        two_bump_kernel(make_grid(10.0, 2048), width=0.6, separation=6.0)
    with pytest.raises(UnderResolvedError, match="exceeds width/4"):
        two_bump_kernel(make_grid(25.0, 256), width=0.6, separation=6.0)
    with pytest.raises(ValueError, match="width must be positive"):
        two_bump_kernel(G, width=0.0)
    with pytest.raises(ValueError, match="separation must be positive"):
        two_bump_kernel(G, separation=-1.0)


def test_indicator_metadata():
    k = indicator_kernel(G)
    # midpoint values at |x| = 1/2 make the Riemann mass exactly 1
    assert k.mass == pytest.approx(1.0, abs=1e-13)
    center = G.point_count // 2
    jump = int(round(0.5 / G.spacing))
    assert k.profile.samples[center + jump] == pytest.approx(0.5)
    assert k.profile.samples[center] == pytest.approx(1.0)
    # midpoint sampling shifts the discrete second moment by exactly h^2/6
    assert k.second_moment == pytest.approx(1.0 / 12.0 + G.spacing**2 / 6.0, rel=1e-10)
    # a(0) for the sampled indicator is 1 - h/2, first-order in h
    assert k.a0 == pytest.approx(1.0 - G.spacing / 2.0, abs=1e-12)
    assert not k.a_smooth
    # exponential moment 2 sinh(lambda/2)/lambda
    lam = 2.0
    assert k.exp_moment(lam) == pytest.approx(2.0 * math.sinh(1.0) / 2.0, rel=1e-4)
    assert k.exp_moment(0.0) == 1.0  # the limit, not 0/0


def test_indicator_cell_averages_converge_where_no_node_meets_an_edge():
    # edge-node sampling leaves 1.69e-4 and 1.64e-4 on these grids
    kernels = [indicator_kernel(make_grid(25.0, n)) for n in (8192, 16384)]
    errors = [abs(k.second_moment - 1.0 / 12.0) for k in kernels]
    assert errors[0] < 1e-5
    assert errors[1] < errors[0] / 3.0  # second order: a quarter per halved h
    for k in kernels:
        assert k.mass == pytest.approx(1.0, abs=1e-12)


def test_indicator_autocorrelation_is_tent():
    k = indicator_kernel(G)
    a = k.convolve(k.profile)
    tent = np.maximum(0.0, 1.0 - np.abs(G.nodes))
    assert np.max(np.abs(a.samples - tent)) <= G.spacing


def test_spectral_ode_kernel_symbol_and_tail():
    g = make_grid(25.0, 4096)
    k = spectral_ode_kernel(g)
    expected = 1.0 / np.sqrt(1.0 + g.rfft_frequencies**2)
    assert np.max(np.abs(k.symbol - expected)) <= 1e-14
    assert k.mass == pytest.approx(1.0, abs=1e-14)
    assert k.spectral and not k.a_smooth
    assert math.isnan(k.a_pp0)
    # autocorrelation a = b*b has symbol 1/(1+k^2), i.e. a(x) = exp(-|x|)/2
    a = k.convolve(k.profile)
    x1 = g.point_count // 2 + int(round(1.0 / g.spacing))
    assert a.samples[x1] / a.value_at_zero() == pytest.approx(math.exp(-1.0), abs=1e-3)
    # second moment of b is 1 (half that of a, whose symbol curvature is -2)
    assert k.second_moment == 1.0
    assert k.bhat_pp0 == pytest.approx(-1.0, abs=1e-3)
    # the moment 1/sqrt(1 - lam^2) diverges at the abscissa |lam| = 1
    assert k.exp_moment(0.6) == pytest.approx(1.25, rel=1e-15)
    assert k.exp_moment(1.0) == k.exp_moment(-2.0) == math.inf
    # far-field samples decay essentially to zero (ringing stays tiny)
    far = np.abs(k.profile.samples[:g.point_count // 8])
    assert np.max(far) <= 1e-6
    # exponential moment (1 - lambda^2)^(-1/2) below the abscissa at 1
    assert k.moment_abscissa == pytest.approx(1.0)
    assert k.exp_moment(0.6) == pytest.approx((1.0 - 0.36) ** -0.5, rel=1e-12)


def test_spectral_ode_kernel_needs_fine_grid():
    with pytest.raises(UnderResolvedError):
        spectral_ode_kernel(make_grid(25.0, 128))


def test_indicator_resolution_gates():
    with pytest.raises(UnderResolvedError, match="exceeds 1/8"):
        indicator_kernel(make_grid(25.0, 256))  # h = 0.195
    with pytest.raises(UnderResolvedError, match="half period below 2"):
        indicator_kernel(make_grid(1.5, 256))


def test_two_bump_fails_only_unimodality():
    k = two_bump_kernel(G, width=0.6, separation=6.0)
    assert k.mass == pytest.approx(1.0, abs=1e-12)
    report = validate_kernel(k)
    assert not report.passed
    assert report.cone_checked
    assert any("unimodal" in f for f in report.failures)
    assert report.cone.even_deviation <= 1e-12
    assert report.cone.min_value >= 0.0


def test_validate_kernel_accepts_standard_kernels():
    for kernel in (gaussian_kernel(G), indicator_kernel(G)):
        report = validate_kernel(kernel)
        assert report.passed, report.failures
        assert report.cone_checked


def test_validate_kernel_skips_cone_for_spectral():
    k = spectral_ode_kernel(make_grid(25.0, 4096))
    report = validate_kernel(k)
    assert report.passed, report.failures
    assert not report.cone_checked
    assert report.cone is None


def test_validate_kernel_flags_negative_dip():
    samples = np.exp(-G.nodes**2) - 0.2 * np.exp(-((G.nodes - 2.0) ** 2))
    k = kernel_from_samples(G, samples, normalize=False)
    report = validate_kernel(k)
    assert not report.passed
    assert any("nonnegativity" in f for f in report.failures)


def test_kernel_from_samples_normalization_and_moment_hooks():
    samples = np.exp(-np.abs(G.nodes))
    k = kernel_from_samples(G, 3.0 * samples)
    assert k.mass == pytest.approx(1.0, abs=1e-12)
    raw = kernel_from_samples(G, 3.0 * samples, normalize=False)
    assert raw.mass == pytest.approx(riemann(3.0 * samples, G.spacing), rel=1e-12)
    hooked = kernel_from_samples(
        G, samples, exp_moment=lambda lam: 1.0 / (1.0 - lam), moment_abscissa=1.0
    )
    assert hooked.exp_moment(0.5) == 2.0
    assert hooked.moment_abscissa == 1.0
    with pytest.raises(ValueError, match="mass must be positive"):
        kernel_from_samples(G, -samples)


def test_kernel_spec_round_trip_and_errors():
    for spec in (
        KernelSpec(kind="gaussian", width=1.5),
        KernelSpec(kind="indicator"),
        KernelSpec(kind="ode"),
        KernelSpec(kind="two_bump", width=0.6, separation=6.0),
    ):
        again = kernel_spec_from_config(spec.to_config())
        assert again == spec
        grid = make_grid(25.0, 4096)
        kernel = spec.build(grid)
        assert kernel.grid == grid
    with pytest.raises(ValueError):
        kernel_spec_from_config({"kind": "sinc"})
    with pytest.raises(ValueError):
        kernel_spec_from_config({"kind": "gaussian", "sep": 3.0})
    with pytest.raises(ValueError):
        kernel_spec_from_config({"width": 1.0})
    # a parameter of another kind is rejected, not ignored
    for cfg in (
        {"kind": "ode", "width": 5.0},
        {"kind": "indicator", "width": 1.0},
        {"kind": "gaussian", "separation": 3.0},
    ):
        with pytest.raises(ValueError, match="takes no"):
            kernel_spec_from_config(cfg)
    # the kind is a string
    with pytest.raises(ValueError, match="kind in kernel section"):
        kernel_spec_from_config({"kind": ["gaussian"]})


def test_convolve_preserves_mass():
    k = gaussian_kernel(G)
    w = Profile(G, np.exp(-0.5 * G.nodes * G.nodes))
    out = k.convolve(w)
    assert riemann(out.samples, G.spacing) == pytest.approx(
        riemann(w.samples, G.spacing), rel=1e-12
    )
    # convolving the zero profile stays zero
    assert np.all(k.convolve(Profile(G, np.zeros(G.point_count))).samples == 0.0)


def test_convolve_overflow_is_a_named_error():
    k = gaussian_kernel(G)
    huge = Profile(G, np.full(G.point_count, 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalOverflowError):
            k.convolve(huge)
