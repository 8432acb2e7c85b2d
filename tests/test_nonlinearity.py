"""Nonlinearity families: values, derivatives, domain guards, convexity."""

import math

import numpy as np
import pytest

from nleig import (
    DomainBreachError,
    Nonlinearity,
    SuperlinearityReport,
    check_superlinearity,
    exp_nonlinearity,
    nonlinearity_from_config,
    nonlinearity_to_config,
    quadratic_nonlinearity,
    singular_nonlinearity,
)


def fd(fn, r, t=1e-7):
    return (fn(r + t) - fn(r - t)) / (2.0 * t)


def test_exp_values_and_derivatives():
    nl = exp_nonlinearity()
    assert nl.kind == "exp"
    assert nl.alpha == 1.0 and nl.beta == 1.0
    assert nl.f(1.0) == pytest.approx(np.e - 1.0, rel=1e-15)
    assert nl.f(0.0) == 0.0
    # tiny arguments keep full precision through expm1
    assert nl.f(1e-12) == pytest.approx(1e-12, rel=1e-10)
    for r in (0.1, 1.0, 3.0):
        assert nl.f_prime(r) == pytest.approx(fd(nl.f, r), rel=1e-7)
        assert nl.f(r) == pytest.approx(fd(nl.F, r), rel=1e-7)


def test_quadratic_values():
    nl = quadratic_nonlinearity(1.0, 2.0)
    # f(r) = alpha r + (beta/2) r^2 so that f''(0) = beta
    assert nl.f(2.0) == pytest.approx(1.0 * 2.0 + 1.0 * 4.0)
    assert nl.f_prime(0.0) == pytest.approx(1.0)
    assert fd(nl.f_prime, 0.0) == pytest.approx(2.0, rel=1e-6)
    assert nl.F(2.0) == pytest.approx(0.5 * 4.0 + (2.0 / 6.0) * 8.0)
    with pytest.raises(ValueError):
        quadratic_nonlinearity(0.0, 1.0)
    with pytest.raises(ValueError):
        quadratic_nonlinearity(1.0, -1.0)


@pytest.mark.parametrize(
    "factory, args, name",
    [(quadratic_nonlinearity, (math.inf, 1.0), "alpha"),
     (quadratic_nonlinearity, (1.0, math.inf), "beta"),
     (quadratic_nonlinearity, (math.nan, 1.0), "alpha"),
     (singular_nonlinearity, (math.inf,), "m"),
     (singular_nonlinearity, (0.0,), "m")],
)
def test_parameters_must_be_positive_and_finite(factory, args, name):
    # an infinite parameter made the first P nan
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        factory(*args)


def test_singular_values_and_domain_guard():
    nl = singular_nonlinearity(4.0)
    assert nl.m == 4.0
    assert nl.sup_domain == 1.0
    assert nl.alpha == 5.0  # m + 1
    assert nl.beta == 30.0  # (m+1)(m+2) = f''(0)
    assert fd(nl.f, 0.0) == pytest.approx(5.0, rel=1e-6)
    assert fd(nl.f_prime, 0.0) == pytest.approx(30.0, rel=1e-5)
    assert nl.f(0.5) == pytest.approx(0.5**-5 - 1.0)
    for fn in (nl.f, nl.f_prime, nl.F):
        with pytest.raises(DomainBreachError):
            fn(1.0)
        with pytest.raises(DomainBreachError) as err:
            fn(np.array([0.2, 1.5]))
        assert err.value.sup_value == pytest.approx(1.5)
    with pytest.raises(ValueError):
        singular_nonlinearity(0.0)


def test_singular_F_keeps_its_digits_at_tiny_m():
    # ((1-s)^-m - 1)/m rounds to 0 at m 1e-300; its limit is -log(1-s)
    nl = singular_nonlinearity(1e-300)
    assert nl.F(0.5) == pytest.approx(math.log(2.0) - 0.5, rel=1e-15)
    # the rounding bound is that of the two terms, with no 1/m in it
    assert nl.F_rounding(np.array([0.5]))[0] == pytest.approx(math.log(2.0) + 0.5, rel=1e-15)
    assert singular_nonlinearity(4.0).F(0.5) == pytest.approx((0.5**-4 - 1.0) / 4.0 - 0.5,
                                                              rel=1e-15)


def test_superlinearity_of_the_standard_families():
    for nl in (exp_nonlinearity(), quadratic_nonlinearity(1.0, 2.0),
               singular_nonlinearity(4.0)):
        report = check_superlinearity(nl)
        assert report.passed, (nl.kind, report)
        assert report.scaling_margin >= -1e-12
        assert report.moment_margin >= -1e-12


def test_superlinearity_rejects_concave_probe():
    concave = Nonlinearity(
        kind="probe", alpha=1.0, beta=-1.0,
        f=np.log1p, f_prime=lambda r: 1.0 / (1.0 + r),
        antiderivative=lambda r: (1.0 + r) * np.log1p(r) - r,
    )
    assert not check_superlinearity(concave).passed


def test_superlinearity_passed_is_read_off_the_margins():
    # each margin passes down to -1e-12 below zero; a nan margin fails
    assert SuperlinearityReport(-1e-12, np.inf).passed
    assert not SuperlinearityReport(-2e-12, 0.0).passed
    assert not SuperlinearityReport(0.0, -2e-12).passed
    assert not SuperlinearityReport(0.0, np.nan).passed


def test_superlinearity_skips_scalings_that_leave_the_domain():
    # on [0, 0.005) the sample points run from 1e-3 to 0.0045, so lam = 8
    # takes every one of them outside the domain and is skipped
    narrow = Nonlinearity(
        kind="narrow-probe", alpha=1.0, beta=1.0,
        f=lambda r: r + 0.5 * r * r, f_prime=lambda r: 1.0 + r,
        antiderivative=lambda r: 0.5 * r * r + r**3 / 6.0, sup_domain=0.005,
    )
    report = check_superlinearity(narrow)
    assert report.passed
    # lam = 1 gives the worst scaling margin, f(r) - f(r) = 0
    assert report.scaling_margin == 0.0


def test_repr_names_the_kind_and_the_constants():
    assert repr(exp_nonlinearity()) == "Nonlinearity(kind='exp', alpha=1, beta=1)"
    assert repr(quadratic_nonlinearity(1.0, 2.5)) == (
        "Nonlinearity(kind='quadratic', alpha=1, beta=2.5)")


def test_config_round_trip_and_errors():
    for nl in (exp_nonlinearity(), quadratic_nonlinearity(2.0, 3.0),
               singular_nonlinearity(4.0)):
        again = nonlinearity_from_config(nonlinearity_to_config(nl))
        assert again.kind == nl.kind
        assert again.alpha == nl.alpha
        assert again.beta == nl.beta
        assert again.f(0.4) == nl.f(0.4)
    with pytest.raises(ValueError):
        nonlinearity_from_config({"kind": "cubic"})
    with pytest.raises(ValueError):
        nonlinearity_from_config({"kind": "exp", "alpha": 2.0})
    with pytest.raises(ValueError):
        nonlinearity_from_config({"kind": "singular"})
    with pytest.raises(ValueError):
        nonlinearity_from_config({"kind": "quadratic", "alpha": 1.0})
