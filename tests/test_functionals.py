"""Energy functionals against quadrature and finite-difference oracles."""

import numpy as np
import pytest

from nleig import (
    DomainBreachError,
    energy_record,
    eval_K,
    eval_P,
    eval_Q,
    gaussian_kernel,
    grad_P,
    make_grid,
    exp_nonlinearity,
    Nonlinearity,
    singular_nonlinearity,
    Profile,
)
from oracles import direct_convolution, fd_grad_p, random_cone_profile, riemann

G = make_grid(10.0, 128)
KERNEL = gaussian_kernel(G, width=1.0)
NL = exp_nonlinearity()


def test_eval_k_is_half_squared_norm():
    rng = np.random.default_rng(5)
    v = random_cone_profile(rng, G)
    assert eval_K(v) == pytest.approx(0.5 * riemann(v.samples**2, G.spacing), rel=1e-13)


def test_eval_p_and_q_match_direct_quadrature():
    rng = np.random.default_rng(6)
    for _ in range(5):
        v = random_cone_profile(rng, G)
        u = direct_convolution(KERNEL.profile.samples, v.samples, G.spacing)
        assert eval_P(v, KERNEL, NL) == pytest.approx(
            riemann(NL.F(u), G.spacing), rel=1e-12
        )
        assert eval_Q(v, KERNEL, NL.alpha) == pytest.approx(
            0.5 * NL.alpha * riemann(u**2, G.spacing), rel=1e-12
        )


def test_grad_p_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(3):
        v = random_cone_profile(rng, G)
        g = grad_P(v, KERNEL, NL).samples
        fd = fd_grad_p(v, KERNEL, NL)
        scale = np.max(np.abs(g))
        assert np.max(np.abs(g - fd)) <= 1e-6 * scale


def test_energy_record_is_consistent():
    rng = np.random.default_rng(8)
    v = random_cone_profile(rng, G)
    rec = energy_record(v, KERNEL, NL)
    assert rec.K == pytest.approx(eval_K(v))
    assert rec.P == pytest.approx(eval_P(v, KERNEL, NL))
    assert rec.Q == pytest.approx(eval_Q(v, KERNEL, NL.alpha))
    assert rec.sup_U == pytest.approx(KERNEL.convolve(v).max)


def test_p_is_convex_along_segments():
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = random_cone_profile(rng, G)
        b = random_cone_profile(rng, G)
        mid = Profile(G, 0.5 * (a.samples + b.samples))
        p_mid = eval_P(mid, KERNEL, NL)
        p_avg = 0.5 * (eval_P(a, KERNEL, NL) + eval_P(b, KERNEL, NL))
        assert p_mid <= p_avg + 1e-12 * abs(p_avg)


def test_eval_p_propagates_domain_breach():
    nl = singular_nonlinearity(4.0)
    tall = Profile(G, np.full(G.point_count, 2.0))
    with pytest.raises(DomainBreachError):
        eval_P(tall, KERNEL, nl)


def test_grad_p_rejects_an_f_of_the_wrong_shape():
    # a finite f(U) of the wrong shape is the profile's own error, not overflow
    short = Nonlinearity(kind="short-probe", alpha=1.0, beta=1.0, f=lambda r: r[1:],
                         f_prime=lambda r: np.ones_like(r), antiderivative=lambda r: r)
    v = Profile(G, np.exp(-0.5 * G.nodes**2))
    with pytest.raises(ValueError, match="does not match grid"):
        grad_P(v, KERNEL, short)
