"""Property tests of the paper's invariants over random kernels,
nonlinearities and cone profiles: the improvement step preserves the norm,
never lowers P and keeps a cone profile in the cone; a solve converges to
a cone profile with sigma > f'(0) and P > Q; a solve that takes mixed
steps keeps P nondecreasing and every iterate on the sphere and in the
cone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nleig import (
    SolverConfig,
    cone_check,
    eval_P,
    eval_Q,
    exp_nonlinearity,
    gaussian_kernel,
    improvement_step,
    l2_norm,
    make_grid,
    quadratic_nonlinearity,
    singular_nonlinearity,
    solve,
)
from oracles import observed_solve, random_cone_profile

G = make_grid(16.0, 256)

widths = st.floats(min_value=0.5, max_value=2.0)
nonlinearities = st.one_of(
    st.just(exp_nonlinearity()),
    st.builds(quadratic_nonlinearity, st.floats(min_value=0.5, max_value=2.0),
              st.floats(min_value=0.5, max_value=2.0)),
    st.builds(singular_nonlinearity, st.floats(min_value=1.0, max_value=6.0)),
)
# K as a fraction of the kernel's K_max = 1/(2 a(0)): below it, sup|b*W| < 1
# for every W on the sphere, so the singular domain is never reached
k_fractions = st.floats(min_value=0.2, max_value=0.8)


@settings(max_examples=30, deadline=None)
@given(widths, nonlinearities, k_fractions, st.integers(min_value=0, max_value=2**32))
def test_improvement_step_invariants(width, nl, k_fraction, seed):
    kernel = gaussian_kernel(G, width=width)
    v = random_cone_profile(np.random.default_rng(seed), G)
    v = v.scaled(np.sqrt(2.0 * k_fraction * kernel.k_max_norm) / l2_norm(v))
    t, mu = improvement_step(v, kernel, nl)
    assert mu > 0
    assert l2_norm(t) == pytest.approx(l2_norm(v), rel=1e-12)
    p_before = eval_P(v, kernel, nl)
    assert eval_P(t, kernel, nl) >= p_before - 1e-12 * abs(p_before)
    assert cone_check(t).in_cone(1e-12 * t.max)


@settings(max_examples=8, deadline=None)
@given(widths, nonlinearities, k_fractions)
def test_converged_solve_beats_the_linear_problem(width, nl, k_fraction):
    kernel = gaussian_kernel(G, width=width)
    cfg = SolverConfig(K=k_fraction * kernel.k_max_norm, tol_residual=1e-9,
                       max_iter=5_000)
    sol = solve(cfg, kernel, nl)
    # near the branch point of the localized solution (a wide kernel with a
    # weak nonlinearity) the plain map contracts at a rate near 1; the
    # solve's mixing converges there too
    assert sol.converged
    assert sol.cone.in_cone(1e-9 * sol.V.max)
    assert sol.sigma > nl.alpha
    assert sol.P > sol.Q
    assert sol.Q == pytest.approx(eval_Q(sol.V, kernel, nl.alpha), rel=1e-12)


# wide kernels and weak quadratic nonlinearities: near the branch point of
# the localized solution, where the plain map contracts slowly (each of 400
# random draws of this domain mixed)
@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=1.0, max_value=1.5), st.floats(min_value=1.0, max_value=2.0),
       st.floats(min_value=0.4, max_value=0.8), st.floats(min_value=0.5, max_value=0.8))
def test_mixed_steps_keep_the_invariants(width, alpha, beta, k_fraction):
    kernel = gaussian_kernel(G, width=width)
    nl = quadratic_nonlinearity(alpha, beta)
    cfg = SolverConfig(K=k_fraction * kernel.k_max_norm, tol_residual=1e-9,
                       max_iter=5_000)
    sol, steps = observed_solve(cfg, kernel, nl)
    if sol.accelerated_steps == 0:
        return
    p = steps.p_values
    assert np.all(np.diff(p) >= -1e-12 * np.abs(p[:-1]))
    assert np.max(steps.constraint_errors) <= 1e-12
    assert np.max(steps.cone_deviations) <= 1e-12
    assert sol.sigma > nl.alpha
    assert sol.P > sol.Q
