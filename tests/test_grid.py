"""Grid, profile, cone, kernel convolution, and CSV round-trip checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nleig import (
    ConeReport,
    GridMismatchError,
    OddPointCountError,
    Profile,
    cone_check,
    gaussian_kernel,
    inner_product,
    l2_norm,
    make_grid,
    require_same_grid,
    write_profile_csv,
)
from nleig.grid import _CSV_BLOCK, dot, even_part, norm
from oracles import direct_convolution, random_cone_profile, riemann


def test_make_grid_basics():
    g = make_grid(10.0, 64)
    assert g.half_period == 10.0
    assert g.point_count == 64
    assert g.spacing == pytest.approx(20.0 / 64)
    assert g.nodes[0] == pytest.approx(-10.0)
    assert g.nodes[32] == 0.0
    assert np.allclose(np.diff(g.nodes), g.spacing)
    # rfft frequency step is pi / L on a 2L-periodic grid
    assert g.rfft_frequencies[1] == pytest.approx(np.pi / 10.0)
    assert g.rfft_frequencies.size == 33


def test_make_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_grid(0.0, 64)
    with pytest.raises(ValueError):
        make_grid(-2.0, 64)
    with pytest.raises(OddPointCountError):
        make_grid(10.0, 65)
    with pytest.raises(ValueError):
        make_grid(10.0, 4)


def test_profile_validation_and_immutability():
    g = make_grid(5.0, 32)
    with pytest.raises(ValueError):
        Profile(g, np.full(32, np.nan))
    with pytest.raises(ValueError):
        Profile(g, np.ones(16))
    source = np.ones(32)
    p = Profile(g, source)
    source[0] = 7.0  # the profile must have copied
    assert p.samples[0] == 1.0
    with pytest.raises(ValueError):
        p.samples[0] = 2.0


def test_profile_helpers():
    g = make_grid(5.0, 64)
    p = Profile(g, np.exp(-g.nodes * g.nodes))
    assert p.value_at_zero() == pytest.approx(1.0)
    assert p.max == pytest.approx(1.0)
    assert p.scaled(2.0).samples[32] == pytest.approx(2.0)
    assert Profile(g, np.zeros(g.point_count)).samples.sum() == 0.0


def test_require_same_grid():
    a = Profile(make_grid(5.0, 32), np.zeros(32))
    b = Profile(make_grid(5.0, 64), np.zeros(64))
    with pytest.raises(GridMismatchError):
        require_same_grid(a, b)


def test_inner_product_is_weighted_riemann_sum():
    g = make_grid(3.0, 128)
    rng = np.random.default_rng(11)
    a = Profile(g, rng.standard_normal(128))
    b = Profile(g, rng.standard_normal(128))
    assert inner_product(a, b) == pytest.approx(riemann(a.samples * b.samples, g.spacing))
    assert l2_norm(a) == pytest.approx(np.sqrt(riemann(a.samples**2, g.spacing)))
    assert norm(a.samples, g) == l2_norm(a)


@pytest.mark.parametrize("n", [0, 1, 7, 1000, 8191, 8192])
def test_dot_is_np_dot_up_to_one_chunk(n):
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    assert dot(a, b) == np.dot(a, b)


@pytest.mark.parametrize("n", [1000, 16384, 20000, 32768])
def test_dot_is_the_running_sum_of_chunk_dots(n):
    # a ddot of at most 8192 entries runs on one BLAS thread, so the result
    # cannot depend on the thread count
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    total = 0.0
    for start in range(0, n, 8192):
        total += np.dot(a[start : start + 8192], b[start : start + 8192])
    assert dot(a, b) == total
    with pytest.raises(ValueError):
        dot(a, b[:-1])


def test_symmetrize_produces_even_average():
    g = make_grid(4.0, 64)
    rng = np.random.default_rng(3)
    w = Profile(g, rng.uniform(size=64))
    s = Profile(g, even_part(w.samples))
    # index 0 is x = -L, which is its own mirror image on the torus
    mirrored = np.concatenate((w.samples[:1], w.samples[1:][::-1]))
    assert np.allclose(s.samples, 0.5 * (w.samples + mirrored))
    assert cone_check(s).even_deviation <= 1e-15
    # idempotent on even input
    assert np.array_equal(even_part(s.samples), s.samples)


def test_cone_check_classifies_profiles():
    g = make_grid(6.0, 128)
    good = Profile(g, 1.0 / (1.0 + g.nodes * g.nodes))
    rep = cone_check(good)
    assert isinstance(rep, ConeReport)
    assert rep.in_cone(1e-12)

    tilted = Profile(g, np.exp(-((g.nodes - 0.5) ** 2)))
    assert cone_check(tilted).even_deviation > 1e-3

    dip = Profile(g, np.exp(-(g.nodes**2)) + 0.2 * np.exp(-((np.abs(g.nodes) - 3.0) ** 2)))
    assert cone_check(dip).unimodality_deviation > 1e-3
    assert not cone_check(dip).in_cone(1e-9)

    negative = Profile(g, np.cos(g.nodes))
    assert cone_check(negative).min_value < -0.9


@pytest.mark.parametrize("report, worst", [
    (ConeReport(0.25, 1.0, 0.5), 0.5),
    (ConeReport(0.25, -0.75, 0.5), 0.75),
    (ConeReport(0.0, 2.0, 0.0), 0.0),
])
def test_cone_report_worst_is_the_largest_deviation(report, worst):
    # nonnegativity deviates by -min_value; in_cone is worst <= tol
    assert report.worst == worst
    assert report.in_cone(worst) and not report.in_cone(np.nextafter(worst, -1.0))


def test_convolve_matches_direct_sum():
    # n = 1000 is not a power of two, where dropping the FFT-order shifts
    # is not bit-identical
    rng = np.random.default_rng(7)
    for g in (make_grid(8.0, 128), make_grid(8.0, 1000)):
        kernel = gaussian_kernel(g, width=0.9)
        for _ in range(5):
            w = random_cone_profile(rng, g)
            fast = kernel.convolve(w).samples
            slow = direct_convolution(kernel.profile.samples, w.samples, g.spacing)
            assert np.max(np.abs(fast - slow)) <= 1e-12 * max(1.0, np.max(np.abs(slow)))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=127), st.floats(min_value=0.5, max_value=1.0))
def test_convolution_is_translation_equivariant(shift, width):
    g = make_grid(8.0, 128)
    kernel = gaussian_kernel(g, width=width)
    base = Profile(g, np.exp(-g.nodes * g.nodes))
    rolled = Profile(g, np.roll(base.samples, shift))
    a = np.roll(kernel.convolve(base).samples, shift)
    b = kernel.convolve(rolled).samples
    assert np.allclose(a, b, atol=1e-13)


def test_convolve_rejects_grid_mismatch():
    k = gaussian_kernel(make_grid(8.0, 64), width=1.0)
    w = Profile(make_grid(8.0, 128), np.zeros(128))
    with pytest.raises(GridMismatchError):
        k.convolve(w)


def test_profile_csv_round_trip(tmp_path):
    g = make_grid(5.0, 64)
    rng = np.random.default_rng(23)
    p = Profile(g, rng.standard_normal(64) * 1e-7)
    path = tmp_path / "p.csv"
    write_profile_csv(p, path)
    raw = path.read_bytes()
    assert raw.startswith(b"x,value\n")
    assert b"\r" not in raw
    x, values = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    assert np.array_equal(x, g.nodes)
    assert np.array_equal(values, p.samples)
    assert not list(tmp_path.glob("*.tmp*"))


def test_profile_csv_bytes_over_several_blocks(tmp_path):
    n = 3 * _CSV_BLOCK + 2
    rng = np.random.default_rng(31)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    values[:6] = [-0.0, 5e-324, 1e-300, 1e300, -1e300, -5e-324]
    values[_CSV_BLOCK - 1 : _CSV_BLOCK + 1] = [-0.0, 0.0]
    # same point count, other half period: a cache keyed on anything less
    # than the grid would hand the second file the first one's x column
    for i, half_period in enumerate((5.0, 7.0)):
        g = make_grid(half_period, n)
        path = tmp_path / f"p{i}.csv"
        write_profile_csv(Profile(g, values), path)
        expected = "x,value\n" + "".join(
            f"{x:.17g},{v:.17g}\n" for x, v in zip(g.nodes, values)
        )
        assert path.read_bytes() == expected.encode()
    assert not list(tmp_path.glob("*.tmp*"))

