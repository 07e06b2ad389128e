"""Kernel masses, the three planar estimators, bandwidth rules, network smoothing."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from markedpoints import (
    KernelSpec,
    LinearNetwork,
    MarkedPoint,
    MarkedPointPattern,
    NetworkLocation,
    PlanarWindow,
    GaussianFieldSpec,
    ValidationError,
    bandwidth_cvl,
    bandwidth_scott,
    cvl_criterion,
    eval_intensity,
    f_inhom,
    h_cross_inhom,
    intensity_heat,
    intensity_jones_diggle,
    intensity_network,
    intensity_uniform,
    k_cross_inhom,
    kernel_mass,
    poisson_planar,
)
from markedpoints import _dist
from markedpoints.intensity import _kernel_sum_raster, heat_evolve, kernel1d_pdf

from conftest import planar_pattern


BIG = PlanarWindow(0.0, 1000.0, 0.0, 1000.0)


def test_kernel_mass_interior_one(unit_square):
    assert kernel_mass(KernelSpec(0.01), unit_square, 0.5, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_kernel_mass_corner_quarter():
    assert kernel_mass(KernelSpec(1.0), BIG, 0.0, 0.0) == pytest.approx(0.25, abs=1e-9)


def test_kernel_mass_edge_half():
    assert kernel_mass(KernelSpec(1.0), BIG, 500.0, 0.0) == pytest.approx(0.5, abs=1e-9)


def _masked_epanechnikov(h, t):
    """The Epanechnikov kernel written with a mask: the polynomial in the
    same operation order, then 0 wherever -1 <= t/h <= 1 fails (NaN too)."""
    u = t / h
    outside = ~((u >= -1.0) & (u <= 1.0))
    v = (1.0 - u * u) * 0.75 / h
    v[outside] = 0.0
    return v


def _epanechnikov_points(h, inside):
    """Points at the support's ends (+-h and one ulp either side), +-0,
    +-inf, NaN, and h * s for each s in inside; one ulp above the largest
    float is inf."""
    with np.errstate(over="ignore"):
        edges = [s * np.nextafter(h, to) for s in (1.0, -1.0) for to in (0.0, h, np.inf)]
    return edges + [0.0, -0.0, np.inf, -np.inf, np.nan] + [h * s for s in inside]


@st.composite
def _epanechnikov_args(draw):
    h = draw(st.floats(1e-300, np.finfo(float).max))
    inside = draw(st.lists(st.floats(-2.0, 2.0), max_size=8))
    return h, np.array(draw(st.permutations(_epanechnikov_points(h, inside))))


# past h = 1.35e308, 0.75 (1 - u*u) / h underflows to -0.0 just outside the support
@example((1.7e308, np.array(_epanechnikov_points(1.7e308, []) * 2)))
@example((float(np.finfo(float).max), np.array(_epanechnikov_points(float(np.finfo(float).max), [2.0, 0.5]))))
@given(_epanechnikov_args())
def test_epanechnikov_clip_matches_the_masked_formula(args):
    # kernel1d_pdf clips the polynomial at 0 instead of masking |t/h| > 1;
    # the oracles call kernel1d_pdf themselves, so only this pins it
    h, t = args
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = kernel1d_pdf("epanechnikov", h, t)
        want = _masked_epanechnikov(h, t)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # no -0.0 either


@st.composite
def _gaussian_args(draw):
    """h from 1e-300 to 1e154 and points t: +-0, +-inf, NaN, h * s for s
    up to 40 (past about 38.6 the density underflows, through the
    subnormals, to 0) and any floats."""
    h = draw(st.floats(1e-300, 1e154))
    scaled = draw(st.lists(st.floats(-40.0, 40.0), max_size=8))
    anywhere = draw(st.lists(st.floats(allow_nan=False), max_size=4))
    t = [0.0, -0.0, np.inf, -np.inf, np.nan] + [h * s for s in scaled] + anywhere
    return h, np.array(draw(st.permutations(t)))


@example((1e154, np.array([0.0, 1e154, -3e155, 5e-324])))
@example((1e-300, np.array([1e-300, 3.8e-299, 5e-324, 1.0, -1e308])))
@given(_gaussian_args())
def test_gaussian_pdf_in_place_matches_the_closed_form(args):
    # kernel1d_pdf squares, scales and exponentiates in place; exp dispatches
    # on the CPU, and the in-place call must give the bits of the closed form
    h, t = args
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = kernel1d_pdf("gaussian", h, t)
    with np.errstate(over="ignore"):
        u = t / h
        want = np.exp(-0.5 * u * u) / (np.sqrt(2.0 * np.pi) * h)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("family", ["gaussian", "epanechnikov", "box"])
def test_kernel_mass_matches_quadrature(family, unit_square):
    k = KernelSpec(0.2, family)
    xs = np.linspace(0, 1, 401)
    dx = xs[1] - xs[0]
    u, v = 0.15, 0.85
    grid_x, grid_y = np.meshgrid(xs, xs, indexing="ij")
    vals = kernel1d_pdf(family, 0.2, grid_x - u) * kernel1d_pdf(family, 0.2, grid_y - v)
    quad = np.trapezoid(np.trapezoid(vals, dx=dx, axis=1), dx=dx)
    assert kernel_mass(k, unit_square, u, v) == pytest.approx(quad, rel=1e-4)


def test_uniform_empty_pattern_zero(unit_square):
    p = MarkedPointPattern(unit_square, [])
    est = intensity_uniform(p, KernelSpec(0.1), (32, 32))
    assert np.all(est.values == 0.0)


def test_uniform_single_point_peak(unit_square):
    sigma = 0.05
    p = planar_pattern(unit_square, [(0.5, 0.5)])
    est = intensity_uniform(p, KernelSpec(sigma), (129, 129))
    # odd grid puts a cell center exactly at the point
    peak = est.values.max()
    expected = 1.0 / (2 * np.pi * sigma**2)
    assert peak == pytest.approx(expected, rel=1e-6)
    assert np.unravel_index(est.values.argmax(), est.values.shape) == (64, 64)


def test_uniform_csr_unbiased(unit_square):
    rng = np.random.default_rng(42)
    means = []
    for _ in range(200):
        p = poisson_planar(100.0, unit_square, rng)
        est = intensity_uniform(p, KernelSpec(0.1), (32, 32))
        means.append(est.values.mean())
    assert np.mean(means) == pytest.approx(100.0, rel=0.05)


def test_jones_diggle_mass_conservation(unit_square):
    rng = np.random.default_rng(7)
    p = poisson_planar(80.0, unit_square, rng)
    est = intensity_jones_diggle(p, KernelSpec(0.07), (256, 256))
    assert est.integral() == pytest.approx(p.n, rel=0.005)


def test_jones_diggle_matches_uniform_for_interior_point(unit_square):
    p = planar_pattern(unit_square, [(0.5, 0.5)])
    k = KernelSpec(0.04)
    a = intensity_uniform(p, k, (64, 64))
    b = intensity_jones_diggle(p, k, (64, 64))
    assert np.max(np.abs(a.values - b.values)) < 1e-6


def test_evaluate_bilinear_floor(unit_square):
    p = planar_pattern(unit_square, [(0.5, 0.5)])
    est = intensity_jones_diggle(p, KernelSpec(0.05), (64, 64))
    vals = est.evaluate(np.array([[0.01, 0.01], [0.5, 0.5]]))
    assert vals[0] > 0.0  # floored, never exactly zero for a nonempty pattern
    # the peak sits on a cell edge; bilinear interpolation attenuates it slightly
    assert vals[1] == pytest.approx(1.0 / (2 * np.pi * 0.05**2), rel=0.05)


def test_heat_mass_conserved_per_step(unit_square):
    rng = np.random.default_rng(3)
    p = poisson_planar(50.0, unit_square, rng)
    from markedpoints.intensity import _deposit_masses

    field = _deposit_masses(p, 64, 64)
    h = 1.0 / 64
    mass0 = field.sum() * h * h
    dt = 0.01**2
    for _ in range(32):
        field = heat_evolve(field, h, h, dt)
        assert field.sum() * h * h == pytest.approx(mass0, abs=1e-10)


def test_heat_long_time_uniform(unit_square):
    rng = np.random.default_rng(5)
    p = poisson_planar(40.0, unit_square, rng)
    est = intensity_heat(p, 2.0, (64, 64))
    target = p.n / unit_square.area
    assert np.max(np.abs(est.values - target)) < 0.01 * target


def test_heat_matches_free_space_gaussian(unit_square):
    sigma = 0.1
    p = planar_pattern(unit_square, [(0.5, 0.5)])
    est = intensity_heat(p, sigma, (128, 128))
    center = est.evaluate(np.array([[0.5, 0.5]]))[0]
    free = 1.0 / (2 * np.pi * sigma**2)
    assert center == pytest.approx(free, rel=0.02)


def test_heat_grid_too_coarse(unit_square):
    p = planar_pattern(unit_square, [(0.5, 0.5)])
    with pytest.raises(ValidationError, match="coarse"):
        intensity_heat(p, 0.01, (32, 32))


def test_scott_exact(unit_square):
    xs = [-1.0] * 32 + [1.0] * 32
    ys = [1.0] * 32 + [-1.0] * 32
    w = PlanarWindow(-2, 2, -2, 2)
    p = planar_pattern(w, list(zip(xs, ys)))
    assert bandwidth_scott(p) == (0.5, 0.5)


def test_scott_degenerate_axis():
    w = PlanarWindow(-2, 2, -2, 2)
    p = planar_pattern(w, [(0.0, -1.0), (0.0, 0.0), (0.0, 1.0)])
    with pytest.raises(ValidationError, match="degenerate"):
        bandwidth_scott(p)


def test_scott_scale_equivariance(unit_square):
    rng = np.random.default_rng(1)
    xy = rng.uniform(0.1, 0.9, size=(40, 2))
    p = planar_pattern(unit_square, xy)
    c = 3.0
    w2 = PlanarWindow(0, c, 0, c)
    q = planar_pattern(w2, c * xy)
    sx, sy = bandwidth_scott(p)
    tx, ty = bandwidth_scott(q)
    assert tx == pytest.approx(c * sx, rel=1e-12)
    assert ty == pytest.approx(c * sy, rel=1e-12)


def test_cvl_criterion_zero_for_constant(unit_square):
    rng = np.random.default_rng(11)
    p = poisson_planar(100.0, unit_square, rng)
    val = cvl_criterion(p, p.n / unit_square.area)
    assert abs(val) <= 1e-12


def test_cvl_criterion_rejects_nan_intensity(unit_square):
    p = poisson_planar(100.0, unit_square, np.random.default_rng(11))
    lam = np.full(p.n, 100.0)
    lam[3] = np.nan
    with pytest.raises(ValidationError, match="intensity must be positive"):
        cvl_criterion(p, lam)


def test_cvl_recovers_mass_balance(unit_square):
    rng = np.random.default_rng(13)
    p = poisson_planar(200.0, unit_square, rng)
    sigma = bandwidth_cvl(p, (64, 64), (0.02, 0.5))
    est = intensity_uniform(p, KernelSpec(sigma), (64, 64))
    assert cvl_criterion(p, est) <= 0.1 * unit_square.area


def test_cvl_scale_equivariance(unit_square):
    rng = np.random.default_rng(17)
    xy = rng.uniform(0.05, 0.95, size=(60, 2))
    p = planar_pattern(unit_square, xy)
    sigma1 = bandwidth_cvl(p, (48, 48), (0.02, 0.4))
    w2 = PlanarWindow(0, 2, 0, 2)
    q = planar_pattern(w2, 2 * xy)
    sigma2 = bandwidth_cvl(q, (48, 48), (0.04, 0.8))
    assert sigma2 == pytest.approx(2 * sigma1, rel=1e-9)


def test_cvl_empty_interval(unit_square):
    p = planar_pattern(unit_square, [(0.5, 0.5)])
    with pytest.raises(ValidationError, match="interval"):
        bandwidth_cvl(p, (32, 32), (0.5, 0.1))


def test_network_intensity_integrates_to_n():
    net = LinearNetwork([[0, 0], [50, 0], [50, 40], [100, 40]], [[0, 1], [1, 2], [2, 3]])
    pts = [
        MarkedPoint(NetworkLocation(0, 0.3)),
        MarkedPoint(NetworkLocation(1, 0.9)),
        MarkedPoint(NetworkLocation(2, 0.2)),
    ]
    p = MarkedPointPattern(net, pts)
    est = intensity_network(p, KernelSpec(5.0))
    assert est.integral() == pytest.approx(p.n, rel=0.01)
    vals = est.evaluate(p.locations())
    assert np.all(vals > 0)


def _network_and_pattern():
    net = LinearNetwork([[0, 0], [50, 0], [50, 40], [100, 40], [0, 30]], [[0, 1], [1, 2], [2, 3], [0, 4]])
    rng = np.random.default_rng(12)
    seg = rng.integers(0, net.n_segments, 40)
    return net, MarkedPointPattern.from_columns(net, (seg, rng.uniform(size=40)))


def test_network_intensity_at_own_points_matches_fresh_estimate():
    net, p = _network_and_pattern()
    r = np.linspace(0.0, 30.0, 16)
    est = intensity_network(p, KernelSpec(8.0))
    first = [k_cross_inhom(p, p, est, est, r=r), h_cross_inhom(p, p, est, est, r=r), f_inhom(p, est, r=r)]
    for _ in range(2):  # the values kept at the data points serve every later call
        fresh = intensity_network(p, KernelSpec(8.0)).evaluate(p.locations())
        again = [k_cross_inhom(p, p, est, est, r=r), h_cross_inhom(p, p, est, est, r=r), f_inhom(p, est, r=r)]
        want = [k_cross_inhom(p, p, fresh, fresh, r=r), h_cross_inhom(p, p, fresh, fresh, r=r),
                f_inhom(p, fresh, r=r)]
        for a, b, c in zip(first, again, want):
            assert np.array_equal(a.values, c.values, equal_nan=True)
            assert np.array_equal(b.values, c.values, equal_nan=True)
    # the same locations held by another pattern object read the same values
    same = MarkedPointPattern(net, [MarkedPoint(loc) for loc in p.locations()])
    assert np.array_equal(eval_intensity(est, same), fresh)


def test_network_intensity_moved_point_evaluated_afresh():
    net, p = _network_and_pattern()
    est = intensity_network(p, KernelSpec(8.0))
    kept = eval_intensity(est, p)
    seg, off = p.seg_off()
    moved = off.copy()
    moved[7] = 0.5 * moved[7] + 0.25
    q = MarkedPointPattern.from_columns(net, (seg, moved))
    got = eval_intensity(est, q)
    assert np.array_equal(got, est.evaluate(q.locations()))
    assert got[7] != kept[7]


def test_network_intensity_returned_values_are_copies():
    _, p = _network_and_pattern()
    est = intensity_network(p, KernelSpec(8.0))
    want = est.evaluate(p.locations())
    vals = eval_intensity(est, p)
    vals[:] = -1.0
    assert np.array_equal(eval_intensity(est, p), want)


def test_network_intensity_rejects_planar(unit_square):
    p = planar_pattern(unit_square, [(0.5, 0.5)])
    with pytest.raises(ValidationError):
        intensity_network(p, KernelSpec(0.1))


def test_three_estimators_agree_in_interior(unit_square):
    # sigma much smaller than the distance from any point to the border
    rng = np.random.default_rng(55)
    xy = rng.uniform(0.35, 0.65, size=(40, 2))
    p = planar_pattern(unit_square, xy)
    sigma, dims = 0.04, (192, 192)
    u = intensity_uniform(p, KernelSpec(sigma), dims)
    j = intensity_jones_diggle(p, KernelSpec(sigma), dims)
    h = intensity_heat(p, sigma, dims)
    probe = rng.uniform(0.4, 0.6, size=(200, 2))
    vu, vj, vh = u.evaluate(probe), j.evaluate(probe), h.evaluate(probe)
    assert np.max(np.abs(vu - vj) / vu) < 0.02
    assert np.max(np.abs(vu - vh) / vu) < 0.02


@pytest.mark.parametrize("family", ["gaussian", "epanechnikov", "box"])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("points_per_block", [4096, 16])
def test_kernel_sum_raster_matches_point_loop(monkeypatch, unit_square, family, weighted, points_per_block):
    # a point takes nx + ny = 32 + 24 entries of the block budget
    monkeypatch.setattr(_dist, "_BLOCK", points_per_block * (32 + 24))
    rng = np.random.default_rng(23)
    p = planar_pattern(unit_square, rng.uniform(size=(40, 2)))
    k = KernelSpec(0.08, family)
    wts = rng.uniform(0.5, 2.0, size=p.n) if weighted else np.ones(p.n)
    got = _kernel_sum_raster(p, k, 32, 24, wts)
    xs, ys = (np.arange(32) + 0.5) / 32, (np.arange(24) + 0.5) / 24
    want = np.zeros((32, 24))
    for i, (x, y) in enumerate(p.coords()):
        kx = kernel1d_pdf(family, 0.08, xs - x) * wts[i]
        want += np.outer(kx, kernel1d_pdf(family, 0.08, ys - y))
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * want.max())


def _fails_on_arrays(*args):
    """Works on scalars; its vectorized path has a real bug."""
    if any(np.ndim(a) for a in args):
        raise ZeroDivisionError("bug in the vectorized path")
    return 1.0


_SPEC = dict(mean=0.0, anchor=NetworkLocation(0, 0.5))


@pytest.mark.parametrize(
    "call",
    [
        lambda f, w: eval_intensity(f, planar_pattern(w, [(0.2, 0.3), (0.6, 0.5)])),
        lambda f, w: poisson_planar(f, w, np.random.default_rng(0), lam_max=50.0),
        lambda f, w: GaussianFieldSpec(cov=f, **_SPEC).cov_matrix(np.array([0.0, 1.0, 2.5])),
    ],
    ids=["eval_intensity", "poisson_planar", "cov_matrix"],
)
def test_vectorized_error_is_not_hidden_by_scalar_retry(unit_square, call):
    with pytest.raises(ZeroDivisionError, match="vectorized path"):
        call(_fails_on_arrays, unit_square)


def test_scalar_only_callables_still_work(unit_square):
    p = planar_pattern(unit_square, [(0.2, 0.3), (0.6, 0.5)])
    vals = eval_intensity(lambda x, y: math.exp(x + y), p)
    assert np.array_equal(vals, [math.exp(0.2 + 0.3), math.exp(0.6 + 0.5)])
    assert poisson_planar(lambda x, y: 20.0 * math.exp(-x), unit_square,
                          np.random.default_rng(1), lam_max=20.0).n > 0
    spec = GaussianFieldSpec(cov=lambda a, b: math.exp(-abs(a - b)), **_SPEC)
    d = np.array([0.0, 1.0, 2.5])
    assert np.allclose(spec.cov_matrix(d), np.exp(-np.abs(d[:, None] - d[None, :])), rtol=1e-15, atol=0)


@pytest.mark.parametrize("bandwidth", [float("nan"), float("inf"), 0.0])
def test_kernel_and_heat_bandwidth_positive_and_finite(bandwidth, unit_square):
    with pytest.raises(ValidationError, match="bandwidth"):
        KernelSpec(bandwidth)
    with pytest.raises(ValidationError, match="sigma"):
        intensity_heat(planar_pattern(unit_square, [(0.5, 0.5)]), bandwidth, (32, 32))


def test_heat_one_step_equals_many(unit_square):
    # heat_evolve is the exact semigroup: one step to sigma^2 equals 32 of sigma^2 / 32
    from markedpoints.intensity import _deposit_masses

    p = poisson_planar(200.0, unit_square, np.random.default_rng(8))
    field = _deposit_masses(p, 64, 64)
    h, t = 1.0 / 64, 0.05**2
    one = heat_evolve(field, h, h, t)
    for _ in range(32):
        field = heat_evolve(field, h, h, t / 32)
    assert np.max(np.abs(one - field)) <= 1e-12 * np.max(one)
