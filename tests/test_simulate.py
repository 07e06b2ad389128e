"""Simulators: Poisson laws, thinning, LGCP, Cox constructions, mark models."""

import tracemalloc

import numpy as np
import pytest

from markedpoints import (
    GaussianFieldSpec,
    LinearNetwork,
    MarkedPoint,
    MarkedPointPattern,
    NetworkLocation,
    NumericalError,
    PlanarWindow,
    SeedSpec,
    ValidationError,
    constant_field_sampler,
    irmps_check,
    lgcp_network,
    linked_balanced_cox,
    model_marks,
    poisson_network,
    poisson_planar,
    replicate_rng,
    replicate_seed,
    synthetic_tree_network,
)
from markedpoints import simulate
from markedpoints.geometry import _uniform_seg_off


def const_cov(value):
    def cov(d1, d2):
        shape = np.broadcast_shapes(np.shape(d1), np.shape(d2))
        return np.full(shape, value) if shape else value

    return cov


def test_replicate_seed_is_avalanche_mix():
    seeds = {replicate_seed(0, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert replicate_seed(1, 2) != replicate_seed(2, 1)


def test_poisson_planar_mean_count(unit_square):
    rng = np.random.default_rng(0)
    counts = [poisson_planar(100.0, unit_square, rng).n for _ in range(2000)]
    assert np.mean(counts) == pytest.approx(100.0, abs=2.0)


def test_poisson_planar_zero_rate(unit_square):
    assert poisson_planar(0.0, unit_square, np.random.default_rng(0)).n == 0


def test_poisson_planar_thinning_at_bound_matches_homogeneous(unit_square):
    lam = lambda x, y: np.full_like(np.asarray(x, dtype=float), 50.0)
    a = poisson_planar(lam, unit_square, np.random.default_rng(3), lam_max=50.0)
    b = poisson_planar(50.0, unit_square, np.random.default_rng(3))
    assert a.n == b.n
    assert np.allclose(a.coords(), b.coords())


def test_poisson_planar_callable_needs_bound(unit_square):
    with pytest.raises(ValidationError, match="lam_max"):
        poisson_planar(lambda x, y: 1.0, unit_square, np.random.default_rng(0))


def test_poisson_network_mean_count():
    net = LinearNetwork([[0, 0], [50, 0]], [[0, 1]])
    rng = np.random.default_rng(1)
    counts = [poisson_network(1.0, net, rng).n for _ in range(2000)]
    assert np.mean(counts) == pytest.approx(50.0, abs=1.5)


def test_poisson_network_disjoint_subnetwork_independence():
    # two arms of one network; counts in each arm are independent Poissons
    net = LinearNetwork([[0, 0], [30, 0], [-30, 0]], [[0, 1], [0, 2]])
    rng = np.random.default_rng(5)
    n1, n2 = [], []
    for _ in range(3000):
        p = poisson_network(0.5, net, rng)
        segs = np.array([pt.location.segment for pt in p.points], dtype=int)
        n1.append(int((segs == 0).sum()))
        n2.append(int((segs == 1).sum()))
    cov = np.cov(n1, n2)[0, 1]
    se = np.sqrt(np.var(n1) * np.var(n2) / 3000)
    assert abs(cov) <= 3 * np.sqrt(se) * np.sqrt(np.mean(n1) + np.mean(n2))


def test_lgcp_constant_cov_overdispersed():
    net = LinearNetwork([[0, 0], [100, 0]], [[0, 1]])
    spec = GaussianFieldSpec(mean=0.0, cov=const_cov(0.5), anchor=NetworkLocation(0, 0.5))
    rng = np.random.default_rng(7)
    counts = [lgcp_network(spec, net, 5.0, rng).n for _ in range(1000)]
    assert np.var(counts) > np.mean(counts) * 1.2


def test_lgcp_degenerate_reduces_to_poisson():
    net = LinearNetwork([[0, 0], [100, 0]], [[0, 1]])
    lam0 = 0.8
    spec = GaussianFieldSpec(mean=float(np.log(lam0)), cov=const_cov(0.0), anchor=NetworkLocation(0, 0.5))
    rng = np.random.default_rng(11)
    counts = np.array([lgcp_network(spec, net, 5.0, rng).n for _ in range(2000)])
    target = lam0 * net.total_length
    se_mean = np.sqrt(target / 2000)
    assert abs(np.mean(counts) - target) <= 3 * se_mean
    # Poisson variance ~ mean
    se_var = target * np.sqrt(2.0 / 2000) * 2
    assert abs(np.var(counts) - target) <= 3 * se_var


def test_poisson_cap_refuses_before_drawing(monkeypatch):
    # an expected count of 1e20 reached numpy as "lam value too large"; the cap
    # refuses it before any draw or allocation
    w = PlanarWindow(0.0, 1.0, 0.0, 1.0)
    net = LinearNetwork([[0, 0], [100, 0]], [[0, 1]])
    tracemalloc.start()
    try:
        for sim, lam, domain in ((poisson_planar, 1e20, w), (poisson_network, 1e18, net)):
            rng = np.random.default_rng(3)
            with pytest.raises(ValidationError, match="cap"):
                sim(lam, domain, rng)
            assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # at the cap itself a pattern is drawn; a lowered cap shows the boundary cheaply
    monkeypatch.setattr(simulate, "_MAX_EXPECTED_POINTS", 200.0)
    assert poisson_planar(200.0, w, np.random.default_rng(3)).n > 0
    with pytest.raises(ValidationError, match="cap"):
        poisson_planar(201.0, w, np.random.default_rng(3))


def test_lgcp_cap_after_the_field_draw():
    # exp(50) per unit length: the cells' counts would overflow numpy's sampler
    net = LinearNetwork([[0, 0], [100, 0]], [[0, 1]])
    spec = GaussianFieldSpec(mean=50.0, cov=const_cov(0.25), anchor=NetworkLocation(0, 0.5))
    with pytest.raises(ValidationError, match="cap"):
        lgcp_network(spec, net, 5.0, np.random.default_rng(0))


def test_lgcp_needs_an_rng():
    # no sampler draws from unseeded entropy: rng has no default
    net = LinearNetwork([[0, 0], [100, 0]], [[0, 1]])
    spec = GaussianFieldSpec(mean=0.0, cov=const_cov(0.25), anchor=NetworkLocation(0, 0.5))
    with pytest.raises(TypeError, match="rng"):
        lgcp_network(spec, net, 10.0)


def test_lgcp_asymmetric_cov_rejected():
    net = LinearNetwork([[0, 0], [100, 0]], [[0, 1]])
    spec = GaussianFieldSpec(
        mean=0.0, cov=lambda d1, d2: np.asarray(d1) * 0 + np.asarray(d2), anchor=NetworkLocation(0, 0.5)
    )
    with pytest.raises(ValidationError, match="asymmetric"):
        lgcp_network(spec, net, 10.0, np.random.default_rng(0))


def test_lgcp_non_psd_reported():
    net = LinearNetwork([[0, 0], [100, 0]], [[0, 1]])

    def bad_cov(d1, d2):
        d1 = np.asarray(d1, dtype=float)
        d2 = np.asarray(d2, dtype=float)
        return -np.abs(d1 - d2)  # symmetric but wildly non-PSD

    spec = GaussianFieldSpec(mean=0.0, cov=bad_cov, anchor=NetworkLocation(0, 0.5))
    with pytest.raises(NumericalError, match="positive semidefinite"):
        lgcp_network(spec, net, 2.0, np.random.default_rng(0))


def test_irmps_check_constant_and_anchored():
    net = synthetic_tree_network(core_depth=3)
    spec = GaussianFieldSpec(mean=0.0, cov=const_cov(1.0), anchor=NetworkLocation(0, 0.5))
    rep = irmps_check(spec, net, np.random.default_rng(0))
    assert rep.max_discrepancy == 0.0 and rep.anchor_free

    spec2 = GaussianFieldSpec(
        mean=0.0,
        cov=lambda d1, d2: np.exp(-(np.asarray(d1) + np.asarray(d2)) / 50.0),
        anchor=NetworkLocation(0, 0.5),
    )
    rep2 = irmps_check(spec2, net, np.random.default_rng(0))
    assert rep2.max_discrepancy > 0 and not rep2.anchor_free
    rep3 = irmps_check(spec2, net, np.random.default_rng(0))
    assert rep2 == rep3  # deterministic given the generator state


def test_balanced_constant_field(unit_square):
    rng = np.random.default_rng(2)
    nu = 60.0
    p = linked_balanced_cox("balanced", nu, constant_field_sampler(nu / 2.0), unit_square, rng)
    counts = {lab: sum(1 for q in p.points if q.type_label == lab) for lab in ("1", "2")}
    assert counts["1"] > 0 and counts["2"] > 0


def test_balanced_range_error(unit_square):
    with pytest.raises(ValidationError, match="balanced"):
        linked_balanced_cox(
            "balanced", 10.0, constant_field_sampler(20.0), unit_square, np.random.default_rng(0)
        )


def test_balanced_expected_count_identity(unit_square):
    # Z1 + Z2 = nu pointwise: total expected count nu |W| in every replicate
    rng = np.random.default_rng(4)
    nu = 200.0
    totals = []
    for _ in range(200):
        p = linked_balanced_cox("balanced", nu, constant_field_sampler(77.0), unit_square, rng)
        totals.append(p.n)
    assert np.mean(totals) == pytest.approx(nu * unit_square.area, rel=0.05)


def test_linked_count_ratio(unit_square):
    rng = np.random.default_rng(6)
    nu = 2.0
    n1 = n2 = 0
    for _ in range(1000):
        p = linked_balanced_cox("linked", nu, constant_field_sampler(40.0), unit_square, rng)
        for q in p.points:
            if q.type_label == "1":
                n1 += 1
            else:
                n2 += 1
    assert n1 / n2 == pytest.approx(nu, rel=0.05)


def test_model_marks_iii_counts():
    net = LinearNetwork([[0, 0], [100, 0]], [[0, 1]])
    offs = [0.0, 0.05, 0.1, 0.15, 0.9]
    p = MarkedPointPattern(net, [MarkedPoint(NetworkLocation(0, o)) for o in offs])
    marked = model_marks("III", p, np.random.default_rng(0), radius=20.0)
    assert marked.marks().tolist() == [3.0, 3.0, 3.0, 3.0, 0.0]


def test_model_marks_ii_single_segment():
    net = LinearNetwork([[0, 0], [10, 0]], [[0, 1]])
    p = MarkedPointPattern(net, [MarkedPoint(NetworkLocation(0, 0.3))])
    marked = model_marks("II", p, np.random.default_rng(0))
    assert marked.marks()[0] == pytest.approx(3.0)


def test_model_marks_ii_bounds():
    net = synthetic_tree_network(core_depth=4)
    rng = np.random.default_rng(8)
    p = poisson_network(60.0 / net.total_length, net, rng)
    marked = model_marks("II", p, rng)
    m = marked.marks()
    assert np.all(m >= 0)
    assert np.all(m <= net.vertex_distances().max() + net.seg_lengths.max())


def test_model_marks_ii_requires_border():
    # a pure cycle has no degree-1 vertices
    net = LinearNetwork(
        [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1], [1, 2], [2, 3], [0, 3]]
    )
    p = MarkedPointPattern(net, [MarkedPoint(NetworkLocation(0, 0.5))])
    with pytest.raises(ValidationError, match="degree-1"):
        model_marks("II", p, np.random.default_rng(0))


def test_model_marks_i_noise_free_monotone():
    net = LinearNetwork([[0, 0], [100, 100]], [[0, 1]])
    offs = [0.1, 0.4, 0.7, 0.95]
    p = MarkedPointPattern(net, [MarkedPoint(NetworkLocation(0, o)) for o in offs])
    marked = model_marks("I", p, np.random.default_rng(0), a=2.0, b=0.5, tau=0.0)
    m = marked.marks()
    score = p.coords().sum(axis=1)
    assert np.all(np.diff(m) > 0)
    assert np.allclose(m, 2.0 + 0.5 * score)


@pytest.mark.parametrize("kind", ["I", "II", "III"])
def test_model_marks_of_an_empty_pattern_is_the_pattern(kind):
    net = synthetic_tree_network(core_depth=3)
    p = MarkedPointPattern.from_columns(net, (np.zeros(0, int), np.zeros(0)))
    assert model_marks(kind, p, np.random.default_rng(0)) is p


def test_model_marks_planar_rejected(unit_square):
    p = MarkedPointPattern(unit_square, [MarkedPoint((0.5, 0.5))])
    with pytest.raises(ValidationError, match="network"):
        model_marks("I", p, np.random.default_rng(0))


def test_simulators_bit_reproducible(unit_square):
    net = synthetic_tree_network(core_depth=4)
    for build in (
        lambda r: poisson_planar(80.0, unit_square, r),
        lambda r: poisson_network(50.0 / net.total_length, net, r),
    ):
        a = build(replicate_rng(SeedSpec(123, 5)))
        b = build(replicate_rng(SeedSpec(123, 5)))
        assert a.n == b.n
        if a.n:
            assert np.array_equal(a.coords(), b.coords())
        c = build(replicate_rng(SeedSpec(123, 6)))
        assert (c.n != a.n) or not np.array_equal(a.coords(), c.coords())


def test_poisson_chi_square_goodness_of_fit(unit_square):
    from scipy import stats

    rng = np.random.default_rng(2024)
    lam = 20.0
    counts = np.array([poisson_planar(lam, unit_square, rng).n for _ in range(10_000)])
    edges = [0, 12, 14, 16, 18, 20, 22, 24, 26, 28, 100]
    obs = np.histogram(counts, bins=edges)[0]
    cdf = stats.poisson(lam).cdf
    probs = np.diff([cdf(e - 1) if e else 0.0 for e in edges])
    probs[-1] = 1.0 - cdf(edges[-2] - 1)
    chi2 = ((obs - 10_000 * probs) ** 2 / (10_000 * probs)).sum()
    crit = stats.chi2(len(obs) - 1).ppf(0.99)
    assert chi2 < crit


@pytest.mark.parametrize(
    "call, value",
    [("planar", "nan"), ("planar", "inf"), ("network", "nan"), ("network", "inf"), ("model_iii", "nan")],
)
def test_non_finite_rate_or_radius_rejected(call, value):
    bad = float(value)
    rng = np.random.default_rng(0)
    net = synthetic_tree_network(core_depth=3)
    with pytest.raises(ValidationError, match="nonnegative"):
        if call == "planar":
            poisson_planar(bad, PlanarWindow(0.0, 1.0, 0.0, 1.0), rng)
        elif call == "network":
            poisson_network(bad, net, rng)
        else:
            model_marks("III", poisson_network(0.05, net, rng), rng, radius=bad)


def _planar_vec(x, y):
    return 40.0 + 30.0 * np.cos(3.0 * x) * np.sin(2.0 * y)


def _planar_scalar_only(x, y):
    if np.ndim(x):
        raise TypeError("scalar arguments only")
    return 40.0 + 30.0 * np.cos(3.0 * x) * np.sin(2.0 * y)


def _network_lam(seg, off):
    return 0.05 + 0.04 * np.cos(seg + 3.0 * off)


def _network_scalar_only(seg, off):
    if np.ndim(seg):
        raise TypeError("scalar arguments only")
    return 0.05 + 0.04 * np.cos(seg + 3.0 * off)


@pytest.mark.parametrize(
    "domain, lam, lam_max",
    [
        ("planar", 55.0, None),
        ("planar", _planar_vec, 70.0),
        ("planar", _planar_scalar_only, 70.0),
        ("planar", _planar_vec, 1e-12),  # the proposal is empty: no thinning draws
        ("network", 0.05, None),
        ("network", _network_lam, 0.09),
        ("network", _network_scalar_only, 0.09),
        ("network", _network_lam, 1e-12),
    ],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_poisson_rng_order_matches_hand_replay(domain, lam, lam_max, seed):
    # replay: the count, the locations (x then y uniforms, or one segment/offset
    # uniform), then one thinning uniform per proposed point when it is nonempty
    w = PlanarWindow(0.0, 2.0, 0.0, 1.0)
    net = synthetic_tree_network(core_depth=3)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    rate = lam_max if callable(lam) else lam
    if domain == "planar":
        p = poisson_planar(lam, w, rng, lam_max=lam_max)
        n = ref.poisson(rate * w.area)
        xs = ref.uniform(w.xmin, w.xmax, size=n)
        ys = ref.uniform(w.ymin, w.ymax, size=n)
        if callable(lam) and n:
            vals = np.array([lam(float(x), float(y)) for x, y in zip(xs, ys)])
            keep = ref.uniform(size=n) <= vals / lam_max
            xs, ys = xs[keep], ys[keep]
        assert np.array_equal(p.coords(), np.column_stack([xs, ys]))
    else:
        p = poisson_network(lam, net, rng, lam_max=lam_max)
        n = ref.poisson(rate * net.total_length)
        seg, off = _uniform_seg_off(net, n, ref)
        if callable(lam) and n:
            vals = np.array([lam(int(s), float(t)) for s, t in zip(seg, off)])
            keep = ref.uniform(size=n) <= vals / lam_max
            seg, off = seg[keep], off[keep]
        got = p.seg_off()
        assert np.array_equal(got[0], seg) and np.array_equal(got[1], off)
    if lam_max == 1e-12:
        assert n == 0
    elif callable(lam):
        assert 0 < p.n < n  # the thinning ran and dropped points
    assert rng.uniform() == ref.uniform()


@pytest.mark.parametrize("domain", ["planar", "network"])
@pytest.mark.parametrize("lam_max", [-1.0, float("nan")])
def test_bad_lam_max_rejected(domain, lam_max):
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError, match="nonnegative and finite"):
        if domain == "planar":
            poisson_planar(_planar_vec, PlanarWindow(0.0, 1.0, 0.0, 1.0), rng, lam_max=lam_max)
        else:
            poisson_network(_network_lam, synthetic_tree_network(core_depth=3), rng, lam_max=lam_max)


@pytest.mark.parametrize("site", ["lgcp_step", "linked_nu", "constant_field"])
def test_nan_simulator_scalars_rejected(site):
    rng = np.random.default_rng(0)
    net = synthetic_tree_network(core_depth=3)
    nan = float("nan")
    with pytest.raises(ValidationError):
        if site == "lgcp_step":
            spec = GaussianFieldSpec(mean=-3.0, cov=const_cov(0.1), anchor=NetworkLocation(0, 0.5))
            lgcp_network(spec, net, nan, rng)
        elif site == "linked_nu":
            linked_balanced_cox("linked", nan, constant_field_sampler(5.0), PlanarWindow(0, 1, 0, 1), rng)
        else:
            constant_field_sampler(nan)
