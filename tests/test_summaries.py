"""K/H/F/J and mark-weighted estimators against hand values and direct
double-loop oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from markedpoints import (
    LinearNetwork,
    MarkedPoint,
    MarkedPointPattern,
    NetworkLocation,
    PlanarWindow,
    STOYAN,
    SmoothingSpec1D,
    SummaryCurve,
    VARIOGRAM,
    ValidationError,
    envelopes,
    f_inhom,
    h_cross_inhom,
    j_cross_inhom,
    k_cross_inhom,
    k_dot_inhom,
    mark_corr,
    mark_sum_measure,
    mark_weighted_k,
    poisson_planar,
    r_grid,
    split_by_type,
)
from markedpoints import TestFunction as MarkTestFunction
from markedpoints import _dist
from markedpoints._dist import cross_search
from markedpoints.geometry import _border_dist, _loc_arrays, network_arc_mesh
from markedpoints.summaries import translation_weights

from conftest import cross_distances, dense_distances, planar_pattern, random_connected_network


# ---------------- oracles (independent code paths) ----------------


def k_cross_oracle(pi, pj, li, lj, r_values, translation=False):
    """Ordered pairs; a pattern against itself pairs no point with itself."""
    w = pi.domain
    out = np.zeros(len(r_values))
    for a, x in enumerate(pi.coords()):
        for b, y in enumerate(pj.coords()):
            if pi is pj and a == b:
                continue
            d = np.hypot(x[0] - y[0], x[1] - y[1])
            e = 1.0
            if translation:
                e = w.area / ((w.width - abs(x[0] - y[0])) * (w.height - abs(x[1] - y[1])))
            for k, r in enumerate(r_values):
                if d <= r:
                    out[k] += e / (li[a] * lj[b])
    return out / w.area


def h_cross_oracle(pi, pj, li, lj, inf_lj, r_values):
    w = pi.domain
    out = np.full(len(r_values), np.nan)
    xi = pi.coords()
    xj = pj.coords()
    for k, r in enumerate(r_values):
        num = den = 0.0
        used = 0
        for a, x in enumerate(xi):
            bd = min(x[0] - w.xmin, w.xmax - x[0], x[1] - w.ymin, w.ymax - x[1])
            if bd < r:
                continue
            used += 1
            prod = 1.0
            for b, y in enumerate(xj):
                if np.hypot(x[0] - y[0], x[1] - y[1]) <= r:
                    prod *= 1.0 - inf_lj / lj[b]
            num += prod / li[a]
            den += 1.0 / li[a]
        if used:
            out[k] = 1.0 - num / den
    return out


def f_oracle(pj, lj, inf_lj, spacing, r_values):
    w = pj.domain
    xs = np.arange(w.xmin + spacing / 2.0, w.xmax, spacing)
    ys = np.arange(w.ymin + spacing / 2.0, w.ymax, spacing)
    xj = pj.coords()
    out = np.full(len(r_values), np.nan)
    for k, r in enumerate(r_values):
        total = 0.0
        used = 0
        for ux in xs:
            for uy in ys:
                bd = min(ux - w.xmin, w.xmax - ux, uy - w.ymin, w.ymax - uy)
                if bd < r:
                    continue
                used += 1
                prod = 1.0
                for b, y in enumerate(xj):
                    if np.hypot(ux - y[0], uy - y[1]) <= r:
                        prod *= 1.0 - inf_lj / lj[b]
                total += prod
        if used:
            out[k] = 1.0 - total / used
    return out


# ---------------- K ----------------


def test_k_cross_single_pair(unit_square):
    pi = planar_pattern(unit_square, [(0.4, 0.5)])
    pj = planar_pattern(unit_square, [(0.6, 0.5)])
    r = np.array([0.0, 0.1, 0.19, 0.2, 0.25])
    curve = k_cross_inhom(pi, pj, 1.0, 1.0, "none", r)
    assert np.allclose(curve.values, [0, 0, 0, 1, 1])


def test_k_cross_empty_is_zero(unit_square):
    pi = planar_pattern(unit_square, [])
    pj = planar_pattern(unit_square, [(0.6, 0.5)])
    curve = k_cross_inhom(pi, pj, 1.0, 1.0, "none", np.array([0.0, 0.2]))
    assert np.all(curve.values == 0.0)


def test_infinite_intensity_refused(unit_square):
    p = planar_pattern(unit_square, [(0.6, 0.5), (0.2, 0.3)])
    for call in (
        lambda: f_inhom(p, np.inf),
        lambda: h_cross_inhom(p, p, 1.0, np.array([1.0, np.inf])),
        lambda: k_cross_inhom(p, p, np.inf, 1.0),
    ):
        with pytest.raises(ValidationError, match="infinite, zero, negative or NaN"):
            call()


def test_k_of_a_pattern_with_itself_pairs_no_point_with_itself(unit_square):
    # a point is not its own neighbour: on CSR data K(0) = 0 and the 95 %
    # Poisson band covers pi r^2 at small r; a self pair would add
    # n / (lambda^2 |W|), about 0.005 here, at every r
    r = r_grid(0.03, 30)
    p = poisson_planar(200.0, unit_square, np.random.default_rng(206))
    assert k_cross_inhom(p, p, 200.0, 200.0, "translation", r).values[0] == 0.0
    band = envelopes(
        lambda rng: poisson_planar(200.0, unit_square, rng),
        lambda q: k_cross_inhom(q, q, 200.0, 200.0, "translation", r),
        39,
        0.95,
        7,
    )
    theo = np.pi * r**2
    small = r >= 0.01  # where a replicate has a pair within r
    assert band.lo[0] == band.hi[0] == 0.0
    assert np.all((band.lo[small] <= theo[small]) & (theo[small] <= band.hi[small]))


def test_k_checks_its_arguments_when_a_pattern_is_empty(unit_square):
    # the edge correction and both intensities are checked before the
    # all-zero curve of an empty pattern is returned
    empty = planar_pattern(unit_square, [])
    some = planar_pattern(unit_square, [(0.6, 0.5), (0.2, 0.3)])
    r = np.array([0.0, 0.2])
    with pytest.raises(ValidationError, match="unknown edge correction 'bogus'"):
        k_cross_inhom(empty, empty, 1.0, 1.0, ec="bogus")
    with pytest.raises(ValidationError, match="negative or NaN type-i intensity"):
        k_cross_inhom(some, empty, -1.0, 1.0, "none", r)
    with pytest.raises(ValidationError, match="negative or NaN type-j intensity"):
        k_cross_inhom(empty, some, 1.0, np.array([1.0, np.nan]), "none", r)
    with pytest.raises(ValidationError, match="unknown edge correction 'bogus'"):
        mark_weighted_k(some.with_marks([1.0, 2.0]), STOYAN, 1.0, ec="bogus", r=r)


def test_k_cross_monotone_and_theoretical(unit_square):
    rng = np.random.default_rng(0)
    pi = planar_pattern(unit_square, rng.uniform(size=(30, 2)))
    pj = planar_pattern(unit_square, rng.uniform(size=(25, 2)))
    r = np.linspace(0, 0.25, 65)
    curve = k_cross_inhom(pi, pj, 30.0, 25.0, "translation", r)
    assert np.all(np.diff(curve.values) >= 0)
    assert np.allclose(curve.theoretical, np.pi * r**2)


def test_k_cross_zero_intensity_rejected(unit_square):
    pi = planar_pattern(unit_square, [(0.4, 0.5)])
    pj = planar_pattern(unit_square, [(0.6, 0.5)])
    with pytest.raises(ValidationError, match="intensity"):
        k_cross_inhom(pi, pj, 0.0, 1.0)


@pytest.mark.parametrize("estimator", ["kcross", "hcross", "f", "kweighted"])
def test_nan_per_point_intensity_rejected(unit_square, estimator):
    # NaN is not > 0: it must not reach the curve as NaN values or an overflow
    rng = np.random.default_rng(14)
    p = MarkedPointPattern.from_columns(unit_square, rng.uniform(size=(50, 2)), marks=rng.gamma(2.0, 1.5, 50))
    lam = np.full(50, 50.0)
    lam[7] = np.nan
    calls = {
        "kcross": lambda: k_cross_inhom(p, p, lam, 50.0),
        "hcross": lambda: h_cross_inhom(p, p, 50.0, lam),
        "f": lambda: f_inhom(p, lam),
        "kweighted": lambda: mark_weighted_k(p, STOYAN, lam),
    }
    with pytest.raises(ValidationError, match="NaN .*intensity"):
        calls[estimator]()


def test_k_cross_symmetry_constant_intensity(unit_square):
    rng = np.random.default_rng(4)
    pi = planar_pattern(unit_square, rng.uniform(size=(12, 2)))
    pj = planar_pattern(unit_square, rng.uniform(size=(9, 2)))
    r = np.linspace(0, 0.25, 33)
    a = k_cross_inhom(pi, pj, 2.0, 3.0, "translation", r)
    b = k_cross_inhom(pj, pi, 3.0, 2.0, "translation", r)
    assert np.allclose(a.values, b.values, rtol=1e-12)


def test_k_cross_matches_oracle(unit_square):
    rng = np.random.default_rng(8)
    for trial in range(10):
        ni, nj = rng.integers(1, 12, size=2)
        pi = planar_pattern(unit_square, rng.uniform(size=(ni, 2)))
        pj = planar_pattern(unit_square, rng.uniform(size=(nj, 2)))
        li = rng.uniform(0.5, 2.0, size=ni)
        lj = rng.uniform(0.5, 2.0, size=nj)
        r = np.linspace(0, 0.4, 21)
        for translation in (False, True):
            got = k_cross_inhom(
                pi, pj, li, lj, "translation" if translation else "none", r
            ).values
            want = k_cross_oracle(pi, pj, li, lj, r, translation)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_k_dot_reduces_to_cross_with_two_types(unit_square):
    rng = np.random.default_rng(10)
    xy = rng.uniform(size=(20, 2))
    labels = ["a"] * 10 + ["b"] * 10
    p = planar_pattern(unit_square, xy, labels=labels)
    groups = split_by_type(p)
    r = np.linspace(0, 0.25, 11)
    dot = k_dot_inhom(groups["a"], groups["b"], 10.0, 10.0, "none", r)
    cross = k_cross_inhom(groups["a"], groups["b"], 10.0, 10.0, "none", r)
    assert np.allclose(dot.values, cross.values)
    assert dot.statistic == "kdot"


def test_k_dot_three_types_matches_enumeration(unit_square):
    pts = [(0.3, 0.3, "a"), (0.35, 0.3, "b"), (0.3, 0.36, "c"), (0.7, 0.7, "b")]
    p = MarkedPointPattern(
        unit_square, [MarkedPoint((x, y), lab) for x, y, lab in pts]
    )
    groups = split_by_type(p)
    others = MarkedPointPattern(
        unit_square, [q for q in p.points if q.type_label != "a"]
    )
    r = np.array([0.0, 0.04, 0.055, 0.07, 0.6])
    got = k_dot_inhom(groups["a"], others, 1.0, 1.0, "none", r).values
    want = k_cross_oracle(groups["a"], others, np.ones(1), np.ones(3), r)
    assert np.allclose(got, want)


# ---------------- H / F / J ----------------


def test_h_no_j_points_in_range_is_zero(unit_square):
    pi = planar_pattern(unit_square, [(0.5, 0.5)])
    pj = planar_pattern(unit_square, [(0.5, 0.9)])
    curve = h_cross_inhom(pi, pj, 1.0, 1.0, 1.0, np.array([0.0, 0.1]))
    assert np.allclose(curve.values, [0.0, 0.0])


def test_h_single_pair_hand_value(unit_square):
    pi = planar_pattern(unit_square, [(0.5, 0.5)])
    pj = planar_pattern(unit_square, [(0.5, 0.7)])
    curve = h_cross_inhom(pi, pj, 1.0, 1.0, 1.0, np.array([0.0, 0.3]))
    assert curve.values[1] == pytest.approx(1.0)


def test_h_without_type_i_points_is_nan(unit_square):
    pi = MarkedPointPattern.from_columns(unit_square, np.empty((0, 2)))
    pj = planar_pattern(unit_square, [(0.6, 0.5)])
    curve = h_cross_inhom(pi, pj, 1.0, 1.0, r=np.array([0.0, 0.2]))
    assert curve.statistic == "hcross" and np.all(np.isnan(curve.values))


def test_h_nan_when_reduced_window_empty(unit_square):
    pi = planar_pattern(unit_square, [(0.3, 0.5)])
    pj = planar_pattern(unit_square, [(0.6, 0.5)])
    curve = h_cross_inhom(pi, pj, 1.0, 1.0, 1.0, np.array([0.0, 0.2, 0.45]))
    assert not np.isnan(curve.values[1])  # i point retained at r = 0.2
    assert np.isnan(curve.values[2])  # border distance 0.3 < 0.45: nothing retained


def test_h_inf_lambda_validation(unit_square):
    pi = planar_pattern(unit_square, [(0.5, 0.5)])
    pj = planar_pattern(unit_square, [(0.5, 0.7)])
    with pytest.raises(ValidationError, match="inf_lam_j"):
        h_cross_inhom(pi, pj, 1.0, 1.0, 2.0, np.array([0.0, 0.1]))


@pytest.mark.parametrize("bad", [-1.0, -1e300, float("nan"), float("inf")])
def test_negative_or_non_finite_inf_lam_j_refused(unit_square, bad):
    # a negative inf_lam_j gave H down to -9.1e28 and F down to -3.9e37
    # (-1e300: an overflow warning); NaN gave NaN curves
    rng = np.random.default_rng(22)
    pi, pj = (planar_pattern(unit_square, rng.uniform(size=(30, 2))) for _ in range(2))
    with pytest.raises(ValidationError, match="inf_lam_j"):
        h_cross_inhom(pi, pj, 1.0, 1e-5, inf_lam_j=bad)
    with pytest.raises(ValidationError, match="inf_lam_j"):
        f_inhom(pj, 1e-5, inf_lam_j=bad)
    # zero is allowed: every factor is 1, and H and F are 0 wherever a row is retained
    assert np.nanmax(np.abs(h_cross_inhom(pi, pj, 1.0, 1e-5, inf_lam_j=0.0).values)) == 0.0


def test_h_matches_oracle(unit_square):
    rng = np.random.default_rng(21)
    for _ in range(8):
        ni, nj = rng.integers(1, 12, size=2)
        pi = planar_pattern(unit_square, rng.uniform(size=(ni, 2)))
        pj = planar_pattern(unit_square, rng.uniform(size=(nj, 2)))
        li = rng.uniform(0.5, 2.0, size=ni)
        lj = rng.uniform(0.5, 2.0, size=nj)
        inf_lj = lj.min()
        r = np.linspace(0, 0.45, 19)
        got = h_cross_inhom(pi, pj, li, lj, float(inf_lj), r).values
        want = h_cross_oracle(pi, pj, li, lj, inf_lj, r)
        both = ~np.isnan(want)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.allclose(got[both], want[both], rtol=1e-12, atol=1e-14)


def test_f_empty_pattern_zero(unit_square):
    pj = planar_pattern(unit_square, [])
    curve = f_inhom(pj, 1.0, None, 0.1, np.array([0.0, 0.2]))
    assert np.allclose(curve.values[~np.isnan(curve.values)], 0.0)


def test_f_homogeneous_plug_in_is_coverage_fraction(unit_square):
    rng = np.random.default_rng(2)
    pj = planar_pattern(unit_square, rng.uniform(size=(8, 2)))
    spacing = 0.125
    r = np.array([0.0, 0.15, 0.3])
    curve = f_inhom(pj, 1.0, 1.0, spacing, r)
    # factors collapse to indicators: F = fraction of retained grid pts with a point within r
    want = f_oracle(pj, np.ones(8), 1.0, spacing, r)
    assert np.allclose(curve.values, want, equal_nan=True)
    assert curve.values[0] == 0.0


def test_f_matches_oracle(unit_square):
    rng = np.random.default_rng(31)
    for _ in range(5):
        nj = int(rng.integers(1, 10))
        pj = planar_pattern(unit_square, rng.uniform(size=(nj, 2)))
        lj = rng.uniform(0.5, 2.0, size=nj)
        inf_lj = float(lj.min())
        spacing = 0.11
        r = np.linspace(0, 0.4, 9)
        got = f_inhom(pj, lj, inf_lj, spacing, r).values
        want = f_oracle(pj, lj, inf_lj, spacing, r)
        both = ~np.isnan(want)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.allclose(got[both], want[both], rtol=1e-12, atol=1e-14)


def test_j_identity_and_arithmetic(unit_square):
    r = np.array([0.0, 0.1])
    h = SummaryCurve(r, np.array([0.5, 0.5]), "hcross")
    f = SummaryCurve(r, np.array([0.5, 0.75]), "f")
    j = j_cross_inhom(h, f)
    assert j.values[0] == pytest.approx(1.0)
    assert j.values[1] == pytest.approx(2.0)


def test_j_nan_rules(unit_square):
    r = np.array([0.0, 0.1, 0.2])
    h = SummaryCurve(r, np.array([0.5, np.nan, 0.2]), "hcross")
    f = SummaryCurve(r, np.array([0.5, 0.5, 1.0]), "f")
    j = j_cross_inhom(h, f)
    assert not np.isnan(j.values[0])
    assert np.isnan(j.values[1]) and np.isnan(j.values[2])


def test_j_grid_mismatch(unit_square):
    h = SummaryCurve(np.array([0.0, 0.1]), np.zeros(2), "hcross")
    f = SummaryCurve(np.array([0.0, 0.2]), np.zeros(2), "f")
    with pytest.raises(ValidationError, match="grid"):
        j_cross_inhom(h, f)


def test_curve_csv_comment_floats_at_12_digits(tmp_path):
    # a last-bit move of a float in the metadata leaves the file's bytes alone
    x = 1691.9915606123877
    written = []
    for k, v in enumerate([x, np.nextafter(x, np.inf)]):
        meta = {"inf_lam_j": v, "n": 7, "sigma": "scott"}
        SummaryCurve(np.array([0.0, 0.1]), np.array([0.5, 0.75]), "f", None, meta).to_csv(tmp_path / f"{k}.csv")
        written.append((tmp_path / f"{k}.csv").read_bytes())
    assert written[0] == written[1]
    assert written[0].startswith(b"# statistic=f inf_lam_j=1691.99156061 n=7 sigma=scott\n")


# ---------------- mark-weighted K and mark-sum ----------------


def test_mark_weighted_constant_marks_equals_unmarked(unit_square):
    rng = np.random.default_rng(5)
    xy = rng.uniform(size=(10, 2))
    p = planar_pattern(unit_square, xy, marks=np.full(10, 3.0), labels=["a"] * 10)
    r = np.linspace(0, 0.25, 26)
    got = mark_weighted_k(p, STOYAN, 10.0, "none", r)
    # unmarked K via ordered-pair cross machinery on the same pattern
    want = k_cross_oracle(p, p, np.full(10, 10.0), np.full(10, 10.0), r)
    assert np.allclose(got.values, want, rtol=1e-10)


def test_mark_weighted_two_point_hand_value(unit_square):
    p = planar_pattern(unit_square, [(0.4, 0.5), (0.6, 0.5)], marks=[2.0, 4.0])
    r = np.array([0.0, 0.1, 0.2, 0.3])
    curve = mark_weighted_k(p, STOYAN, 1.0, "none", r)
    # both ordered pairs weigh 8, c = 8: K(r >= 0.2) = (8+8)/8 = 2
    assert np.allclose(curve.values, [0, 0, 2, 2])


def test_mark_sum_measure_cases(unit_square):
    p = planar_pattern(
        unit_square,
        [(0.1, 0.1), (0.15, 0.1), (0.12, 0.12), (0.9, 0.9)],
        marks=[1.0, 2.0, 4.0, 9.0],
    )
    vals = mark_sum_measure(p, 0.1)
    assert vals[0] == pytest.approx(3.0)
    assert np.isnan(vals[3])
    # large radius: each value is the mean of all other marks
    vals2 = mark_sum_measure(p, 2.0)
    assert vals2[0] == pytest.approx(np.mean([2.0, 4.0, 9.0]))


def test_mark_sum_measure_rejects_nan_radius(unit_square):
    p = planar_pattern(unit_square, [(0.1, 0.1), (0.9, 0.9)], marks=[1.0, 2.0])
    with pytest.raises(ValidationError, match="nonnegative"):
        mark_sum_measure(p, float("nan"))


# ---------------- network analogs ----------------


def test_network_k_single_segment_pair_counting():
    net = LinearNetwork([[0, 0], [100, 0]], [[0, 1]])
    offs = [0.125, 0.25, 0.5, 0.75]  # dyadic so offset arithmetic is float-exact
    pts = [MarkedPoint(NetworkLocation(0, o)) for o in offs]
    p = MarkedPointPattern(net, pts)
    lam = len(offs) / 100.0
    r = np.linspace(0, 25, 26)
    curve = k_cross_inhom(p, p, lam, lam, "none", r)
    # 1-D oracle: ordered pairs of two points by offset arithmetic
    want = np.zeros(len(r))
    pos = np.array(offs) * 100.0
    for ka, a in enumerate(pos):
        for kb, b in enumerate(pos):
            if ka != kb:
                want += (np.abs(a - b) <= r) / (lam * lam)
    want /= net.total_length
    assert np.allclose(curve.values, want)


def test_network_h_uses_border_reduction():
    net = LinearNetwork([[0, 0], [100, 0]], [[0, 1]])
    pi = MarkedPointPattern(net, [MarkedPoint(NetworkLocation(0, 0.3))])
    pj = MarkedPointPattern(net, [MarkedPoint(NetworkLocation(0, 0.35))])
    r = np.array([0.0, 10.0, 40.0])
    curve = h_cross_inhom(pi, pj, 1.0, 1.0, 1.0, r)
    assert curve.values[1] == pytest.approx(1.0)  # j point 5 units away
    assert np.isnan(curve.values[2])  # border distance 30 < 40


def test_translation_weight_values(unit_square):
    xy_a = np.array([[0.1, 0.1]])
    xy_b = np.array([[0.6, 0.1]])
    w = translation_weights(unit_square, xy_a, xy_b, np.array([0]), np.array([0]))
    assert w[0] == pytest.approx(1.0 / 0.5)


def test_translation_on_opposite_window_edges(unit_square):
    # the closed window admits points on x = 0 and x = 1; their zero overlap
    # is never needed because the pair lies beyond every r
    xy = [(0.0, 0.5), (1.0, 0.5), (0.3, 0.4), (0.45, 0.6), (0.6, 0.55), (0.2, 0.3)]
    p = planar_pattern(unit_square, xy, labels=["i"] * len(xy))
    li = np.full(p.n, 6.0)
    r = np.linspace(0, 0.25, 11)
    got = k_cross_inhom(p, p, 6.0, 6.0, "translation", r).values
    with np.errstate(divide="ignore"):
        want = k_cross_oracle(p, p, li, li, r, translation=True)
    assert np.allclose(got, want, rtol=1e-12)
    with pytest.raises(ValidationError, match="exceeds the window"):
        k_cross_inhom(p, p, 6.0, 6.0, "translation", np.linspace(0, 1.0, 11))


def test_translation_rejected_on_networks():
    net = LinearNetwork([[0, 0], [100, 0]], [[0, 1]])
    p = MarkedPointPattern(net, [MarkedPoint(NetworkLocation(0, 0.5))])
    with pytest.raises(ValidationError, match="planar"):
        k_cross_inhom(p, p, 1.0, 1.0, "translation", np.array([0.0, 1.0]))


def test_h_f_values_in_unit_interval_or_nan(unit_square):
    rng = np.random.default_rng(41)
    pi = planar_pattern(unit_square, rng.uniform(size=(25, 2)))
    pj = planar_pattern(unit_square, rng.uniform(size=(30, 2)))
    r = np.linspace(0, 0.45, 46)
    h = h_cross_inhom(pi, pj, 25.0, 30.0, r=r).values
    f = f_inhom(pj, 30.0, grid_spacing=0.05, r=r).values
    for vals in (h, f):
        finite = vals[~np.isnan(vals)]
        assert np.all((finite >= 0.0) & (finite <= 1.0))


def test_curve_csv_roundtrip(tmp_path, unit_square):
    rng = np.random.default_rng(3)
    pi = planar_pattern(unit_square, rng.uniform(size=(5, 2)))
    pj = planar_pattern(unit_square, rng.uniform(size=(5, 2)))
    curve = k_cross_inhom(pi, pj, 5.0, 5.0, "translation", np.linspace(0, 0.2, 9))
    path = tmp_path / "k.csv"
    curve.to_csv(path)
    loaded = SummaryCurve.from_csv(path)
    assert loaded.statistic == "kcross"
    assert np.allclose(loaded.values, curve.values)
    assert np.allclose(loaded.theoretical, curve.theoretical)
    # the '#' comment line is optional
    path.write_text(path.read_text().split("\n", 1)[1])
    bare = SummaryCurve.from_csv(path)
    assert bare.statistic == "unknown" and bare.meta == {}
    assert np.array_equal(bare.values, loaded.values)


@pytest.mark.parametrize(
    "text, where",
    [
        ("# statistic=k\nr,value\n0,0\n0.1,abc\n", "line 4: malformed"),
        ("# statistic=k\nr,value\n0,0\n0.1\n", "line 4: malformed"),
        ("r,value,theoretical\n0,0,0\n0.1,1\n", "line 3: malformed"),
        ("", "has no rows"),
        ("# statistic=k\nr,value\n", "has no rows"),
    ],
)
def test_malformed_curve_csv_names_the_file_and_line(tmp_path, text, where):
    path = tmp_path / "k.csv"
    path.write_text(text)
    with pytest.raises(ValidationError) as err:
        SummaryCurve.from_csv(path)
    assert str(path) in str(err.value) and where in str(err.value)


@pytest.mark.parametrize("r", [[0.0, 0.1, np.nan], [0.0, np.nan, 0.2], [0.0, 0.1, np.inf]])
@pytest.mark.parametrize("call", ["f", "hcross", "markcorr", "kweighted", "curve"])
def test_non_finite_r_grid_refused(unit_square, r, call):
    rng = np.random.default_rng(5)
    p = planar_pattern(unit_square, rng.uniform(size=(100, 2)), rng.uniform(1.0, 2.0, 100))
    calls = {
        "f": lambda: f_inhom(p, 100.0, r=r),
        "hcross": lambda: h_cross_inhom(p, p, 100.0, 100.0, r=r),
        "markcorr": lambda: mark_corr(p, STOYAN, SmoothingSpec1D(0.01), r),
        "kweighted": lambda: mark_weighted_k(p, STOYAN, 100.0, "none", r),
        "curve": lambda: SummaryCurve(r, np.zeros(3), "k"),
    }
    with pytest.raises(ValidationError, match="r grid must be finite"):
        calls[call]()


def test_cross_pairs_rejects_patterns_on_two_networks():
    # two networks built from identical arrays are still two domains
    verts, segs = [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]], [[0, 1], [1, 2]]
    net_a, net_b = LinearNetwork(verts, segs), LinearNetwork(verts, segs)
    pa = MarkedPointPattern(net_a, [MarkedPoint(NetworkLocation(0, 0.5))])
    pb = MarkedPointPattern(net_b, [MarkedPoint(NetworkLocation(1, 0.5))])
    with pytest.raises(ValidationError, match="one domain"):
        cross_search(net_a, pb)(pa, 100.0)
    with pytest.raises(ValidationError, match="one domain"):
        cross_search(net_b, pa)(pb, 100.0)
    pb_on_a = MarkedPointPattern(net_a, pb.points)
    i, j, d = cross_search(net_a, pb_on_a)(pa, 100.0)
    assert (i.tolist(), j.tolist(), d.tolist()) == ([0], [0], [10.0])


@settings(deadline=None)
@given(scale=st.floats(-6.0, 6.0), offset=st.floats(-1e8, 1e8), seed=st.integers(0, 2**32 - 1))
def test_planar_cross_pair_tree_distances_equal_cdist(scale, offset, seed):
    # planar cross pairs keep the k-d tree's own distances, which must be
    # cdist's to the bit, at scales 1e-6 to 1e6 and offsets up to 1e8 x scale
    rng = np.random.default_rng(seed)
    scale = 10.0**scale
    a = offset * scale + rng.uniform(0.0, scale, size=(30, 2))
    b = np.vstack([offset * scale + rng.uniform(0.0, scale, size=(25, 2)), a[:5]])  # five at distance 0
    window = PlanarWindow(a.min() - scale, a.max() + scale, a.min() - scale, a.max() + scale)
    dense = cdist(a, b)
    cutoff = float(np.quantile(dense, rng.uniform(0.05, 0.6)))  # an exact pair distance
    i, j, d = cross_search(window, b)(a, cutoff)
    want_i, want_j = np.nonzero(dense <= cutoff)
    order = np.lexsort((j, i))
    np.testing.assert_array_equal(i[order], want_i)
    np.testing.assert_array_equal(j[order], want_j)
    assert np.array_equal(d, dense[i, j])


# ---------------- pair engine against dense brute-force oracles ----------------


def _grid_rows(domain, spacing):
    """The F evaluation grid, built independently of f_inhom."""
    if isinstance(domain, LinearNetwork):
        return network_arc_mesh(domain, spacing)[0]
    xs = np.arange(domain.xmin + spacing / 2.0, domain.xmax, spacing)
    ys = np.arange(domain.ymin + spacing / 2.0, domain.ymax, spacing)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def _rows_to(domain, rows, p):
    if p.n == 0:
        return np.zeros((len(rows), 0))
    if p.is_network:
        return cross_distances(domain, rows, p.locations())
    return cdist(rows, p.coords())


def _border(domain, rows):
    if isinstance(domain, LinearNetwork):
        return _border_dist(domain, *_loc_arrays(domain, rows))
    x, y = rows[:, 0], rows[:, 1]
    return np.minimum.reduce([x - domain.xmin, domain.xmax - x, y - domain.ymin, domain.ymax - y])


def _pair_sum_oracle(d, w, r):
    """Sum of w over the pairs with d <= r_k, and the sum of |w| as its scale."""
    inside = d[..., None] <= r
    return (w[..., None] * inside).sum(axis=(0, 1)), (np.abs(w)[..., None] * inside).sum(axis=(0, 1))


def _retention_oracle(d, g, bdist, wts, r):
    """1 - weighted mean over rows with bdist >= r_k of prod_{d <= r_k} g."""
    prod = np.where(d[:, :, None] <= r, g[None, :, None], 1.0).prod(axis=1)
    ret = bdist[:, None] >= r
    out = np.full(len(r), np.nan)
    ok = ret.any(axis=0)
    num = (wts[:, None] * prod * ret).sum(axis=0)
    out[ok] = 1.0 - num[ok] / (wts[:, None] * ret).sum(axis=0)[ok]
    return out


def _assert_close(got, want, scale):
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.all(np.abs(got[ok] - want[ok]) <= 1e-12 * np.broadcast_to(scale, want.shape)[ok])


@st.composite
def _summary_cases(draw):
    """(type-i pattern, type-j pattern, intensities, r grid, F grid spacing, ec)."""
    kind = draw(st.sampled_from(["lattice", "uniform", "network", "loop"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ni, nj = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    ec = "none"
    if kind in ("network", "loop"):
        if kind == "loop":  # every vertex has degree 2: no border
            m = draw(st.integers(3, 6))
            ang = 2.0 * np.pi * np.arange(m) / m
            net = LinearNetwork(np.column_stack([5 * np.cos(ang), 5 * np.sin(ang)]),
                                [[k, (k + 1) % m] for k in range(m)])
        else:
            net = random_connected_network(rng, draw(st.integers(2, 6)))

        def pattern(n):
            locs = [NetworkLocation(int(rng.integers(net.n_segments)), float(rng.uniform())) for _ in range(n)]
            return MarkedPointPattern(net, [MarkedPoint(loc, mark=float(m)) for loc, m in zip(locs, rng.uniform(1, 3, n))])

        scale = 2.0
        # 3000 mesh cells is more than one row chunk of the retention products
        spacing = net.total_length / draw(st.sampled_from([64, 3000]))
    else:
        window = PlanarWindow(0.0, 1.0, 0.0, 1.0)
        if kind == "lattice":
            # dyadic points, edges included, and a dyadic r grid: pairs sit exactly at r_k
            scale = 1.0 / 16.0
            coords = lambda n: rng.integers(0, 17, size=(n, 2)) / 16.0
        else:
            scale = 0.05
            coords = lambda n: rng.uniform(size=(n, 2))

        def pattern(n):
            return planar_pattern(window, coords(n), marks=rng.integers(1, 4, size=n) * 1.0)

        spacing = draw(st.sampled_from([1.0 / 8.0, 1.0 / 64.0]))  # 64 x 64 = two row chunks
        if draw(st.booleans()):
            ec = "translation"
    if kind == "lattice":
        steps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    else:
        steps = draw(st.lists(st.floats(0.05, 1.5), min_size=1, max_size=8))
    r = np.concatenate([[0.0], np.cumsum(steps)]) * scale
    if kind in ("lattice", "uniform"):
        r = r[r < 1.0]  # the translation weight needs a window overlap
        assume(len(r) >= 2)
    pi = pattern(ni)
    pj = pi if draw(st.booleans()) else pattern(nj)
    if draw(st.booleans()):  # constant intensities: every factor g_j is 0
        li, lj = np.full(pi.n, 2.0), np.full(pj.n, 2.0)
    else:
        li, lj = rng.uniform(0.5, 2.0, size=pi.n), rng.uniform(0.5, 2.0, size=pj.n)
    return pi, pj, li, lj, r, spacing, ec


def _translation(domain, xa, xb, d, r_max):
    """Translation weights of the pairs within r_max, 0 beyond (where points
    on opposite window edges have no overlap)."""
    dx = np.abs(xa[:, None, 0] - xb[None, :, 0])
    dy = np.abs(xa[:, None, 1] - xb[None, :, 1])
    with np.errstate(divide="ignore"):
        return np.where(d <= r_max, domain.area / ((domain.width - dx) * (domain.height - dy)), 0.0)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_summary_cases())
def test_summaries_match_dense_oracles(case):
    pi, pj, li, lj, r, spacing, ec = case
    domain = pi.domain
    size = pi.domain_size
    d = dense_distances(pi, pj)

    # K: ordered pairs, none of a point with itself when pi is pj
    w = 1.0 / np.outer(li, lj) / size
    if pi is pj:
        np.fill_diagonal(w, 0.0)
    if ec == "translation" and pi.n and pj.n:
        w = w * _translation(domain, pi.coords(), pj.coords(), d, r[-1])
    want, sc = _pair_sum_oracle(d, w, r)
    _assert_close(k_cross_inhom(pi, pj, li, lj, ec, r).values, want, sc)

    # H and F: the point at the infimum of lam_j has g_j = 0
    g = 1.0 - lj.min() / lj if pj.n else np.zeros(0)
    if pi.n:
        rows = pi.locations() if pi.is_network else pi.coords()
        want = _retention_oracle(d, g, _border(domain, rows), 1.0 / li, r)
        _assert_close(h_cross_inhom(pi, pj, li, lj, r=r).values, want, 1.0)
    rows = _grid_rows(domain, spacing)
    want = _retention_oracle(_rows_to(domain, rows, pj), g, _border(domain, rows), np.ones(len(rows)), r)
    _assert_close(f_inhom(pj, lj, grid_spacing=spacing, r=r).values, want, 1.0)

    # mark-weighted K and the mark-sum measure on the union: ordered pairs i != j
    p = MarkedPointPattern(domain, pi.points + pj.points)
    assume(p.n >= 2)
    lam = np.concatenate([li, lj])
    m = p.marks()
    d = dense_distances(p)
    off = ~np.eye(p.n, dtype=bool)
    custom = MarkTestFunction("custom", fn=lambda a, b: a * a + b)
    for tf, f in ((STOYAN, np.multiply), (custom, lambda a, b: a * a + b)):
        fv = f(m[:, None], m[None, :])
        w = np.where(off, fv / np.outer(lam, lam) / (size * fv[off].mean()), 0.0)
        if ec == "translation":
            w = w * _translation(domain, p.coords(), p.coords(), d, r[-1])
        want, sc = _pair_sum_oracle(d, w, r)
        _assert_close(mark_weighted_k(p, tf, lam, ec, r).values, want, sc)
    radius = r[len(r) // 2]
    inside = (d <= radius) & off
    with np.errstate(invalid="ignore"):
        want = (inside @ m) / inside.sum(axis=1)
    _assert_close(mark_sum_measure(p, radius), want, (inside @ np.abs(m)) / np.maximum(inside.sum(axis=1), 1))


def _retained_r_case(kind):
    """(type-i, type-j, intensities, r grid, F grid spacing): the first 40
    type-i points lie within r[1] of the border, and type j has a point on
    each of them, so their products at r = 0 are not 1."""
    rng = np.random.default_rng(61)
    if kind == "planar":
        w = PlanarWindow(0.0, 1.0, 0.0, 1.0)
        edge = np.column_stack([rng.uniform(0.0, 0.01, 40), rng.uniform(size=40)])
        pi = MarkedPointPattern.from_columns(w, np.vstack([edge, rng.uniform(0.1, 0.9, size=(12, 2))]))
        pj = MarkedPointPattern.from_columns(w, np.vstack([edge, rng.uniform(size=(30, 2))]))
        return pi, pj, rng.uniform(0.5, 2.0, pi.n), rng.uniform(0.5, 2.0, pj.n), r_grid(0.25, 8), 1.0 / 16.0
    net = random_connected_network(rng, 12, extra_edge_prob=0.0)  # a tree: its leaves are the border
    leaf = net.border_vertices()[rng.integers(0, len(net.border_vertices()), 40)]
    at_leaf = [int(np.nonzero((net.segments == v).any(axis=1))[0][0]) for v in leaf]
    near = np.where(net.segments[at_leaf, 0] == leaf, 0.01, 0.99)
    seg_i = np.concatenate([at_leaf, rng.integers(0, net.n_segments, 12)])
    off_i = np.concatenate([near, rng.uniform(size=12)])
    seg_j = np.concatenate([seg_i[:40], rng.integers(0, net.n_segments, 30)])
    off_j = np.concatenate([off_i[:40], rng.uniform(size=30)])
    pi = MarkedPointPattern.from_columns(net, (seg_i, off_i))
    pj = MarkedPointPattern.from_columns(net, (seg_j, off_j))
    return pi, pj, rng.uniform(0.5, 2.0, pi.n), rng.uniform(0.5, 2.0, pj.n), r_grid(6.0, 16), net.total_length / 64


@pytest.mark.parametrize("kind", ["planar", "network"])
def test_h_f_stop_at_the_last_retained_r(monkeypatch, kind):
    # each block's products stop at its last retained r value; blocks of 12
    # or 40 rows, where that comes before the last r value, must give the
    # one-block bits and the dense oracle's values; the first H block is
    # retained at r = 0 alone, and its sums must still run in row order
    pi, pj, li, lj, r, spacing = _retained_r_case(kind)
    domain = pi.domain
    rows_i = pi.locations() if pi.is_network else pi.coords()
    grid = _grid_rows(domain, spacing)
    bdist_i, bdist_f = _border(domain, rows_i), _border(domain, grid)
    assert bdist_i[:40].max() < r[1]
    assert any(bdist_f[k : k + 12].max() < r[-1] for k in range(0, len(grid), 12))

    def curves():
        return [
            h_cross_inhom(pi, pj, li, lj, r=r).values,
            f_inhom(pj, lj, grid_spacing=spacing, r=r).values,
        ]

    want = curves()
    g = 1.0 - lj.min() / lj
    h_dense = _retention_oracle(dense_distances(pi, pj), g, bdist_i, 1.0 / li, r)
    f_dense = _retention_oracle(_rows_to(domain, grid, pj), g, bdist_f, np.ones(len(grid)), r)
    for rows in (12, 40):
        monkeypatch.setattr(_dist, "_BLOCK", rows * len(r))
        got = curves()
        for g_vals, w_vals in zip(got, want):
            np.testing.assert_array_equal(g_vals, w_vals)
        _assert_close(got[0], h_dense, 1.0)
        _assert_close(got[1], f_dense, 1.0)
    assert want[0][0] != 0.0  # the coincident type-j points count at r = 0


def test_f_memory_stays_below_the_dense_matrix(unit_square):
    # the dense 16384 x 3000 distance matrix alone would take 375 MiB
    rng = np.random.default_rng(12)
    p = planar_pattern(unit_square, rng.uniform(size=(3000, 2)))
    lam = rng.uniform(2000.0, 4000.0, size=3000)
    tracemalloc.start()
    try:
        curve = f_inhom(p, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(curve.r) == 513
    assert peak < 150 * 2**20


def test_mark_weighted_k_memory_is_linear_in_pairs(unit_square):
    # an n x n matrix of pair values alone would take 763 MiB at n = 10^4
    rng = np.random.default_rng(13)
    p = MarkedPointPattern.from_columns(unit_square, rng.uniform(size=(10_000, 2)), marks=rng.gamma(2.0, 1.5, 10_000))
    r = np.linspace(0.0, 0.05, 65)
    tracemalloc.start()
    try:
        for tf in (STOYAN, VARIOGRAM):
            curve = mark_weighted_k(p, tf, 10_000.0, "none", r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(curve.values))
    assert peak < 64 * 2**20


@pytest.mark.parametrize("r_max", [float("nan"), float("inf")])
def test_r_grid_rejects_non_finite_r_max(r_max):
    # NaN gave an all-NaN grid, inf [nan, inf, inf, ...] and a RuntimeWarning
    with pytest.raises(ValidationError, match="finite r_max"):
        r_grid(r_max, 4)


@pytest.mark.parametrize("domain, spacing", [("planar", 0.0), ("planar", float("nan")), ("network", float("nan"))])
def test_f_rejects_bad_grid_spacing(unit_square, domain, spacing):
    if domain == "planar":
        p = planar_pattern(unit_square, [(0.2, 0.3), (0.7, 0.6)])
    else:
        net = LinearNetwork([[0, 0], [10, 0], [10, 10]], [[0, 1], [1, 2]])
        p = MarkedPointPattern(net, [MarkedPoint(NetworkLocation(0, 0.5)), MarkedPoint(NetworkLocation(1, 0.5))])
    with pytest.raises(ValidationError, match="spacing"):
        f_inhom(p, 1.0, grid_spacing=spacing)
