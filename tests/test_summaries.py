"""K/H/F/J and mark-weighted estimators against hand values and direct
double-loop oracles."""

import numpy as np
import pytest

from markedpoints import (
    LinearNetwork,
    MarkedPoint,
    MarkedPointPattern,
    NetworkLocation,
    STOYAN,
    SummaryCurve,
    ValidationError,
    f_inhom,
    h_cross_inhom,
    j_cross_inhom,
    k_cross_inhom,
    k_dot_inhom,
    mark_sum_measure,
    mark_weighted_k,
    split_by_type,
)
from markedpoints.summaries import translation_weights

from conftest import planar_pattern


# ---------------- oracles (independent code paths) ----------------


def k_cross_oracle(pi, pj, li, lj, r_values, translation=False):
    w = pi.domain
    out = np.zeros(len(r_values))
    for a, x in enumerate(pi.coords()):
        for b, y in enumerate(pj.coords()):
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


# ---------------- mark-weighted K and mark-sum ----------------


def test_mark_weighted_constant_marks_equals_unmarked(unit_square):
    rng = np.random.default_rng(5)
    xy = rng.uniform(size=(10, 2))
    p = planar_pattern(unit_square, xy, marks=np.full(10, 3.0), labels=["a"] * 10)
    r = np.linspace(0, 0.25, 26)
    got = mark_weighted_k(p, STOYAN, 10.0, "none", r)
    # unmarked K via ordered-pair cross machinery on the same pattern
    want = k_cross_oracle(p, p, np.full(10, 10.0), np.full(10, 10.0), r) - (
        # remove the diagonal contribution: pairs x == y at distance 0
        np.ones(len(r)) * 10 / (10.0 * 10.0) / unit_square.area
    )
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


# ---------------- network analogs ----------------


def test_network_k_single_segment_pair_counting():
    net = LinearNetwork([[0, 0], [100, 0]], [[0, 1]])
    offs = [0.125, 0.25, 0.5, 0.75]  # dyadic so offset arithmetic is float-exact
    pts = [MarkedPoint(NetworkLocation(0, o)) for o in offs]
    p = MarkedPointPattern(net, pts)
    lam = len(offs) / 100.0
    r = np.linspace(0, 25, 26)
    curve = k_cross_inhom(p, p, lam, lam, "none", r)
    # 1-D oracle: ordered pairs (incl. self at d=0) by offset arithmetic
    want = np.zeros(len(r))
    pos = np.array(offs) * 100.0
    for a in pos:
        for b in pos:
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
    w = translation_weights(unit_square, xy_a[:, None], xy_b[None, :])
    assert w[0, 0] == pytest.approx(1.0 / 0.5)


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
