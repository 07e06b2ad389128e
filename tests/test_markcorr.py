"""Test functions, normalizations, and the ratio estimator against a
direct double-loop oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from markedpoints import (
    BEISBART_KERSCHER,
    LinearNetwork,
    MarkedPoint,
    MarkedPointPattern,
    NetworkLocation,
    PlanarWindow,
    NumericalError,
    SHIMANTANI_I,
    STOYAN,
    SmoothingSpec1D,
    VARIOGRAM,
    ValidationError,
    mark_corr,
    mark_corr_suite,
    mark_moments,
    mark_weighted_k,
    normalization,
    pair_average,
)
from markedpoints import TestFunction as MarkTestFunction
from markedpoints._dist import close_pairs, translation_weights
from markedpoints.intensity import kernel1d_pdf, kernel1d_support
from markedpoints import markcorr
from markedpoints.markcorr import _pair_values, _reach

from conftest import dense_distances, location_distance, planar_pattern, random_connected_network


def mark_corr_oracle(xy, marks, tf_fn, h, kernel, r_values):
    """Plain double loop over ordered pairs; returns (ratio, denominator)."""
    n = len(marks)
    num = np.zeros(len(r_values))
    den = np.zeros(len(r_values))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = np.hypot(xy[i, 0] - xy[j, 0], xy[i, 1] - xy[j, 1])
            kv = kernel1d_pdf(kernel, h, d - r_values)
            num += tf_fn(marks[i], marks[j]) * kv
            den += kv
    out = np.full(len(r_values), np.nan)
    ok = den >= 1e-12
    out[ok] = num[ok] / den[ok]
    return out, den


def test_pair_weights_hand_values():
    m = np.array([2.0, 4.0])
    w = _pair_values(STOYAN, m[:, None], m[None, :], 3.0)
    assert w[0, 1] == 8.0 and w[1, 0] == 8.0
    m = np.array([5.0, 5.0])
    w = _pair_values(VARIOGRAM, m[:, None], m[None, :], 5.0)
    assert np.all(w == 0.0)
    m = np.array([-1.0, 1.0])
    w = _pair_values(SHIMANTANI_I, m[:, None], m[None, :], 0.0)
    assert w[0, 1] == -1.0


def test_normalization_hand_values():
    assert normalization(STOYAN, [2.0, 4.0]) == pytest.approx(8.0)
    assert normalization(VARIOGRAM, [2.0, 4.0]) == pytest.approx(2.0)
    assert normalization(BEISBART_KERSCHER, [2.0, 4.0]) == pytest.approx(6.0)
    assert normalization(SHIMANTANI_I, [2.0, 4.0]) == pytest.approx(1.0)
    assert normalization(VARIOGRAM, [5.0, 5.0]) == 0.0
    assert normalization(STOYAN, [2.0, 4.0], stoyan_rule="mean-squared") == pytest.approx(9.0)


def test_normalization_matches_pair_average():
    rng = np.random.default_rng(0)
    marks = rng.uniform(1.0, 3.0, size=17)
    for tf in (STOYAN, BEISBART_KERSCHER, VARIOGRAM):
        assert normalization(tf, marks) == pair_average(tf, marks)


# marks on a 1/16 grid keep every mark sum exact, so the closed forms and the
# loop differ only by their final roundings
_GRID_MARKS = st.lists(st.integers(-2048, 2048).map(lambda k: k / 16.0), min_size=2, max_size=40)


@given(_GRID_MARKS)
def test_pair_average_matches_ordered_pair_loop(marks):
    mu = float(np.mean(marks))
    custom = MarkTestFunction("custom", fn=lambda a, b: a * a - 3.0 * b)
    fns = dict(_ORACLE_FNS, shimantani_i=lambda a, b: (a - mu) * (b - mu), custom=custom.fn)
    for tf in (STOYAN, BEISBART_KERSCHER, VARIOGRAM, SHIMANTANI_I, custom):
        terms = [fns[tf.name](a, b) for i, a in enumerate(marks) for j, b in enumerate(marks) if i != j]
        want = sum(terms) / len(terms)
        try:
            got = pair_average(tf, marks)
        except NumericalError:
            assert tf.name == "shimantani_i" and min(marks) == max(marks)
            continue
        assert abs(got - want) <= 1e-12 * sum(abs(t) for t in terms) / len(terms)


def _exact_pair_means(marks):
    """Exact ordered-pair means of the four built-ins, the exact mean and the
    exact population variance of float marks: a double loop over the marks
    as integers on their common power-of-two scale."""
    n = len(marks)
    den = max(Fraction(m).denominator for m in marks)
    k = [int(Fraction(m) * den) for m in marks]
    s = sum(k)
    c = [n * a - s for a in k]  # n * den * (mark - mean)
    sums = [0, 0, 0, 0]
    for i in range(n):
        for j in range(n):
            if i != j:
                sums[0] += k[i] * k[j]
                sums[1] += k[i] + k[j]
                sums[2] += (k[i] - k[j]) ** 2
                sums[3] += c[i] * c[j]
    npairs = n * (n - 1)
    means = {
        "stoyan": Fraction(sums[0], npairs * den**2),
        "beisbart_kerscher": Fraction(sums[1], npairs * den),
        "variogram": Fraction(sums[2], 2 * npairs * den**2),
        "shimantani_i": Fraction(sums[3], npairs * (n * den) ** 2),
    }
    return means, Fraction(s, n * den), Fraction(sum(a * a for a in c), n * (n * den) ** 2)


def _not_tiny(lo, hi):
    """Floats in [lo, hi] that are 0 or at least 1e-100 in size, so that no
    product of two marks underflows."""
    return st.floats(lo, hi).filter(lambda x: x == 0.0 or abs(x) >= 1e-100)


@st.composite
def _shifted_marks(draw):
    """offset + spread * u: a spread of at least 1 on an offset up to 1e8."""
    n = draw(st.integers(2, 120))
    offset, spread = draw(_not_tiny(-1e8, 1e8)), draw(st.floats(1.0, 100.0))
    return [offset + spread * u for u in draw(st.lists(_not_tiny(0.0, 1.0), min_size=n, max_size=n))]


@settings(deadline=None)
@given(_shifted_marks())
def test_pair_average_and_normalization_match_exact_rationals(marks):
    # a Sigma m / Sigma m^2 closed form cancels when the spread is small against the
    # offset (relative error 24 for the variogram at 1e8 + U(0, 1))
    exact, mu, var = _exact_pair_means(marks)
    scale = {"stoyan": mu**2 + var, "beisbart_kerscher": abs(mu), "variogram": var, "shimantani_i": var}
    want_norm = dict(exact, shimantani_i=var)
    for tf in (STOYAN, BEISBART_KERSCHER, VARIOGRAM, SHIMANTANI_I):
        if tf.name == "shimantani_i" and var == 0:
            with pytest.raises(NumericalError):
                pair_average(tf, marks)
            continue
        for got, want in ((pair_average(tf, marks), exact[tf.name]), (normalization(tf, marks), want_norm[tf.name])):
            assert abs(Fraction(got) - want) <= Fraction(1e-12) * scale[tf.name], tf.name
    got = normalization(STOYAN, marks, stoyan_rule="mean-squared")
    assert abs(Fraction(got) - mu**2) <= Fraction(1e-12) * mu**2


@pytest.mark.parametrize("seed", range(5))
def test_variogram_constant_of_large_offset_marks(seed):
    # 200 marks 1e8 + U(0, 1): the closed form in the mark sums returned -1.65
    # against an exact 0.0724
    marks = 1e8 + np.random.default_rng(seed).uniform(size=200)
    exact = _exact_pair_means(marks.tolist())[0]["variogram"]
    assert abs(Fraction(pair_average(VARIOGRAM, marks)) - exact) <= Fraction(1e-15) * exact


@pytest.mark.parametrize("n", [3, 7, 150])
def test_constant_non_dyadic_marks_are_degenerate(unit_square, n):
    # n copies of 1.1 do not sum to n * 1.1 exactly, yet every difference is 0
    marks = np.full(n, 1.1)
    assert pair_average(VARIOGRAM, marks) == 0.0 and normalization(VARIOGRAM, marks) == 0.0
    with pytest.raises(NumericalError, match="variance"):
        pair_average(SHIMANTANI_I, marks)
    p = planar_pattern(unit_square, np.random.default_rng(n).uniform(size=(n, 2)), marks=marks)
    for tf in (VARIOGRAM, SHIMANTANI_I):
        with pytest.raises(NumericalError, match="degenerate"):
            mark_corr(p, tf, SmoothingSpec1D(0.2), np.linspace(0.0, 0.5, 6))


def test_normalization_needs_two_points():
    with pytest.raises(ValidationError):
        normalization(STOYAN, [1.0])


def test_nan_mark_refused_by_every_mark_statistic(unit_square):
    # numpy's min keeps the NaN, Python's max of it and NaN squared do not:
    # the curves were all NaN and mark-weighted K reported an overflow
    rng = np.random.default_rng(50)
    marks = rng.gamma(2.0, 1.0, 50)
    marks[17] = np.nan
    p = MarkedPointPattern.from_columns(unit_square, rng.uniform(size=(50, 2)), marks)
    calls = [
        lambda: mark_corr(p, STOYAN, SmoothingSpec1D(0.05), np.linspace(0.0, 0.25, 51)),
        lambda: mark_corr_suite(p, SmoothingSpec1D(0.05), np.linspace(0.0, 0.25, 51)),
        lambda: normalization(VARIOGRAM, marks),
        lambda: pair_average(MarkTestFunction("custom", fn=np.minimum), marks),
        lambda: mark_moments(p),
        lambda: mark_weighted_k(p, STOYAN, 50.0, "none", np.linspace(0.0, 0.25, 51)),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="mark 17 is NaN"):
            call()
    with pytest.raises(NumericalError, match="overflow"):
        mark_moments(p.with_marks(np.where(np.isnan(marks), np.inf, marks)))


def test_two_point_box_kernel_hand_value(unit_square):
    p = planar_pattern(unit_square, [(0.4, 0.5), (0.6, 0.5)], marks=[2.0, 4.0])
    sm = SmoothingSpec1D(0.05, "box")
    r = np.array([0.0, 0.2])
    curve = mark_corr(p, STOYAN, sm, r)
    assert np.isnan(curve.values[0])  # no pairs within the kernel window at r=0
    assert curve.values[1] == pytest.approx(1.0)  # numerator 8, c_tf 8


def test_box_kernel_counts_pairs_at_the_support_edges(unit_square):
    p = planar_pattern(unit_square, [(0.25, 0.5), (0.5, 0.5)], marks=[2.0, 4.0])
    sm = SmoothingSpec1D(0.125, "box")
    r = np.array([0.0, 0.125, 0.25, 0.375, 0.5])
    curve, raw = mark_corr(p, STOYAN, sm, r, return_numerator=True)
    # d = 0.25 lies exactly at r - h for r = 0.375 and at r + h for r = 0.125
    assert np.array_equal(np.isnan(raw.values), [True, False, False, False, True])
    assert np.all(raw.values[1:4] == 8.0)


def test_degenerate_variogram_constant_marks(unit_square):
    p = planar_pattern(unit_square, [(0.4, 0.5), (0.6, 0.5)], marks=[3.0, 3.0])
    sm = SmoothingSpec1D(0.05, "box")
    r = np.array([0.0, 0.2])
    with pytest.raises(NumericalError, match="degenerate"):
        mark_corr(p, VARIOGRAM, sm, r)
    curve, raw = mark_corr(p, VARIOGRAM, sm, r, degenerate="nan", return_numerator=True)
    assert np.all(np.isnan(curve.values))
    assert raw.values[1] == 0.0


def test_suite_matches_single_calls(unit_square):
    rng = np.random.default_rng(9)
    xy = rng.uniform(size=(14, 2))
    marks = rng.uniform(1.0, 2.0, size=14)
    p = planar_pattern(unit_square, xy, marks=marks)
    sm = SmoothingSpec1D(0.08)
    r = np.linspace(0, 0.3, 31)
    suite = mark_corr_suite(p, sm, r)
    for tf in (STOYAN, VARIOGRAM, SHIMANTANI_I, BEISBART_KERSCHER):
        single = mark_corr(p, tf, sm, r)
        got = suite.curves[tf.name].values
        assert np.allclose(got, single.values, equal_nan=True)


def test_matches_double_loop_oracle(unit_square):
    rng = np.random.default_rng(77)
    tf_fns = {
        "stoyan": lambda a, b: a * b,
        "beisbart_kerscher": lambda a, b: a + b,
        "variogram": lambda a, b: 0.5 * (a - b) ** 2,
    }
    for _ in range(8):
        n = int(rng.integers(3, 12))
        xy = rng.uniform(size=(n, 2))
        marks = rng.uniform(0.5, 2.0, size=n)
        p = planar_pattern(unit_square, xy, marks=marks)
        h = 0.07
        r = np.linspace(0, 0.5, 26)
        for name, fn in tf_fns.items():
            tf = {"stoyan": STOYAN, "beisbart_kerscher": BEISBART_KERSCHER, "variogram": VARIOGRAM}[name]
            got = mark_corr(p, tf, SmoothingSpec1D(h), r, degenerate="nan").values
            want, _ = mark_corr_oracle(xy, marks, fn, h, "epanechnikov", r)
            c = normalization(tf, marks)
            want = want / c if c != 0 else np.full_like(want, np.nan)
            both = ~np.isnan(want)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.allclose(got[both], want[both], rtol=1e-12, atol=1e-12)


def test_scale_invariance_stoyan_variogram(unit_square):
    rng = np.random.default_rng(15)
    xy = rng.uniform(size=(12, 2))
    marks = rng.uniform(1.0, 4.0, size=12)
    sm = SmoothingSpec1D(0.1)
    r = np.linspace(0, 0.3, 16)
    for tf in (STOYAN, VARIOGRAM):
        a = mark_corr(planar_pattern(unit_square, xy, marks=marks), tf, sm, r)
        b = mark_corr(planar_pattern(unit_square, xy, marks=5.0 * marks), tf, sm, r)
        assert np.allclose(a.values, b.values, equal_nan=True, rtol=1e-12)


def test_shift_invariance_shimantani(unit_square):
    rng = np.random.default_rng(16)
    xy = rng.uniform(size=(12, 2))
    marks = rng.uniform(1.0, 4.0, size=12)
    sm = SmoothingSpec1D(0.1)
    r = np.linspace(0, 0.3, 16)
    a = mark_corr(planar_pattern(unit_square, xy, marks=marks), SHIMANTANI_I, sm, r)
    b = mark_corr(planar_pattern(unit_square, xy, marks=marks + 11.0), SHIMANTANI_I, sm, r)
    assert np.allclose(a.values, b.values, equal_nan=True, rtol=1e-9, atol=1e-12)


def test_reorder_invariance(unit_square):
    rng = np.random.default_rng(18)
    xy = rng.uniform(size=(10, 2))
    marks = rng.uniform(1.0, 2.0, size=10)
    p = planar_pattern(unit_square, xy, marks=marks)
    perm = rng.permutation(10)
    q = p.subset(perm)
    sm = SmoothingSpec1D(0.1)
    r = np.linspace(0, 0.3, 16)
    a = mark_corr(p, STOYAN, sm, r)
    b = mark_corr(q, STOYAN, sm, r)
    assert np.allclose(a.values, b.values, equal_nan=True, rtol=1e-12)


def test_custom_test_function(unit_square):
    rng = np.random.default_rng(19)
    xy = rng.uniform(size=(8, 2))
    marks = rng.uniform(1.0, 2.0, size=8)
    p = planar_pattern(unit_square, xy, marks=marks)
    tf = MarkTestFunction("custom", fn=lambda a, b: min(a, b))
    sm = SmoothingSpec1D(0.2)
    r = np.linspace(0, 0.3, 4)
    curve = mark_corr(p, tf, sm, r)
    assert np.isfinite(curve.values[-1])


def test_vectorizable_custom_function_called_on_arrays(unit_square):
    rng = np.random.default_rng(21)
    p = planar_pattern(unit_square, rng.uniform(size=(400, 2)), marks=rng.uniform(1.0, 2.0, size=400))
    calls = []

    def vec_min(a, b):
        calls.append(np.ndim(a))
        return np.minimum(a, b)

    scalar = MarkTestFunction("custom", fn=lambda a, b: min(a, b))
    vec = MarkTestFunction("custom", fn=vec_min)
    sm, r = SmoothingSpec1D(0.02), np.linspace(0.0, 0.2, 41)
    for ec in ("none", "symmetricWeight"):
        want, got = mark_corr(p, scalar, sm, r, ec=ec), mark_corr(p, vec, sm, r, ec=ec)
        assert np.array_equal(np.isnan(got.values), np.isnan(want.values))
        ok = ~np.isnan(want.values)
        assert np.all(np.abs(got.values[ok] - want.values[ok]) <= 1e-12 * np.abs(want.values[ok]))
    m = p.marks()
    assert normalization(vec, m) == pytest.approx(normalization(scalar, m), rel=1e-12)
    # one call on arrays per evaluation site, none per pair
    assert calls and min(calls) > 0 and len(calls) <= 8


def test_symmetric_weight_ec(unit_square):
    rng = np.random.default_rng(20)
    xy = rng.uniform(size=(10, 2))
    marks = rng.uniform(1.0, 2.0, size=10)
    p = planar_pattern(unit_square, xy, marks=marks)
    sm = SmoothingSpec1D(0.1)
    r = np.linspace(0, 0.3, 16)
    a = mark_corr(p, STOYAN, sm, r, ec="symmetricWeight")
    assert np.any(np.isfinite(a.values))
    with pytest.raises(ValidationError):
        from markedpoints import LinearNetwork, MarkedPoint, MarkedPointPattern, NetworkLocation

        net = LinearNetwork([[0, 0], [10, 0]], [[0, 1]])
        pn = MarkedPointPattern(
            net,
            [
                MarkedPoint(NetworkLocation(0, 0.2), mark=1.0),
                MarkedPoint(NetworkLocation(0, 0.8), mark=2.0),
            ],
        )
        mark_corr(pn, STOYAN, sm, np.array([0.0, 1.0]), ec="symmetricWeight")


def test_needs_two_marked_points(unit_square):
    p = planar_pattern(unit_square, [(0.5, 0.5)], marks=[1.0])
    with pytest.raises(ValidationError):
        mark_corr(p, STOYAN, SmoothingSpec1D(0.1), np.array([0.0, 0.1]))


def test_degenerate_shimantani_constant_marks(unit_square):
    p = planar_pattern(unit_square, [(0.4, 0.5), (0.6, 0.5), (0.5, 0.7)], marks=[3.0, 3.0, 3.0])
    sm = SmoothingSpec1D(0.1, "box")
    r = np.array([0.0, 0.2])
    with pytest.raises(NumericalError, match="degenerate"):
        mark_corr(p, SHIMANTANI_I, sm, r)
    curve, raw = mark_corr(p, SHIMANTANI_I, sm, r, degenerate="nan", return_numerator=True)
    assert np.all(np.isnan(curve.values))
    assert raw.values[1] == 0.0
    suite = mark_corr_suite(p, sm, r)
    assert np.array_equal(suite.numerators["shimantani_i"].values, raw.values, equal_nan=True)


def test_rule_names_are_validated(unit_square):
    # a misspelt rule is refused, not read as the default
    with pytest.raises(ValidationError, match="stoyan_rule must be 'pairs' or 'mean-squared'"):
        normalization(STOYAN, [1.0, 2.0, 4.0], stoyan_rule="mean_squared")
    assert normalization(STOYAN, [1.0, 2.0, 4.0], stoyan_rule="mean-squared") == pytest.approx(49.0 / 9.0)
    p = planar_pattern(unit_square, [(0.4, 0.5), (0.6, 0.5), (0.5, 0.7)], marks=[1.0, 2.0, 4.0])
    sm, r = SmoothingSpec1D(0.1, "box"), np.array([0.0, 0.2])
    with pytest.raises(ValidationError, match="stoyan_rule must be"):
        mark_corr(p, STOYAN, sm, r, stoyan_rule="mean_squared")
    with pytest.raises(ValidationError, match="degenerate must be 'raise' or 'nan'"):
        mark_corr(p, STOYAN, sm, r, degenerate="nan ")


def test_symmetric_weight_points_on_opposite_window_edges(unit_square):
    xy = [(0.0, 0.5), (1.0, 0.5), (0.3, 0.4), (0.45, 0.6), (0.6, 0.55)]
    marks = [1.0, 2.0, 1.5, 2.5, 3.0]
    p = planar_pattern(unit_square, xy, marks=marks)
    sm = SmoothingSpec1D(0.1)
    r = np.linspace(0, 0.3, 16)
    got = mark_corr(p, STOYAN, sm, r, ec="symmetricWeight").values
    dist = lambda a, b: float(np.hypot(xy[a][0] - xy[b][0], xy[a][1] - xy[b][1]))
    want, _ = ordered_pair_oracle(dist, marks, lambda a, b: a * b, sm, r, _sym_weight(unit_square, xy))
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(got)
    assert np.allclose(got[ok], want[ok] / normalization(STOYAN, marks), rtol=1e-12)


# ---------------- differential test of the pair engine ----------------


def _sym_weight(window, xy):
    def e(a, b):
        dx, dy = abs(xy[a][0] - xy[b][0]), abs(xy[a][1] - xy[b][1])
        return window.area / ((window.width - dx) * (window.height - dy))

    return e


def ordered_pair_oracle(dist, marks, fn, smoothing, r, edge_weight=None):
    """Nadaraya-Watson ratio by a plain double loop over ordered pairs i != j,
    counting a pair at r_k when r_k - support <= d <= r_k + support.

    Returns (ratio, scale): scale is sum |fn| K / sum K, the magnitude the
    numerator's rounding error is relative to when fn changes sign.
    """
    supp = kernel1d_support(smoothing.kernel, smoothing.bandwidth)
    n = len(marks)
    num, absnum, den = (np.zeros(len(r)) for _ in range(3))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = dist(i, j)
            inside = (r - supp <= d) & (d <= r + supp)
            kv = np.where(inside, kernel1d_pdf(smoothing.kernel, smoothing.bandwidth, d - r), 0.0)
            if edge_weight is not None and inside.any():
                kv = kv * edge_weight(i, j)
            f = fn(marks[i], marks[j])
            num += f * kv
            absnum += abs(f) * kv
            den += kv
    ratio, scale = np.full(len(r), np.nan), np.full(len(r), np.nan)
    ok = den >= 1e-12
    ratio[ok], scale[ok] = num[ok] / den[ok], absnum[ok] / den[ok]
    return ratio, scale


_ORACLE_FNS = {
    "stoyan": lambda a, b: a * b,
    "variogram": lambda a, b: 0.5 * (a - b) ** 2,
    "beisbart_kerscher": lambda a, b: a + b,
}


@st.composite
def _pair_engine_cases(draw):
    """(pattern, oracle distance, edge weight, smoothing, r grid, ec)."""
    n = draw(st.integers(2, 9))
    kind = draw(st.sampled_from(["network", "lattice", "uniform"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        marks = [float(draw(st.integers(1, 4)))] * n
    else:
        marks = [float(m) for m in rng.uniform(-1.0, 3.0, size=n)]
    kernel = draw(st.sampled_from(["epanechnikov", "gaussian", "box"]))
    ec, edge_weight = "none", None
    if kind == "network":
        net = random_connected_network(rng, draw(st.integers(2, 6)))
        locs = [NetworkLocation(int(rng.integers(net.n_segments)), float(rng.uniform())) for _ in range(n)]
        p = MarkedPointPattern(net, [MarkedPoint(loc, mark=m) for loc, m in zip(locs, marks)])
        dist = lambda a, b: location_distance(net, locs[a], locs[b])
        scale = 4.0
    else:
        if kind == "lattice":
            # dyadic points on one or two rows, dyadic bandwidth and grid: many
            # pairs sit exactly at r_k +- support
            rows = draw(st.lists(st.integers(0, 16), min_size=1, max_size=2))
            xy = [(draw(st.integers(0, 16)) / 16.0, draw(st.sampled_from(rows)) / 16.0) for _ in range(n)]
            scale = 1.0 / 16.0
        else:
            xy = [tuple(v) for v in rng.uniform(0.0, 1.0, size=(n, 2))]
            scale = 0.05
        window = PlanarWindow(0.0, 1.0, 0.0, 1.0)
        p = planar_pattern(window, xy, marks=marks)
        dist = lambda a, b: float(np.sqrt((xy[a][0] - xy[b][0]) ** 2 + (xy[a][1] - xy[b][1]) ** 2))
        if draw(st.booleans()):
            ec, edge_weight = "symmetricWeight", _sym_weight(window, xy)
    h = scale * draw(st.integers(1, 3))
    if kind == "lattice":
        steps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    else:
        steps = draw(st.lists(st.floats(0.05, 1.5), min_size=1, max_size=8))
    r = np.concatenate([[0.0], np.cumsum(steps)]) * scale
    if ec == "symmetricWeight":
        # pairs on opposite window edges have no overlap; keep them beyond every r + support
        h = scale if kernel == "gaussian" else h
        r = r[r + kernel1d_support(kernel, h) < 1.0]
        assume(len(r) >= 2)
    return p, dist, edge_weight, SmoothingSpec1D(h, kernel), r, ec


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_pair_engine_cases())
def test_pair_engine_matches_ordered_pair_oracle(case):
    p, dist, edge_weight, sm, r, ec = case
    marks = list(p.marks())
    mu = float(np.mean(marks))
    custom = MarkTestFunction("custom", fn=lambda a, b: a * a - b)
    fns = dict(_ORACLE_FNS, shimantani_i=lambda a, b: (a - mu) * (b - mu), custom=custom.fn)
    suite = mark_corr_suite(p, sm, r, ec)
    for tf in (STOYAN, VARIOGRAM, SHIMANTANI_I, BEISBART_KERSCHER, custom):
        want, scale = ordered_pair_oracle(dist, marks, fns[tf.name], sm, r, edge_weight)
        ok = ~np.isnan(want)
        curve, raw = mark_corr(p, tf, sm, r, ec, degenerate="nan", return_numerator=True)
        raws = [raw.values] + ([suite.numerators[tf.name].values] if tf.name in suite.numerators else [])
        for got in raws:
            assert np.array_equal(np.isnan(got), ~ok)
            assert np.all(np.abs(got[ok] - want[ok]) <= 1e-12 * scale[ok])
        try:
            c = normalization(tf, marks)
        except NumericalError:
            c = 0.0
        expect = raw.values / c if c != 0.0 else np.full(len(r), np.nan)
        assert np.array_equal(curve.values, expect, equal_nan=True)
        if tf.name in suite.curves:
            assert np.array_equal(suite.curves[tf.name].values, raws[1] / c if c != 0.0 else expect, equal_nan=True)


def _stable_sort_reference(smoothing, r, pairs):
    """(i, j, d, lo, counts) of _normalized's kernel matrix, written out
    with the stable sort of the pair distances."""
    supp = kernel1d_support(smoothing.kernel, smoothing.bandwidth)
    i, j, d = pairs
    keep = np.nonzero(d >= (r - supp).min())[0]
    keep = keep[np.argsort(d[keep], kind="stable")]
    i, j, d = i[keep], j[keep], d[keep]
    lo = np.searchsorted(d, r - supp, side="left")
    return i, j, d, lo, np.searchsorted(d, r + supp, side="right") - lo


def _lattice_network(k):
    """k x k vertices at integer coordinates, joined to their right and upper
    neighbours by segments of length 1."""
    v = np.arange(k * k).reshape(k, k)
    segs = np.concatenate([np.stack([v[:, :-1].ravel(), v[:, 1:].ravel()], 1),
                           np.stack([v[:-1, :].ravel(), v[1:, :].ravel()], 1)])
    xy = np.stack(np.meshgrid(np.arange(k), np.arange(k), indexing="ij"), -1).reshape(-1, 2)
    return LinearNetwork(xy.astype(float), segs)


def _sort_case(case):
    """(pattern, smoothing, r grid): tie-free uniform points, or inputs whose
    pair distances tie in many places."""
    rng = np.random.default_rng(17)
    if case == "uniform":
        p = MarkedPointPattern.from_columns(PlanarWindow(0, 1, 0, 1), rng.uniform(size=(300, 2)))
        return p, SmoothingSpec1D(0.02), np.linspace(0.0, 0.25, 33)
    if case == "planar_lattice":  # integer coordinates: exact distances repeat
        xy = np.stack(np.meshgrid(np.arange(16.0), np.arange(16.0)), -1).reshape(-1, 2)
        return MarkedPointPattern.from_columns(PlanarWindow(0, 15, 0, 15), xy), SmoothingSpec1D(0.5), np.linspace(0, 4, 33)
    if case == "network_lattice":  # points a quarter and three quarters along every unit segment
        net = _lattice_network(8)
        seg = np.repeat(np.arange(net.n_segments), 2)
        off = np.tile([0.25, 0.75], net.n_segments)
        return MarkedPointPattern.from_columns(net, (seg, off)), SmoothingSpec1D(0.5), np.linspace(0, 4, 33)
    # duplicated: every point twice, so distance 0 and each distance to a third point repeat
    xy = np.repeat(rng.uniform(size=(150, 2)), 2, axis=0)
    return MarkedPointPattern.from_columns(PlanarWindow(0, 1, 0, 1), xy), SmoothingSpec1D(0.02), np.linspace(0, 0.25, 33)


@pytest.mark.parametrize("case", ["uniform", "planar_lattice", "network_lattice", "duplicated"])
def test_normalized_pairs_match_the_stable_sort(monkeypatch, case):
    # _normalized sorts the pair distances with numpy's default sort, and
    # with the stable sort when two distances are equal; either way its pair
    # order and kernel rows must be the stable sort's. The marks are the
    # point indices, so the marks a pair's values are formed from are (i, j)
    p, smoothing, r = _sort_case(case)
    p = p.with_marks(np.arange(p.n, dtype=float))
    pairs = close_pairs(p, _reach(smoothing, r))
    want = _stable_sort_reference(smoothing, r, pairs)
    ties = bool(np.any(want[2][1:] == want[2][:-1]))
    assert ties == (case != "uniform")
    kinds, rows, seen = [], [], []
    argsort, kernel_rows, pair_values = np.argsort, markcorr._kernel_rows, markcorr._pair_values

    def spy_argsort(a, *args, **kwargs):
        kinds.append(kwargs.get("kind"))
        return argsort(a, *args, **kwargs)

    def spy_rows(smoothing, r, d, lo, counts, *rest):
        rows.append((d, lo, counts))
        return kernel_rows(smoothing, r, d, lo, counts, *rest)

    def spy_values(tf, mi, mj, mu):
        seen.append((mi.astype(np.intp), mj.astype(np.intp)))
        return pair_values(tf, mi, mj, mu)

    monkeypatch.setattr(np, "argsort", spy_argsort)
    monkeypatch.setattr(markcorr, "_kernel_rows", spy_rows)
    monkeypatch.setattr(markcorr, "_pair_values", spy_values)
    markcorr._normalized([STOYAN], p, smoothing, r, "none", pairs=pairs)
    monkeypatch.undo()
    assert len(seen) == 1
    got = seen[0] + (rows[0][0], np.concatenate([b[1] for b in rows]), np.concatenate([b[2] for b in rows]))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert len(rows[0][0]) == len(pairs[2])  # every pair passed in reaches the kernel rows
    assert kinds == ([None, "stable"] if ties else [None])  # which sort ran


def _kernel_rows_args(case, ec):
    """(smoothing, r, d, lo, counts, weights) of markcorr._kernel_rows for all
    of the r grid of a _sort_case input, with the weights of ec."""
    p, smoothing, r = _sort_case(case)
    i, j, d, lo, counts = _stable_sort_reference(smoothing, r, close_pairs(p, _reach(smoothing, r)))
    weights = translation_weights(p.domain, p.coords(), p.coords(), i, j) if ec == "symmetricWeight" else None
    return smoothing, r, d, lo, counts, weights


KERNEL_ROWS_CASES = [
    (case, ec, itype)
    for case, ec in [("uniform", "none"), ("uniform", "symmetricWeight"), ("network_lattice", "none")]
    for itype in (np.int32, np.int64)
]


@pytest.mark.parametrize("case, ec, itype", KERNEL_ROWS_CASES)
def test_kernel_rows_match_the_gather_through_cols(case, ec, itype):
    # _kernel_rows gathers d and the weights through an intp copy of its
    # column index; the CSR arrays must be those of the gather through the
    # column index itself, written out here
    smoothing, r, d, lo, counts, weights = _kernel_rows_args(case, ec)
    indptr = np.zeros(len(r) + 1, dtype=itype)
    np.cumsum(counts, out=indptr[1:])
    cols = np.arange(indptr[-1], dtype=itype)
    cols += np.repeat((lo - indptr[:-1]).astype(itype), counts)
    assert cols.dtype == itype and len(cols) > 1000
    t = d[cols]
    t -= np.repeat(r, counts)
    kv = kernel1d_pdf(smoothing.kernel, smoothing.bandwidth, t)
    kv *= 2.0
    if weights is not None:
        kv *= weights[cols]
    K = markcorr._kernel_rows(smoothing, r, d, lo, counts, itype, weights, 0, len(d))
    assert K.indices.dtype == K.indptr.dtype == itype  # the CSR matrix keeps its index type
    assert np.array_equal(K.data, kv)
    assert np.array_equal(K.indices, cols)
    assert np.array_equal(K.indptr, indptr)


class _IndexSpy(np.ndarray):
    """An array that records the dtype of every array index it is read
    through; the values read are plain arrays."""

    def __getitem__(self, key):
        if isinstance(key, np.ndarray):
            self.seen.append(key.dtype)
        return np.asarray(self)[key]


@pytest.mark.parametrize("case, ec, itype", KERNEL_ROWS_CASES)
def test_kernel_rows_gather_through_intp_indices(case, ec, itype):
    # numpy gathers through an int32 index holding the GIL and through an
    # intp one releasing it, so the replicate threads overlap only when every
    # gather of d and of the weights goes through intp
    smoothing, r, d, lo, counts, weights = _kernel_rows_args(case, ec)
    want = markcorr._kernel_rows(smoothing, r, d, lo, counts, itype, weights, 0, len(d))
    d_spy, w_spy = (None if a is None else a.view(_IndexSpy) for a in (d, weights))
    spies = [spy for spy in (d_spy, w_spy) if spy is not None]
    for spy in spies:
        spy.seen = []
    got = markcorr._kernel_rows(smoothing, r, d_spy, lo, counts, itype, w_spy, 0, len(d))
    assert [spy.seen for spy in spies] == [[np.dtype(np.intp)]] * len(spies)
    assert np.array_equal(got.data, want.data)


def test_close_pairs_agree_with_dense_distances(unit_square):
    rng = np.random.default_rng(4)
    net = random_connected_network(rng, 7)
    locs = [NetworkLocation(int(rng.integers(net.n_segments)), float(rng.uniform())) for _ in range(40)]
    patterns = [
        planar_pattern(unit_square, rng.uniform(size=(300, 2))),
        planar_pattern(unit_square, (np.floor(rng.uniform(size=(120, 2)) * 8)) / 8),
        MarkedPointPattern(net, [MarkedPoint(loc) for loc in locs]),
    ]
    for p in patterns:
        dense = dense_distances(p)
        for cutoff in (0.125, 0.25, 0.3, 3.0):
            i, j, d = close_pairs(p, cutoff)
            assert np.all(i < j)
            wi, wj = np.nonzero(np.triu(dense <= cutoff, 1))
            assert sorted(zip(i.tolist(), j.tolist())) == list(zip(wi.tolist(), wj.tolist()))
            assert np.array_equal(d, dense[i, j])


@pytest.mark.parametrize("bandwidth", [float("nan"), float("inf"), 0.0])
def test_smoothing_bandwidth_positive_and_finite(bandwidth):
    with pytest.raises(ValidationError, match="bandwidth"):
        SmoothingSpec1D(bandwidth)
