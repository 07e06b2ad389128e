"""Same-bits pins of the paths that form each pair-length array once and
update it in place: each result is compared, with its sign bits, to the
expression it replaced, written out here. Also the mark-correlation suite
over several windows of pair values against one window, and LGCP patterns
from the in-place LAPACK factor against those from numpy's Cholesky."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from markedpoints import (
    STOYAN,
    VARIOGRAM,
    GaussianFieldSpec,
    LinearNetwork,
    MarkedPointPattern,
    NetworkLocation,
    PlanarWindow,
    SeedSpec,
    SmoothingSpec1D,
    k_cross_inhom,
    lgcp_network,
    mark_corr_suite,
    mark_weighted_k,
    r_grid,
    replicate_rng,
)
from markedpoints import _dist, markcorr, simulate
from markedpoints.cli import _simulate_pattern, build_parser
from markedpoints._dist import _bins, close_pairs, cross_search, translation_weights
from markedpoints.errors import ValidationError
from markedpoints.geometry import _arc_cells, _cross_dist, _loc_arrays, _sp_dist, _uniform_seg_off
from markedpoints.intensity import _elementwise, kernel1d_support
from markedpoints.markcorr import _SUITE, _kernel_rows, _pair_values, _ratio, _reach
from markedpoints.pattern import _moments

from conftest import grid_network_arrays


# a window whose area is not 1, nor a power of 2
_WINDOW = PlanarWindow(0.0, 1.3, 0.0, 0.7)


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _hair_pattern(window, n, cutoff, rng):
    """n uniform points plus a pair just past cutoff: the k-d search, a hair
    wider than the cutoff, proposes it and the exact filter drops it."""
    xy = rng.uniform(0.1, 0.9, size=(n, 2))
    xy = np.vstack([xy, [[0.05, 0.05], [0.05 + cutoff * (1 + 1e-10), 0.05]]])
    return MarkedPointPattern.from_columns(window, xy, marks=rng.integers(1, 4, len(xy)).astype(float))


def _old_euclidean(xy_a, xy_b, i, j):
    dx = xy_a[i, 0] - xy_b[j, 0]
    dy = xy_a[i, 1] - xy_b[j, 1]
    return np.sqrt(dx * dx + dy * dy)


def _old_translation(window, xy_a, xy_b, i, j):
    ox = window.width - np.abs(xy_a[i, 0] - xy_b[j, 0])
    oy = window.height - np.abs(xy_a[i, 1] - xy_b[j, 1])
    return window.area / (ox * oy)


@pytest.mark.parametrize("hair", [False, True])
def test_planar_close_pairs_same_bits_as_the_masked_filter(unit_square, hair):
    rng = np.random.default_rng(31)
    cutoff = 0.08
    p = _hair_pattern(unit_square, 300, cutoff, rng)
    if not hair:
        p = p.subset(range(300))
    xy = p.coords()
    ij = cKDTree(xy).query_pairs(cutoff * (1.0 + 1e-9), output_type="ndarray")
    i, j = ij[:, 0], ij[:, 1]
    d = _old_euclidean(xy, xy, i, j)
    keep = d <= cutoff
    assert keep.all() != hair  # the hair pair is a candidate that fails the filter
    for got, want in zip(close_pairs(p, cutoff), (i[keep], j[keep], d[keep])):
        assert _same(got, want)


@pytest.mark.parametrize("hair", [False, True])
def test_planar_cross_search_same_bits_as_fresh_trees(unit_square, hair):
    # one searcher, its tree of b built once, over several sides and
    # cutoffs in turn, against a fresh pair of trees and the masked filter
    rng = np.random.default_rng(32)
    b = _hair_pattern(unit_square, 200, 0.06, rng).coords()
    if not hair:
        b = b[:200]
    search = cross_search(unit_square, b)
    for k, cutoff in enumerate([0.06, 0.02, 0.06, 0.1]):
        a = np.vstack([rng.uniform(0.1, 0.9, size=(50 + 40 * k, 2)), [[0.05, 0.05]]])
        ijv = cKDTree(a).sparse_distance_matrix(cKDTree(b), cutoff * (1.0 + 1e-9), output_type="ndarray")
        keep = ijv["v"] <= cutoff
        want = ijv["i"][keep], ijv["j"][keep], ijv["v"][keep]
        for got_search, got_pairs, w in zip(search(a, cutoff), cross_search(unit_square, b)(a, cutoff), want):
            assert _same(got_search, w) and _same(got_pairs, w)
        if hair and cutoff == 0.06:
            assert not keep.all()


def test_network_cross_search_same_bits_as_fresh_trees(monkeypatch):
    # with a small block budget every search takes the k-d candidate path
    net = LinearNetwork(*grid_network_arrays(np.random.default_rng(5), 8, 10.0, 10))
    rng = np.random.default_rng(33)
    b = _uniform_seg_off(net, 120, rng)
    monkeypatch.setattr(_dist, "_BLOCK", 256)
    search = cross_search(net, b)
    for n_a, cutoff in [(30, 15.0), (80, 5.0), (30, 25.0)]:
        a = _uniform_seg_off(net, n_a, rng)
        tree = cKDTree(_dist._embed(net, *b))
        want = _dist._network_pairs(net, a, b, tree, cutoff, upper=False)
        dense = _cross_dist(net, a, b)
        i, j = np.nonzero(dense <= cutoff)
        for got, w, d in zip(search(a, cutoff), want, (i, j, dense[i, j])):
            assert _same(got, w) and _same(got, d)


def test_translation_weights_same_bits_on_window_edge_points():
    w = PlanarWindow(-1.0, 2.0, 0.5, 1.5)
    rng = np.random.default_rng(34)
    edge = [[-1.0, 0.5], [-1.0, 1.5], [2.0, 1.0], [0.3, 0.5], [0.3, 1.5], [-1.0, 1.0]]
    xy_a = np.vstack([edge, rng.uniform([-1.0, 0.5], [2.0, 1.5], size=(40, 2))])
    xy_b = np.vstack([rng.uniform([-1.0, 0.5], [2.0, 1.5], size=(30, 2)), edge])
    i, j = np.meshgrid(np.arange(len(xy_a)), np.arange(len(xy_b)), indexing="ij")
    i, j = i.ravel(), j.ravel()
    ok = (np.abs(xy_a[i, 0] - xy_b[j, 0]) < w.width) & (np.abs(xy_a[i, 1] - xy_b[j, 1]) < w.height)
    i, j = i[ok], j[ok]
    assert _same(translation_weights(w, xy_a, xy_b, i, j), _old_translation(w, xy_a, xy_b, i, j))
    # points on opposite edges overlap in nothing
    with pytest.raises(ValidationError, match="exceeds the window"):
        translation_weights(w, xy_a, xy_b, np.array([0]), np.array([len(xy_b) - 4]))


@pytest.mark.parametrize("ec", ["none", "translation"])
@pytest.mark.parametrize("self_pairs", [False, True])
def test_k_cross_weights_same_bits_as_the_inline_formula(ec, self_pairs):
    rng = np.random.default_rng(35)
    pi = MarkedPointPattern.from_columns(_WINDOW, rng.uniform((0.0, 0.0), (1.3, 0.7), size=(400, 2)))
    if self_pairs:
        pj = pi
    else:
        pj = MarkedPointPattern.from_columns(_WINDOW, rng.uniform((0.0, 0.0), (1.3, 0.7), size=(300, 2)))
    li, lj = rng.uniform(200.0, 600.0, pi.n), rng.uniform(200.0, 600.0, pj.n)
    r = r_grid(0.2, 128)
    got = k_cross_inhom(pi, pj, li, lj, ec, r).values
    size = _WINDOW.area
    assert size != 1.0  # a weight formula reordered around a factor of 1 keeps its bits
    i, j, d = close_pairs(pi, r[-1]) if self_pairs else cross_search(_WINDOW, pj)(pi, r[-1])
    w = 1.0 / (li[i] * lj[j]) / size
    if self_pairs:
        w += 1.0 / (li[j] * lj[i]) / size
    if ec == "translation":
        w = w * _old_translation(_WINDOW, pi.coords(), pj.coords(), i, j)
    want = np.cumsum(np.bincount(_bins(r, d), weights=w, minlength=len(r)))
    assert _same(got, want)


@pytest.mark.parametrize("ec", ["none", "translation"])
@pytest.mark.parametrize("tf", [STOYAN, VARIOGRAM], ids=["stoyan", "variogram"])
def test_mark_weighted_k_same_bits_as_the_inline_formula(ec, tf):
    rng = np.random.default_rng(36)
    xy = rng.uniform((0.0, 0.0), (1.3, 0.7), size=(500, 2))
    p = MarkedPointPattern.from_columns(_WINDOW, xy, marks=rng.gamma(2.0, 1.5, 500))
    lam = rng.uniform(300.0, 700.0, p.n)
    r = r_grid(0.2, 128)
    got = mark_weighted_k(p, tf, lam, ec, r).values
    marks = p.marks()
    mu, var = _moments(marks)
    c = {"stoyan": mu**2 - var / (p.n - 1), "variogram": p.n * var / (p.n - 1)}[tf.name]
    i, j, d = close_pairs(p, r[-1])
    w = 2.0 * (_pair_values(tf, marks[i], marks[j], mu) / (lam[i] * lam[j]) / (p.domain_size * c))
    if ec == "translation":
        w = w * _old_translation(_WINDOW, p.coords(), p.coords(), i, j)
    want = np.cumsum(np.bincount(_bins(r, d), weights=w, minlength=len(r)))
    assert _same(got, want)


@pytest.mark.parametrize("ec", ["none", "symmetricWeight"])
def test_mark_corr_values_same_bits_with_tied_marks(unit_square, ec):
    # marks from {1, 2, 3}: many pairs tie, so the variogram and Shimantani
    # values hold exact zeros; the raw ratios equal one product of the whole
    # kernel matrix with the stacked value columns
    rng = np.random.default_rng(37)
    p = MarkedPointPattern.from_columns(
        unit_square, rng.uniform(size=(600, 2)), marks=rng.integers(1, 4, 600).astype(float)
    )
    smoothing, r = SmoothingSpec1D(0.01), r_grid(0.1, 64)
    suite = mark_corr_suite(p, smoothing, r, ec)
    marks = p.marks()
    mu, _ = _moments(marks)
    i, j, d = close_pairs(p, _reach(smoothing, r))
    order = np.argsort(d, kind="stable")
    i, j, d = i[order], j[order], d[order]
    supp = kernel1d_support(smoothing.kernel, smoothing.bandwidth)
    lo = np.searchsorted(d, r - supp, side="left")
    counts = np.searchsorted(d, r + supp, side="right") - lo
    weights = _old_translation(unit_square, p.coords(), p.coords(), i, j) if ec == "symmetricWeight" else None
    K = _kernel_rows(smoothing, r, d, lo, counts, np.int32, weights, 0, len(d))
    mi, mj = marks[i], marks[j]
    vals = np.column_stack([_pair_values(tf, mi, mj, mu) for tf in _SUITE] + [np.ones(len(d))])
    assert np.any(vals[:, 1] == 0.0)  # tied marks
    sums = K @ vals
    for s, tf in enumerate(_SUITE):
        assert _same(suite.numerators[tf.name].values, _ratio(sums[:, s], sums[:, -1]))


def test_dense_network_distances_same_bits_with_same_segment_pairs():
    # a tall, a wide and a square block, with several points on each segment,
    # against the flat-index sums of _sp_dist
    net = LinearNetwork(*grid_network_arrays(np.random.default_rng(5), 6, 10.0, 8))
    rng = np.random.default_rng(38)
    for n_a, n_b in [(200, 7), (7, 200), (90, 90), (1, 150)]:
        a, b = _uniform_seg_off(net, n_a, rng), _uniform_seg_off(net, n_b, rng)
        b = (np.concatenate([b[0], a[0][:5]]), np.concatenate([b[1], np.clip(a[1][:5] + 0.01, 0.0, 1.0)]))
        got = _cross_dist(net, a, b)
        want = _sp_dist(net, a, b, np.arange(len(a[0]))[:, None], np.arange(len(b[0]))[None, :])
        assert got.flags.c_contiguous and _same(got, want)
        assert np.any(a[0][:, None] == b[0][None, :])


def _compact_cov(a, b):
    """A covariance that is exactly 0 beyond distance 40."""
    return np.maximum(0.0, 1.0 - np.abs(np.subtract(a, b)) / 40.0)


def test_lgcp_covariance_same_bits_in_row_blocks(monkeypatch):
    net = LinearNetwork(*grid_network_arrays(np.random.default_rng(5), 8, 10.0, 10))
    spec = GaussianFieldSpec(mean=-3.0, cov=_compact_cov, anchor=NetworkLocation(0, 0.5))
    d0 = np.random.default_rng(39).uniform(0.0, 150.0, 300)
    want = _elementwise(spec.cov, d0[:, None], d0[None, :])
    assert np.any(want == 0.0)
    monkeypatch.setattr(_dist, "_BLOCK", 1000)  # 3 rows a block
    assert _same(spec.cov_matrix(d0), want)
    # the jittered matrix handed to the factor, against cov + jitter * I
    factored = []
    psd_factor = simulate._psd_factor
    monkeypatch.setattr(simulate, "_psd_factor", lambda build: factored.append(build()) or psd_factor(build))
    p = lgcp_network(spec, net, 5.0, np.random.default_rng(40))
    seg, i, m = _arc_cells(net, 5.0)
    mid = (i / m + (i + 1) / m) / 2.0
    d0 = _cross_dist(net, (seg, mid), _loc_arrays(net, [spec.anchor]))[:, 0]
    cov = _elementwise(spec.cov, d0[:, None], d0[None, :])
    jitter = spec.nugget * max(1.0, float(np.abs(np.diag(cov)).max()))
    (got,) = factored
    assert np.any(cov == 0.0) and _same(got, cov + jitter * np.eye(len(cov)))
    assert p.n > 0


@pytest.mark.parametrize("ec", ["none", "symmetricWeight"])
def test_mark_corr_suite_same_bits_over_several_windows(monkeypatch, unit_square, ec):
    # the pair values formed one window of the sorted pairs at a time, each
    # window used by every kernel block whose pairs it holds, against one
    # window of all pairs; tied marks give exact zeros
    rng = np.random.default_rng(41)
    p = MarkedPointPattern.from_columns(
        unit_square, rng.uniform(size=(600, 2)), marks=rng.integers(1, 4, 600).astype(float)
    )
    smoothing, r = SmoothingSpec1D(0.01), r_grid(0.1, 64)
    windows = []
    kernel_rows = markcorr._kernel_rows
    monkeypatch.setattr(markcorr, "_kernel_rows", lambda *args: windows.append(args[-2:]) or kernel_rows(*args))

    def suite():
        windows.clear()
        s = mark_corr_suite(p, smoothing, r, ec)
        return [c.values for c in s.curves.values()] + [c.values for c in s.numerators.values()]

    want = suite()
    assert len(set(windows)) == 1
    monkeypatch.setattr(_dist, "_BLOCK", 1000)
    got = suite()
    assert len(set(windows)) >= 3 and len(windows) > len(set(windows))  # blocks share windows
    for g, w in zip(got, want):
        assert _same(g, w)


def _grid_lgcp():
    """The benchmark's LGCP on its grid network (1,270 cells)."""
    net = LinearNetwork(*grid_network_arrays(np.random.default_rng(5), 30, 10.0, 100))
    var = 0.1
    spec = GaussianFieldSpec(
        mean=float(np.log(600.0 / net.total_length) - var / 2.0),
        cov=lambda a, b: var * np.exp(-np.abs(np.subtract(a, b)) / 10.0),
        anchor=NetworkLocation(0, 0.5),
    )
    return lambda rng: lgcp_network(spec, net, 15.0, rng)


def _tree_lgcp():
    """simulate --model lgcp: the constant covariance on the bundled tree (552 cells)."""
    args = build_parser().parse_args(["simulate", "--model", "lgcp", "--out-dir", "unused"])
    return lambda rng: _simulate_pattern(args, rng)[0]


@pytest.mark.parametrize("case", ["grid", "tree"])
def test_lgcp_in_place_factor_gives_numpys_patterns(monkeypatch, case):
    # LAPACK's factor, formed in place, differs from numpy's Cholesky in the
    # last bits of about half its entries: by at most 1.0e-14 on the grid
    # (largest entry 0.32) and 9.3e-13 on the tree (0.50, a constant
    # covariance plus the nugget). The patterns drawn with it are the same
    simulate_one = {"grid": _grid_lgcp, "tree": _tree_lgcp}[case]()
    psd_factor, gaps = simulate._psd_factor, []

    def compared(build):
        want = np.linalg.cholesky(build())
        got = psd_factor(build)
        gaps.append(np.abs(got - want).max() / np.abs(want).max())
        return got

    monkeypatch.setattr(simulate, "_psd_factor", compared)
    got = [simulate_one(replicate_rng(SeedSpec(seed, 0))) for seed in range(20)]
    assert 0 < max(gaps) < 1e-11
    monkeypatch.setattr(simulate, "_psd_factor", lambda build: np.linalg.cholesky(build()))
    want = [simulate_one(replicate_rng(SeedSpec(seed, 0))) for seed in range(20)]
    assert sum(p.n for p in got) > 20 * 50
    for g, w in zip(got, want):
        assert all(_same(a, b) for a, b in zip(g.seg_off(), w.seg_off()))
