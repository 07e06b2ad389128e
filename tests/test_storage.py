"""Pattern storage: a pattern built from a MarkedPoint list and the same
pattern built from columns (simulators, CSV load) give identical arrays,
estimator outputs and CSV bytes; the network pair distances and the
neighbour-count marks agree with dense-matrix oracles."""

import numpy as np
import pytest

from markedpoints import (
    KernelSpec,
    LinearNetwork,
    MarkedPoint,
    MarkedPointPattern,
    NetworkLocation,
    PlanarWindow,
    SmoothingSpec1D,
    ValidationError,
    all_pairs_network_distances,
    constant_field_sampler,
    cosine_field_sampler,
    f_inhom,
    h_cross_inhom,
    intensity_heat,
    intensity_jones_diggle,
    intensity_network,
    intensity_uniform,
    k_cross_inhom,
    lgcp_network,
    linked_balanced_cox,
    load_pattern_csv,
    mark_corr_suite,
    model_marks,
    poisson_network,
    poisson_planar,
    save_pattern_csv,
    split_by_type,
    synthetic_tree_network,
)
from markedpoints._dist import close_pairs
from markedpoints.simulate import GaussianFieldSpec

from conftest import dense_distances, random_connected_network


def _as_list(p):
    """The same pattern, stored as the MarkedPoint list the constructor keeps."""
    return MarkedPointPattern(p.domain, [MarkedPoint(q.location, q.type_label, q.mark) for q in p.points])


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f")


def _assert_same_pattern(a, b):
    assert a.n == b.n == len(a) == len(b)
    assert a.domain is b.domain
    _same(a.coords(), b.coords())
    if a.is_network:
        for x, y in zip(a.seg_off(), b.seg_off()):
            _same(x, y)
    assert a.locations() == b.locations()
    assert a.points == b.points
    assert a.labels() == b.labels()
    assert a.has_marks() == b.has_marks()
    if a.has_marks():
        _same(a.marks(), b.marks())


def _planar():
    w = PlanarWindow(0.0, 2.0, 0.0, 1.0)
    rng = np.random.default_rng(31)
    p = linked_balanced_cox("linked", 2.0, constant_field_sampler(60.0), w, rng)
    return p.with_marks(rng.uniform(1.0, 3.0, p.n))


def _network():
    net = synthetic_tree_network()
    rng = np.random.default_rng(32)
    p = model_marks("II", poisson_network(150.0 / net.total_length, net, rng), rng)
    return p.with_labels(rng.choice(["a", "b"], p.n))


def _lgcp():
    net = synthetic_tree_network()
    spec = GaussianFieldSpec(mean=np.log(100.0 / net.total_length), cov=lambda a, b: 0.2 + 0.0 * a * b,
                             anchor=NetworkLocation(0, 0.5))
    return lgcp_network(spec, net, None, np.random.default_rng(33))


@pytest.mark.parametrize("make", [_planar, _network, _lgcp], ids=["planar", "network", "lgcp"])
def test_list_and_column_storage_agree(make):
    cols = make()
    lst = _as_list(cols)
    _assert_same_pattern(cols, lst)
    rng = np.random.default_rng(34)
    marks = rng.uniform(1.0, 2.0, cols.n)
    labels = rng.choice(["u", "v", "w"], cols.n)
    pts = lst.points
    _assert_same_pattern(cols.with_marks(marks), lst.with_marks(marks))
    assert cols.with_marks(marks).points == [MarkedPoint(q.location, q.type_label, m) for q, m in zip(pts, marks)]
    _assert_same_pattern(cols.with_labels(labels), lst.with_labels(labels))
    assert cols.with_labels(labels).points == [MarkedPoint(q.location, lab, q.mark) for q, lab in zip(pts, labels)]
    for idx in (rng.permutation(cols.n), np.array([3, 0, 3, 1]), np.zeros(0, dtype=int)):
        _assert_same_pattern(cols.subset(idx), lst.subset(idx))
        assert cols.subset(idx).points == [pts[k] for k in idx]
    ga, gb = split_by_type(cols.with_labels(labels)), split_by_type(lst.with_labels(labels))
    assert list(ga) == list(gb) == ["u", "v", "w"]
    for lab in ga:
        _assert_same_pattern(ga[lab], gb[lab])
        assert ga[lab].points == [MarkedPoint(q.location, lab, q.mark) for q, l in zip(pts, labels) if l == lab]


@pytest.mark.parametrize("make", [_planar, _network], ids=["planar", "network"])
def test_estimators_agree_across_storage(make):
    cols = make()
    lst = _as_list(cols)
    r = np.linspace(0.0, 0.3 if not cols.is_network else 120.0, 24)
    outs = []
    for p in (cols, lst):
        if p.is_network:
            lam = lambda q: intensity_network(q, KernelSpec(40.0))
            est = lam(p)
            dens = [est.norms, est.evaluate(p.seg_off()), np.array([est.integral()])]
        else:
            lam = lambda q: intensity_jones_diggle(q, KernelSpec(0.1), (32, 32))
            dens = [intensity_uniform(p, KernelSpec(0.1), (32, 32)).values, lam(p).values,
                    intensity_heat(p, 0.2, (32, 32)).values]
        groups = split_by_type(p)
        pi, pj = groups[min(groups)], groups[max(groups)]
        li, lj = lam(pi), lam(pj)
        suite = mark_corr_suite(p, SmoothingSpec1D(r[1] * 2), r)
        outs.append(dens + [
            k_cross_inhom(pi, pj, li, lj, r=r).values,
            h_cross_inhom(pi, pj, li, lj, r=r).values,
            f_inhom(pj, lj, r=r).values,
        ] + [suite.curves[name].values for name in sorted(suite.curves)])
    for a, b in zip(*outs):
        _same(a, b)


def _csv_patterns():
    w = PlanarWindow(0.0, 1.0, 0.0, 1.0)
    xy = np.array([[0.125, 0.25], [0.5, 0.75], [0.9, 0.1], [1.0, 0.0]])
    planar = MarkedPointPattern.from_columns(
        w, xy, marks=[1.5, np.nan, -2.0, 1.0 / 3.0], labels=["a", "b", None, "a"])
    net = LinearNetwork([[0, 0], [10, 0], [10, 5]], [[0, 1], [1, 2]])
    network = MarkedPointPattern.from_columns(net, ([0, 1, 1, 0], [0.25, 1.0, 0.1, 0.0]),
                                              marks=[3.0, 0.0, 0.1, 7.0])
    return [planar, network, _network(), _planar()]


@pytest.mark.parametrize("p, missing", zip(_csv_patterns(), [[1], [], [], []]),
                         ids=["planar_mixed", "network_small", "network", "planar"])
def test_csv_round_trip_byte_identical(tmp_path, p, missing):
    save_pattern_csv(p, tmp_path / "cols.csv")
    save_pattern_csv(_as_list(p), tmp_path / "list.csv")
    first = (tmp_path / "cols.csv").read_bytes()
    assert (tmp_path / "list.csv").read_bytes() == first
    q = load_pattern_csv(tmp_path / "cols.csv", p.domain)
    save_pattern_csv(q, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == first
    _assert_same_pattern(q, load_pattern_csv(tmp_path / "list.csv", p.domain))
    # a missing mark is NaN: an empty last field on file, read back as NaN,
    # None in the points view, and the pattern has no marks
    rows = first.decode().splitlines()[1:]
    assert [k for k, row in enumerate(rows) if row.endswith(",")] == missing
    assert [k for k, pt in enumerate(q.points) if pt.mark is None] == missing
    assert q.has_marks() == (not missing)
    if missing:
        with pytest.raises(ValidationError, match=f"mark {missing[0]} is NaN"):
            q.marks()


@pytest.mark.parametrize("kind", ["poisson", "linked", "balanced"])
def test_simulated_planar_patterns_load_back(tmp_path, kind):
    # a simulated pattern lies in the closed window, and so does its CSV,
    # which holds each coordinate to 12 significant digits
    w = PlanarWindow(-3.0, 5.5, 10.0, 12.25)
    rng = np.random.default_rng(35)
    if kind == "poisson":
        p = poisson_planar(lambda x, y: 40.0 * (x + 3.0), w, rng, lam_max=340.0)
        p = p.with_marks(rng.uniform(-1.0, 1.0, p.n))
    else:
        p = linked_balanced_cox(kind, 20.0, cosine_field_sampler(10.0, 3.0, 2.0), w, rng)
    save_pattern_csv(p, tmp_path / "p.csv")
    q = load_pattern_csv(tmp_path / "p.csv", w)
    assert p.n > 100 and q.n == p.n
    held = np.vectorize(lambda v: float(format(v, ".12g")))
    assert np.array_equal(q.coords(), held(p.coords()))
    assert q.labels() == p.labels()
    assert q.has_marks() == p.has_marks()
    if p.has_marks():
        assert np.array_equal(q.marks(), held(p.marks()))


def _crowded_network_pattern(seed):
    """At least three points on every segment, including segment ends shared
    with neighbouring segments and repeated offsets."""
    rng = np.random.default_rng(seed)
    net = random_connected_network(rng, 6)
    seg = np.repeat(np.arange(net.n_segments), 4)
    off = rng.choice([0.0, 0.25, 0.5, 1.0, rng.uniform()], size=len(seg))
    off[::4] = rng.uniform(size=net.n_segments)
    return MarkedPointPattern(net, [MarkedPoint(NetworkLocation(int(s), float(t))) for s, t in zip(seg, off)])


@pytest.mark.parametrize("seed", range(6))
def test_network_close_pairs_at_exact_pair_distances(seed):
    p = _crowded_network_pattern(seed)
    dense = dense_distances(p)
    values = np.unique(dense[np.triu_indices(p.n, 1)])
    rng = np.random.default_rng(seed)
    for cutoff in np.concatenate([[0.0, values.max()], rng.choice(values, 6)]):
        i, j, d = close_pairs(p, cutoff)
        wi, wj = np.nonzero(np.triu(dense <= cutoff, 1))
        _same(i, wi.astype(i.dtype))
        _same(j, wj.astype(j.dtype))
        _same(d, dense[wi, wj])


@pytest.mark.parametrize("seed", range(6))
def test_model_iii_counts_match_dense_oracle(seed):
    p = _crowded_network_pattern(seed)
    d = all_pairs_network_distances(p.domain, p.locations())
    np.fill_diagonal(d, np.inf)
    rng = np.random.default_rng(seed)
    for radius in np.concatenate([[0.0], rng.choice(d[np.isfinite(d)], 5)]):
        got = model_marks("III", p, np.random.default_rng(0), radius=float(radius)).marks()
        _same(got, (d <= radius).sum(axis=1).astype(float))
