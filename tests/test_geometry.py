"""Window, network, distance, measure, and sampling primitives."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markedpoints import (
    LinearNetwork,
    NetworkLocation,
    PlanarWindow,
    ValidationError,
    all_pairs_network_distances,
    boundary_distance,
    load_network,
    network_disc_measure,
    network_distance,
    save_network,
    uniform_point_on_network,
    uniform_points_on_network,
    window_erode,
)
from markedpoints.geometry import border_distances, network_arc_mesh, network_cross_distances

from conftest import random_connected_network, shortest_path_by_enumeration


# ---------------- windows ----------------


def test_erode_identity(unit_square):
    assert window_erode(unit_square, 0.0) == unit_square


def test_erode_quarter(unit_square):
    w = window_erode(unit_square, 0.25)
    assert w == PlanarWindow(0.25, 0.75, 0.25, 0.75)
    assert w.area == pytest.approx(0.25)


def test_erode_empty_raises(unit_square):
    with pytest.raises(ValidationError):
        window_erode(unit_square, 0.5)


def test_erode_area_nonincreasing(unit_square):
    areas = [window_erode(unit_square, r).area for r in np.linspace(0, 0.49, 20)]
    assert np.all(np.diff(areas) <= 0)


def test_boundary_distance_values(unit_square):
    assert boundary_distance(unit_square, 0.5, 0.5) == pytest.approx(0.5)
    assert boundary_distance(unit_square, 0.1, 0.4) == pytest.approx(0.1)
    assert boundary_distance(unit_square, 0.0, 0.5) == 0.0


def test_boundary_distance_outside_raises(unit_square):
    with pytest.raises(ValidationError):
        boundary_distance(unit_square, 1.5, 0.5)


def test_degenerate_window_rejected():
    with pytest.raises(ValidationError):
        PlanarWindow(1.0, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("bounds", [(0.0, np.inf, 0.0, 1.0), (-np.inf, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, np.nan),
                                    (0.0, 1e200, 0.0, 1e200)])
def test_unbounded_window_rejected(bounds):
    # an infinite area would reach numpy's Poisson sampler as an infinite mean
    with pytest.raises(ValidationError, match="unbounded"):
        PlanarWindow(*bounds)


# ---------------- network construction ----------------


def test_network_rejects_disconnected():
    with pytest.raises(ValidationError, match="disconnected"):
        LinearNetwork([[0, 0], [1, 0], [5, 5], [6, 5]], [[0, 1], [2, 3]])


def test_network_rejects_duplicate_segment():
    with pytest.raises(ValidationError, match="duplicate"):
        LinearNetwork([[0, 0], [1, 0]], [[0, 1], [1, 0]])


def test_network_rejects_bad_index():
    with pytest.raises(ValidationError):
        LinearNetwork([[0, 0], [1, 0]], [[0, 2]])


def test_network_rejects_zero_length():
    with pytest.raises(ValidationError):
        LinearNetwork([[0, 0], [0, 0]], [[0, 1]])


@pytest.mark.parametrize("site", ["vertex", "length", "mesh_spacing"])
def test_network_rejects_nan_scalars(site):
    nan = float("nan")
    with pytest.raises(ValidationError, match="vertex coordinates" if site == "vertex" else "finite"):
        if site == "vertex":
            LinearNetwork([[0, 0], [nan, 1], [1, 1]], [[0, 1], [1, 2]])
        elif site == "length":
            LinearNetwork([[0, 0], [1, 0]], [[0, 1]], lengths=[nan])
        else:
            network_arc_mesh(LinearNetwork([[0, 0], [1, 0]], [[0, 1]]), nan)


def test_explicit_lengths_for_abstract_graphs():
    net = LinearNetwork([[0, 0], [1, 0], [0.5, 1]], [[0, 1], [1, 2], [0, 2]], lengths=[3, 1, 1])
    assert net.total_length == pytest.approx(5.0)


# ---------------- network distance ----------------


def path_network():
    return LinearNetwork([[0, 0], [1, 0], [2, 0]], [[0, 1], [1, 2]])


def test_path_distance():
    net = path_network()
    d = network_distance(net, NetworkLocation(0, 0.0), NetworkLocation(1, 1.0))
    assert d == pytest.approx(2.0)


def test_triangle_detour():
    # endpoints of the length-3 segment reached faster via the two unit segments
    net = LinearNetwork(
        [[0, 0], [1, 0], [0.5, 1]], [[0, 1], [1, 2], [0, 2]], lengths=[3.0, 1.0, 1.0]
    )
    d = network_distance(net, NetworkLocation(0, 0.0), NetworkLocation(0, 1.0))
    assert d == pytest.approx(2.0)


def test_same_point_zero():
    net = path_network()
    assert network_distance(net, NetworkLocation(0, 0.37), NetworkLocation(0, 0.37)) == 0.0


def test_all_pairs_single_point():
    net = path_network()
    m = all_pairs_network_distances(net, [NetworkLocation(0, 0.5)])
    assert m.shape == (1, 1) and m[0, 0] == 0.0


def test_all_pairs_same_segment_offsets():
    net = LinearNetwork([[0, 0], [10, 0]], [[0, 1]])
    m = all_pairs_network_distances(net, [NetworkLocation(0, 0.2), NetworkLocation(0, 0.7)])
    assert m[0, 1] == pytest.approx(5.0)
    assert m[1, 0] == m[0, 1]


def test_all_pairs_matches_pairwise_calls():
    rng = np.random.default_rng(11)
    net = random_connected_network(rng, 7)
    locs = [
        NetworkLocation(int(rng.integers(net.n_segments)), float(rng.uniform()))
        for _ in range(6)
    ]
    m = all_pairs_network_distances(net, locs)
    for i in range(6):
        for j in range(6):
            if i != j:
                assert m[i, j] == network_distance(net, locs[i], locs[j])
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == 0.0)


def test_vertex_distances_match_enumeration_sample():
    # distances accumulate from the smaller vertex index; enumerate likewise
    rng = np.random.default_rng(5)
    nets = []
    for _ in range(20):
        net = random_connected_network(rng, int(rng.integers(3, 8)))
        nets.append(net)
        lengths = rng.uniform(0.5, 5.0, size=net.n_segments)
        nets.append(LinearNetwork(net.vertices, net.segments, lengths=lengths))
    for net in nets:
        D = net.vertex_distances()
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0.0)
        for a in range(net.n_vertices):
            for b in range(a + 1, net.n_vertices):
                assert D[a, b] == shortest_path_by_enumeration(net, a, b)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_metric_axioms_on_random_triples(seed):
    rng = np.random.default_rng(seed)
    net = random_connected_network(rng, int(rng.integers(3, 9)))
    a, b, c = (
        NetworkLocation(int(rng.integers(net.n_segments)), float(rng.uniform()))
        for _ in range(3)
    )
    dab = network_distance(net, a, b)
    dba = network_distance(net, b, a)
    dac = network_distance(net, a, c)
    dcb = network_distance(net, c, b)
    assert dab == dba
    assert dab <= dac + dcb + 1e-9
    assert network_distance(net, a, a) == 0.0


# ---------------- disc measure ----------------


def test_disc_measure_zero_radius():
    net = path_network()
    assert network_disc_measure(net, NetworkLocation(0, 0.3), 0.0) == 0.0


def test_disc_measure_rejects_nan_radius():
    with pytest.raises(ValidationError, match="nonnegative"):
        network_disc_measure(path_network(), NetworkLocation(0, 0.3), float("nan"))


def test_disc_measure_single_segment():
    net = LinearNetwork([[0, 0], [10, 0]], [[0, 1]])
    assert network_disc_measure(net, NetworkLocation(0, 0.5), 2.0) == pytest.approx(4.0)


def test_disc_measure_y_junction():
    net = LinearNetwork(
        [[0, 0], [1, 0], [-0.5, 1], [-0.5, -1]],
        [[0, 1], [0, 2], [0, 3]],
        lengths=[1.0, 1.0, 1.0],
    )
    got = network_disc_measure(net, NetworkLocation(0, 0.0), 0.5)
    assert got == pytest.approx(1.5)


def test_disc_measure_monotone_and_saturates():
    rng = np.random.default_rng(3)
    net = random_connected_network(rng, 6)
    u = NetworkLocation(2, 0.4)
    rs = np.linspace(0, net.total_length + 10, 25)
    vals = [network_disc_measure(net, u, r) for r in rs]
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[-1] == pytest.approx(net.total_length)
    assert max(vals) <= net.total_length + 1e-9


def test_arc_mesh_cells_per_segment_and_total_weight():
    rng = np.random.default_rng(8)
    net = random_connected_network(rng, 7)
    for spacing in (0.3, 1.0, 2.5, 100.0):
        locs, wts = network_arc_mesh(net, spacing)
        want_locs, want_wts = [], []
        for k, ln in enumerate(net.seg_lengths):
            m = math.ceil(ln / spacing)
            want_locs += [NetworkLocation(k, (i + 0.5) / m) for i in range(m)]
            want_wts += [ln / m] * m
        assert locs == want_locs
        assert np.array_equal(wts, want_wts)
        assert abs(wts.sum() - net.total_length) <= 1e-12


def test_disc_measure_against_dense_sampling():
    rng = np.random.default_rng(17)
    net = random_connected_network(rng, 6)
    u = NetworkLocation(1, 0.25)
    mesh, wts = network_arc_mesh(net, net.total_length / 20000.0)
    d = network_cross_distances(net, [u], mesh)[0]
    for r in [0.5, 1.5, 3.0]:
        approx = wts[d <= r].sum()
        assert network_disc_measure(net, u, r) == pytest.approx(approx, abs=4 * wts.max())


# ---------------- sampling ----------------


def test_uniform_sampling_segment_frequency():
    net = LinearNetwork([[0, 0], [1, 0], [4, 0]], [[0, 1], [1, 2]])
    rng = np.random.default_rng(23)
    locs = uniform_points_on_network(net, 100_000, rng)
    frac = np.mean([l.segment == 0 for l in locs])
    assert frac == pytest.approx(0.25, abs=0.01)


def test_uniform_sampling_deterministic():
    net = path_network()
    a = uniform_point_on_network(net, np.random.default_rng(99))
    b = uniform_point_on_network(net, np.random.default_rng(99))
    assert a == b


# ---------------- serialization ----------------


def test_network_json_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    net = random_connected_network(rng, 6)
    path = tmp_path / "net.json"
    save_network(net, path)
    loaded = load_network(path)
    assert np.allclose(loaded.vertices, net.vertices)
    assert np.array_equal(loaded.segments, net.segments)
    assert loaded.total_length == pytest.approx(net.total_length)
    doc = json.loads(path.read_text())
    assert set(doc) == {"vertices", "segments"}


def test_border_distances_on_path():
    net = LinearNetwork([[0, 0], [10, 0]], [[0, 1]])
    d = border_distances(net, [NetworkLocation(0, 0.3)])
    assert d[0] == pytest.approx(3.0)


def _border_oracle(net, locs):
    """Minimum over the degree-1 vertices of network_cross_distances to each."""
    border = net.border_vertices()
    ends = []
    for v in border:
        k = int(np.nonzero((net.segments == v).any(axis=1))[0][0])
        ends.append(NetworkLocation(k, 0.0 if net.segments[k, 0] == v else 1.0))
    if not ends:
        return np.full(len(locs), np.inf)
    return network_cross_distances(net, locs, ends).min(axis=1)


def _grid_with_spurs(rng, side=30, n_spurs=40):
    """Jittered side x side lattice (no degree-1 vertices) plus dangling spurs."""
    ij = np.array([(i, j) for i in range(side) for j in range(side)], dtype=float)
    verts = list(ij + rng.uniform(-0.2, 0.2, size=ij.shape))
    segs = [(v, v + 1) for v in range(side * side) if (v + 1) % side]
    segs += [(v, v + side) for v in range(side * (side - 1))]
    for v in rng.choice(side * side, size=n_spurs, replace=False):
        verts.append(verts[v] + rng.uniform(0.1, 0.3, size=2))
        segs.append((int(v), len(verts) - 1))
    return LinearNetwork(np.array(verts), segs)


@pytest.mark.parametrize("case", ["random", "grid"])
def test_border_distances_match_cross_distances(case):
    rng = np.random.default_rng(17)
    if case == "random":
        nets = [random_connected_network(rng, n, extra_edge_prob=0.1) for n in (3, 5, 8, 12)]
    else:
        nets = [_grid_with_spurs(rng)]
    for net in nets:
        locs = uniform_points_on_network(net, 300, rng) + [NetworkLocation(0, 0.0), NetworkLocation(0, 1.0)]
        want = _border_oracle(net, locs)
        got = border_distances(net, locs)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        ok = np.isfinite(want)
        assert np.all(np.abs(got[ok] - want[ok]) <= 1e-12 * want[ok])


def test_border_distances_on_loop_are_infinite():
    ang = 2.0 * np.pi * np.arange(6) / 6
    net = LinearNetwork(np.column_stack([np.cos(ang), np.sin(ang)]), [[k, (k + 1) % 6] for k in range(6)])
    d = border_distances(net, uniform_points_on_network(net, 20, np.random.default_rng(1)))
    assert np.all(np.isinf(d))
