"""Window, network, distance, measure, and sampling primitives."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from markedpoints import (
    LinearNetwork,
    NetworkLocation,
    PlanarWindow,
    ValidationError,
    all_pairs_network_distances,
    boundary_distance,
    load_network,
    save_network,
    uniform_points_on_network,
)
from markedpoints.geometry import _border_dist, _loc_arrays, network_arc_mesh, network_cross_distances

from conftest import grid_network_arrays, location_distance, random_connected_network, shortest_path_by_enumeration


# ---------------- windows ----------------


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
    d = location_distance(net, NetworkLocation(0, 0.0), NetworkLocation(1, 1.0))
    assert d == pytest.approx(2.0)


def test_triangle_detour():
    # endpoints of the length-3 segment reached faster via the two unit segments
    net = LinearNetwork(
        [[0, 0], [1, 0], [0.5, 1]], [[0, 1], [1, 2], [0, 2]], lengths=[3.0, 1.0, 1.0]
    )
    d = location_distance(net, NetworkLocation(0, 0.0), NetworkLocation(0, 1.0))
    assert d == pytest.approx(2.0)


def test_same_point_zero():
    net = path_network()
    assert location_distance(net, NetworkLocation(0, 0.37), NetworkLocation(0, 0.37)) == 0.0


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
                assert m[i, j] == location_distance(net, locs[i], locs[j])
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


def test_vertex_distances_one_way_equal_the_undirected_mirror():
    # one directed Dijkstra over both directions of every segment, mirrored
    # row by row, gives the bits of an undirected Dijkstra mirrored through
    # its lower-triangle indices
    rng = np.random.default_rng(8)
    nets = [random_connected_network(rng, n, p) for n in (2, 5, 12, 40) for p in (0.0, 0.3)]
    for m in (3, 12):
        ring = np.column_stack([np.cos(2 * np.pi * np.arange(m) / m), np.sin(2 * np.pi * np.arange(m) / m)])
        nets.append(LinearNetwork(ring * 7.3, [[k, (k + 1) % m] for k in range(m)]))
    nets.append(LinearNetwork(*grid_network_arrays(np.random.default_rng(5), 30, 10.0, 100)))
    for net in nets:
        want = dijkstra(net._graph, directed=False)
        lower = np.tril_indices(net.n_vertices, k=-1)
        want[lower] = want.T[lower]
        assert np.array_equal(net.vertex_distances(), want)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_metric_axioms_on_random_triples(seed):
    rng = np.random.default_rng(seed)
    net = random_connected_network(rng, int(rng.integers(3, 9)))
    a, b, c = (
        NetworkLocation(int(rng.integers(net.n_segments)), float(rng.uniform()))
        for _ in range(3)
    )
    dab = location_distance(net, a, b)
    dba = location_distance(net, b, a)
    dac = location_distance(net, a, c)
    dcb = location_distance(net, c, b)
    assert dab == dba
    assert dab <= dac + dcb + 1e-9
    assert location_distance(net, a, a) == 0.0


# ---------------- arc mesh ----------------


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


# ---------------- sampling ----------------


def test_uniform_sampling_segment_frequency():
    net = LinearNetwork([[0, 0], [1, 0], [4, 0]], [[0, 1], [1, 2]])
    rng = np.random.default_rng(23)
    locs = uniform_points_on_network(net, 100_000, rng)
    frac = np.mean([l.segment == 0 for l in locs])
    assert frac == pytest.approx(0.25, abs=0.01)


def test_uniform_sampling_deterministic():
    net = path_network()
    a = uniform_points_on_network(net, 1, np.random.default_rng(99))
    b = uniform_points_on_network(net, 1, np.random.default_rng(99))
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
    d = _border_dist(net, *_loc_arrays(net, [NetworkLocation(0, 0.3)]))
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
        got = _border_dist(net, *_loc_arrays(net, locs))
        assert np.array_equal(np.isinf(got), np.isinf(want))
        ok = np.isfinite(want)
        assert np.all(np.abs(got[ok] - want[ok]) <= 1e-12 * want[ok])


def test_border_distances_on_loop_are_infinite():
    ang = 2.0 * np.pi * np.arange(6) / 6
    net = LinearNetwork(np.column_stack([np.cos(ang), np.sin(ang)]), [[k, (k + 1) % 6] for k in range(6)])
    d = _border_dist(net, *_loc_arrays(net, uniform_points_on_network(net, 20, np.random.default_rng(1))))
    assert np.all(np.isinf(d))
