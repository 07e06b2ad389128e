"""Shared fixtures and independent oracle helpers."""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from scipy.spatial.distance import cdist

from markedpoints import LinearNetwork, MarkedPoint, MarkedPointPattern, PlanarWindow
from markedpoints.geometry import network_cross_distances

# HYPOTHESIS_PROFILE=ci runs more examples of every property test that does not
# set its own max_examples; local runs keep Hypothesis' default budget
settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def unit_square():
    return PlanarWindow(0.0, 1.0, 0.0, 1.0)


@pytest.fixture
def cpu_mask(monkeypatch):
    """cpu_mask(c) makes os.sched_getaffinity report c CPUs, which sizes the
    replicate pool to c workers; the real mask is restored after the test."""

    def set_mask(c):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(c)), raising=False)

    return set_mask


def random_connected_network(rng, n_vertices, extra_edge_prob=0.3):
    """Random connected network: random spanning tree plus a few chords."""
    pts = rng.uniform(0.0, 10.0, size=(n_vertices, 2))
    edges = set()
    order = rng.permutation(n_vertices)
    for i in range(1, n_vertices):
        a = int(order[i])
        b = int(order[rng.integers(0, i)])
        edges.add((min(a, b), max(a, b)))
    for a in range(n_vertices):
        for b in range(a + 1, n_vertices):
            if (a, b) not in edges and rng.uniform() < extra_edge_prob:
                edges.add((a, b))
    return LinearNetwork(pts, sorted(edges))


def grid_network_arrays(*args):
    """bench/inputs.grid_network_arrays, the benchmark's grid network."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.grid_network_arrays(*args)


def shortest_path_by_enumeration(net, source, target):
    """Min over all simple vertex paths, summing edge lengths from the source.

    Independent of the package Dijkstra; summation runs in path order so a
    matching optimal path accumulates the same floats.
    """
    lengths = {}
    for k, (a, b) in enumerate(net.segments):
        w = float(net.seg_lengths[k])
        lengths[(int(a), int(b))] = w
        lengths[(int(b), int(a))] = w
    adj = {v: [] for v in range(net.n_vertices)}
    for (a, b), w in lengths.items():
        adj[a].append(b)

    best = [np.inf]

    def dfs(u, acc, visited):
        if acc >= best[0]:
            return
        if u == target:
            best[0] = acc
            return
        for v in adj[u]:
            if v not in visited:
                visited.add(v)
                dfs(v, acc + lengths[(u, v)], visited)
                visited.remove(v)

    dfs(source, 0.0, {source})
    return best[0]


def planar_pattern(window, xy, marks=None, labels=None):
    pts = []
    for i, (x, y) in enumerate(xy):
        pts.append(
            MarkedPoint(
                (float(x), float(y)),
                None if labels is None else labels[i],
                None if marks is None else float(marks[i]),
            )
        )
    return MarkedPointPattern(window, pts)


def location_distance(net, a, b) -> float:
    """Shortest-path distance between two NetworkLocations: a 1 x 1
    network_cross_distances."""
    return float(network_cross_distances(net, [a], [b])[0, 0])


def dense_distances(pa, pb=None):
    """Full (na, nb) distance matrix between two patterns on one domain:
    cdist on planar windows, network_cross_distances on networks."""
    pb = pa if pb is None else pb
    if pa.n == 0 or pb.n == 0:
        return np.zeros((pa.n, pb.n))
    if pa.is_network:
        return network_cross_distances(pa.domain, pa.locations(), pb.locations())
    return cdist(pa.coords(), pb.coords())
