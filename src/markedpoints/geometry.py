"""Planar windows, linear networks, and the distance/measure/sampling primitives.

A window is an axis-aligned rectangle; a linear network is a connected
weighted undirected graph of straight segments embedded in the plane.
Everything here is immutable after construction and safe to share across
threads; randomized operations take an explicit numpy Generator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import ValidationError

__all__ = [
    "PlanarWindow",
    "LinearNetwork",
    "NetworkLocation",
    "window_erode",
    "boundary_distance",
    "network_distance",
    "all_pairs_network_distances",
    "network_cross_distances",
    "network_disc_measure",
    "uniform_point_on_network",
    "network_arc_mesh",
    "load_network",
    "save_network",
    "synthetic_tree_network",
]


@dataclass(frozen=True)
class PlanarWindow:
    """Axis-aligned rectangular observation window."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        # a finite positive area needs finite bounds, and NaN fails every test
        if not (self.xmax > self.xmin and self.ymax > self.ymin and self.area < np.inf):
            raise ValidationError(
                f"degenerate or unbounded window: [{self.xmin},{self.xmax}]x[{self.ymin},{self.ymax}]"
            )

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains(self, x, y) -> np.ndarray:
        """Vectorized membership test (closed rectangle)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (x >= self.xmin) & (x <= self.xmax) & (y >= self.ymin) & (y <= self.ymax)


def window_erode(w: PlanarWindow, r: float) -> PlanarWindow:
    """Shrink the window by r on all four sides (the r-reduced window).

    Raises ValidationError if the erosion is empty, i.e. 2r reaches the
    shorter side.
    """
    if r < 0:
        raise ValidationError(f"erosion distance must be nonnegative, got {r}")
    if 2.0 * r >= min(w.width, w.height):
        raise ValidationError(
            f"erosion by r={r} empties the window (min side {min(w.width, w.height)})"
        )
    return PlanarWindow(w.xmin + r, w.xmax - r, w.ymin + r, w.ymax - r)


def boundary_distance(w: PlanarWindow, x, y) -> np.ndarray:
    """Distance from interior points to the window border (min over the four sides)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    inside = np.atleast_1d(w.contains(x, y))
    if not inside.all():
        bad = np.nonzero(~inside)[0]
        raise ValidationError(f"point outside window at flat index {bad[:5].tolist()}")
    return np.minimum.reduce([x - w.xmin, w.xmax - x, y - w.ymin, w.ymax - y])


@dataclass(frozen=True)
class NetworkLocation:
    """A point on a network: fractional offset along a segment, measured from its first vertex."""

    segment: int
    offset: float


class LinearNetwork:
    """Connected undirected graph of positively-weighted segments in the plane.

    Parameters
    ----------
    vertices : (V, 2) array of planar coordinates.
    segments : (S, 2) array of vertex index pairs (undirected, no duplicates).
    lengths : optional (S,) array of explicit segment lengths. By default
        lengths are the Euclidean distances between segment endpoints;
        explicit lengths model curved segments and abstract graphs.

    Disconnected networks are rejected: every downstream statistic assumes
    finite shortest-path distances.
    """

    def __init__(self, vertices, segments, lengths=None):
        self.vertices = np.asarray(vertices, dtype=float).reshape(-1, 2)
        self.segments = np.asarray(segments, dtype=int).reshape(-1, 2)
        nv = len(self.vertices)
        if not np.isfinite(self.vertices).all():
            raise ValidationError("vertex coordinates must be finite")
        if len(self.segments) == 0:
            raise ValidationError("network has no segments")
        if self.segments.min() < 0 or self.segments.max() >= nv:
            raise ValidationError("segment vertex index out of range")
        if np.any(self.segments[:, 0] == self.segments[:, 1]):
            raise ValidationError("segment joins a vertex to itself")
        und = {tuple(sorted(s)) for s in self.segments.tolist()}
        if len(und) != len(self.segments):
            raise ValidationError("duplicate undirected segment")

        diffs = self.vertices[self.segments[:, 1]] - self.vertices[self.segments[:, 0]]
        euclid = np.hypot(diffs[:, 0], diffs[:, 1])
        if lengths is None:
            self.seg_lengths = euclid
        else:
            self.seg_lengths = np.asarray(lengths, dtype=float).reshape(-1)
            if len(self.seg_lengths) != len(self.segments):
                raise ValidationError("lengths/segments size mismatch")
        if not np.all((0 < self.seg_lengths) & (self.seg_lengths < np.inf)):
            raise ValidationError("every segment length must be positive and finite")
        self.total_length = float(self.seg_lengths.sum())

        ends = np.concatenate([self.segments, self.segments[:, ::-1]])
        w = np.concatenate([self.seg_lengths, self.seg_lengths])
        self._graph = csr_array((w, (ends[:, 0], ends[:, 1])), shape=(nv, nv))
        _, comp = connected_components(self._graph, directed=False)
        reached = int(np.count_nonzero(comp == comp[0]))
        if reached != nv:
            raise ValidationError(f"network is disconnected ({reached}/{nv} vertices reachable)")
        self._vertex_dist = None

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.segments.ravel(), minlength=self.n_vertices)

    def border_vertices(self) -> np.ndarray:
        """Degree-1 vertices; the network analog of the window border."""
        return np.nonzero(self.degrees() == 1)[0]

    def vertex_distances(self) -> np.ndarray:
        """Shortest-path distance matrix between all vertex pairs (cached).

        Exactly symmetric: the (i, j) entry is the Dijkstra sum accumulated
        from the smaller vertex index, which pins one float summation order
        per pair.
        """
        if self._vertex_dist is None:
            D = dijkstra(self._graph, directed=False)
            il = np.tril_indices(self.n_vertices, k=-1)
            D[il] = D.T[il]
            self._vertex_dist = D
        return self._vertex_dist

    def diameter_upper_bound(self) -> float:
        """Cheap upper bound on the largest point-to-point distance."""
        D = self.vertex_distances()
        return float(D.max() + self.seg_lengths.max())


def _loc_arrays(net: LinearNetwork, locs) -> tuple[np.ndarray, np.ndarray]:
    """(segment, offset) columns of NetworkLocation objects, range-checked:
    the one conversion from location objects to columns."""
    seg = np.array([l.segment for l in locs], dtype=int)
    off = np.array([l.offset for l in locs], dtype=float)
    _check_seg_off(net, seg, off)
    return seg, off


def _check_seg_off(net: LinearNetwork, seg, off):
    """Raise for the first location off the network's segments or offsets."""
    bad = np.nonzero((seg < 0) | (seg >= net.n_segments))[0]
    if len(bad):
        raise ValidationError(f"location {bad[0]}: invalid segment index {seg[bad[0]]}")
    bad = np.nonzero(~((off >= 0.0) & (off <= 1.0)))[0]
    if len(bad):
        raise ValidationError(f"location {bad[0]}: offset {off[bad[0]]} outside [0, 1]")


def _locations(seg, off) -> list:
    """NetworkLocation objects for (segment, offset) columns."""
    return [NetworkLocation(s, t) for s, t in zip(seg.tolist(), off.tolist())]


def _embed(net: LinearNetwork, seg, off) -> np.ndarray:
    """Planar embedding of (segment, offset) columns, as an (n, 2) array."""
    a = net.vertices[net.segments[seg, 0]]
    b = net.vertices[net.segments[seg, 1]]
    return a + off[:, None] * (b - a)


def _end_distances(net: LinearNetwork, seg, off):
    """Arc distance from each location to its segment's two endpoints."""
    ln = net.seg_lengths[seg]
    return off * ln, (1.0 - off) * ln


def _sp_dist(net: LinearNetwork, a, b, ia, ib) -> np.ndarray:
    """Shortest-path distances between the locations a[ia] and b[ib] of the
    (segment, offset) columns a and b, elementwise over the broadcast index
    arrays ia and ib.

    Each location is a temporary degree-2 vertex on its segment, so offsets
    are honored exactly. Each sum is formed symmetrically in a and b, so
    swapping the operands gives bit-identical distances.
    """
    D = net.vertex_distances().ravel()
    nv = net.n_vertices
    (sa, oa), (sb, ob) = a, b
    da, db = _end_distances(net, sa, oa), _end_distances(net, sb, ob)
    ends_a = [(da[e][ia], (net.segments[sa, e] * nv)[ia]) for e in (0, 1)]
    ends_b = [(db[e][ib], net.segments[sb, e][ib]) for e in (0, 1)]
    best = None
    for ea, va in ends_a:
        for eb, vb in ends_b:
            cand = (ea + eb) + D.take(va + vb)
            best = cand if best is None else np.minimum(best, cand, out=best)
    # two locations on one segment may also meet directly along it
    same = sa[ia] == sb[ib]
    if same.any():
        ka, kb = (np.broadcast_to(k, same.shape)[same] for k in (ia, ib))
        best[same] = np.minimum(best[same], np.abs(oa[ka] - ob[kb]) * net.seg_lengths[sa[ka]])
    return best


def _cross_dist(net: LinearNetwork, a, b) -> np.ndarray:
    """Dense (len a, len b) shortest-path matrix between (segment, offset) columns."""
    return _sp_dist(net, a, b, np.arange(len(a[0]))[:, None], np.arange(len(b[0]))[None, :])


def network_cross_distances(net: LinearNetwork, locs_a, locs_b) -> np.ndarray:
    """Shortest-path distances between two batches of network locations.

    Each query point is treated as a temporary degree-2 vertex on its
    segment, so offsets are honored exactly. The (i, j) sums are formed
    symmetrically, which makes the full matrix exactly symmetric when
    locs_a is locs_b.
    """
    return _cross_dist(net, _loc_arrays(net, locs_a), _loc_arrays(net, locs_b))


def network_distance(net: LinearNetwork, a: NetworkLocation, b: NetworkLocation) -> float:
    """Shortest-path distance between two locations on the network."""
    return float(network_cross_distances(net, [a], [b])[0, 0])


def all_pairs_network_distances(net: LinearNetwork, locs) -> np.ndarray:
    """Symmetric matrix of pairwise shortest-path distances, zero diagonal."""
    if len(locs) == 0:
        raise ValidationError("all_pairs_network_distances needs at least one location")
    M = network_cross_distances(net, locs, locs)
    np.fill_diagonal(M, 0.0)
    return M


def border_distances(net: LinearNetwork, locs) -> np.ndarray:
    """Distance from each location to the nearest degree-1 vertex (inf if none)."""
    return _border_dist(net, *_loc_arrays(net, locs))


def _border_dist(net: LinearNetwork, seg, off) -> np.ndarray:
    """Border distance of (segment, offset) columns through either segment
    end, from each vertex's distance to its nearest degree-1 vertex; rounding
    d + x is monotone in x, so this equals the minimum over border vertices."""
    border = net.border_vertices()
    if len(border) == 0:
        return np.full(len(seg), np.inf)
    near = net.vertex_distances()[:, border].min(axis=1)
    d0, d1 = _end_distances(net, seg, off)
    return np.minimum(d0 + near[net.segments[seg, 0]], d1 + near[net.segments[seg, 1]])


def network_disc_measure(net: LinearNetwork, u: NetworkLocation, r: float) -> float:
    """Total network length within shortest-path distance r of u.

    Computed from u's distances to every vertex, read off the cached vertex
    distance matrix: each segment contributes the merged reach from its two
    endpoints, capped at the segment length; the segment carrying u is
    split at u into two pieces that reach u at distance 0.
    """
    seg, off = _loc_arrays(net, [u])
    if not r >= 0:
        raise ValidationError(f"radius must be nonnegative, got {r}")
    s = seg[0]
    a, b = net.segments[s]
    (d0,), (d1,) = _end_distances(net, seg, off)
    D = net.vertex_distances()
    dv = np.minimum(d0 + D[a], d1 + D[b])
    la = off[0] * net.seg_lengths[s]
    length = np.append(net.seg_lengths, [la, net.seg_lengths[s] - la])
    length[s] = 0.0
    da = np.append(dv[net.segments[:, 0]], [dv[a], 0.0])
    db = np.append(dv[net.segments[:, 1]], [0.0, dv[b]])
    reach = np.clip(r - da, 0.0, length) + np.clip(r - db, 0.0, length)
    return float(np.minimum(length, reach).sum())


def uniform_point_on_network(net: LinearNetwork, rng: np.random.Generator) -> NetworkLocation:
    """One location uniform with respect to arc length."""
    return uniform_points_on_network(net, 1, rng)[0]


def uniform_points_on_network(net: LinearNetwork, n: int, rng: np.random.Generator):
    """n i.i.d. arc-length-uniform locations."""
    return _locations(*_uniform_seg_off(net, n, rng))


def _uniform_seg_off(net: LinearNetwork, n: int, rng: np.random.Generator):
    """(segment, offset) columns of n i.i.d. arc-length-uniform locations."""
    cum = np.cumsum(net.seg_lengths)
    x = rng.uniform(0.0, net.total_length, size=n)
    seg = np.searchsorted(cum, x, side="right")
    seg = np.minimum(seg, net.n_segments - 1)
    prev = cum[seg] - net.seg_lengths[seg]
    off = np.clip((x - prev) / net.seg_lengths[seg], 0.0, 1.0)
    return seg, off


def _arc_cells(net: LinearNetwork, spacing: float):
    """Arc-length discretization: segment k is cut into m_k = max(1, ceil(L_k/spacing))
    equal cells. Returns per-cell arrays (segment, index i along it, m of its
    segment), in segment order."""
    if not 0 < spacing < np.inf:
        raise ValidationError(f"arc-length spacing must be positive and finite, got {spacing}")
    m = np.maximum(1, np.ceil(net.seg_lengths / spacing).astype(int))
    seg = np.repeat(np.arange(net.n_segments), m)
    i = np.arange(len(seg)) - np.repeat(np.cumsum(m) - m, m)
    return seg, i, m[seg]


def _arc_mesh(net: LinearNetwork, spacing: float):
    """Cell-center (segment, offset) columns and cell lengths of the arc mesh."""
    seg, i, m = _arc_cells(net, spacing)
    return (seg, (i + 0.5) / m), net.seg_lengths[seg] / m


def network_arc_mesh(net: LinearNetwork, spacing: float):
    """Quadrature mesh along the network: cell-center locations and cell lengths.

    Each segment is cut into ceil(length/spacing) equal cells; returns
    (locations, weights) with weights summing to the total length.
    """
    cols, weights = _arc_mesh(net, spacing)
    return _locations(*cols), weights


def save_network(net: LinearNetwork, path):
    """Write the network as JSON: vertices and 0-based segment index pairs.

    Lengths are always re-derived from coordinates on load, never stored.
    """
    doc = {
        "vertices": [[float(x), float(y)] for x, y in net.vertices],
        "segments": [[int(a), int(b)] for a, b in net.segments],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_network(path) -> LinearNetwork:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:
            raise ValidationError(f"network file {path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"network file {path} must hold a JSON object with vertices and segments")
    try:
        return LinearNetwork(doc["vertices"], doc["segments"])
    except KeyError as e:
        raise ValidationError(f"network file {path} missing key {e}") from e
    except (TypeError, ValueError, ValidationError) as e:
        raise ValidationError(f"network file {path} has malformed vertices or segments: {e}") from None


def synthetic_tree_network(
    core_depth: int = 5,
    core_segment: float = 30.0,
    arm_segments: int = 3,
    arm_segment: float = 80.0,
    spread_degrees: float = 34.0,
) -> LinearNetwork:
    """Bundled dendrite-like tree used by the simulation-study runner.

    A densely branching core (two binary half-trees grown along the x+y
    diagonal) carries most of the junctions within a radius of about five
    core segments; four straight arms shorter than 250 units radiate from
    the center along the same diagonal. The core concentrates
    neighbourhood mass at the 60-100 distance scale while the bipolar arm
    layout makes the x+y coordinate score roughly linear in arc distance
    across the whole tree. Defaults: 75 vertices, total length about 2820,
    tip-to-tip diameter about 780.
    """
    vertices = [(0.0, 0.0)]
    segments = []
    spread = np.deg2rad(spread_degrees)

    def grow(parent_idx, x, y, angle, length, level):
        nx_, ny_ = x + length * np.cos(angle), y + length * np.sin(angle)
        vertices.append((nx_, ny_))
        idx = len(vertices) - 1
        segments.append((parent_idx, idx))
        if level < core_depth:
            grow(idx, nx_, ny_, angle - spread, length, level + 1)
            grow(idx, nx_, ny_, angle + spread, length, level + 1)

    diag = np.pi / 4.0
    grow(0, 0.0, 0.0, diag, core_segment, 1)
    grow(0, 0.0, 0.0, diag + np.pi, core_segment, 1)
    for ang_deg in (22.5, 67.5, 202.5, 247.5):
        ang = np.deg2rad(ang_deg)
        px, py, parent = 0.0, 0.0, 0
        for _ in range(arm_segments):
            px, py = px + arm_segment * np.cos(ang), py + arm_segment * np.sin(ang)
            vertices.append((px, py))
            idx = len(vertices) - 1
            segments.append((parent, idx))
            parent = idx
    return LinearNetwork(np.array(vertices), np.array(segments))
