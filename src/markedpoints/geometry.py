"""Planar windows, linear networks, and the distance/measure/sampling primitives.

A window is an axis-aligned rectangle; a linear network is a connected
undirected graph of straight segments embedded in the plane.
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
    "boundary_distance",
    "all_pairs_network_distances",
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
    """Connected undirected graph of straight segments in the plane.

    Parameters
    ----------
    vertices : (V, 2) array of planar coordinates.
    segments : (S, 2) array of vertex index pairs (undirected, no duplicates).

    A segment's length is the Euclidean distance between its endpoints.
    Disconnected networks are rejected: every downstream statistic assumes
    finite shortest-path distances.
    """

    def __init__(self, vertices, segments):
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
        self.seg_lengths = np.hypot(diffs[:, 0], diffs[:, 1])
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

    def border_vertices(self) -> np.ndarray:
        """Degree-1 vertices; the network analog of the window border."""
        return np.nonzero(np.bincount(self.segments.ravel(), minlength=self.n_vertices) == 1)[0]

    def vertex_distances(self) -> np.ndarray:
        """Shortest-path distance matrix between all vertex pairs (cached).

        Exactly symmetric: the (i, j) entry is the Dijkstra sum accumulated
        from the smaller vertex index, which pins one float summation order
        per pair.
        """
        if self._vertex_dist is None:
            # _graph holds each segment in both directions
            D = dijkstra(self._graph, directed=True)
            for k in range(1, self.n_vertices):
                D[k, :k] = D[:k, k]
            self._vertex_dist = D
        return self._vertex_dist


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


def _check_xy(w: PlanarWindow, xy):
    """Raise for the first (n, 2) location outside the closed window, NaN included."""
    bad = np.nonzero(~w.contains(xy[:, 0], xy[:, 1]))[0]
    if len(bad):
        x, y = xy[bad[0]].tolist()
        raise ValidationError(f"point {bad[0]} at ({x}, {y}) outside window")


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
    return _along_segment(net, a, b, ia, ib, best)


def _along_segment(net: LinearNetwork, a, b, ia, ib, best) -> np.ndarray:
    """best, lowered in place where a[ia] and b[ib] share a segment and meet
    directly along it."""
    (sa, oa), (sb, ob) = a, b
    same = sa[ia] == sb[ib]
    if same.any():
        ka, kb = (np.broadcast_to(k, same.shape)[same] for k in (ia, ib))
        best[same] = np.minimum(best[same], np.abs(oa[ka] - ob[kb]) * net.seg_lengths[sa[ka]])
    return best


def _cross_dist(net: LinearNetwork, a, b) -> np.ndarray:
    """Dense (len a, len b) shortest-path matrix between (segment, offset)
    columns, with the sums of _sp_dist. The vertex-distance rows of each
    segment end of the side with fewer points are gathered once, and each
    of the four end-to-end candidates, in _sp_dist's order, takes its
    columns from them into one reused buffer."""
    if len(b[0]) < len(a[0]):
        # the vertex matrix and every sum are symmetric in a and b
        return np.ascontiguousarray(_cross_dist(net, b, a).T)
    D = net.vertex_distances()
    (sa, oa), (sb, ob) = a, b
    da, db = _end_distances(net, sa, oa), _end_distances(net, sb, ob)
    best, cand = np.empty((len(sa), len(sb))), np.empty((len(sa), len(sb)))
    for e in (0, 1):
        rows = D[net.segments[sa, e]]
        for f in (0, 1):
            out = best if e == f == 0 else cand
            np.add(da[e][:, None], db[f][None, :], out=out)
            out += rows.take(net.segments[sb, f], axis=1)
            if out is cand:
                np.minimum(best, cand, out=best)
    return _along_segment(net, a, b, np.arange(len(sa))[:, None], np.arange(len(sb))[None, :], best)


def all_pairs_network_distances(net: LinearNetwork, locs) -> np.ndarray:
    """Symmetric matrix of pairwise shortest-path distances between network
    locations, zero diagonal, with the sums of _cross_dist."""
    if len(locs) == 0:
        raise ValidationError("all_pairs_network_distances needs at least one location")
    cols = _loc_arrays(net, locs)
    M = _cross_dist(net, cols, cols)
    np.fill_diagonal(M, 0.0)
    return M


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


def _uniform_seg_off(net: LinearNetwork, n: int, rng: np.random.Generator):
    """(segment, offset) columns of n i.i.d. arc-length-uniform locations."""
    cum = np.cumsum(net.seg_lengths)
    x = rng.uniform(0.0, net.total_length, size=n)
    seg = np.searchsorted(cum, x, side="right")
    seg = np.minimum(seg, net.n_segments - 1)
    prev = cum[seg] - net.seg_lengths[seg]
    off = np.clip((x - prev) / net.seg_lengths[seg], 0.0, 1.0)
    return seg, off


# the most cells of an F grid, arc mesh or raster, checked before it is formed
_MAX_CELLS = 1 << 24  # 128 MiB of doubles

# the most entries of a mark-correlation kernel matrix (the pairs in the
# kernel support of each r value, summed over r) and of the H and F
# retention products (rows x r values), checked before any is formed; both
# are built in blocks, so this bounds time, not memory: 20-30 ns an entry,
# and at most 1.2e7 kernel and 8.4e6 retention entries (F, 16,384 grid
# cells x 513 r values) in the largest inputs of the tests and benchmark
_MAX_ENTRIES = 1 << 28


def _check_cells(cells, what: str):
    if not 0 < cells <= _MAX_CELLS:  # NaN fails the test too
        raise ValidationError(f"{what} of {cells:.0f} cells: a grid needs 1 to {_MAX_CELLS} cells")


def _arc_cells(net: LinearNetwork, spacing: float):
    """Arc-length discretization: segment k is cut into m_k = max(1, ceil(L_k/spacing))
    equal cells. Returns per-cell arrays (segment, index i along it, m of its
    segment), in segment order."""
    if not 0 < spacing < np.inf:
        raise ValidationError(f"arc-length spacing must be positive and finite, got {spacing}")
    m = np.maximum(1.0, np.ceil(net.seg_lengths / spacing))
    _check_cells(m.sum(), "arc mesh")
    m = m.astype(int)
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


def synthetic_tree_network(core_depth: int = 5) -> LinearNetwork:
    """Bundled dendrite-like tree used by the simulation-study runner.

    A densely branching core (two binary half-trees of core_depth levels of
    30-unit segments, grown along the x+y diagonal and splitting 34 degrees
    either side) carries most of the junctions within a radius of about five
    core segments; four straight arms of three 80-unit segments radiate from
    the center along the same diagonal. The core concentrates
    neighbourhood mass at the 60-100 distance scale while the bipolar arm
    layout makes the x+y coordinate score roughly linear in arc distance
    across the whole tree. Defaults: 75 vertices, total length about 2820,
    tip-to-tip diameter about 780.
    """
    vertices = [(0.0, 0.0)]
    segments = []
    spread = np.deg2rad(34.0)

    def grow(parent_idx, x, y, angle, level):
        nx_, ny_ = x + 30.0 * np.cos(angle), y + 30.0 * np.sin(angle)
        vertices.append((nx_, ny_))
        idx = len(vertices) - 1
        segments.append((parent_idx, idx))
        if level < core_depth:
            grow(idx, nx_, ny_, angle - spread, level + 1)
            grow(idx, nx_, ny_, angle + spread, level + 1)

    diag = np.pi / 4.0
    grow(0, 0.0, 0.0, diag, 1)
    grow(0, 0.0, 0.0, diag + np.pi, 1)
    for ang_deg in (22.5, 67.5, 202.5, 247.5):
        ang = np.deg2rad(ang_deg)
        px, py, parent = 0.0, 0.0, 0
        for _ in range(3):
            px, py = px + 80.0 * np.cos(ang), py + 80.0 * np.sin(ang)
            vertices.append((px, py))
            idx = len(vertices) - 1
            segments.append((parent, idx))
            parent = idx
    return LinearNetwork(np.array(vertices), np.array(segments))
