"""Radius-bounded pair engine shared by the estimator modules: the pairs
within a cutoff and their distances, Euclidean or shortest-path; the r bin
of each distance; and the entry budget within which the estimators form
every dense or pair-sized array, one block of rows at a time.

Planar pairs come from a k-d tree. Network pairs whose dense distance
matrix fits in one block are read from that matrix; larger sets take their
candidates from a k-d tree on the planar embedding, one row block at a
time, and keep the candidates whose exact shortest-path distance is within
the cutoff."""

from __future__ import annotations

from functools import cache

import numpy as np
from scipy.spatial import cKDTree

from .errors import ValidationError
from .geometry import LinearNetwork, _cross_dist, _embed, _sp_dist
from .pattern import MarkedPointPattern

# entries of a dense or pair-sized array formed at once
_BLOCK = 1 << 18


def _row_blocks(n_rows: int, width):
    """Consecutive row ranges (lo, hi) covering rows 0 .. n_rows - 1, each
    with at most _BLOCK entries, or a single row that alone has more; width
    is the entry count of every row, or an array of per-row counts."""
    ends = np.cumsum(np.broadcast_to(width, (n_rows,)))
    lo = 0
    while lo < n_rows:
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + _BLOCK, side="right")))
        yield lo, hi
        lo = hi


def _bins(r, d):
    """The bin of each distance d >= 0 on a strictly increasing grid r from
    0: the first k with r[k] >= d, or len(r) beyond r[-1], as
    np.searchsorted gives it, without a binary search per distance.

    A table of at most _BLOCK entries maps each equal-width bucket of
    [0, r[-1]] to the number of grid values in lower buckets; every such
    value lies below every distance of the bucket, since the bucket of a
    value is monotone in it. From that first guess each bin steps up while
    r[k] < d, at most as often as grid values share the bucket.
    """
    top, nb = r[-1], max(0, min(_BLOCK, 8 * len(r)) - 1)

    def bucket(x):
        t = np.minimum(x, top) / top
        t *= nb
        return t.astype(np.intp)  # the floor, for t >= 0

    k = np.searchsorted(bucket(r), np.arange(nb + 1)).take(bucket(d))
    rk = np.append(r, np.inf)  # a distance beyond r[-1] stops at len(r)
    idx = np.flatnonzero(rk.take(k) < d)
    while len(idx):
        k[idx] += 1
        idx = idx[rk.take(k[idx]) < d[idx]]
    return k


def close_pairs(p: MarkedPointPattern, cutoff: float):
    """Unordered pairs i < j at distance d <= cutoff, as arrays (i, j, d).

    Distances are bit-identical to the matching entries of cdist or
    network_cross_distances, so the cutoff test agrees with a filter on the
    dense matrix. On networks the pairs come in row-major order, as
    _network_search gives them.
    """
    if p.is_network:
        cols = p.seg_off()
        return _network_search(p.domain, cols, cols, cutoff, True, lambda: cKDTree(_embed(p.domain, *cols)))
    xy = p.coords()
    # the tree rounds differently from cdist: search a hair wider, filter exactly
    ij = cKDTree(xy).query_pairs(cutoff * (1.0 + 1e-9), output_type="ndarray")
    i, j = ij[:, 0], ij[:, 1]
    return _within(i, j, _euclidean(xy, xy, i, j), cutoff)


def _within(i, j, d, cutoff):
    """The pairs (i, j, d) with d <= cutoff: the arrays themselves when every
    pair passes, as a search a hair wider than the cutoff usually gives."""
    keep = d <= cutoff
    if keep.all():
        return i, j, d
    return i[keep], j[keep], d[keep]


def _network_search(net: LinearNetwork, a, b, cutoff: float, upper: bool, tree):
    """Pairs (i, j, d) of the (segment, offset) columns a and b at
    shortest-path distance d <= cutoff, in row-major order, with j > i only
    when upper. When the len(a) x len(b) distances fit in one block they
    are read from the dense _cross_dist matrix; otherwise _network_pairs
    searches tree(), the k-d tree of b's planar embedding."""
    if len(a[0]) * len(b[0]) > _BLOCK:
        return _network_pairs(net, a, b, tree(), cutoff, upper)
    dc = _cross_dist(net, a, b)
    near = dc <= cutoff
    i, j = np.nonzero(np.triu(near, 1) if upper else near)
    return i, j, dc[i, j]


def _network_pairs(net: LinearNetwork, a, b, tree, cutoff: float, upper: bool):
    """Pairs (i, j, d) of the (segment, offset) columns a and b at
    shortest-path distance d <= cutoff, in row-major order, with j > i only
    when upper; tree is the k-d tree of b's planar embedding.

    A path of length L moves the planar embedding at most kappa * L, for
    kappa = net._stretch, the largest chord / length ratio of any segment
    (at least 1), so a k-d tree query at radius kappa * cutoff, widened for
    rounding, misses no pair. Each row block of a is queried against the
    tree of all of b, at most _BLOCK candidates a block, and its candidates
    are sorted row-major and filtered by the exact distance, which _sp_dist
    gives bit-identical to the entries of _cross_dist.
    """
    reach = net._stretch * cutoff
    # the embedding of a location rounds by a few ulp of the coordinates
    radius = reach + 1e-9 * (reach + np.abs(net.vertices).max())
    xa, nb = _embed(net, *a), len(b[0])
    parts = []
    for lo, hi in _row_blocks(len(xa), nb):
        ijv = cKDTree(xa[lo:hi]).sparse_distance_matrix(tree, radius, output_type="ndarray")
        i, j = ijv["i"] + lo, ijv["j"]
        key = i * nb + j
        if upper:
            key = key[j > i]
        key.sort()
        i, j = np.divmod(key, nb)
        parts.append(_within(i, j, _sp_dist(net, a, b, i, j), cutoff))
    return _joined(parts)


def _joined(parts):
    """The (i, j, d) arrays of the row blocks in the nonempty list parts, in
    block order; parts is emptied. One column is joined at a time and its
    block parts are dropped once joined, so the peak is the output and one
    column's parts, not the output twice."""
    if len(parts) == 1:
        return parts[0]
    columns = list(zip(*parts))
    parts.clear()
    return tuple(np.concatenate(columns.pop(0)) for _ in range(3))


def _euclidean(xy_a, xy_b, i, j) -> np.ndarray:
    """sqrt(dx*dx + dy*dy) for the row pairs (i, j), in the order cdist uses;
    each coordinate is gathered from its column, one pair-length array at a
    time."""
    dx = xy_a[:, 0][i]
    dx -= xy_b[:, 0][j]
    dy = xy_a[:, 1][i]
    dy -= xy_b[:, 1][j]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _check_same_domain(domain, p: MarkedPointPattern):
    if p.domain is not domain:
        raise ValidationError("patterns must share one domain object")


def _points_on(domain, side):
    """Planar coordinates or network (segment, offset) columns of one side
    of a cross search."""
    if not isinstance(side, MarkedPointPattern):
        return side
    _check_same_domain(domain, side)
    return side.seg_off() if side.is_network else side.coords()


def cross_search(domain, b):
    """The search (a, cutoff) -> pairs (i, j) of a point of a and a point of
    b at distance d <= cutoff, as arrays (i, j, d), for any number of sides
    a; the k-d tree of b is built once, by the first search that needs it.

    a and b are patterns on domain itself, or raw planar coordinates (n, 2)
    or network (segment, offset) columns on it. Distances are bit-identical
    to the matching entries of cdist or network_cross_distances.
    """
    b = _points_on(domain, b)
    network = isinstance(domain, LinearNetwork)
    if not network:
        b = np.asarray(b, dtype=float)
    tree = cache(lambda: cKDTree(_embed(domain, *b) if network else b))

    def search(a, cutoff):
        a = _points_on(domain, a)
        if network:
            return _network_search(domain, a, b, cutoff, False, tree)
        # search a hair wider, so no rounding in the tree's pruning loses a
        # pair, and filter exactly: its distances are cdist's, sqrt(dx*dx + dy*dy)
        ijv = cKDTree(np.asarray(a, dtype=float)).sparse_distance_matrix(
            tree(), cutoff * (1.0 + 1e-9), output_type="ndarray"
        )
        return _within(ijv["i"], ijv["j"], ijv["v"], cutoff)

    return search


def translation_weights(window, xy_a, xy_b, i, j) -> np.ndarray:
    """Translation edge correction |W| / |W intersect W shifted by (a - b)|
    for the row pairs (i, j) of xy_a and xy_b, formed one coordinate column
    at a time."""
    xy_a, xy_b = np.asarray(xy_a, dtype=float), np.asarray(xy_b, dtype=float)
    overlap = []
    for axis, side in ((0, window.width), (1, window.height)):
        o = xy_a[:, axis][i]
        o -= xy_b[:, axis][j]
        np.abs(o, out=o)
        np.subtract(side, o, out=o)
        if np.any(o <= 0):
            raise ValidationError("point pair separation exceeds the window size")
        overlap.append(o)
    ox, oy = overlap
    ox *= oy
    return np.divide(window.area, ox, out=ox)
