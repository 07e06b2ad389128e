"""Radius-bounded pair engine shared by the estimator modules: the pairs
within a cutoff and their distances, Euclidean or shortest-path; and the
entry budget within which the estimators form every dense or pair-sized
array, one block of rows at a time."""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import ValidationError
from .geometry import LinearNetwork, _cross_dist, _sp_dist
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


def close_pairs(p: MarkedPointPattern, cutoff: float):
    """Unordered pairs i < j at distance d <= cutoff, as arrays (i, j, d).

    Distances are bit-identical to the matching entries of cdist or
    network_cross_distances, so the cutoff test agrees with a filter on the
    dense matrix. On networks every pair i < j is tried, in row blocks of
    the sweep: O(n^2) time in O(_BLOCK) memory.
    """
    if p.is_network:
        n, cols = p.n, p.seg_off()
        parts = []
        # row i of the i < j sweep holds n - 1 - i pairs
        for lo, hi in _row_blocks(n, np.arange(n - 1, -1, -1)):
            i, j = np.triu_indices(hi - lo, 1, n - lo)
            if lo:
                i += lo
                j += lo
            d = _sp_dist(p.domain, cols, cols, i, j)
            keep = d <= cutoff
            parts.append((i[keep], j[keep], d[keep]))
        return _joined(parts)
    xy = p.coords()
    # the tree rounds differently from cdist: search a hair wider, filter exactly
    ij = cKDTree(xy).query_pairs(cutoff * (1.0 + 1e-9), output_type="ndarray")
    i, j = ij[:, 0], ij[:, 1]
    d = _euclidean(xy, xy, i, j)
    keep = d <= cutoff
    return i[keep], j[keep], d[keep]


def _joined(parts):
    """The (i, j, d) arrays of row blocks, in block order."""
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    return tuple(np.concatenate(c) for c in zip(*parts))


def _euclidean(xy_a, xy_b, i, j) -> np.ndarray:
    """sqrt(dx*dx + dy*dy) for the row pairs (i, j), in the order cdist uses."""
    dx = xy_a[i, 0] - xy_b[j, 0]
    dy = xy_a[i, 1] - xy_b[j, 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _points_on(domain, side):
    """Planar coordinates or network (segment, offset) columns of one side
    of cross_pairs."""
    if not isinstance(side, MarkedPointPattern):
        return side
    if side.domain is not domain:
        raise ValidationError("patterns must share one domain object")
    return side.seg_off() if side.is_network else side.coords()


def cross_pairs(domain, a, b, cutoff: float):
    """Pairs (i, j) of a point of a and a point of b at distance d <= cutoff,
    as arrays (i, j, d).

    a and b are patterns on domain itself, or raw planar coordinates (n, 2)
    or network (segment, offset) columns on it. Distances are bit-identical
    to the matching entries of cdist or network_cross_distances.
    """
    a, b = _points_on(domain, a), _points_on(domain, b)
    network = isinstance(domain, LinearNetwork)
    na, nb = (len(a[0]), len(b[0])) if network else (len(a), len(b))
    if na == 0 or nb == 0:
        return _joined([])
    if network:
        parts = []
        for lo, hi in _row_blocks(na, nb):
            dc = _cross_dist(domain, (a[0][lo:hi], a[1][lo:hi]), b)
            i, j = np.nonzero(dc <= cutoff)
            parts.append((i + lo, j, dc[i, j]))
        return _joined(parts)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    # the tree rounds differently from cdist: search a hair wider, filter exactly
    ijv = cKDTree(a).sparse_distance_matrix(
        cKDTree(b), cutoff * (1.0 + 1e-9), output_type="ndarray"
    )
    i, j = ijv["i"], ijv["j"]
    d = _euclidean(a, b, i, j)
    keep = d <= cutoff
    return i[keep], j[keep], d[keep]


def translation_weights(window, xy_a, xy_b) -> np.ndarray:
    """Translation edge correction |W| / |W intersect W shifted by (a - b)|
    for each row pair of xy_a and xy_b (rows broadcast)."""
    xy_a, xy_b = np.asarray(xy_a, dtype=float), np.asarray(xy_b, dtype=float)
    ox = window.width - np.abs(xy_a[..., 0] - xy_b[..., 0])
    oy = window.height - np.abs(xy_a[..., 1] - xy_b[..., 1])
    if np.any(ox <= 0) or np.any(oy <= 0):
        raise ValidationError("point pair separation exceeds the window size")
    return window.area / (ox * oy)
