"""Domain-aware pairwise distance helpers shared by the estimator modules."""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import ValidationError
from .geometry import network_cross_distances
from .pattern import MarkedPointPattern


def pair_distances(p: MarkedPointPattern) -> np.ndarray:
    """(n, n) matrix of interpoint distances, Euclidean or shortest-path."""
    if p.is_network:
        if p.n == 0:
            return np.zeros((0, 0))
        d = network_cross_distances(p.domain, p.locations(), p.locations())
        np.fill_diagonal(d, 0.0)
        return d
    xy = p.coords()
    return cdist(xy, xy) if p.n else np.zeros((0, 0))


def close_pairs(p: MarkedPointPattern, cutoff: float):
    """Unordered pairs i < j at distance d <= cutoff, as arrays (i, j, d).

    Distances are bit-identical to the matching entries of pair_distances,
    so the cutoff test agrees with a filter on the dense matrix.
    """
    if p.is_network:
        i, j = np.triu_indices(p.n, 1)
        d = network_cross_distances(p.domain, p.locations(), p.locations())[i, j]
    else:
        xy = p.coords()
        # the tree rounds differently from cdist: search a hair wider, filter exactly
        ij = cKDTree(xy).query_pairs(cutoff * (1.0 + 1e-9), output_type="ndarray")
        i, j = ij[:, 0], ij[:, 1]
        dx = xy[i, 0] - xy[j, 0]
        dy = xy[i, 1] - xy[j, 1]
        d = np.sqrt(dx * dx + dy * dy)
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


def cross_distances(pa: MarkedPointPattern, pb: MarkedPointPattern) -> np.ndarray:
    """(na, nb) distances between two patterns sharing one domain."""
    if pa.domain is not pb.domain and pa.is_network != pb.is_network:
        raise ValidationError("patterns live on different domain kinds")
    if pa.n == 0 or pb.n == 0:
        return np.zeros((pa.n, pb.n))
    if pa.is_network:
        return network_cross_distances(pa.domain, pa.locations(), pb.locations())
    return cdist(pa.coords(), pb.coords())
