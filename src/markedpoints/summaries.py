"""Inhomogeneous cross/dot-type K, nearest-neighbour H, empty-space F and
their ratio J, plus mark-weighted K and the normalized mark-sum measure.

Planar estimators use Euclidean distance on a rectangular window with an
optional translation edge correction; network analogs use shortest-path
distance with no edge correction, and the total network length plays the
role of the window size. On networks the r-reduced domain retains points
whose shortest-path distance to every degree-1 vertex is at least r; a
network without degree-1 vertices has no border and nothing is discarded.
"""

from __future__ import annotations

import numpy as np

from ._dist import close_pairs, cross_pairs, translation_weights
from .curves import SummaryCurve, _r_values
from .errors import NumericalError, ValidationError
from .geometry import LinearNetwork, _arc_mesh, _border_dist, boundary_distance
from .intensity import eval_intensity
from .markcorr import TestFunction, _constant, _pair_values
from .pattern import MarkedPointPattern, _moments

__all__ = [
    "k_cross_inhom",
    "k_dot_inhom",
    "h_cross_inhom",
    "f_inhom",
    "j_cross_inhom",
    "mark_weighted_k",
    "mark_sum_measure",
]


def _check_same_domain(pa: MarkedPointPattern, pb: MarkedPointPattern):
    if pa.domain is not pb.domain:
        raise ValidationError("patterns must share one domain object")


def _positive_intensities(lam, p, what) -> np.ndarray:
    vals = eval_intensity(lam, p)
    if np.any(vals <= 0):
        raise ValidationError(f"zero or negative {what} intensity at a data point")
    return vals


def _k_step_curve(i, j, d, w, r, ec, pa, pb) -> np.ndarray:
    """Nondecreasing step function sum_{pairs with d <= r} w on the r grid,
    from the pairs (i, j, d) with d <= max(r) and their weights w: one
    bincount on the r bins and a cumulative sum, O(pairs)."""
    if ec not in ("none", "translation"):
        raise ValidationError(f"unknown edge correction {ec!r}")
    if ec == "translation" and pa.is_network:
        raise ValidationError("translation correction is defined for planar rectangles only")
    if ec == "translation":
        w = w * translation_weights(pa.domain, pa.coords()[i], pb.coords()[j])
    # pair q enters every r_k >= d_q, from its bin k = searchsorted(r, d_q) on
    return np.cumsum(np.bincount(np.searchsorted(r, d), weights=w, minlength=len(r)))


def k_cross_inhom(
    pi: MarkedPointPattern,
    pj: MarkedPointPattern,
    lam_i,
    lam_j,
    ec: str = "none",
    r: np.ndarray | None = None,
) -> SummaryCurve:
    """Cross-type inhomogeneous K: intensity-reweighted pair counts between
    two sub-patterns, scaled by the domain size."""
    _check_same_domain(pi, pj)
    r = _r_values(pi.domain, r)
    size = pi.domain_size
    theo = None if pi.is_network else np.pi * r**2
    if pi.n == 0 or pj.n == 0:
        return SummaryCurve(r, np.zeros_like(r), "kcross", theo, {"ec": ec})
    li = _positive_intensities(lam_i, pi, "type-i")
    lj = _positive_intensities(lam_j, pj, "type-j")
    i, j, d = cross_pairs(pi.domain, pi, pj, r[-1])
    vals = _k_step_curve(i, j, d, 1.0 / (li[i] * lj[j]) / size, r, ec, pi, pj)
    return SummaryCurve(r, vals, "kcross", theo, {"ec": ec})


def k_dot_inhom(
    pi: MarkedPointPattern,
    p_others: MarkedPointPattern,
    lam_i,
    lam_others,
    ec: str = "none",
    r: np.ndarray | None = None,
) -> SummaryCurve:
    """Dot-type inhomogeneous K: type i against the union of all other types."""
    curve = k_cross_inhom(pi, p_others, lam_i, lam_others, ec, r)
    curve.statistic = "kdot"
    return curve


def _retention_factors(lam_j, pj: MarkedPointPattern, inf_lam_j):
    """Factors g_j = 1 - inf_lam_j / lambda_j of the type-j points, and
    inf_lam_j (the observed minimum of lambda_j when None)."""
    if pj.n == 0:
        return np.zeros(0), inf_lam_j
    lj = _positive_intensities(lam_j, pj, "type-j")
    if inf_lam_j is None:
        inf_lam_j = float(lj.min())
    elif inf_lam_j > lj.min() * (1 + 1e-12):
        raise ValidationError(f"inf_lam_j={inf_lam_j} exceeds the observed minimum {lj.min()}")
    return 1.0 - inf_lam_j / lj, inf_lam_j


def _retention_curve(domain, rows, cols, g, row_weights, r, chunk=2048):
    """1 - sum_u w_u P_u(r) / sum_u w_u over the rows u retained at r (border
    distance bdist_u >= r), NaN where none is, for P_u(r) = product of g_j
    over the points j of cols within distance r of row point u (rows:
    planar coordinates or network (segment, offset) columns).

    Each pair's factor goes into the first bin r_k >= d, and a cumulative
    product along r forms P_u. Pairs beyond min(max r, bdist_u) never count
    and are dropped. Rows stream in chunks, so memory is O(chunk x len(r) +
    pairs of a chunk).
    """
    nr = len(r)
    psums = np.zeros(nr)
    wsums = np.zeros(nr)
    counts = np.zeros(nr, dtype=np.int64)
    for lo in range(0, len(row_weights), chunk):
        if isinstance(domain, LinearNetwork):
            part = (rows[0][lo : lo + chunk], rows[1][lo : lo + chunk])
            bdist = _border_dist(domain, *part)
        else:
            part = rows[lo : lo + chunk]
            bdist = boundary_distance(domain, part[:, 0], part[:, 1])
        i, j, d = cross_pairs(domain, part, cols, min(r[-1], bdist.max()))
        keep = d <= bdist[i]
        i, j, d = i[keep], j[keep], d[keep]
        prod = np.ones((len(bdist), nr))
        np.multiply.at(prod.reshape(-1), i * nr + np.searchsorted(r, d), g[j])
        np.cumprod(prod, axis=1, out=prod)
        ret = bdist[:, None] >= r[None, :]
        wts = row_weights[lo : lo + chunk, None]
        psums += (wts * prod * ret).sum(axis=0)
        wsums += (wts * ret).sum(axis=0)
        counts += ret.sum(axis=0)
    vals = np.full(nr, np.nan)
    ok = counts > 0
    vals[ok] = 1.0 - psums[ok] / wsums[ok]
    return vals


def h_cross_inhom(
    pi: MarkedPointPattern,
    pj: MarkedPointPattern,
    lam_i,
    lam_j,
    inf_lam_j: float | None = None,
    r: np.ndarray | None = None,
) -> SummaryCurve:
    """Cross-type inhomogeneous nearest-neighbour distance distribution.

    Border correction by r-reduction: type-i points closer than r to the
    border are dropped at that r; the value is NaN when no point survives.
    """
    _check_same_domain(pi, pj)
    r = _r_values(pi.domain, r)
    if pi.n == 0:
        return SummaryCurve(r, np.full_like(r, np.nan), "hcross", None, {})
    li = _positive_intensities(lam_i, pi, "type-i")
    g, inf_lam_j = _retention_factors(lam_j, pj, inf_lam_j)
    rows = pi.seg_off() if pi.is_network else pi.coords()
    vals = _retention_curve(pi.domain, rows, pj, g, 1.0 / li, r)
    return SummaryCurve(r, vals, "hcross", None, {"inf_lam_j": inf_lam_j})


def f_inhom(
    pj: MarkedPointPattern,
    lam_j,
    inf_lam_j: float | None = None,
    grid_spacing: float | None = None,
    r: np.ndarray | None = None,
) -> SummaryCurve:
    """Inhomogeneous empty-space function, evaluated on a fine deterministic
    grid over the domain with the same r-reduction as the H estimator."""
    r = _r_values(pj.domain, r)
    if pj.is_network:
        net = pj.domain
        if grid_spacing is None:
            grid_spacing = net.total_length / 1024.0
        rows, _ = _arc_mesh(net, grid_spacing)
        n_rows = len(rows[0])
    else:
        w = pj.domain
        if grid_spacing is None:
            grid_spacing = min(w.width, w.height) / 128.0
        if not 0 < grid_spacing < np.inf:
            raise ValidationError(f"grid spacing must be positive and finite, got {grid_spacing}")
        xs = np.arange(w.xmin + grid_spacing / 2.0, w.xmax, grid_spacing)
        ys = np.arange(w.ymin + grid_spacing / 2.0, w.ymax, grid_spacing)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        rows = np.column_stack([gx.ravel(), gy.ravel()])
        n_rows = len(rows)
        if n_rows == 0:
            raise ValidationError("empty evaluation grid: spacing too large for the window")
    g, inf_lam_j = _retention_factors(lam_j, pj, inf_lam_j)
    vals = _retention_curve(pj.domain, rows, pj, g, np.ones(n_rows), r)
    return SummaryCurve(r, vals, "f", None, {"inf_lam_j": inf_lam_j, "spacing": grid_spacing})


def j_cross_inhom(h_curve: SummaryCurve, f_curve: SummaryCurve) -> SummaryCurve:
    """J = (1 - H) / (1 - F); NaN where F is within 1e-12 of 1 or H is NaN."""
    if not h_curve.same_grid(f_curve):
        raise ValidationError("H and F curves are on different r grids")
    h, f = h_curve.values, f_curve.values
    vals = np.full_like(h, np.nan)
    ok = ~np.isnan(h) & ~np.isnan(f) & (f < 1.0 - 1e-12)
    vals[ok] = (1.0 - h[ok]) / (1.0 - f[ok])
    return SummaryCurve(h_curve.r, vals, "jcross", np.ones_like(h), {})


def mark_weighted_k(
    p: MarkedPointPattern,
    tf: TestFunction,
    lam,
    ec: str = "none",
    r: np.ndarray | None = None,
) -> SummaryCurve:
    """Mark-weighted inhomogeneous K: pair contributions weighted by a mark
    test function and normalized by its sample average over ordered pairs."""
    r = _r_values(p.domain, r)
    if p.n < 2:
        raise ValidationError("mark-weighted K needs at least 2 marked points")
    marks = p.marks()
    mu, var = _moments(marks)
    c = _constant(tf, marks, moments=(mu, var))
    if c == 0.0:
        raise NumericalError("degenerate mark normalization: pair average is zero")
    lamv = _positive_intensities(lam, p, "")
    # each unordered pair i < j stands for both of its orders
    i, j, d = close_pairs(p, r[-1])
    w = _pair_values(tf, marks[i], marks[j], mu) / (lamv[i] * lamv[j])
    vals = _k_step_curve(i, j, d, 2.0 * (w / (p.domain_size * c)), r, ec, p, p)
    return SummaryCurve(r, vals, "kweighted", None, {"tf": tf.name, "ec": ec})


def mark_sum_measure(p: MarkedPointPattern, radius: float) -> np.ndarray:
    """Per-point average mark over the other points within distance radius;
    NaN for points whose neighbourhood is empty."""
    if not radius >= 0:
        raise ValidationError(f"radius must be nonnegative, got {radius}")
    marks = p.marks()
    i, j, _ = close_pairs(p, radius)
    counts = np.bincount(i, minlength=p.n) + np.bincount(j, minlength=p.n)
    sums = np.bincount(i, marks[j], p.n) + np.bincount(j, marks[i], p.n)
    out = np.full(p.n, np.nan)
    ok = counts > 0
    out[ok] = sums[ok] / counts[ok]
    return out
