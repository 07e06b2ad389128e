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
from scipy.spatial.distance import cdist

from ._dist import cross_distances, pair_distances, translation_weights
from .curves import SummaryCurve, default_r
from .errors import NumericalError, ValidationError
from .geometry import (
    border_distances,
    boundary_distance,
    network_arc_mesh,
    network_cross_distances,
)
from .intensity import eval_intensity
from .markcorr import TestFunction, pair_average, pair_weights
from .pattern import MarkedPointPattern, mark_moments

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


def _k_step_curve(d, w, r, ec, pa, pb) -> np.ndarray:
    """Nondecreasing step function sum_{pairs with d <= r} w on the r grid,
    from the (na, nb) pair matrices d and w.

    Pairs beyond max(r) never enter a step, so they are dropped before the
    sort and get no translation weight.
    """
    if ec not in ("none", "translation"):
        raise ValidationError(f"unknown edge correction {ec!r}")
    if ec == "translation" and pa.is_network:
        raise ValidationError("translation correction is defined for planar rectangles only")
    ia, ib = np.nonzero(d <= np.max(r, initial=-np.inf))
    wk = w[ia, ib]
    if ec == "translation":
        wk = wk * translation_weights(pa.domain, pa.coords()[ia], pb.coords()[ib])
    dk = d[ia, ib]
    order = np.argsort(dk, kind="stable")
    cw = np.concatenate([[0.0], np.cumsum(wk[order])])
    return cw[np.searchsorted(dk[order], r, side="right")]


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
    r = default_r(pi.domain) if r is None else np.asarray(r, dtype=float)
    size = pi.domain_size
    theo = None if pi.is_network else np.pi * r**2
    if pi.n == 0 or pj.n == 0:
        return SummaryCurve(r, np.zeros_like(r), "kcross", theo, {"ec": ec})
    li = _positive_intensities(lam_i, pi, "type-i")
    lj = _positive_intensities(lam_j, pj, "type-j")
    d = cross_distances(pi, pj)
    w = 1.0 / np.outer(li, lj) / size
    vals = _k_step_curve(d, w, r, ec, pi, pj)
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


def _reduced_domain_distances(p: MarkedPointPattern) -> np.ndarray:
    """Distance of each point to the domain border, for r-reduction."""
    if p.is_network:
        return border_distances(p.domain, p.locations())
    xy = p.coords()
    return boundary_distance(p.domain, xy[:, 0], xy[:, 1])


def _retention_product_sums(d, g, bdist, row_weights, r, chunk=2048):
    """For P_u(r) = prod over columns with d[u, :] <= r of g, accumulate
    sum_u w_u P_u(r), sum_u w_u and count over rows retained at each r
    (bdist_u >= r). Streams over row chunks to bound memory."""
    nr = len(r)
    psums = np.zeros(nr)
    wsums = np.zeros(nr)
    counts = np.zeros(nr, dtype=np.int64)
    n = d.shape[0]
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        dc = d[lo:hi]
        order = np.argsort(dc, axis=1, kind="stable")
        dsort = np.take_along_axis(dc, order, axis=1)
        gsort = g[order]
        cp = np.concatenate(
            [np.ones((hi - lo, 1)), np.cumprod(gsort, axis=1)], axis=1
        )
        cnt = np.empty((hi - lo, nr), dtype=np.int32)
        for u in range(hi - lo):
            cnt[u] = np.searchsorted(dsort[u], r, side="right")
        prod = np.take_along_axis(cp, cnt, axis=1)
        ret = bdist[lo:hi, None] >= r[None, :]
        wts = row_weights[lo:hi, None]
        psums += (wts * prod * ret).sum(axis=0)
        wsums += (wts * ret).sum(axis=0)
        counts += ret.sum(axis=0)
    return psums, wsums, counts


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
    r = default_r(pi.domain) if r is None else np.asarray(r, dtype=float)
    if pi.n == 0:
        return SummaryCurve(r, np.full_like(r, np.nan), "hcross", None, {})
    li = _positive_intensities(lam_i, pi, "type-i")
    if pj.n:
        lj = _positive_intensities(lam_j, pj, "type-j")
        if inf_lam_j is None:
            inf_lam_j = float(lj.min())
        elif inf_lam_j > lj.min() * (1 + 1e-12):
            raise ValidationError(
                f"inf_lam_j={inf_lam_j} exceeds the observed minimum {lj.min()}"
            )
        g = 1.0 - inf_lam_j / lj
        d = cross_distances(pi, pj)
    else:
        g = np.zeros(0)
        d = np.zeros((pi.n, 0))
    bdist = _reduced_domain_distances(pi)
    psums, wsums, counts = _retention_product_sums(d, g, bdist, 1.0 / li, r)
    vals = np.full_like(r, np.nan)
    ok = counts > 0
    vals[ok] = 1.0 - psums[ok] / wsums[ok]
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
    r = default_r(pj.domain) if r is None else np.asarray(r, dtype=float)
    if pj.is_network:
        net = pj.domain
        if grid_spacing is None:
            grid_spacing = net.total_length / 1024.0
        locs, _ = network_arc_mesh(net, grid_spacing)
        bdist = border_distances(net, locs)
        if pj.n:
            d = network_cross_distances(net, locs, pj.locations())
        else:
            d = np.zeros((len(locs), 0))
    else:
        w = pj.domain
        if grid_spacing is None:
            grid_spacing = min(w.width, w.height) / 128.0
        xs = np.arange(w.xmin + grid_spacing / 2.0, w.xmax, grid_spacing)
        ys = np.arange(w.ymin + grid_spacing / 2.0, w.ymax, grid_spacing)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        gxy = np.column_stack([gx.ravel(), gy.ravel()])
        if len(gxy) == 0:
            raise ValidationError("empty evaluation grid: spacing too large for the window")
        bdist = boundary_distance(w, gxy[:, 0], gxy[:, 1])
        d = cdist(gxy, pj.coords()) if pj.n else np.zeros((len(gxy), 0))
    if pj.n:
        lj = _positive_intensities(lam_j, pj, "type-j")
        if inf_lam_j is None:
            inf_lam_j = float(lj.min())
        elif inf_lam_j > lj.min() * (1 + 1e-12):
            raise ValidationError(
                f"inf_lam_j={inf_lam_j} exceeds the observed minimum {lj.min()}"
            )
        g = 1.0 - inf_lam_j / lj
    else:
        g = np.zeros(0)
    ones = np.ones(d.shape[0])
    psums, _, counts = _retention_product_sums(d, g, bdist, ones, r)
    vals = np.full_like(r, np.nan)
    ok = counts > 0
    vals[ok] = 1.0 - psums[ok] / counts[ok]
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
    r = default_r(p.domain) if r is None else np.asarray(r, dtype=float)
    if p.n < 2:
        raise ValidationError("mark-weighted K needs at least 2 marked points")
    marks = p.marks()
    stats = mark_moments(p)
    c = pair_average(tf, marks)
    if c == 0.0:
        raise NumericalError("degenerate mark normalization: pair average is zero")
    lamv = _positive_intensities(lam, p, "")
    d = pair_distances(p)
    np.fill_diagonal(d, np.inf)
    tfw = pair_weights(tf, marks, stats.mean_mark, stats.var_mark)
    w = tfw / np.outer(lamv, lamv) / (p.domain_size * c)
    vals = _k_step_curve(d, w, r, ec, p, p)
    return SummaryCurve(r, vals, "kweighted", None, {"tf": tf.name, "ec": ec})


def mark_sum_measure(p: MarkedPointPattern, radius: float) -> np.ndarray:
    """Per-point average mark over the other points within distance radius;
    NaN for points whose neighbourhood is empty."""
    if radius < 0:
        raise ValidationError(f"radius must be nonnegative, got {radius}")
    marks = p.marks()
    d = pair_distances(p)
    np.fill_diagonal(d, np.inf)
    inside = d <= radius
    counts = inside.sum(axis=1)
    sums = inside @ marks
    out = np.full(p.n, np.nan)
    ok = counts > 0
    out[ok] = sums[ok] / counts[ok]
    return out
