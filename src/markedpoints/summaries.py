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

from ._dist import _bins, _check_same_domain, _row_blocks, close_pairs, cross_search, translation_weights
from .curves import SummaryCurve, _r_values
from .errors import NumericalError, ValidationError
from .geometry import _MAX_ENTRIES, LinearNetwork, _arc_mesh, _border_dist, _check_cells, boundary_distance
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


def _positive_intensities(lam, p, what) -> np.ndarray:
    vals = eval_intensity(lam, p)
    if not np.all((vals > 0) & (vals < np.inf)):  # NaN fails the test too
        raise ValidationError(f"infinite, zero, negative or NaN {what} intensity at a data point")
    return vals


def _check_k_ec(ec: str, p: MarkedPointPattern):
    if ec not in ("none", "translation"):
        raise ValidationError(f"unknown edge correction {ec!r}")
    if ec == "translation" and p.is_network:
        raise ValidationError("translation correction is defined for planar rectangles only")


def _k_step_curve(i, j, d, w, r, ec, pa, pb) -> np.ndarray:
    """Nondecreasing step function sum_{pairs with d <= r} w on the r grid,
    from the pairs (i, j, d) with d <= max(r) and their weights w: one
    bincount on the r bins of _dist._bins and a cumulative sum, O(pairs);
    the translation correction multiplies w in place."""
    if ec == "translation":
        w *= translation_weights(pa.domain, pa.coords(), pb.coords(), i, j)
    # pair q enters every r_k >= d_q, from its bin on
    vals = np.cumsum(np.bincount(_bins(r, d), weights=w, minlength=len(r)))
    if not np.all(np.isfinite(vals)):
        raise NumericalError("K is not finite: a pair weight over an intensity product overflows")
    return vals


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
    _check_k_ec(ec, pi)
    _check_same_domain(pi.domain, pj)
    r = _r_values(pi.domain, r)
    size = pi.domain_size
    with np.errstate(over="ignore"):
        theo = None if pi.is_network else np.pi * r**2
    if theo is not None and not np.isfinite(theo[-1]):
        raise ValidationError(f"theoretical K (pi r^2) is not finite at r = {r[-1]:g}")
    li = _positive_intensities(lam_i, pi, "type-i")
    lj = _positive_intensities(lam_j, pj, "type-j")
    if pi.n == 0 or pj.n == 0:
        return SummaryCurve(r, np.zeros_like(r), "kcross", theo, {"ec": ec})
    # no point is its own neighbour: when pj is pi, each pair i < j counts in both orders
    i, j, d = close_pairs(pi, r[-1]) if pj is pi else cross_search(pi.domain, pj)(pi, r[-1])
    with np.errstate(all="ignore"):  # intensity products can underflow; a non-finite K raises
        w = _inverse_products(li, i, lj, j, size)
        if pj is pi:
            w += _inverse_products(li, j, lj, i, size)
        vals = _k_step_curve(i, j, d, w, r, ec, pi, pj)
    return SummaryCurve(r, vals, "kcross", theo, {"ec": ec})


def _inverse_products(li, i, lj, j, size) -> np.ndarray:
    """1.0 / (li[i] * lj[j]) / size, in one pair-length array."""
    w = li[i]
    w *= lj[j]
    np.divide(1.0, w, out=w)
    w /= size
    return w


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
    inf_lam_j (the observed minimum of lambda_j when None); a given inf_lam_j
    must be finite, nonnegative and at most that minimum (1 + 1e-12)."""
    if inf_lam_j is not None and not 0.0 <= inf_lam_j < np.inf:
        raise ValidationError(f"inf_lam_j must be finite and nonnegative, got {inf_lam_j}")
    if pj.n == 0:
        return np.zeros(0), inf_lam_j
    lj = _positive_intensities(lam_j, pj, "type-j")
    if inf_lam_j is None:
        inf_lam_j = float(lj.min())
    elif inf_lam_j > lj.min() * (1 + 1e-12):
        raise ValidationError(f"inf_lam_j={inf_lam_j} exceeds the observed minimum {lj.min()}")
    return 1.0 - inf_lam_j / lj, inf_lam_j


def _retention_curve(domain, rows, cols, g, row_weights, r, what):
    """1 - sum_u w_u P_u(r) / sum_u w_u over the rows u retained at r (border
    distance bdist_u >= r), NaN where none is, for P_u(r) = product of g_j
    over the points j of cols within distance r of row point u (rows:
    planar coordinates or network (segment, offset) columns). More than
    _MAX_ENTRIES rows x r values (the rows are `what`) are refused up front.

    Each pair's factor goes into the first bin r_k >= d (_dist._bins), and
    a cumulative product along r forms P_u. Row u is retained at the first
    K_u r values (those <= bdist_u), so a block takes the pairs within the
    largest of its rows' last retained r values, r[max K_u - 1], and its
    products stop at that bin: a pair past its own row's last one enters
    only that row's zero-weight columns, whose +-0 terms leave every sum
    as it is. Rows go in _row_blocks of len(r) entries a row, and the
    running sums enter each block's first row, so the sums over rows run
    in row order whatever the blocks are. One k-d tree of cols serves the
    pair searches of every block.
    """
    nr, n_rows = len(r), len(row_weights)
    if n_rows * nr > _MAX_ENTRIES:
        raise ValidationError(
            f"{n_rows} {what} at {nr} r values make {n_rows * nr} entries: at most {_MAX_ENTRIES}; use fewer r values"
        )
    psums, wsums = np.zeros(nr), np.zeros(nr)
    search = cross_search(domain, cols)
    for lo, hi in _row_blocks(n_rows, nr):
        if isinstance(domain, LinearNetwork):
            part = (rows[0][lo:hi], rows[1][lo:hi])
            bdist = _border_dist(domain, *part)
        else:
            part = rows[lo:hi]
            bdist = boundary_distance(domain, part[:, 0], part[:, 1])
        K = np.searchsorted(r, bdist, side="right")  # r[0] = 0 <= bdist: K >= 1
        # numpy sums a one-column array pairwise, not in row order
        m = min(nr, max(2, K.max()))
        i, j, d = search(part, r[K.max() - 1])
        prod = np.ones((len(bdist), m))
        np.multiply.at(prod.reshape(-1), i * m + _bins(r, d), g[j])
        np.cumprod(prod, axis=1, out=prod)
        wts = row_weights[lo:hi, None] * (bdist[:, None] >= r[None, :m])
        prod *= wts
        prod[0] += psums[:m]
        wts[0] += wsums[:m]
        psums[:m], wsums[:m] = prod.sum(axis=0), wts.sum(axis=0)
    vals = np.full(nr, np.nan)
    ok = wsums > 0  # the row weights are positive: some row is retained
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
    _check_same_domain(pi.domain, pj)
    r = _r_values(pi.domain, r)
    if pi.n == 0:
        return SummaryCurve(r, np.full_like(r, np.nan), "hcross", None, {})
    li = _positive_intensities(lam_i, pi, "type-i")
    g, inf_lam_j = _retention_factors(lam_j, pj, inf_lam_j)
    rows = pi.seg_off() if pi.is_network else pi.coords()
    vals = _retention_curve(pi.domain, rows, pj, g, 1.0 / li, r, "H type-i points")
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
        x0, y0 = w.xmin + grid_spacing / 2.0, w.ymin + grid_spacing / 2.0
        # np.arange's lengths, checked before the grid is formed
        _check_cells(np.ceil((w.xmax - x0) / grid_spacing) * np.ceil((w.ymax - y0) / grid_spacing), "F grid")
        xs, ys = np.arange(x0, w.xmax, grid_spacing), np.arange(y0, w.ymax, grid_spacing)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        rows = np.column_stack([gx.ravel(), gy.ravel()])
        n_rows = len(rows)
    g, inf_lam_j = _retention_factors(lam_j, pj, inf_lam_j)
    vals = _retention_curve(pj.domain, rows, pj, g, np.ones(n_rows), r, "F grid cells")
    return SummaryCurve(r, vals, "f", None, {"inf_lam_j": inf_lam_j, "spacing": grid_spacing})


def j_cross_inhom(h_curve: SummaryCurve, f_curve: SummaryCurve) -> SummaryCurve:
    """J = (1 - H) / (1 - F); NaN where F is within 1e-12 of 1 or H is NaN."""
    if not np.array_equal(h_curve.r, f_curve.r):
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
    _check_k_ec(ec, p)
    r = _r_values(p.domain, r)
    if p.n < 2:
        raise ValidationError("mark-weighted K needs at least 2 marked points")
    marks = p.marks()
    mu, var = _moments(marks)
    c = _constant(tf, marks, moments=(mu, var))
    if c == 0.0:
        raise NumericalError("degenerate mark normalization: pair average is zero")
    lamv = _positive_intensities(lam, p, "mark-weighted")
    # each unordered pair i < j stands for both of its orders
    i, j, d = close_pairs(p, r[-1])
    w = _pair_values(tf, marks[i], marks[j], mu)
    with np.errstate(all="ignore"):  # intensity products can underflow; a non-finite K raises
        # 2 (w / (lam_i lam_j) / (|W| c)), in place
        lam_ij = lamv[i]
        lam_ij *= lamv[j]
        w /= lam_ij
        del lam_ij
        w /= p.domain_size * c
        w *= 2.0
        vals = _k_step_curve(i, j, d, w, r, ec, p, p)
    return SummaryCurve(r, vals, "kweighted", None, {"tf": tf.name, "ec": ec})


def mark_sum_measure(p: MarkedPointPattern, radius: float) -> np.ndarray:
    """Per-point average mark over the other points within distance radius;
    NaN for points whose neighbourhood is empty. A NaN mark raises
    ValidationError with its position."""
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
