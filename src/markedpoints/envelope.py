"""Monte Carlo envelope protocol: simulate replicates under a null model,
evaluate a curve statistic on each, and form rank-based pointwise critical
bands plus the replicate mean.

Replicates are independent given the master seed. `envelopes()` evaluates
them serially, in order, on the calling thread, because it runs the
caller's generator and statistic, which need not be thread-safe. The
mark-model engine maps its replicates on one thread per CPU in the
process's affinity mask (`taskset` limits it). Band assembly is a
fixed-order reduction over the replicate index, so results do not depend
on the execution schedule.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._dist import close_pairs
from .curves import SummaryCurve, check_r_grid, r_grid
from .errors import ValidationError
from .geometry import LinearNetwork
from .markcorr import _SUITE, SmoothingSpec1D, _normalized, _reach
from .pattern import MarkedPointPattern, _fmt, _write_table
from .simulate import (
    _RADIUS, _TREND, SeedSpec, _check_mark_model, _neighbour_counts, model_marks, poisson_network, replicate_rng,
)
from .svgplot import envelope_panels_svg

__all__ = ["EnvelopeBand", "envelopes", "mark_correlation_study", "envelope_rank"]

# mark_correlation_study's defaults, the paper's settings, which envelopes()
# and the CLI's flags take too
_STUDY = {"nsim": 199, "level": 0.95, "n_expected": 150.0, "r_max": 250.0, "bins": 250, "bandwidth": 10.0}


@dataclass
class EnvelopeBand:
    """Pointwise rank envelope: k-th extremes and mean of nsim replicate curves."""

    r: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    mean: np.ndarray
    nsim: int
    level: float
    k: int
    n_effective: np.ndarray
    statistic: str = ""
    observed: SummaryCurve | None = None

    def to_csv(self, path):
        header = ["r", "lo", "mean", "hi", "n_effective"]
        cols = [_fmt(v) for v in (self.r, self.lo, self.mean, self.hi)]
        cols.append([str(int(v)) for v in self.n_effective.tolist()])
        if self.observed is not None:
            header.append("observed")
            cols.append(_fmt(self.observed.values))
        comment = f"statistic={self.statistic} nsim={self.nsim} level={format(self.level, '.12g')} k={self.k}"
        _write_table(path, header, cols, comment)


def envelope_rank(nsim: int, level: float) -> int:
    """Rank k of the extremes defining a two-sided pointwise level band."""
    if not (0 < level < 1):
        raise ValidationError(f"level must be in (0, 1), got {level}")
    k = math.floor((1.0 - level) / 2.0 * (nsim + 1))
    if k < 1:
        raise ValidationError(
            f"nsim={nsim} too small for level={level}: need nsim >= {math.ceil(2 / (1 - level)) - 1}"
        )
    return k


def _assemble_band(r, matrix, nsim, level, k, statistic="") -> EnvelopeBand:
    srt = np.sort(matrix, axis=0)  # NaNs sort to the end
    n_eff = (~np.isnan(matrix)).sum(axis=0)
    nr = matrix.shape[1]
    lo = np.full(nr, np.nan)
    hi = np.full(nr, np.nan)
    mean = np.full(nr, np.nan)
    ok = n_eff >= k
    cols = np.nonzero(ok)[0]
    lo[cols] = srt[k - 1, cols]
    hi[cols] = srt[n_eff[cols] - k, cols]
    any_def = n_eff > 0
    with np.errstate(invalid="ignore"):
        mean[any_def] = np.nanmean(matrix[:, any_def], axis=0)
    return EnvelopeBand(r, lo, hi, mean, nsim, level, k, n_eff, statistic)


def _bands(r, rows, names, nsim: int, level: float, k: int) -> list:
    """One rank band per statistic: rows[i][s] is the curve of statistic
    names[s] on replicate i."""
    return [
        _assemble_band(r, np.vstack([row[s] for row in rows]), nsim, level, k, name)
        for s, name in enumerate(names)
    ]


def envelopes(
    generator,
    statistic,
    nsim: int,
    level: float = _STUDY["level"],
    master_seed: int = 0,
    observed: MarkedPointPattern | None = None,
    n_jobs=None,
) -> EnvelopeBand:
    """Simulate nsim replicates, evaluate the statistic, return the band.

    generator(rng) must produce a pattern; statistic(pattern) must return a
    SummaryCurve on a fixed r grid. NaN values are excluded pointwise with
    the effective replicate count reported per r.

    Replicate i calls generator and then statistic, for i = 0 ... nsim-1
    in order, on the calling thread, since neither need be thread-safe.
    n_jobs is ignored: it once chose a worker count, and every count gave
    this band.
    """
    k = envelope_rank(nsim, level)
    curves = [statistic(generator(replicate_rng(SeedSpec(master_seed, i)))) for i in range(nsim)]

    r = curves[0].r
    for c in curves[1:]:
        if not np.array_equal(c.r, r):
            raise ValidationError("statistic returned curves on differing r grids")
    (band,) = _bands(r, [[c.values] for c in curves], [curves[0].statistic], nsim, level, k)
    if observed is not None:
        obs_curve = statistic(observed)
        if not np.array_equal(obs_curve.r, r):
            raise ValidationError("observed curve grid differs from replicate grid")
        band.observed = obs_curve
    return band


_MAX_REDRAWS = 1000


def poisson_network_min2(lam: float, net: LinearNetwork, rng) -> MarkedPointPattern:
    """Poisson pattern on the network, redrawn until it has at least two
    points; raises ValidationError after _MAX_REDRAWS redraws."""
    for _ in range(_MAX_REDRAWS + 1):
        p = poisson_network(lam, net, rng)
        if p.n >= 2:
            return p
    raise ValidationError(f"no pattern with 2 or more points in {_MAX_REDRAWS} redraws (rate {lam:g})")


def _mark_model_bands(
    net, model, tfs, *, nsim, level, master_seed, n_expected, r_max, bins, bandwidth, radius, a, b, tau,
) -> list:
    """Rank bands of the normalized mark correlations of the test functions
    tfs under mark model I, II or III, one per test function.

    A replicate is Poisson points on net (rate n_expected per total length,
    redrawn until n >= 2) marked by model: the trend a + b (x + y) with
    noise sd tau (model I), the distance to the nearest degree-1 vertex
    (II) or the number of other points within radius (III). The model III
    counts and the kernel matrix share one pair sweep. Arguments are
    checked before any replicate is drawn. Replicates run on one thread per
    CPU in the affinity mask; every CPU count gives the same bands.
    """
    _check_mark_model(model, radius)
    k = envelope_rank(nsim, level)
    lam = n_expected / net.total_length
    r = check_r_grid(r_grid(r_max, bins))
    smoothing = SmoothingSpec1D(bandwidth)
    reach = _reach(smoothing, r)
    net.vertex_distances()  # fill the cache before the workers share it

    def one(i):
        rng = replicate_rng(SeedSpec(master_seed, i))
        p = poisson_network_min2(lam, net, rng)
        pairs = None
        if model == "III":
            # one pair sweep serves the model III counts and the kernel matrix
            pairs = close_pairs(p, max(radius, reach))
            near = pairs[2] <= radius
            marked = p.with_marks(_neighbour_counts(pairs[0][near], pairs[1][near], p.n))
        else:
            marked = model_marks(model, p, rng, a=a, b=b, tau=tau)
        return [vals for vals, _, _ in _normalized(tfs, marked, smoothing, r, "none", pairs=pairs)]

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=cpus) as ex:
        rows = list(ex.map(one, range(nsim)))
    return _bands(r, rows, [f"markcorr_{tf.name}" for tf in tfs], nsim, level, k)


def mark_correlation_study(
    net: LinearNetwork,
    model: str,
    out_dir,
    nsim: int = _STUDY["nsim"],
    level: float = _STUDY["level"],
    master_seed: int = 20199,
    n_expected: float = _STUDY["n_expected"],
    r_max: float = _STUDY["r_max"],
    bins: int = _STUDY["bins"],
    bandwidth: float = _STUDY["bandwidth"],
    radius: float = _RADIUS,
) -> dict:
    """Simulation study runner: Poisson points on the network, marks from
    one of the three mechanisms, the four mark-correlation curves per
    replicate, and 95% pointwise envelopes of each.

    Writes one band CSV per statistic plus a stacked four-panel SVG, and
    returns the bands keyed by statistic name. Replicates run on one thread
    per CPU in the process's affinity mask; every CPU count gives the same
    bytes.
    """
    # trend marks are shifted positive so product-type correlations read cleanly
    trend_a = 1.0 - float(net.vertices.sum(axis=1).min())
    suite = _mark_model_bands(
        net, model, _SUITE, nsim=nsim, level=level, master_seed=master_seed, n_expected=n_expected,
        r_max=r_max, bins=bins, bandwidth=bandwidth, radius=radius, **{**_TREND, "a": trend_a},
    )
    bands = {tf.name: band for tf, band in zip(_SUITE, suite)}
    os.makedirs(out_dir, exist_ok=True)
    for name, band in bands.items():
        band.to_csv(os.path.join(out_dir, f"model{model}_{name}_band.csv"))
    envelope_panels_svg(
        os.path.join(out_dir, f"model{model}_markcorr.svg"),
        list(bands.items()),
        title=f"Model {model}: mark correlation envelopes ({nsim} replicates)",
    )
    return bands
