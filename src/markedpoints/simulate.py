"""Simulators: Poisson patterns on windows and networks, log-Gaussian Cox
processes on networks under the distance-anchored covariance condition,
linked/balanced bivariate Cox constructions, and the three mark-assignment
mechanisms used by the simulation-study runner.

All randomness flows through numpy Generators. Replicate streams derive
from a (master seed, replicate index) pair via a fixed SplitMix64 mix, so
any replicate can be regenerated independently and in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import cholesky

from .errors import NumericalError, ValidationError
from ._dist import _row_blocks, close_pairs
from .geometry import (
    LinearNetwork,
    NetworkLocation,
    PlanarWindow,
    _arc_cells,
    _border_dist,
    _check_cells,
    _cross_dist,
    _loc_arrays,
    _uniform_seg_off,
)
from .intensity import _elementwise, eval_intensity
from .pattern import MarkedPointPattern

__all__ = [
    "SeedSpec",
    "replicate_seed",
    "replicate_rng",
    "poisson_planar",
    "poisson_network",
    "GaussianFieldSpec",
    "lgcp_network",
    "irmps_check",
    "IrmpsReport",
    "linked_balanced_cox",
    "constant_field_sampler",
    "cosine_field_sampler",
    "model_marks",
]

_MASK64 = (1 << 64) - 1

# the largest expected point count a simulator draws: a larger mean is refused
# before any draw (the benchmark's largest pattern has about 2,000 points)
_MAX_EXPECTED_POINTS = 1e8


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus replicate index; identifies one random stream."""

    master_seed: int
    replicate_index: int = 0


def replicate_seed(master_seed: int, replicate_index: int) -> int:
    """SplitMix64 avalanche of the (seed, index) pair.

    The constants are the reference SplitMix64 multipliers; fixing them
    here makes replicate streams reproducible across platforms.
    """
    z = (master_seed + 0x9E3779B97F4A7C15 * (replicate_index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def replicate_rng(spec: SeedSpec) -> np.random.Generator:
    return np.random.default_rng(replicate_seed(spec.master_seed, spec.replicate_index))


def _poisson(lam, domain, size: float, draw, rng: np.random.Generator, lam_max) -> MarkedPointPattern:
    """Poisson pattern on a domain of the given area or length. The RNG order
    is fixed: the count, then draw(count) locations, then, for a callable lam
    and a nonzero count, one thinning uniform per proposed point."""
    if callable(lam) and lam_max is None:
        raise ValidationError("an intensity bound lam_max is required for callable intensities")
    rate = lam_max if callable(lam) else lam
    if not 0 <= rate < np.inf:
        raise ValidationError(f"intensity must be nonnegative and finite, got {rate}")
    if not rate * size <= _MAX_EXPECTED_POINTS:
        raise ValidationError(f"expected point count {rate * size:.3g} exceeds the cap {_MAX_EXPECTED_POINTS:.0e}")
    n = rng.poisson(rate * size)
    p = MarkedPointPattern.from_columns(domain, draw(n))
    if callable(lam) and n:
        vals = eval_intensity(lam, p)
        if np.any(vals > lam_max * (1 + 1e-9)):
            raise ValidationError("intensity exceeds the declared bound lam_max")
        p = p.subset(np.flatnonzero(rng.uniform(size=n) <= vals / lam_max))
    return p


def poisson_planar(
    lam, w: PlanarWindow, rng: np.random.Generator, lam_max: float | None = None
) -> MarkedPointPattern:
    """Poisson pattern on a rectangle; callables are simulated by thinning
    a homogeneous proposal at rate lam_max."""
    draw = lambda n: np.column_stack([rng.uniform(w.xmin, w.xmax, size=n), rng.uniform(w.ymin, w.ymax, size=n)])
    return _poisson(lam, w, w.area, draw, rng, lam_max)


def poisson_network(
    lam, net: LinearNetwork, rng: np.random.Generator, lam_max: float | None = None
) -> MarkedPointPattern:
    """Poisson pattern on a network with per-unit-length rate lam."""
    return _poisson(lam, net, net.total_length, lambda n: _uniform_seg_off(net, n, rng), rng, lam_max)


@dataclass(frozen=True)
class GaussianFieldSpec:
    """Gaussian field on a network, specified through distances to an anchor.

    The covariance between two locations is cov(d(u1, anchor), d(u2, anchor)).
    The process is well behaved for the intended model class only when that
    value does not depend on the anchor choice; irmps_check probes this.
    """

    mean: float
    cov: Callable[[float, float], float]
    anchor: NetworkLocation
    nugget: float = 1e-8

    def cov_matrix(self, d_anchor: np.ndarray) -> np.ndarray:
        """cov(d_i, d_j) for every pair of anchor distances, evaluated in row
        blocks, so cov's temporaries are block-sized."""
        n = len(d_anchor)
        out = np.empty((n, n))
        for lo, hi in _row_blocks(n, n):
            out[lo:hi] = _elementwise(self.cov, d_anchor[lo:hi, None], d_anchor[None, :])
        return out


def _psd_factor(build: Callable[[], np.ndarray]) -> np.ndarray:
    """Matrix square root of the PSD covariance that build() forms.

    Cholesky when positive definite, from LAPACK in place: the upper factor
    of the Fortran-order view cov.T, which reads cov's lower triangle, is
    the transpose of cov's lower factor, so the result is cov's own memory
    in C order. Otherwise, since the failed factorization overwrote cov,
    build() forms it again for an eigen square root, so that
    singular-but-PSD matrices (a constant or zero field) still factor. A
    genuinely indefinite matrix is reported, not silently repaired.
    """
    try:
        return cholesky(build().T, lower=False, overwrite_a=True, check_finite=False).T
    except np.linalg.LinAlgError:
        pass
    cov = build()
    w, v = np.linalg.eigh((cov + cov.T) / 2.0)
    tol = 1e-10 * max(1.0, float(np.abs(w).max()))
    if w.min() < -tol:
        raise NumericalError(
            f"covariance not positive semidefinite (min eigenvalue {w.min():.3e} after nugget)"
        )
    return v * np.sqrt(np.clip(w, 0.0, None))


def lgcp_network(
    spec: GaussianFieldSpec,
    net: LinearNetwork,
    step: float | None,
    rng: np.random.Generator,
) -> MarkedPointPattern:
    """Log-Gaussian Cox pattern on a network.

    The field is sampled on a regular arc-length discretization via a
    Cholesky factor of the induced covariance (nugget added on the
    diagonal); each cell then receives an independent Poisson count with
    mean exp(Z) times the cell length. A step of None means total length / 500.
    """
    if step is None:
        step = net.total_length / 500.0
    seg, i, m = _arc_cells(net, step)
    _check_cells(len(seg) ** 2, "LGCP covariance")  # it and its factor are cells x cells
    t0, t1 = i / m, (i + 1) / m
    mid = (t0 + t1) / 2.0
    d0 = _cross_dist(net, (seg, mid), _loc_arrays(net, [spec.anchor]))[:, 0]

    probe = rng.uniform(0.0, d0.max() if len(d0) else 1.0, size=(8, 2))
    for a, b in probe:
        if abs(spec.cov(a, b) - spec.cov(b, a)) > 1e-9 * max(1.0, abs(spec.cov(a, b))):
            raise ValidationError(f"covariance function is asymmetric at ({a}, {b})")

    def jittered_cov():
        cov = spec.cov_matrix(d0)
        blocks = _row_blocks(len(cov), len(cov))
        if not all(np.allclose(cov[lo:hi], cov[:, lo:hi].T, rtol=1e-9, atol=1e-12) for lo, hi in blocks):
            raise ValidationError("induced covariance matrix is asymmetric")
        jitter = spec.nugget * max(1.0, float(np.abs(np.diag(cov)).max()))
        # on the diagonal in place: off it, only an exact -0.0 differs from cov + jitter * I
        np.fill_diagonal(cov, cov.diagonal() + jitter)
        return cov

    factor = _psd_factor(jittered_cov)
    z = float(spec.mean) + factor @ rng.standard_normal(len(seg))
    with np.errstate(over="ignore"):  # an overflow reads inf, which the cap refuses
        mu = np.exp(z) * ((t1 - t0) * net.seg_lengths[seg])
    if not mu.sum() <= _MAX_EXPECTED_POINTS:
        raise ValidationError(f"expected point count {mu.sum():.3g} exceeds the cap {_MAX_EXPECTED_POINTS:.0e}")

    # one poisson and then one uniform draw per cell, in cell order
    offs = [rng.uniform(a, b, size=rng.poisson(mu_c)) for a, b, mu_c in zip(t0, t1, mu)]
    counts = [len(o) for o in offs]
    return MarkedPointPattern.from_columns(net, (np.repeat(seg, counts), np.concatenate(offs)))


@dataclass(frozen=True)
class IrmpsReport:
    """Anchor-dependence diagnostic for a distance-anchored covariance."""

    max_discrepancy: float
    n_triples: int
    anchor_free: bool


# irmps_check's triple count, and the largest discrepancy it calls anchor-free
_IRMPS_TRIPLES = 64
_IRMPS_TOL = 1e-9


def irmps_check(spec: GaussianFieldSpec, net: LinearNetwork, rng: np.random.Generator) -> IrmpsReport:
    """Probe whether the induced covariance is independent of the anchor.

    Draws random location pairs and two candidate anchors, evaluates the
    covariance through both, and reports the largest discrepancy.
    """
    # triple k draws u1, u2, a1, a2 at 4k .. 4k + 3: its locations are rows
    # 2k and 2k + 1 of d, its anchors columns 2k and 2k + 1
    seg, off = (c.reshape(-1, 2, 2) for c in _uniform_seg_off(net, 4 * _IRMPS_TRIPLES, rng))
    d = _cross_dist(net, (seg[:, 0].ravel(), off[:, 0].ravel()), (seg[:, 1].ravel(), off[:, 1].ravel()))
    worst = 0.0
    for k in range(_IRMPS_TRIPLES):
        (u1a1, u1a2), (u2a1, u2a2) = d[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]
        c1 = float(spec.cov(u1a1, u2a1))
        c2 = float(spec.cov(u1a2, u2a2))
        worst = max(worst, abs(c1 - c2))
    return IrmpsReport(worst, _IRMPS_TRIPLES, worst <= _IRMPS_TOL)


def constant_field_sampler(value: float):
    """Base-field sampler producing a deterministic constant field."""
    if not 0 <= value < np.inf:
        raise ValidationError(f"field value must be nonnegative and finite, got {value}")

    def sample(rng):
        return (lambda x, y: np.full_like(np.asarray(x, dtype=float), value)), value

    return sample


def cosine_field_sampler(base: float, amplitude: float, scale: float):
    """Smooth random nonnegative field: base plus three random plane cosines.

    Bounded by base + 3 * amplitude, which the sampler reports so
    thinning stays exact. Requires 3 * amplitude <= base.
    """
    if amplitude * 3 > base:
        raise ValidationError("cosine field would go negative: amplitude too large")

    def sample(rng):
        angles = rng.uniform(0, 2 * np.pi, size=3)
        phases = rng.uniform(0, 2 * np.pi, size=3)
        freqs = rng.uniform(0.5, 1.5, size=3) * (2 * np.pi / scale)

        def field(x, y):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            out = np.full_like(x, base)
            for a, ph, f in zip(angles, phases, freqs):
                out = out + amplitude * np.cos(f * (x * np.cos(a) + y * np.sin(a)) + ph)
            return out

        return field, base + 3 * amplitude

    return sample


def linked_balanced_cox(
    kind: str,
    nu: float,
    base_sampler,
    w: PlanarWindow,
    rng: np.random.Generator,
) -> MarkedPointPattern:
    """Bivariate Cox pattern: component fields proportional (linked,
    Z1 = nu Z2) or complementary (balanced, Z1 = nu - Z2).

    base_sampler(rng) must return (field, upper_bound); the field is checked
    on a 64 x 64 grid spanning the window. Components are
    labeled "1" and "2"; given the field draw they are independent
    inhomogeneous Poisson processes.
    """
    if kind not in ("linked", "balanced"):
        raise ValidationError(f"kind must be 'linked' or 'balanced', got {kind!r}")
    if not isinstance(w, PlanarWindow):
        raise ValidationError("linked and balanced Cox patterns are planar-only")
    if not 0 < nu < np.inf:
        raise ValidationError(f"nu must be positive and finite, got {nu}")
    z2, bound2 = base_sampler(rng)
    xs = np.linspace(w.xmin, w.xmax, 64)
    ys = np.linspace(w.ymin, w.ymax, 64)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    vals2 = _elementwise(z2, gx.ravel(), gy.ravel())
    if np.any(vals2 < 0):
        raise ValidationError("base field is negative on the evaluation grid")
    if kind == "balanced":
        if np.any(vals2 > nu):
            raise ValidationError("balanced construction needs base field <= nu everywhere")
        z1 = lambda x, y: nu - _elementwise(z2, np.asarray(x, float), np.asarray(y, float))
        bound1 = nu
    else:
        z1 = lambda x, y: nu * _elementwise(z2, np.asarray(x, float), np.asarray(y, float))
        bound1 = nu * bound2
    p1 = poisson_planar(z1, w, rng, lam_max=max(bound1, 1e-300))
    p2 = poisson_planar(z2, w, rng, lam_max=max(bound2, 1e-300))
    xy = np.concatenate([p1.coords(), p2.coords()])
    return MarkedPointPattern.from_columns(w, xy, labels=["1"] * p1.n + ["2"] * p2.n)


def _neighbour_counts(i, j, n: int) -> np.ndarray:
    """Model III marks: the number of pairs (i, j) each of n points is in."""
    return (np.bincount(i, minlength=n) + np.bincount(j, minlength=n)).astype(float)


# model_marks' defaults, which the study and the CLI take too: the model I
# trend a + b (x + y) with noise sd tau, and the model III radius
_TREND = {"a": 0.0, "b": 1.0, "tau": None}
_RADIUS = 80.0


def _check_mark_model(kind: str, radius: float):
    """Raise unless kind is mark model I, II or III, and, for model III, the
    radius is nonnegative."""
    if kind not in ("I", "II", "III"):
        raise ValidationError(f"model must be I, II or III, got {kind!r}")
    if kind == "III" and not radius >= 0:
        raise ValidationError(f"radius must be nonnegative, got {radius}")


def model_marks(
    kind: str,
    p: MarkedPointPattern,
    rng: np.random.Generator,
    a: float = _TREND["a"],
    b: float = _TREND["b"],
    tau: float | None = _TREND["tau"],
    radius: float = _RADIUS,
) -> MarkedPointPattern:
    """Attach marks to a network pattern by one of three mechanisms.

    I   -- linear trend in the planar embedding: a + b (x + y) plus
           Gaussian noise with sd tau (default: a tenth of the trend range).
    II  -- shortest-path distance to the nearest degree-1 vertex.
    III -- number of other points within network distance `radius`.
    """
    if not p.is_network:
        raise ValidationError("mark models are defined for network patterns")
    _check_mark_model(kind, radius)
    n = p.n
    if n == 0:
        return p
    if kind == "I":
        score = p.coords().sum(axis=1)
        rng_span = float(score.max() - score.min()) if n > 1 else 0.0
        if tau is None:
            tau = 0.1 * abs(b) * rng_span
        marks = a + b * score + (rng.normal(0.0, tau, size=n) if tau > 0 else 0.0)
    elif kind == "II":
        if len(p.domain.border_vertices()) == 0:
            raise ValidationError("model II needs at least one degree-1 vertex")
        marks = _border_dist(p.domain, *p.seg_off())
    else:
        marks = _neighbour_counts(*close_pairs(p, radius)[:2], n)
    return p.with_marks(marks)
