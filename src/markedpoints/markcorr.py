"""Mark correlation functionals: pairwise test functions smoothed over
interpoint distance and normalized by a mark-only constant.

The estimator is a Nadaraya-Watson ratio: kernel-weighted average of the
test function over point pairs at distance r, divided by the pairwise
sample average of the test function. Works verbatim on planar patterns
(Euclidean distance) and network patterns (shortest-path distance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csr_array

from ._dist import close_pairs, translation_weights
from .curves import SummaryCurve, _r_values
from .errors import NumericalError, ValidationError
from .intensity import KernelSpec, _elementwise, kernel1d_pdf, kernel1d_support
from .pattern import MarkedPointPattern, _moments

__all__ = [
    "TestFunction",
    "STOYAN",
    "BEISBART_KERSCHER",
    "VARIOGRAM",
    "SHIMANTANI_I",
    "SmoothingSpec1D",
    "pair_weights",
    "normalization",
    "pair_average",
    "mark_corr",
    "mark_corr_suite",
    "MarkCorrSuite",
    "default_smoothing",
]


@dataclass(frozen=True)
class TestFunction:
    """Symmetric pairwise mark test function plus its normalization rule."""

    name: str
    fn: Callable[[float, float], float] | None = None

    def __post_init__(self):
        if self.name not in ("stoyan", "beisbart_kerscher", "variogram", "shimantani_i", "custom"):
            raise ValidationError(f"unknown test function {self.name!r}")
        if self.name == "custom" and self.fn is None:
            raise ValidationError("custom test function requires a callable")


STOYAN = TestFunction("stoyan")
BEISBART_KERSCHER = TestFunction("beisbart_kerscher")
VARIOGRAM = TestFunction("variogram")
SHIMANTANI_I = TestFunction("shimantani_i")

_SUITE = (STOYAN, VARIOGRAM, SHIMANTANI_I, BEISBART_KERSCHER)

_THEORETICAL = {"stoyan": 1.0, "beisbart_kerscher": 1.0, "variogram": 1.0, "shimantani_i": 0.0}


@dataclass(frozen=True)
class SmoothingSpec1D:
    """Kernel on the real line used to localize pair distances around r."""

    bandwidth: float
    kernel: str = "epanechnikov"

    def __post_init__(self):
        KernelSpec(self.bandwidth, self.kernel)  # the same bandwidth and family checks


def default_smoothing(p: MarkedPointPattern) -> SmoothingSpec1D:
    """Heuristic bandwidth scaling with mean nearest-neighbor spacing."""
    if p.n == 0:
        raise ValidationError("cannot pick a bandwidth for an empty pattern")
    h = 0.15 / np.sqrt(p.n / p.domain_size)
    return SmoothingSpec1D(float(h))


def _pair_values(tf: TestFunction, mi, mj, mu: float) -> np.ndarray:
    """tf on pairs of marks, elementwise with broadcasting. Each pair stands
    for both of its orders: a custom function is symmetrized as
    (f(a, b) + f(b, a)) / 2."""
    if tf.name == "stoyan":
        return mi * mj
    if tf.name == "beisbart_kerscher":
        return mi + mj
    if tf.name == "variogram":
        return 0.5 * (mi - mj) ** 2
    if tf.name == "shimantani_i":
        # constant marks give exact zeros, and c_tf is then 0
        return (mi - mu) * (mj - mu)
    return 0.5 * (_elementwise(tf.fn, mi, mj) + _elementwise(tf.fn, mj, mi))


def pair_weights(tf: TestFunction, marks, mu: float, var: float) -> np.ndarray:
    """Full matrix of tf(m_i, m_j); the diagonal is never used by callers."""
    m = np.asarray(marks, dtype=float)
    if tf.name == "shimantani_i" and var <= 0:
        raise NumericalError("shimantani_i requires positive mark variance")
    if tf.name == "custom":
        return _elementwise(tf.fn, m[:, None], m[None, :])
    return _pair_values(tf, m[:, None], m[None, :], mu)


def normalization(tf: TestFunction, marks, stoyan_rule: str = "pairs") -> float:
    """Normalization constant c_tf.

    The sample average of tf over all ordered pairs (pair_average), except
    shimantani_i which is scaled by the population mark variance (Moran
    convention). stoyan_rule="mean-squared" switches the Stoyan constant to
    the classical squared mean mark.
    """
    return _constant(tf, marks, stoyan_rule)


def pair_average(tf: TestFunction, marks) -> float:
    """Sample average of tf over all ordered pairs i != j: for the built-ins
    one expression in n and the marks' mean and variance, O(n); the n x n
    pair_weights matrix for a custom test function."""
    return _constant(tf, marks)


def _constant(tf: TestFunction, marks, rule: str | None = None, moments=None) -> float:
    """normalization() under the Stoyan rule `rule`, or pair_average() for
    rule None; moments are the marks' _moments when the caller has them."""
    m = np.asarray(marks, dtype=float)
    n = len(m)
    if n < 2:
        raise ValidationError("pair average needs at least two marked points")
    mu, var = _moments(m) if moments is None else moments
    if tf.name == "stoyan":
        return mu**2 if rule == "mean-squared" else mu**2 - var / (n - 1)
    if tf.name == "beisbart_kerscher":
        return 2.0 * mu
    if tf.name == "variogram":
        return n * var / (n - 1)
    if tf.name == "shimantani_i":
        if var <= 0:
            raise NumericalError("shimantani_i requires positive mark variance")
        # the centred marks sum to 0, so their ordered-pair products sum to -n var
        return -var / (n - 1) if rule is None else var
    w = pair_weights(tf, m, mu, var)
    return float((w.sum() - np.trace(w)) / (n * (n - 1)))


def _reach(smoothing: SmoothingSpec1D, r: np.ndarray) -> float:
    """Largest pair distance the kernel matrix on grid r can use."""
    return float(r.max() + kernel1d_support(smoothing.kernel, smoothing.bandwidth))


def _kernel_matrix(p: MarkedPointPattern, smoothing: SmoothingSpec1D, r: np.ndarray, ec: str, pairs=None):
    """Sparse (len(r), pairs) matrix K with K[k, q] = 2 K_h(d_q - r_k) e_q over
    the unordered pairs q = (i, j) with r_k - supp <= d_q <= r_k + supp, plus
    the pair indices i, j.

    For symmetric per-pair values v, (K @ v)[k] is the kernel sum over
    ordered pairs i != j; e is the symmetricWeight edge correction or 1.
    pairs, when given, is close_pairs(p, cutoff) for a cutoff of at least
    _reach(smoothing, r); farther pairs sort last and get no entry.
    """
    if p.n < 2:
        raise ValidationError("mark correlation needs at least 2 marked points")
    if ec not in ("none", "symmetricWeight"):
        raise ValidationError(f"unknown edge correction {ec!r} for mark correlation")
    if ec == "symmetricWeight" and p.is_network:
        raise ValidationError("symmetricWeight edge correction is planar-only")
    supp = kernel1d_support(smoothing.kernel, smoothing.bandwidth)
    r_lo, r_hi = r - supp, r + supp
    i, j, d = close_pairs(p, _reach(smoothing, r)) if pairs is None else pairs
    keep = np.nonzero(d >= r_lo.min())[0]
    keep = keep[np.argsort(d[keep], kind="stable")]
    i, j, d = i[keep], j[keep], d[keep]
    lo = np.searchsorted(d, r_lo, side="left")
    counts = np.searchsorted(d, r_hi, side="right") - lo
    nnz = int(counts.sum())
    itype = np.int32 if max(nnz, len(d)) < np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(len(r) + 1, dtype=itype)
    np.cumsum(counts, out=indptr[1:])
    # entries of row k are the consecutive sorted pairs lo[k] .. lo[k] + counts[k] - 1
    cols = np.arange(nnz, dtype=itype)
    cols += np.repeat((lo - indptr[:-1]).astype(itype), counts)
    t = d[cols]
    t -= np.repeat(r, counts)
    kv = kernel1d_pdf(smoothing.kernel, smoothing.bandwidth, t)
    kv *= 2.0
    if ec == "symmetricWeight":
        xy = p.coords()
        kv *= translation_weights(p.domain, xy[i], xy[j])[cols]
    return csr_array((kv, cols, indptr), shape=(len(r), len(d))), i, j


def _normalized(tfs, p: MarkedPointPattern, smoothing, r, ec: str, stoyan_rule="pairs", pairs=None):
    """(normalized values, raw ratio, c_tf) of each test function, all from
    one product with the kernel matrix; a degenerate c_tf reads 0.0 and
    gives all-NaN normalized values."""
    marks = p.marks()
    K, i, j = _kernel_matrix(p, smoothing, r, ec, pairs)
    mu, var = _moments(marks)
    mi, mj = marks[i], marks[j]
    cols = [_pair_values(tf, mi, mj, mu) for tf in tfs]
    sums = K @ np.column_stack(cols + [np.ones(len(mi))])
    out = []
    for s, tf in enumerate(tfs):
        raw = _ratio(sums[:, s], sums[:, -1])
        try:
            c = _constant(tf, marks, stoyan_rule, (mu, var))
        except NumericalError:
            c = 0.0
        out.append((raw / c if c != 0.0 else np.full_like(raw, np.nan), raw, c))
    return out


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.full_like(num, np.nan)
    ok = den >= 1e-12
    out[ok] = num[ok] / den[ok]
    return out


def _curves(tfs, p: MarkedPointPattern, smoothing, r, ec: str, stoyan_rule="pairs") -> list:
    """(normalized curve, raw numerator curve, c_tf) of each test function,
    with the package defaults for a None smoothing or r grid."""
    r = _r_values(p.domain, r)
    smoothing = default_smoothing(p) if smoothing is None else smoothing
    out = []
    for tf, (vals, raw, c) in zip(tfs, _normalized(tfs, p, smoothing, r, ec, stoyan_rule)):
        meta = {"tf": tf.name, "bandwidth": smoothing.bandwidth, "kernel": smoothing.kernel, "ec": ec}
        theo = _THEORETICAL.get(tf.name)
        theo = None if theo is None else np.full_like(raw, theo)
        curve = SummaryCurve(r, vals, f"markcorr_{tf.name}", theo, meta)
        out.append((curve, SummaryCurve(r, raw, f"markcorr_raw_{tf.name}", None, dict(meta)), c))
    return out


def mark_corr(
    p: MarkedPointPattern,
    tf: TestFunction,
    smoothing: SmoothingSpec1D | None = None,
    r: np.ndarray | None = None,
    ec: str = "none",
    stoyan_rule: str = "pairs",
    degenerate: str = "raise",
    return_numerator: bool = False,
):
    """Normalized mark correlation curve for one test function.

    The returned curve is NaN wherever the kernel mass in the denominator
    falls below 1e-12. With return_numerator=True also returns the
    unnormalized ratio (the conditional mean of tf at distance r), which
    for the variogram test function is the classical raw mark variogram.
    A zero normalization constant raises NumericalError unless
    degenerate="nan", in which case the normalized curve is all-NaN.
    """
    ((curve, numer, c),) = _curves([tf], p, smoothing, r, ec, stoyan_rule)
    if c == 0.0 and degenerate == "raise":
        raise NumericalError(f"degenerate normalization for {tf.name}: c_tf = 0")
    return (curve, numer) if return_numerator else curve


@dataclass
class MarkCorrSuite:
    """The four built-in curves with shared smoothing, plus raw numerators."""

    curves: dict
    numerators: dict
    normalizations: dict


def mark_corr_suite(
    p: MarkedPointPattern,
    smoothing: SmoothingSpec1D | None = None,
    r: np.ndarray | None = None,
    ec: str = "none",
) -> MarkCorrSuite:
    """All four built-in mark correlation functions in one pair sweep.

    Degenerate normalizations (e.g. the variogram under constant marks)
    yield an all-NaN normalized curve; the raw numerator is still reported.
    """
    names = [tf.name for tf in _SUITE]
    return MarkCorrSuite(*(dict(zip(names, column)) for column in zip(*_curves(_SUITE, p, smoothing, r, ec))))

