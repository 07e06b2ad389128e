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

from . import _dist
from ._dist import _row_blocks, close_pairs, translation_weights
from .curves import SummaryCurve, _r_values
from .errors import NumericalError, ValidationError
from .geometry import _MAX_ENTRIES
from .intensity import KernelSpec, _elementwise, kernel1d_pdf, kernel1d_support
from .pattern import MarkedPointPattern, _moments

__all__ = [
    "TestFunction",
    "STOYAN",
    "BEISBART_KERSCHER",
    "VARIOGRAM",
    "SHIMANTANI_I",
    "SmoothingSpec1D",
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


def normalization(tf: TestFunction, marks, stoyan_rule: str = "pairs") -> float:
    """Normalization constant c_tf.

    The sample average of tf over all ordered pairs (pair_average), except
    shimantani_i which is scaled by the population mark variance (Moran
    convention). stoyan_rule="mean-squared" switches the Stoyan constant to
    the classical squared mean mark; any rule other than "pairs" and
    "mean-squared" raises ValidationError.
    """
    return _constant(tf, marks, stoyan_rule)


def pair_average(tf: TestFunction, marks) -> float:
    """Sample average of tf over all ordered pairs i != j: for the built-ins
    one expression in n and the marks' mean and variance, O(n); the n x n
    matrix of tf(m_i, m_j) of a custom one, in row blocks (O(_BLOCK) memory)."""
    return _constant(tf, marks)


def _constant(tf: TestFunction, marks, rule: str | None = None, moments=None) -> float:
    """normalization() under the Stoyan rule `rule`, or pair_average() for
    rule None; moments are the marks' _moments when the caller has them."""
    if rule not in (None, "pairs", "mean-squared"):
        raise ValidationError(f"stoyan_rule must be 'pairs' or 'mean-squared', got {rule!r}")
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
    total = 0.0
    for lo, hi in _row_blocks(n, n):
        w = _elementwise(tf.fn, m[lo:hi, None], m[None, :])
        total += w.sum() - np.trace(w, offset=lo)
    return float(total / (n * (n - 1)))


def _reach(smoothing: SmoothingSpec1D, r: np.ndarray) -> float:
    """Largest pair distance the kernel matrix on grid r can use."""
    return float(r.max() + kernel1d_support(smoothing.kernel, smoothing.bandwidth))


def _kernel_rows(smoothing, r, d, lo, counts, itype, weights, w0, w1):
    """CSR rows of K for the grid values r, over the sorted pair distances
    d; row k's entries are the consecutive pairs lo[k] .. lo[k] + counts[k] - 1.
    Its columns are the pairs w0 .. w1 - 1, which must hold every row's
    entries."""
    indptr = np.zeros(len(r) + 1, dtype=itype)
    np.cumsum(counts, out=indptr[1:])
    cols = np.arange(indptr[-1], dtype=itype)
    cols += np.repeat((lo - indptr[:-1]).astype(itype), counts)
    # numpy gathers through an int32 index 2-4x slower, holding the GIL
    # throughout; through an intp one it releases the GIL, so the replicate
    # threads overlap. Each gather casts its own index and frees it at once:
    # an intp copy of cols kept alive for both gathers made the study slower
    # (measured: more minor page faults and system time per replicate)
    t = d[cols.astype(np.intp, copy=False)]
    t -= np.repeat(r, counts)
    kv = kernel1d_pdf(smoothing.kernel, smoothing.bandwidth, t)
    kv *= 2.0
    if weights is not None:
        kv *= weights[cols.astype(np.intp, copy=False)]
    if w0:
        cols -= w0
    return csr_array((kv, cols, indptr), shape=(len(r), w1 - w0))


def _normalized(tfs, p: MarkedPointPattern, smoothing, r, ec: str, stoyan_rule="pairs", pairs=None):
    """(normalized values, raw ratio, c_tf) of each test function from one
    product K @ v; a degenerate c_tf reads 0.0 and gives all-NaN values.

    K[k, q] = 2 K_h(d_q - r_k) e_q over the unordered pairs q = (i, j) with
    |d_q - r_k| <= supp, e the symmetricWeight edge correction or 1; v holds
    the test functions of each pair's marks and a ones column, so (K @ v)[k]
    sums over ordered pairs i != j. K goes in blocks of consecutive r rows of
    at most _BLOCK entries, each row summed in order: the blocks change no
    value, nor do the windows of consecutive pairs in which v is formed,
    each used by the blocks whose pairs it holds. pairs, if given, is
    close_pairs(p, c) for a c >= _reach(smoothing, r)."""
    if p.n < 2:
        raise ValidationError("mark correlation needs at least 2 marked points")
    if ec not in ("none", "symmetricWeight"):
        raise ValidationError(f"unknown edge correction {ec!r} for mark correlation")
    if ec == "symmetricWeight" and p.is_network:
        raise ValidationError("symmetricWeight edge correction is planar-only")
    marks = p.marks()
    mu, var = _moments(marks)
    supp = kernel1d_support(smoothing.kernel, smoothing.bandwidth)
    i, j, d = close_pairs(p, _reach(smoothing, r)) if pairs is None else pairs
    # numpy's default sort is several times faster than the stable one, and
    # without a tie every sort gives the stable permutation
    order = np.argsort(d)
    ds = d[order]
    if np.any(ds[1:] == ds[:-1]):  # a tie: ds is the same, the permutation may not be
        order = np.argsort(d, kind="stable")
    i, j, d = i[order], j[order], ds
    del order, ds
    lo = np.searchsorted(d, r - supp, side="left")
    counts = np.searchsorted(d, r + supp, side="right") - lo
    entries = int(counts.sum())
    if entries > _MAX_ENTRIES:
        raise ValidationError(
            f"mark correlation kernel matrix of {entries} entries: at most {_MAX_ENTRIES}; "
            "use fewer r values or a smaller bandwidth"
        )
    weights = translation_weights(p.domain, p.coords(), p.coords(), i, j) if ec == "symmetricWeight" else None
    itype = np.int32 if len(d) < np.iinfo(np.int32).max else np.int64  # entries < 2^28 < 2^31
    width = len(tfs) + 1
    vals, sums, w1 = None, [], 0
    for a, b in _row_blocks(len(r), counts):
        start, stop = int(lo[a]), int(lo[b - 1] + counts[b - 1])
        if vals is None or stop > w1:
            # a window of the sorted pairs from this block's first pair, at
            # least _BLOCK entries and four block spans: the later blocks
            # whose pairs it holds reuse its values
            vals = None
            w0, w1 = start, min(len(d), start + max(_dist._BLOCK // width, 4 * (stop - start)))
        K = _kernel_rows(smoothing, r[a:b], d, lo[a:b], counts[a:b], itype, weights, w0, w1)
        if vals is None:
            # one window's pair values, a column at a time (each test function,
            # then ones), from the marks of chunks of at most _BLOCK entries.
            # They are formed after the block's kernel rows, and the first
            # chunk's marks before the matrix: a study replicate (one window,
            # one chunk) was slower with the values first (3-10x the minor page
            # faults) and with the matrix before the marks (8 of 8 benchmark
            # pairs). A single window's values stay referenced, with the pairs
            # and marks, until this call returns: freeing them once used raised
            # a study pass's faults 1.7x. An empty window is one empty chunk
            step = max(1, _dist._BLOCK // width)
            for c0 in range(w0, max(w1, w0 + 1), step):
                c1 = min(w1, c0 + step)
                mi, mj = marks[i[c0:c1]], marks[j[c0:c1]]
                if c0 == w0:
                    vals = np.empty((w1 - w0, width))
                for s, tf in enumerate(tfs):
                    vals[c0 - w0 : c1 - w0, s] = _pair_values(tf, mi, mj, mu)
            vals[:, -1] = 1.0
        sums.append(K @ vals)
    sums = sums[0] if len(sums) == 1 else np.concatenate(sums)
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
    degenerate="nan", in which case the normalized curve is all-NaN; any
    other value of degenerate than "raise" and "nan" raises ValidationError.
    """
    if degenerate not in ("raise", "nan"):
        raise ValidationError(f"degenerate must be 'raise' or 'nan', got {degenerate!r}")
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

