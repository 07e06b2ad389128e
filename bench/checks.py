"""Output checks and digests.

Each check takes one output of a package call and returns None when the
output is valid, or a one-line description of what is wrong. The checks
are written independently of the package's own code paths.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np
from scipy.special import ndtr

# ---------------------------------------------------------------- digests


def _feed(h, obj):
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, np.ndarray):
        a = np.ascontiguousarray(obj)
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    elif isinstance(obj, (bool, int, float, str, np.floating, np.integer)):
        h.update(repr(obj).encode())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for x in obj:
            _feed(h, x)
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(b"{")
        for k in sorted(obj, key=str):
            _feed(h, str(k))
            _feed(h, obj[k])
        h.update(b"}")
    else:
        _feed(h, _fields(obj))


def _fields(obj):
    """The numeric content of a package result object, by its public attributes."""
    name = type(obj).__name__
    if name == "SummaryCurve":
        return [obj.statistic, obj.r, obj.values, obj.theoretical]
    if name == "EnvelopeBand":
        return [obj.statistic, obj.r, obj.lo, obj.hi, obj.mean, obj.n_effective, obj.k]
    if name == "MarkCorrSuite":
        return [obj.curves, obj.numerators, obj.normalizations]
    if name == "IntensityEstimate":
        return [obj.method, obj.sigma, obj.values]
    if name == "NetworkIntensityEstimate":
        return [obj.method, obj.sigma, obj.norms]
    if name == "MarkedPointPattern":
        return [
            [(p.location.segment, p.location.offset) if hasattr(p.location, "segment")
             else tuple(p.location) for p in obj.points],
            obj.labels(),
            [p.mark for p in obj.points],
        ]
    if name == "LinearNetwork":
        return [obj.vertices, obj.segments]
    raise TypeError(f"no digest rule for {name}")


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()[:16]


def dir_digests(root) -> dict:
    """sha256 prefix of every file under root, keyed by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()[:16]
    return dict(sorted(out.items()))


def dir_bytes(root) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files
    )


# ---------------------------------------------------------------- curve invariants


def k_nondecreasing(curve):
    v = curve.values
    if not np.all(np.isfinite(v)):
        return "K has non-finite values"
    if np.any(np.diff(v) < 0):
        return f"K decreases (min step {np.diff(v).min():.3e})"
    return None


def in_unit_interval(curve):
    v = curve.values[~np.isnan(curve.values)]
    if len(v) == 0:
        return f"{curve.statistic} is undefined at every r"
    if v.min() < 0.0 or v.max() > 1.0:
        return f"{curve.statistic} leaves [0, 1]: [{v.min()}, {v.max()}]"
    return None


def j_identity(j, h, f):
    """J = (1 - H) / (1 - F) wherever H and F are defined and F < 1."""
    ok = ~np.isnan(h.values) & ~np.isnan(f.values) & (f.values < 1.0 - 1e-12)
    if not ok.any():
        return "J is undefined at every r"
    want = (1.0 - h.values[ok]) / (1.0 - f.values[ok])
    got = j.values[ok]
    if not np.allclose(got, want, rtol=1e-12, atol=0.0):
        return f"J differs from (1-H)/(1-F) by up to {np.abs(got - want).max():.3e}"
    if np.any(~np.isnan(j.values[~ok])):
        return "J is defined where H or F is not"
    return None


def suite_valid(suite):
    """No curve is infinite, and with nonnegative marks the Stoyan and
    variogram numerators (kernel-weighted means of m_i m_j and
    (m_i - m_j)^2 / 2) are nonnegative wherever defined."""
    for name, c in suite.curves.items():
        if np.any(np.isinf(c.values)):
            return f"{name}: infinite values"
    for name in ("stoyan", "variogram"):
        raw = suite.numerators[name].values
        if np.all(np.isnan(raw)):
            return f"{name}: undefined at every r"
        if np.nanmin(raw) < 0:
            return f"{name}: negative numerator"
    return None


def band_ordered(band):
    """lo <= hi wherever at least k replicates are defined."""
    ok = band.n_effective >= band.k
    if not ok.any():
        return "band undefined at every r"
    if np.any(band.lo[ok] > band.hi[ok]):
        return "band has lo > hi"
    if np.any(np.isnan(band.lo[ok])) or np.any(np.isnan(band.hi[ok])):
        return "band NaN where n_effective >= k"
    return None


def bands_ordered(bands: dict):
    for name, band in bands.items():
        msg = band_ordered(band)
        if msg:
            return f"{name}: {msg}"
    return None


def band_csv_ordered(path):
    """band_ordered, read back from an EnvelopeBand CSV."""
    with open(path, newline="") as fh:
        head = fh.readline()
        k = int(head.split("k=")[1].split()[0])
        rows = list(csv.DictReader(fh))
    n_ok = 0
    for row in rows:
        if int(row["n_effective"]) >= k:
            n_ok += 1
            if not float(row["lo"]) <= float(row["hi"]):
                return f"{os.path.basename(path)}: lo > hi at r={row['r']}"
    return None if n_ok else f"{os.path.basename(path)}: band undefined at every r"


# ---------------------------------------------------------------- intensity


def _gauss_mass(lo, hi, u, h):
    return ndtr((hi - u) / h) - ndtr((lo - u) / h)


def jd_raster_expected(xy, window, sigma, nx, ny):
    """What the Jones-Diggle raster must sum to (times the cell area).

    Each point contributes its kernel, sampled at the cell centres, divided
    by its exact window mass. In the continuum this is n; on the raster the
    midpoint rule makes each point's mass slightly different from its exact
    mass, so the comparison target is the midpoint mass over the exact one,
    summed over points. The Gaussian kernel is evaluated here from its
    formula, not from the package.
    """
    xs = window.xmin + (np.arange(nx) + 0.5) * (window.width / nx)
    ys = window.ymin + (np.arange(ny) + 0.5) * (window.height / ny)
    dx, dy = window.width / nx, window.height / ny
    total = 0.0
    for x, y in xy:
        qx = np.exp(-0.5 * ((xs - x) / sigma) ** 2).sum() * dx / (math.sqrt(2 * math.pi) * sigma)
        qy = np.exp(-0.5 * ((ys - y) / sigma) ** 2).sum() * dy / (math.sqrt(2 * math.pi) * sigma)
        mx = _gauss_mass(window.xmin, window.xmax, x, sigma)
        my = _gauss_mass(window.ymin, window.ymax, y, sigma)
        total += (qx * qy) / (mx * my)
    return total


def jd_integrates_to_n(est, p):
    """The Jones-Diggle estimate integrates to n within 1e-6 relative (on its raster)."""
    want = jd_raster_expected(p.coords(), p.domain, est.sigma, est.nx, est.ny)
    got = est.integral()
    if abs(got - want) > 1e-6 * max(p.n, 1):
        return f"JD integral {got} differs from {want} (n={p.n})"
    return None


def network_integrates_to_n(est, p):
    got = est.integral()
    if abs(got - p.n) > 1e-6 * max(p.n, 1):
        return f"network intensity integral {got} differs from n={p.n}"
    return None


def positive_raster(est):
    v = est.values
    if not np.all(np.isfinite(v)) or v.min() < 0 or v.max() <= 0:
        return "intensity raster not finite and positive"
    return None


# ---------------------------------------------------------------- brute-force K


def brute_k_cross(xy_i, xy_j, lam_i, lam_j, window, r, translation=True):
    """Double-loop translation-corrected cross K (independent oracle)."""
    out = np.zeros(len(r))
    area = window.width * window.height
    for a in range(len(xy_i)):
        for b in range(len(xy_j)):
            dx = abs(xy_i[a, 0] - xy_j[b, 0])
            dy = abs(xy_i[a, 1] - xy_j[b, 1])
            d = math.hypot(dx, dy)
            e = area / ((window.width - dx) * (window.height - dy)) if translation else 1.0
            w = e / (lam_i[a] * lam_j[b] * area)
            out[r >= d] += w
    return out


def k_matches_brute(curve, want):
    scale = max(1.0, float(np.abs(want).max()))
    err = float(np.abs(curve.values - want).max())
    if err > 1e-9 * scale:
        return f"K differs from the double-loop oracle by {err:.3e}"
    return None


def cli_exit(code):
    return None if code == 0 else f"exit code {code}"
