"""Kernel intensity estimation and bandwidth selection.

Planar patterns get three raster estimators: uniformly-corrected,
Jones-Diggle (mass conserving), and a diffusion estimator that evolves the
point masses under the heat equation with reflecting boundaries. Network
patterns get kernel smoothing in shortest-path distance with per-point
mass normalization, the network analog of the Jones-Diggle correction.

Kernels are separable products of a 1-D symmetric density per axis, so the
window mass of a kernel factorizes into two closed-form 1-D masses.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.fft import dctn, idctn
from scipy.special import ndtr

from ._dist import _row_blocks
from .errors import NumericalError, ValidationError
from .geometry import LinearNetwork, PlanarWindow, _arc_mesh, _check_cells, _cross_dist, _locations, _seg_off
from .pattern import MarkedPointPattern, _fmt, _write_table

__all__ = [
    "KernelSpec",
    "IntensityEstimate",
    "NetworkIntensityEstimate",
    "kernel_mass",
    "intensity_uniform",
    "intensity_jones_diggle",
    "intensity_heat",
    "intensity_network",
    "bandwidth_scott",
    "cvl_criterion",
    "bandwidth_cvl",
    "eval_intensity",
]

_FAMILIES = ("gaussian", "epanechnikov", "box")


@dataclass(frozen=True)
class KernelSpec:
    """Smoothing kernel: product of one 1-D symmetric density per axis."""

    bandwidth: float
    family: str = "gaussian"

    def __post_init__(self):
        _check_bandwidth(self.bandwidth, "bandwidth")
        if self.family not in _FAMILIES:
            raise ValidationError(f"unknown kernel family {self.family!r}")


def _check_bandwidth(h, what: str):
    """A positive bandwidth with a finite square, the heat estimator's time."""
    h = float(h)
    if not (h > 0 and h * h < np.inf):  # NaN fails the test too
        raise ValidationError(f"{what} must be positive with a finite square, got {h}")


def kernel1d_pdf(family: str, h: float, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    # |t| / h or u * u past the float range is inf, where every density is 0
    with np.errstate(over="ignore"):
        u = np.divide(t, h, out=np.empty_like(t))
        # each kernel is evaluated in place in u, the one full-size array
        u *= u
        if family == "gaussian":
            # scaling by -0.5 is exact: exp gets the value of -0.5 * u * u, or,
            # where u * u is subnormal, a value whose exp is 1 as well
            u *= -0.5
            np.exp(u, out=u)
            u /= np.sqrt(2.0 * np.pi) * h
            return u
        if family == "epanechnikov":
            np.subtract(1.0, u, out=u)
            u *= 0.75
            # 1 - u*u < 0 exactly where |u| > 1; fmax maps those and NaN to +0,
            # which, unlike a tiny negative value, stays +0 when divided by h
            np.fmax(u, 0.0, out=u)
            u /= h
            return u
    # box; the family was checked by KernelSpec
    outside = ~(u <= 1.0)  # u * u, so NaN is outside too
    u.fill(0.5 / h)
    u[outside] = 0.0
    return u


def kernel1d_cdf(family: str, h: float, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    u = t / h
    if family == "gaussian":
        return ndtr(u)
    if family == "epanechnikov":
        uc = np.clip(u, -1.0, 1.0)
        return 0.5 + 0.75 * (uc - uc**3 / 3.0)
    return np.clip(0.5 * (u + 1.0), 0.0, 1.0)  # box


def kernel1d_support(family: str, h: float) -> float:
    """Half-width beyond which the kernel is (numerically) zero."""
    return 8.5 * h if family == "gaussian" else h


def _axis_mass(k: KernelSpec, lo: float, hi: float, u) -> np.ndarray:
    """1-D kernel mass of the interval [lo, hi] for a kernel centered at u."""
    return kernel1d_cdf(k.family, k.bandwidth, hi - np.asarray(u)) - kernel1d_cdf(
        k.family, k.bandwidth, lo - np.asarray(u)
    )


def kernel_mass(k: KernelSpec, w: PlanarWindow, x, y) -> np.ndarray:
    """Mass of the kernel centered at (x, y) that falls inside the window.

    This is the edge-correction weight used by the planar estimators; the
    separable kernel makes it an exact product of two 1-D masses.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.all(w.contains(x, y)):
        raise ValidationError("kernel_mass: point outside window")
    return _axis_mass(k, w.xmin, w.xmax, x) * _axis_mass(k, w.ymin, w.ymax, y)


class IntensityEstimate:
    """Nonnegative intensity field on a raster over a planar window.

    Evaluable anywhere in the window by bilinear interpolation on cell
    centers, floored at a tiny positive value so the estimate can be used
    in denominators.
    """

    def __init__(self, window: PlanarWindow, values: np.ndarray, method: str, sigma: float):
        self.window = window
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 2:
            raise ValidationError("intensity raster must be 2-D")
        if np.any(self.values < 0):
            raise ValidationError("intensity raster has negative values")
        self.method = method
        self.sigma = float(sigma)
        self.nx, self.ny = self.values.shape
        self.dx = window.width / self.nx
        self.dy = window.height / self.ny
        total = float(self.values.sum() * self.dx * self.dy)
        self.floor = 1e-12 * total / window.area

    def evaluate(self, xy) -> np.ndarray:
        """Bilinear interpolation at (n, 2) planar coordinates inside the window."""
        i0, j0, fx, fy = _bilinear(self.window, self.nx, self.ny, np.asarray(xy, dtype=float).reshape(-1, 2))
        v = (
            self.values[i0, j0] * (1 - fx) * (1 - fy)
            + self.values[i0 + 1, j0] * fx * (1 - fy)
            + self.values[i0, j0 + 1] * (1 - fx) * fy
            + self.values[i0 + 1, j0 + 1] * fx * fy
        )
        return np.maximum(v, self.floor)

    def integral(self) -> float:
        """Midpoint quadrature of the field over the window."""
        return float(self.values.sum() * self.dx * self.dy)

    def to_csv(self, path):
        xs, ys = _cell_centers(self.window, self.nx, self.ny)
        cols = [np.repeat(xs, self.ny), np.tile(ys, self.nx), self.values.ravel()]
        comment = f"method={self.method} sigma={format(self.sigma, '.12g')} nx={self.nx} ny={self.ny}"
        _write_table(path, ["cx", "cy", "value"], map(_fmt, cols), comment)


def _cell_centers(w: PlanarWindow, nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """x and y cell-centre coordinates of an nx x ny raster over the window."""
    return w.xmin + (np.arange(nx) + 0.5) * (w.width / nx), w.ymin + (np.arange(ny) + 0.5) * (w.height / ny)


def _bilinear(w: PlanarWindow, nx: int, ny: int, xy: np.ndarray):
    """Bilinear stencil on the cell centres of an nx x ny raster: the lower
    corner cells (i0, j0) of the (n, 2) points and their fractional
    offsets (fx, fy) towards (i0 + 1, j0 + 1), clamped to the raster."""
    gx = np.clip((xy[:, 0] - w.xmin) / (w.width / nx) - 0.5, 0.0, nx - 1.0)
    gy = np.clip((xy[:, 1] - w.ymin) / (w.height / ny) - 0.5, 0.0, ny - 1.0)
    i0 = np.clip(np.floor(gx).astype(int), 0, nx - 2) if nx > 1 else np.zeros(len(gx), int)
    j0 = np.clip(np.floor(gy).astype(int), 0, ny - 2) if ny > 1 else np.zeros(len(gy), int)
    return i0, j0, gx - i0, gy - j0


def _check_planar(p: MarkedPointPattern):
    if p.is_network:
        raise ValidationError("planar intensity estimator on a network pattern")


def _check_dims(dims) -> tuple[int, int]:
    nx, ny = (dims, dims) if np.isscalar(dims) else dims
    if nx < 16 or ny < 16:
        raise ValidationError(f"grid dims must be at least 16x16, got {nx}x{ny}")
    _check_cells(int(nx) * int(ny), "raster")
    return int(nx), int(ny)


def intensity_uniform(p: MarkedPointPattern, k: KernelSpec, dims=(128, 128)) -> IntensityEstimate:
    """Uniformly-corrected kernel estimate: the kernel sum at u divided by
    the window mass of a kernel centered at u. Pointwise unbiased when the
    true intensity is constant."""
    _check_planar(p)
    nx, ny = _check_dims(dims)
    raw = _kernel_sum_raster(p, k, nx, ny, per_point_weights=np.ones(p.n))
    w = p.domain
    xs, ys = _cell_centers(w, nx, ny)
    c = np.outer(_axis_mass(k, w.xmin, w.xmax, xs), _axis_mass(k, w.ymin, w.ymax, ys))
    if not np.all(c > 0):
        raise NumericalError("kernel window mass vanished at a raster cell")
    return IntensityEstimate(w, raw / c, "uniform", k.bandwidth)


def intensity_jones_diggle(p: MarkedPointPattern, k: KernelSpec, dims=(128, 128)) -> IntensityEstimate:
    """Jones-Diggle estimate: each point's kernel is divided by its own
    window mass, so the field integrates to the point count exactly."""
    _check_planar(p)
    nx, ny = _check_dims(dims)
    xy = p.coords()
    mass = kernel_mass(k, p.domain, xy[:, 0], xy[:, 1])
    if not np.all(mass > 0):
        raise NumericalError("kernel window mass vanished for a data point")
    raw = _kernel_sum_raster(p, k, nx, ny, per_point_weights=1.0 / mass)
    return IntensityEstimate(p.domain, raw, "jonesDiggle", k.bandwidth)


def _kernel_sum_raster(p, k, nx, ny, per_point_weights):
    """Sum over points of the separable kernel on the cell centers: one
    (nx, points) @ (points, ny) product per row block of points (nx + ny
    entries a point), with per-point weights folded into the x factors."""
    xs, ys = _cell_centers(p.domain, nx, ny)
    out = np.zeros((nx, ny))
    xy = p.coords()
    for lo, hi in _row_blocks(p.n, nx + ny):
        kx = kernel1d_pdf(k.family, k.bandwidth, xs[None, :] - xy[lo:hi, 0:1])
        ky = kernel1d_pdf(k.family, k.bandwidth, ys[None, :] - xy[lo:hi, 1:2])
        kx *= per_point_weights[lo:hi, None]
        out += kx.T @ ky
    return out


def _deposit_masses(p: MarkedPointPattern, nx: int, ny: int) -> np.ndarray:
    """Area-weighted splitting of unit point masses onto the 4 nearest cells,
    in density units (each point adds total mass 1)."""
    w = p.domain
    field = np.zeros((nx, ny))
    if p.n == 0:
        return field
    i0, j0, fx, fy = _bilinear(w, nx, ny, p.coords())
    unit = 1.0 / ((w.width / nx) * (w.height / ny))
    np.add.at(field, (i0, j0), (1 - fx) * (1 - fy) * unit)
    np.add.at(field, (i0 + 1, j0), fx * (1 - fy) * unit)
    np.add.at(field, (i0, j0 + 1), (1 - fx) * fy * unit)
    np.add.at(field, (i0 + 1, j0 + 1), fx * fy * unit)
    return field


def heat_evolve(field: np.ndarray, dx: float, dy: float, t: float) -> np.ndarray:
    """Evolve a raster density under du/dt = (1/2) laplace(u) with zero-flux
    boundaries, for time t.

    Uses the exact exponential of the discrete 5-point Neumann Laplacian,
    diagonalized by the type-II cosine transform. The constant mode is
    untouched, so discrete mass is conserved to machine precision for any
    time step, and the field relaxes monotonically to its uniform mean.
    """
    nx, ny = field.shape
    lx = (2.0 / dx**2) * (1.0 - np.cos(np.pi * np.arange(nx) / nx))
    ly = (2.0 / dy**2) * (1.0 - np.cos(np.pi * np.arange(ny) / ny))
    coef = dctn(field, type=2, norm="ortho")
    coef *= np.exp(-0.5 * (lx[:, None] + ly[None, :]) * t)
    return idctn(coef, type=2, norm="ortho")


def intensity_heat(p: MarkedPointPattern, sigma: float, dims=(128, 128)) -> IntensityEstimate:
    """Diffusion intensity estimate: point masses evolved to time t = sigma^2
    under the reflecting-boundary heat equation on the raster, in one exact
    step of heat_evolve."""
    _check_planar(p)
    nx, ny = _check_dims(dims)
    _check_bandwidth(sigma, "sigma")
    w = p.domain
    dx, dy = w.width / nx, w.height / ny
    if sigma < 2.0 * max(dx, dy):
        raise ValidationError(
            f"grid too coarse: sigma={sigma} is below two cell widths ({2 * max(dx, dy)})"
        )
    field = heat_evolve(_deposit_masses(p, nx, ny), dx, dy, sigma**2)
    return IntensityEstimate(w, np.maximum(field, 0.0), "heat", sigma)


class NetworkIntensityEstimate:
    """Kernel intensity on a network, smoothed in shortest-path distance.

    Each data point's kernel is normalized by its total mass on the
    network (the Jones-Diggle analog), so the estimate integrates to the
    point count. Exactly evaluable at any network location. This estimator
    is a documented extension: no diffusion variant is provided. The masses
    are sums over an arc mesh of spacing max(sigma / 4, total length / 20,000).
    """

    def __init__(self, p: MarkedPointPattern, k: KernelSpec):
        if not p.is_network:
            raise ValidationError("network intensity estimator on a planar pattern")
        net: LinearNetwork = p.domain
        self.net = net
        self.kernel = k
        self.method = "networkJD"
        self.sigma = k.bandwidth
        self._mesh, self.mesh_weights = _arc_mesh(net, max(k.bandwidth / 4.0, net.total_length / 20000.0))
        self._data = p.seg_off()
        self.norms = self._kernel_sums(self._data, self._mesh, self.mesh_weights)
        if np.any(self.norms <= 0):
            raise NumericalError("kernel mass vanished for a data point")
        self.floor = 1e-12 * p.n / net.total_length

    def _kernel_sums(self, a, b, weights) -> np.ndarray:
        """sum_j K(d(a_i, b_j)) weights_j for each location a_i, over row
        blocks of the distance matrix; einsum sums each row on its own, so
        the values depend neither on the blocks nor on the BLAS threads."""
        out = np.empty(len(a[0]))
        for lo, hi in _row_blocks(len(a[0]), len(b[0])):
            d = _cross_dist(self.net, (a[0][lo:hi], a[1][lo:hi]), b)
            vals = kernel1d_pdf(self.kernel.family, self.kernel.bandwidth, d)
            out[lo:hi] = np.einsum("ij,j->i", vals, weights)
        return out

    @cached_property
    def mesh_locs(self) -> list:
        """Cell-center NetworkLocations of the mesh, built on first request."""
        return _locations(*self._mesh)

    def evaluate(self, cols) -> np.ndarray:
        """Values at (segment, offset) columns on the estimate's network."""
        cols = _seg_off(self.net, *cols)
        if len(self._data[0]) == 0:
            return np.zeros(len(cols[0]))
        return np.maximum(self._kernel_sums(cols, self._data, 1.0 / self.norms), self.floor)

    @cached_property
    def _at_data(self) -> np.ndarray:
        return self.evaluate(self._data)

    def _at(self, cols) -> np.ndarray:
        """Values at (segment, offset) columns; at the estimate's own data
        points they are computed once and handed out as copies."""
        if all(np.array_equal(a, b) for a, b in zip(cols, self._data)):
            return self._at_data.copy()
        return self.evaluate(cols)

    def integral(self) -> float:
        return float(np.einsum("i,i->", self.evaluate(self._mesh), self.mesh_weights))

    def to_csv(self, path):
        seg, off = self._mesh
        cols = [list(map(str, seg.tolist())), _fmt(off), _fmt(self.evaluate(self._mesh))]
        comment = f"method={self.method} sigma={format(self.sigma, '.12g')}"
        _write_table(path, ["segment", "offset", "value"], cols, comment)


def intensity_network(p: MarkedPointPattern, k: KernelSpec) -> NetworkIntensityEstimate:
    return NetworkIntensityEstimate(p, k)


def bandwidth_scott(p: MarkedPointPattern) -> tuple[float, float]:
    """Scott's rule of thumb, per axis: population std times n^(-1/6)."""
    if p.n < 2:
        raise ValidationError("Scott's rule needs at least 2 points")
    xy = p.coords()
    s = xy.std(axis=0)
    if s[0] == 0.0 or s[1] == 0.0:
        raise ValidationError("degenerate pattern: zero coordinate spread on an axis")
    f = p.n ** (-1.0 / 6.0)
    return float(s[0] * f), float(s[1] * f)


def cvl_criterion(p: MarkedPointPattern, lam) -> float:
    """|sum of reciprocal intensities at the data points - domain size|.

    Zero when the intensity evaluable equals n/size at every data point.
    """
    vals = eval_intensity(lam, p)
    if not np.all(vals > 0):  # NaN fails the test too
        raise ValidationError("intensity must be positive at all data points")
    return float(abs(np.sum(1.0 / vals) - p.domain_size))


def bandwidth_cvl(
    p: MarkedPointPattern,
    dims=(128, 128),
    interval: tuple[float, float] = None,
) -> float:
    """Bandwidth minimizing the reciprocal-intensity mass-balance criterion
    over a logarithmic grid of 30 candidates, using the uniformly-corrected
    estimator with the Gaussian kernel; ties go to the smaller bandwidth."""
    _check_planar(p)
    if p.n < 1:
        raise ValidationError("bandwidth selection needs at least one point")
    if interval is None:
        side = min(p.domain.width, p.domain.height)
        interval = (side / 100.0, side / 2.0)
    lo, hi = interval
    if not (0 < lo < hi):
        raise ValidationError(f"empty bandwidth search interval ({lo}, {hi})")
    best_sigma, best_val = None, np.inf
    for sigma in np.geomspace(lo, hi, 30):
        est = intensity_uniform(p, KernelSpec(float(sigma)), dims)
        val = cvl_criterion(p, est)
        if val < best_val:
            best_sigma, best_val = float(sigma), val
    return best_sigma


def eval_intensity(lam, p: MarkedPointPattern) -> np.ndarray:
    """Evaluate an intensity specifier at every point of a pattern.

    Accepts a positive constant, a per-point array, a raster or network
    estimate, or a callable (planar: f(x, y); network: f(segment, offset)).
    """
    n = p.n
    if isinstance(lam, numbers.Real) and not isinstance(lam, bool):
        return np.full(n, float(lam))
    if isinstance(lam, np.ndarray):
        if lam.shape != (n,):
            raise ValidationError(f"per-point intensity array has shape {lam.shape}, need ({n},)")
        return lam.astype(float)
    if isinstance(lam, IntensityEstimate):
        return lam.evaluate(p.coords()) if n else np.zeros(0)
    if isinstance(lam, NetworkIntensityEstimate):
        return lam._at(p.seg_off()) if n else np.zeros(0)
    if callable(lam):
        return _elementwise(lam, *(p.seg_off() if p.is_network else p.coords().T))
    raise ValidationError(f"cannot interpret {type(lam).__name__} as an intensity")


def _elementwise(f, *args) -> np.ndarray:
    """f over the broadcast arguments, as floats: one vectorized call, or one
    scalar call per element when f rejects arrays (TypeError, ValueError) or
    returns the wrong shape. Any other exception from f propagates."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    try:
        vals = np.asarray(f(*args), dtype=float)
        if vals.shape == shape:
            return vals
    except (TypeError, ValueError):
        pass
    flat = [a.ravel() for a in np.broadcast_arrays(*args)]
    return np.array([float(f(*v)) for v in zip(*flat)]).reshape(shape)
