"""Dependency-free SVG plotting for curves and envelope bands.

Plots are static documentation artifacts: polyline curves, a shaded band
polygon, and tick-labeled axes. Output is deterministic for fixed inputs.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["envelope_panels_svg", "curves_svg"]

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 54, 14, 26, 34


def _span(lo: float, hi: float) -> tuple:
    """(s (hi - lo), s): s is 1, or 1/2 when hi - lo overflows."""
    d = hi - lo
    return (d, 1.0) if d < math.inf else (hi / 2 - lo / 2, 0.5)


def _nice_ticks(lo: float, hi: float) -> list:
    """Ticks at a 1-2-2.5-5 step in [lo, hi]; none where no such step covers a fifth of hi - lo."""
    d, s = _span(lo, hi)
    raw = d / (5 * s)
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 0.0
    step = next((mult * mag for mult in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= mult * mag), 0.0)
    if not step:
        return []
    start = math.ceil(lo / step) * step
    ticks = []
    t, stop = start, min(hi + 1e-12 * step, sys.float_info.max)  # past the float range, t ends at inf
    while t <= stop:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        if t + step == t:  # a step below the values' spacing never moves t
            break
        t += step
    return ticks


def _fmt(v: float) -> str:
    return format(v, ".6g")


class _Panel:
    def __init__(self, x0, y0, width, height, xlim, ylim):
        self.x0, self.y0 = x0, y0
        self.w, self.h = width, height
        self.xlim, self.ylim = xlim, ylim
        self._xs, self._ys = _span(*xlim), _span(*ylim)

    def px(self, x):
        (d, s), lo = self._xs, self.xlim[0]
        return self.x0 + _MARGIN_L + (x * s - lo * s) / d * (self.w - _MARGIN_L - _MARGIN_R)

    def py(self, y):
        (d, s), lo = self._ys, self.ylim[0]
        return self.y0 + self.h - _MARGIN_B - (y * s - lo * s) / d * (self.h - _MARGIN_T - _MARGIN_B)


def _finite_runs(*arrays):
    """(start, stop) of each maximal nonempty run where every array is finite."""
    ok = np.logical_and.reduce([np.isfinite(a) for a in arrays])
    edges = np.nonzero(np.diff(ok, prepend=False, append=False))[0].tolist()
    return list(zip(edges[::2], edges[1::2]))


def _polyline(panel, x, y, stroke, width, dash=None):
    parts = []
    for a, b in _finite_runs(y):
        pts = " ".join(f"{panel.px(x[i]):.2f},{panel.py(y[i]):.2f}" for i in range(a, b))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"{dash_attr}/>'
        )
    return parts


def _band_polygon(panel, x, lo, hi, fill):
    parts = []
    for a, b in _finite_runs(lo, hi):
        fwd = [f"{panel.px(x[i]):.2f},{panel.py(hi[i]):.2f}" for i in range(a, b)]
        back = [f"{panel.px(x[i]):.2f},{panel.py(lo[i]):.2f}" for i in range(b - 1, a - 1, -1)]
        parts.append(f'<polygon points="{" ".join(fwd + back)}" fill="{fill}" stroke="none"/>')
    return parts


def _axes(panel, label):
    parts = []
    x0, x1 = panel.px(panel.xlim[0]), panel.px(panel.xlim[1])
    y0, y1 = panel.py(panel.ylim[0]), panel.py(panel.ylim[1])
    parts.append(
        f'<rect x="{x0:.2f}" y="{y1:.2f}" width="{x1 - x0:.2f}" height="{y0 - y1:.2f}" '
        'fill="none" stroke="#444" stroke-width="1"/>'
    )
    for t in _nice_ticks(*panel.xlim):
        px = panel.px(t)
        parts.append(f'<line x1="{px:.2f}" y1="{y0:.2f}" x2="{px:.2f}" y2="{y0 + 4:.2f}" stroke="#444"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{y0 + 16:.2f}" font-size="10" text-anchor="middle" '
            f'fill="#222">{_fmt(t)}</text>'
        )
    for t in _nice_ticks(*panel.ylim):
        py = panel.py(t)
        parts.append(f'<line x1="{x0 - 4:.2f}" y1="{py:.2f}" x2="{x0:.2f}" y2="{py:.2f}" stroke="#444"/>')
        parts.append(
            f'<text x="{x0 - 6:.2f}" y="{py + 3:.2f}" font-size="10" text-anchor="end" '
            f'fill="#222">{_fmt(t)}</text>'
        )
    parts.append(
        f'<text x="{x0 + 4:.2f}" y="{y1 + 14:.2f}" font-size="11" fill="#000">{label}</text>'
    )
    return parts


def _limits(values):
    finite = values[np.isfinite(values)]
    if len(finite) == 0:
        return (0.0, 1.0)
    lo, hi = float(finite.min()), float(finite.max())
    # a flat range, or one too narrow for a nonzero tick step, is widened by 1,
    # or past 2^51, where a fifth of that moves no tick, by 2^-51 of the value
    for pad in (0.0, max(0.5, 2.0**-52 * abs(lo))):
        d, s = _span(lo - pad, hi + pad)
        lims = max(lo - pad - 0.06 / s * d, -sys.float_info.max), min(hi + pad + 0.06 / s * d, sys.float_info.max)
        if _nice_ticks(*lims):
            return lims


def _write_svg(path, parts, title, width, height):
    """Write one SVG document: a white page of width x height, the title
    centred in its top band, then the body parts."""
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="15" font-size="12" text-anchor="middle" fill="#000">{title}</text>',
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(head + parts + ["</svg>"]) + "\n")


def envelope_panels_svg(path, panels, title):
    """Stacked 520 x 190 panels, one per (label, EnvelopeBand), under a title."""
    head = 22
    parts = []
    for idx, (label, band) in enumerate(panels):
        stack = [band.lo, band.hi, band.mean]
        if band.observed is not None:
            stack.append(band.observed.values)
        ylim = _limits(np.concatenate(stack))
        panel = _Panel(0, head + idx * 190, 520, 190, (float(band.r[0]), float(band.r[-1])), ylim)
        parts += _band_polygon(panel, band.r, band.lo, band.hi, "#c9d8ef")
        parts += _polyline(panel, band.r, band.mean, "#1f4e9c", 1.5)
        if band.observed is not None:
            parts += _polyline(panel, band.r, band.observed.values, "#b3312a", 1.5)
        parts += _axes(panel, label)
    _write_svg(path, parts, title, 520, head + 190 * len(panels))


def curves_svg(path, curves, title):
    """Single 520 x 260 panel with one polyline per (label, SummaryCurve), under a title."""
    colors = ["#1f4e9c", "#b3312a", "#2a7a2a", "#7a4fa3", "#a3682a", "#2a7a7a"]
    head = 22
    allvals = np.concatenate([c.values for _, c in curves])
    r0 = curves[0][1].r
    ylim = _limits(allvals)
    panel = _Panel(0, head, 520, 260, (float(r0[0]), float(r0[-1])), ylim)
    parts = []
    for i, (label, curve) in enumerate(curves):
        col = colors[i % len(colors)]
        parts += _polyline(panel, curve.r, curve.values, col, 1.5)
        parts.append(
            f'<text x="{panel.px(panel.xlim[0]) + 6:.2f}" y="{head + 16 + 13 * i}" '
            f'font-size="10" fill="{col}">{label}</text>'
        )
        if curve.theoretical is not None:
            parts += _polyline(panel, curve.r, curve.theoretical, "#888", 1.0, dash="4,3")
    parts += _axes(panel, "")
    _write_svg(path, parts, title, 520, head + 260)
