"""Marked point pattern data model, type splitting, mark moments, CSV I/O.

A pattern lives either in a planar rectangle or on a linear network; every
point may carry a categorical type label and/or a real-valued mark.
Locations are checked when a pattern is built, and patterns are immutable
by convention.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .geometry import (
    LinearNetwork,
    NetworkLocation,
    PlanarWindow,
    _embed,
    _loc_arrays,
    _locations,
    _seg_off,
    _xy,
)

__all__ = [
    "MarkedPoint",
    "MarkedPointPattern",
    "MarkSummaryStats",
    "split_by_type",
    "mark_moments",
    "load_pattern_csv",
    "save_pattern_csv",
]


@dataclass(frozen=True)
class MarkedPoint:
    """A located point with optional type label and optional real mark."""

    location: tuple | NetworkLocation
    type_label: str | None = None
    mark: float | None = None


@dataclass(frozen=True)
class MarkSummaryStats:
    """First two mark moments; variance uses the 1/N (population) convention."""

    mean_mark: float
    var_mark: float
    count: int


class MarkedPointPattern:
    """Finite marked point pattern on a planar window or a linear network.

    Stored as columns: planar coordinates xy (n, 2), or network segment
    and offset arrays; marks as floats, NaN where a point has none; labels.
    A point list given to the constructor is converted to columns at once
    and kept as the `points` view; otherwise `points` and `locations()` are
    built from the columns on request.
    """

    def __init__(self, domain, points):
        network = _is_network(domain)
        pts = list(points)
        wrong = [i for i, pt in enumerate(pts) if isinstance(pt.location, NetworkLocation) != network]
        if wrong:
            kinds = ("planar", "network") if network else ("network", "planar")
            raise ValidationError(f"point {wrong[0]}: {kinds[0]} location in a {kinds[1]} pattern")
        locs = [pt.location for pt in pts]
        loc = _loc_arrays(domain, locs) if network else [(xy[0], xy[1]) for xy in locs]
        marks = [np.nan if pt.mark is None else pt.mark for pt in pts]
        q = MarkedPointPattern.from_columns(domain, loc, marks, [pt.type_label for pt in pts])
        self.domain, self._points, self._n, self._cols = domain, pts, q.n, q._cols

    @classmethod
    def from_columns(cls, domain, loc, marks=None, labels=None):
        """Pattern from columns: loc is an (n, 2) coordinate array on a window or a
        (segment, offset) pair of arrays on a network; marks is a float array, NaN
        where a point has no mark; labels holds a str or None per point. A location
        off the network or outside the closed window (NaN included) raises ValidationError."""
        network = _is_network(domain)
        loc = _seg_off(domain, *loc) if network else _xy(domain, loc)
        n = len(loc[0]) if network else len(loc)
        marks = np.full(n, np.nan) if marks is None else np.array(marks, dtype=float)
        labels = np.array([None] * n if labels is None else list(labels), dtype=object)
        if not len(marks) == len(labels) == n:
            raise ValidationError("column lengths do not match the pattern size")
        p = cls.__new__(cls)
        p.domain, p._points, p._n, p._cols = domain, None, n, (loc, marks, labels)
        return p

    @property
    def points(self) -> list:
        """MarkedPoint view of the pattern, built once on request."""
        if self._points is None:
            loc, marks, labels = self._cols
            locs = _locations(*loc) if self.is_network else [tuple(xy) for xy in loc.tolist()]
            mk = [None if math.isnan(m) else m for m in marks.tolist()]
            self._points = [MarkedPoint(*v) for v in zip(locs, labels.tolist(), mk)]
        return self._points

    def __len__(self):
        return self._n

    @property
    def n(self) -> int:
        return self._n

    @property
    def is_network(self) -> bool:
        return isinstance(self.domain, LinearNetwork)

    @property
    def domain_size(self) -> float:
        """Window area, or total network length when the domain is a network."""
        return self.domain.total_length if self.is_network else self.domain.area

    def locations(self):
        return [p.location for p in self.points]

    def seg_off(self) -> tuple[np.ndarray, np.ndarray]:
        """(segment, offset) columns of a network pattern."""
        if not self.is_network:
            raise ValidationError("segment/offset columns exist for network patterns only")
        return self._cols[0]

    def coords(self) -> np.ndarray:
        """(n, 2) planar coordinates; network locations are embedded in the plane."""
        loc = self._cols[0]
        return _embed(self.domain, *loc) if self.is_network else loc

    def marks(self) -> np.ndarray:
        """Marks as a float array; a missing (NaN) mark raises with its position."""
        marks = self._cols[1]
        _refuse_nan(marks)
        return marks.copy()

    def has_marks(self) -> bool:
        return self.n > 0 and not np.isnan(self._cols[1]).any()

    def labels(self) -> list:
        return self._cols[2].tolist()

    def subset(self, indices) -> "MarkedPointPattern":
        """The points at indices, each in 0 .. n - 1, in the order given."""
        idx = np.asarray(indices)
        if idx.dtype == bool or np.any((idx < 0) | (idx >= self.n)):
            raise ValidationError(f"subset takes point indices in 0 .. {self.n - 1}, not a mask or an index out of range")
        idx = idx.astype(np.intp, copy=False).reshape(-1)
        loc, marks, labels = self._cols
        loc = (loc[0][idx], loc[1][idx]) if self.is_network else loc[idx]
        return MarkedPointPattern.from_columns(self.domain, loc, marks[idx], labels[idx])

    def with_marks(self, marks) -> "MarkedPointPattern":
        if len(marks) != self.n:
            raise ValidationError("marks length does not match pattern size")
        loc, _, labels = self._cols
        return MarkedPointPattern.from_columns(self.domain, loc, marks, labels)

    def with_labels(self, labels) -> "MarkedPointPattern":
        if len(labels) != self.n:
            raise ValidationError("labels length does not match pattern size")
        loc, marks, _ = self._cols
        return MarkedPointPattern.from_columns(self.domain, loc, marks, map(str, labels))


def _is_network(domain) -> bool:
    """Whether domain is a linear network; raises unless it is a network or a window."""
    if not isinstance(domain, (PlanarWindow, LinearNetwork)):
        raise ValidationError(f"unsupported domain type {type(domain).__name__}")
    return isinstance(domain, LinearNetwork)


def split_by_type(p: MarkedPointPattern) -> dict:
    """Partition by type label, lexicographic label order; sub-patterns keep the full domain."""
    labels = p._cols[2]
    missing = np.nonzero(labels == None)[0]  # noqa: E711 -- elementwise test on an object array
    if len(missing):
        raise ValidationError(f"point {missing[0]} has no type label")
    keys, inv = np.unique(labels, return_inverse=True)
    return {lab: p.subset(np.nonzero(inv == k)[0]) for k, lab in enumerate(keys.tolist())}


def _refuse_nan(m: np.ndarray):
    """Raise ValidationError with the position of the first NaN mark."""
    bad = np.nonzero(np.isnan(m))[0]
    if len(bad):
        raise ValidationError(f"mark {bad[0]} is NaN: no mark statistic is defined")


def _moments(m: np.ndarray) -> tuple[float, float]:
    """Mean and population (1/N) variance of a nonempty float array from the
    values centred on their mean, less the centred sum's square (the corrected
    two-pass form of Chan, Golub & LeVeque 1983); equal values give exactly 0.

    A NaN mark raises ValidationError with its position. Marks whose largest
    magnitude or whose range has a square past the float range (about
    1.34e154), or whose variance overflows, raise NumericalError: their pair
    products would overflow."""
    _refuse_nan(m)
    lo, hi = float(m.min()), float(m.max())
    big = max(-lo, hi, hi - lo)
    if big * big == np.inf:
        raise NumericalError(f"marks from {lo:g} to {hi:g}: pair products of marks this large overflow")
    mu = float(m.mean())
    if lo == hi:
        return mu, 0.0
    d = m - mu
    with np.errstate(over="ignore"):
        var = float((np.sum(d * d) - d.sum() ** 2 / len(d)) / len(d))
    if var == np.inf:
        raise NumericalError(f"marks from {lo:g} to {hi:g}: their variance overflows")
    return mu, var


def mark_moments(p: MarkedPointPattern) -> MarkSummaryStats:
    """Mean and population (1/N) variance of the marks; a missing mark raises."""
    if np.isnan(p._cols[1]).all():
        raise ValidationError("pattern has no marks" + (" (mark 0 is NaN)" if p.n else ""))
    return MarkSummaryStats(*_moments(p.marks()), p.n)


def _fmt(values) -> list:
    return [format(v, ".12g") for v in values.tolist()]


def _write_table(path, header, cols, comment=None):
    """CSV file: an optional '# comment' line, the header row, then one row
    per index of the equal-length columns of preformatted strings."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(zip(*cols))


def save_pattern_csv(p: MarkedPointPattern, path):
    """Pattern CSV: x,y[,type][,mark] planar; segment,offset[,type][,mark] network.

    Numbers take 12 significant digits, or a planar coordinate its shortest round-trip
    text where 12 digits read back outside the window. Missing (NaN) marks are empty
    fields; an infinite mark, which the loader refuses, raises ValidationError.
    """
    loc, marks, labels = p._cols
    bad = np.nonzero(np.isinf(marks))[0]
    if len(bad):
        raise ValidationError(f"point {bad[0]} has non-finite mark {marks[bad[0]]}")
    if p.is_network:
        header, cols = ["segment", "offset"], [[str(s) for s in loc[0].tolist()], _fmt(loc[1])]
    else:
        header, cols = ["x", "y"], [_fmt(loc[:, 0]), _fmt(loc[:, 1])]
        back = np.array(cols, dtype=float)
        out = [~p.domain.contains(back[0], loc[:, 1]), ~p.domain.contains(loc[:, 0], back[1])]
        for axis, k in zip(*np.nonzero(out)):
            cols[axis][k] = repr(float(loc[k, axis]))
    labels = labels.tolist()
    if any(lab is not None for lab in labels):
        header.append("type")
        cols.append(["" if lab is None else lab for lab in labels])
    if not np.isnan(marks).all():
        header.append("mark")
        cols.append(["" if m == "nan" else m for m in _fmt(marks)])  # NaN formats as "nan"
    _write_table(path, header, cols)


def load_pattern_csv(path, domain) -> MarkedPointPattern:
    """Read a pattern CSV (header required) against the given domain; an empty mark
    field is a missing (NaN) mark, a non-finite one raises with its point's index."""
    with open(path, newline="", encoding="utf-8") as fh:
        rd = csv.reader(fh)
        try:
            header = [h.strip().lower() for h in next(rd)]
            rows = [(rd.line_num, r) for r in rd if r]
        except StopIteration:
            raise ValidationError(f"empty pattern file {path}") from None
        except UnicodeDecodeError:
            raise ValidationError(f"pattern file {path} is not UTF-8 text") from None

    def col(name):
        return header.index(name) if name in header else None

    network = col("segment") is not None and col("offset") is not None
    planar = col("x") is not None and col("y") is not None
    if not (network or planar):
        raise ValidationError(
            f"pattern file {path} must have columns x,y or segment,offset (got {header})"
        )
    if network and not isinstance(domain, LinearNetwork):
        raise ValidationError(f"pattern file {path} is network-valued but domain is planar")
    if planar and isinstance(domain, LinearNetwork):
        raise ValidationError(f"pattern file {path} is planar but domain is a network")

    ti, mi = col("type"), col("mark")
    ca, cb = (col("segment"), col("offset")) if network else (col("x"), col("y"))
    first, second, marks, labels = [], [], [], []
    for line, r in rows:
        try:
            first.append(int(r[ca]) if network else float(r[ca]))
            second.append(float(r[cb]))
            mark = r[mi].strip() if mi is not None and mi < len(r) else ""
            marks.append(float(mark) if mark else np.nan)
        except (ValueError, IndexError):
            raise ValidationError(f"{path} line {line}: malformed or missing field in {r}") from None
        if mark and not math.isfinite(marks[-1]):
            raise ValidationError(f"point {len(marks) - 1} has non-finite mark {marks[-1]}")
        lab = r[ti].strip() if ti is not None and ti < len(r) else ""
        labels.append(lab or None)
    loc = (first, second) if network else np.column_stack([first, second])
    return MarkedPointPattern.from_columns(domain, loc, marks, labels)
