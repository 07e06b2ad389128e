"""Marked point pattern data model, validation, type splitting, mark moments, CSV I/O.

A pattern lives either in a planar rectangle or on a linear network; every
point may carry a categorical type label and/or a real-valued mark.
Patterns are immutable by convention once validated.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import (
    LinearNetwork,
    NetworkLocation,
    PlanarWindow,
    _check_seg_off,
    _embed,
    _loc_arrays,
    _locations,
)

__all__ = [
    "MarkedPoint",
    "MarkedPointPattern",
    "MarkSummaryStats",
    "validate_pattern",
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
    and offset arrays; marks as floats with a presence mask; type labels.
    `points` and `locations()` are views built from the columns on request.
    A point list given to the constructor is kept as it is until a column
    is first needed, so that validate_pattern can report a malformed point.
    """

    def __init__(self, domain, points):
        if not isinstance(domain, (PlanarWindow, LinearNetwork)):
            raise ValidationError(f"unsupported domain type {type(domain).__name__}")
        self.domain = domain
        self._points = list(points)
        self._n = len(self._points)
        self._cols = None

    @classmethod
    def from_columns(cls, domain, loc, marks=None, labels=None, has_mark=None):
        """Pattern from columns: loc is an (n, 2) coordinate array on a window
        or a (segment, offset) pair of arrays on a network; marks is a float
        array, present where has_mark is true (everywhere by default);
        labels holds a str or None per point."""
        p = cls(domain, ())
        if p.is_network:
            loc = (np.array(loc[0], dtype=int), np.array(loc[1], dtype=float))
            _check_seg_off(domain, *loc)
        else:
            loc = np.array(loc, dtype=float).reshape(-1, 2)
        n = len(loc[0]) if p.is_network else len(loc)
        has = np.full(n, marks is not None) if has_mark is None else np.array(has_mark, dtype=bool)
        marks = np.full(n, np.nan) if marks is None else np.array(marks, dtype=float)
        labels = np.array([None] * n if labels is None else list(labels), dtype=object)
        if not len(marks) == len(has) == len(labels) == n:
            raise ValidationError("column lengths do not match the pattern size")
        p._points, p._n, p._cols = None, n, (loc, marks, has, labels)
        return p

    def _columns(self):
        """(loc, marks, has_mark, labels), converted from the point list on first use."""
        if self._cols is None:
            pts = self._points
            if self.is_network:
                loc = _loc_arrays(self.domain, [pt.location for pt in pts])
            else:
                loc = np.array([(pt.location[0], pt.location[1]) for pt in pts], dtype=float)
            has = np.array([pt.mark is not None for pt in pts], dtype=bool)
            marks = np.array([np.nan if pt.mark is None else pt.mark for pt in pts], dtype=float)
            labels = [pt.type_label for pt in pts]
            self._cols = MarkedPointPattern.from_columns(self.domain, loc, marks, labels, has)._cols
        return self._cols

    @property
    def points(self) -> list:
        """MarkedPoint view of the pattern, built once on request."""
        if self._points is None:
            loc, marks, has, labels = self._cols
            locs = _locations(*loc) if self.is_network else [tuple(xy) for xy in loc.tolist()]
            mk = [m if h else None for m, h in zip(marks.tolist(), has.tolist())]
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
        return self._columns()[0]

    def coords(self) -> np.ndarray:
        """(n, 2) planar coordinates; network locations are embedded in the plane."""
        loc = self._columns()[0]
        return _embed(self.domain, *loc) if self.is_network else loc

    def marks(self) -> np.ndarray:
        """Marks as a float array; raises if any point lacks one."""
        _, marks, has, _ = self._columns()
        if not has.all():
            raise ValidationError("pattern has points without marks")
        return marks.copy()

    def has_marks(self) -> bool:
        return self.n > 0 and bool(self._columns()[2].all())

    def labels(self) -> list:
        return self._columns()[3].tolist()

    def subset(self, indices) -> "MarkedPointPattern":
        idx = np.asarray(indices, dtype=np.intp).reshape(-1)
        loc, marks, has, labels = self._columns()
        loc = (loc[0][idx], loc[1][idx]) if self.is_network else loc[idx]
        return MarkedPointPattern.from_columns(self.domain, loc, marks[idx], labels[idx], has[idx])

    def with_marks(self, marks) -> "MarkedPointPattern":
        if len(marks) != self.n:
            raise ValidationError("marks length does not match pattern size")
        loc, _, _, labels = self._columns()
        return MarkedPointPattern.from_columns(self.domain, loc, marks, labels)

    def with_labels(self, labels) -> "MarkedPointPattern":
        if len(labels) != self.n:
            raise ValidationError("labels length does not match pattern size")
        loc, marks, has, _ = self._columns()
        return MarkedPointPattern.from_columns(self.domain, loc, marks, map(str, labels), has)


def validate_pattern(p: MarkedPointPattern) -> MarkedPointPattern:
    """Check all pattern invariants; returns the pattern unchanged when valid.

    Reports the index of the first offending point for domain violations,
    non-finite marks, and mixed location kinds.
    """
    network = p.is_network
    # only a point list can mix location kinds; columns have one kind
    for i, pt in enumerate(p._points if p._cols is None else ()):
        if isinstance(pt.location, NetworkLocation) != network:
            kinds = ("planar", "network") if network else ("network", "planar")
            raise ValidationError(f"point {i}: {kinds[0]} location in a {kinds[1]} pattern")
    # network locations are range-checked when their columns are formed
    loc, marks, has, _ = p._columns()
    if not network:
        bad = np.nonzero(~p.domain.contains(loc[:, 0], loc[:, 1]))[0]
        if len(bad):
            x, y = loc[bad[0]].tolist()
            raise ValidationError(f"point {bad[0]} at ({x}, {y}) outside window")
    bad = np.nonzero(has & ~np.isfinite(marks))[0]
    if len(bad):
        raise ValidationError(f"point {bad[0]} has non-finite mark {marks[bad[0]]}")
    return p


def split_by_type(p: MarkedPointPattern) -> dict:
    """Partition by type label, lexicographic label order; sub-patterns keep the full domain."""
    labels = p._columns()[3]
    missing = np.nonzero(labels == None)[0]  # noqa: E711 -- elementwise test on an object array
    if len(missing):
        raise ValidationError(f"point {missing[0]} has no type label")
    keys, inv = np.unique(labels, return_inverse=True)
    return {lab: p.subset(np.nonzero(inv == k)[0]) for k, lab in enumerate(keys.tolist())}


def _moments(m: np.ndarray) -> tuple[float, float]:
    """Mean and population (1/N) variance of a nonempty float array from the
    values centred on their mean, less the centred sum's square (the corrected
    two-pass form of Chan, Golub & LeVeque 1983); equal values give exactly 0."""
    mu = float(m.mean())
    if m.min() == m.max():
        return mu, 0.0
    d = m - mu
    return mu, float((np.sum(d * d) - d.sum() ** 2 / len(d)) / len(d))


def mark_moments(p: MarkedPointPattern) -> MarkSummaryStats:
    """Mean and population (1/N) variance of the marks that are present."""
    _, marks, has, _ = p._columns()
    vals = marks[has]
    if len(vals) == 0:
        raise ValidationError("pattern has no marks")
    return MarkSummaryStats(*_moments(vals), int(len(vals)))


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

    Missing marks are written as empty fields.
    """
    loc, marks, has, labels = p._columns()
    if p.is_network:
        header, cols = ["segment", "offset"], [[str(s) for s in loc[0].tolist()], _fmt(loc[1])]
    else:
        header, cols = ["x", "y"], [_fmt(loc[:, 0]), _fmt(loc[:, 1])]
    labels = labels.tolist()
    if any(lab is not None for lab in labels):
        header.append("type")
        cols.append(["" if lab is None else lab for lab in labels])
    if has.any():
        header.append("mark")
        cols.append([m if h else "" for m, h in zip(_fmt(marks), has.tolist())])
    _write_table(path, header, cols)


def load_pattern_csv(path, domain) -> MarkedPointPattern:
    """Read a pattern CSV (header required) against the given domain."""
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
    first, second, marks, has, labels = [], [], [], [], []
    for line, r in rows:
        try:
            first.append(int(r[ca]) if network else float(r[ca]))
            second.append(float(r[cb]))
            present = mi is not None and mi < len(r) and r[mi].strip() != ""
            marks.append(float(r[mi]) if present else np.nan)
        except (ValueError, IndexError):
            raise ValidationError(f"{path} line {line}: malformed or missing field in {r}") from None
        has.append(present)
        lab = None
        if ti is not None and ti < len(r) and r[ti].strip() != "":
            lab = r[ti].strip()
        labels.append(lab)
    loc = (first, second) if network else np.column_stack([first, second])
    return validate_pattern(MarkedPointPattern.from_columns(domain, loc, marks, labels, has))
