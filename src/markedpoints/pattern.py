"""Marked point pattern data model, validation, type splitting, mark moments, CSV I/O.

A pattern lives either in a planar rectangle or on a linear network; every
point may carry a categorical type label and/or a real-valued mark.
Patterns are immutable by convention once validated.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import LinearNetwork, NetworkLocation, PlanarWindow

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
    """Finite marked point pattern on a planar window or a linear network."""

    def __init__(self, domain, points):
        if not isinstance(domain, (PlanarWindow, LinearNetwork)):
            raise ValidationError(f"unsupported domain type {type(domain).__name__}")
        self.domain = domain
        self.points = list(points)
        self._coords = None

    def __len__(self):
        return len(self.points)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def is_network(self) -> bool:
        return isinstance(self.domain, LinearNetwork)

    @property
    def domain_size(self) -> float:
        """Window area, or total network length when the domain is a network."""
        return self.domain.total_length if self.is_network else self.domain.area

    def locations(self):
        return [p.location for p in self.points]

    def coords(self) -> np.ndarray:
        """(n, 2) planar coordinates; network locations are embedded in the plane."""
        if self._coords is None:
            if self.is_network:
                self._coords = self.domain.location_xy(self.locations())
            else:
                self._coords = np.array(
                    [(p.location[0], p.location[1]) for p in self.points], dtype=float
                ).reshape(-1, 2)
        return self._coords

    def marks(self) -> np.ndarray:
        """Marks as a float array; raises if any point lacks one."""
        vals = [p.mark for p in self.points]
        if any(v is None for v in vals):
            raise ValidationError("pattern has points without marks")
        return np.asarray(vals, dtype=float)

    def has_marks(self) -> bool:
        return self.n > 0 and all(p.mark is not None for p in self.points)

    def labels(self) -> list:
        return [p.type_label for p in self.points]

    def subset(self, indices) -> "MarkedPointPattern":
        return MarkedPointPattern(self.domain, [self.points[i] for i in indices])

    def with_marks(self, marks) -> "MarkedPointPattern":
        marks = np.asarray(marks, dtype=float)
        if len(marks) != self.n:
            raise ValidationError("marks length does not match pattern size")
        pts = [
            MarkedPoint(p.location, p.type_label, float(m))
            for p, m in zip(self.points, marks)
        ]
        return MarkedPointPattern(self.domain, pts)

    def with_labels(self, labels) -> "MarkedPointPattern":
        if len(labels) != self.n:
            raise ValidationError("labels length does not match pattern size")
        pts = [
            MarkedPoint(p.location, str(lab), p.mark)
            for p, lab in zip(self.points, labels)
        ]
        return MarkedPointPattern(self.domain, pts)


def validate_pattern(p: MarkedPointPattern) -> MarkedPointPattern:
    """Check all pattern invariants; returns the pattern unchanged when valid.

    Reports the index of the first offending point for domain violations,
    non-finite marks, and mixed location kinds.
    """
    network = p.is_network
    for i, pt in enumerate(p.points):
        loc = pt.location
        if network:
            if not isinstance(loc, NetworkLocation):
                raise ValidationError(f"point {i}: planar location in a network pattern")
            try:
                p.domain.validate_location(loc)
            except ValidationError as e:
                raise ValidationError(f"point {i} outside domain: {e}") from e
        else:
            if isinstance(loc, NetworkLocation):
                raise ValidationError(f"point {i}: network location in a planar pattern")
            x, y = float(loc[0]), float(loc[1])
            if not bool(p.domain.contains(x, y)):
                raise ValidationError(f"point {i} at ({x}, {y}) outside window")
        if pt.mark is not None and not math.isfinite(pt.mark):
            raise ValidationError(f"point {i} has non-finite mark {pt.mark}")
    return p


def split_by_type(p: MarkedPointPattern) -> dict:
    """Partition by type label, lexicographic label order; sub-patterns keep the full domain."""
    groups: dict[str, list] = {}
    for i, pt in enumerate(p.points):
        if pt.type_label is None:
            raise ValidationError(f"point {i} has no type label")
        groups.setdefault(pt.type_label, []).append(pt)
    return {
        lab: MarkedPointPattern(p.domain, groups[lab]) for lab in sorted(groups)
    }


def mark_moments(p: MarkedPointPattern) -> MarkSummaryStats:
    """Mean and population (1/N) variance of the marks that are present."""
    vals = np.asarray([pt.mark for pt in p.points if pt.mark is not None], dtype=float)
    if len(vals) == 0:
        raise ValidationError("pattern has no marks")
    mu = float(vals.mean())
    return MarkSummaryStats(mu, float(np.mean((vals - mu) ** 2)), int(len(vals)))


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def save_pattern_csv(p: MarkedPointPattern, path):
    """Pattern CSV: x,y[,type][,mark] planar; segment,offset[,type][,mark] network.

    Missing marks are written as empty fields.
    """
    has_type = any(pt.type_label is not None for pt in p.points)
    has_mark = any(pt.mark is not None for pt in p.points)
    cols = (["segment", "offset"] if p.is_network else ["x", "y"])
    if has_type:
        cols.append("type")
    if has_mark:
        cols.append("mark")
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(cols)
        for pt in p.points:
            if p.is_network:
                row = [str(pt.location.segment), _fmt(pt.location.offset)]
            else:
                row = [_fmt(pt.location[0]), _fmt(pt.location[1])]
            if has_type:
                row.append("" if pt.type_label is None else pt.type_label)
            if has_mark:
                row.append("" if pt.mark is None else _fmt(pt.mark))
            wr.writerow(row)


def load_pattern_csv(path, domain) -> MarkedPointPattern:
    """Read a pattern CSV (header required) against the given domain."""
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        try:
            header = [h.strip().lower() for h in next(rd)]
        except StopIteration:
            raise ValidationError(f"empty pattern file {path}") from None
        rows = [(rd.line_num, r) for r in rd if r]

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
    pts = []
    for line, r in rows:
        try:
            if network:
                loc = NetworkLocation(int(r[col("segment")]), float(r[col("offset")]))
            else:
                loc = (float(r[col("x")]), float(r[col("y")]))
            mark = None
            if mi is not None and mi < len(r) and r[mi].strip() != "":
                mark = float(r[mi])
        except (ValueError, IndexError):
            raise ValidationError(f"{path} line {line}: malformed or missing field in {r}") from None
        lab = None
        if ti is not None and ti < len(r) and r[ti].strip() != "":
            lab = r[ti].strip()
        pts.append(MarkedPoint(loc, lab, mark))
    return validate_pattern(MarkedPointPattern(domain, pts))
