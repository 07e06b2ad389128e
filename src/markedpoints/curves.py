"""Summary curves: a statistic evaluated on a uniform r-grid, plus CSV round-trip."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .geometry import LinearNetwork, _check_cells
from .pattern import _fmt, _write_table

__all__ = ["SummaryCurve", "r_grid"]


def check_r_grid(r) -> np.ndarray:
    """r as a float array; raises unless it is a finite, strictly increasing
    1-D grid from 0."""
    r = np.asarray(r, dtype=float)
    # NaN fails every comparison, so the grid is checked by what must hold
    if r.ndim != 1 or len(r) < 2 or r[0] != 0.0 or not (np.all(np.diff(r) > 0) and r[-1] < np.inf):
        raise ValidationError("r grid must be finite, strictly increasing and start at 0")
    return r


def r_grid(r_max: float, bins: int = 512) -> np.ndarray:
    """Uniform grid of bins+1 values from 0 to r_max inclusive, at most
    geometry._MAX_CELLS of them."""
    if not 0 < r_max < np.inf or bins < 1:
        raise ValidationError(f"need a finite r_max > 0 and bins >= 1, got {r_max}, {bins}")
    _check_cells(bins + 1, "r grid")
    return np.linspace(0.0, float(r_max), bins + 1)


def default_r(domain, bins: int = 512) -> np.ndarray:
    """Default r-grid: up to a quarter of the shorter window side, or of the
    total network length capped at 250."""
    if isinstance(domain, LinearNetwork):
        return r_grid(min(250.0, domain.total_length / 4.0), bins)
    return r_grid(min(domain.width, domain.height) / 4.0, bins)


def _r_values(domain, r) -> np.ndarray:
    """The r grid of an estimator call: default_r(domain) for None, else r checked."""
    return check_r_grid(default_r(domain) if r is None else r)


@dataclass
class SummaryCurve:
    """A statistic on an r-grid; NaN marks r values where it is undefined."""

    r: np.ndarray
    values: np.ndarray
    statistic: str
    theoretical: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.r.ndim != 1 or self.r.shape != self.values.shape:
            raise ValidationError("r and values must be 1-D arrays of equal length")
        check_r_grid(self.r)
        if self.theoretical is not None:
            self.theoretical = np.asarray(self.theoretical, dtype=float)
            if self.theoretical.shape != self.r.shape:
                raise ValidationError("theoretical curve length mismatch")

    def to_csv(self, path):
        """Curve CSV; float metadata in the '#' line is written at 12
        significant digits, as the values are, and other metadata with str()."""
        fmt = lambda v: format(v, ".12g") if isinstance(v, float) else v
        items = "".join(f" {k}={fmt(v)}" for k, v in sorted(self.meta.items()))
        header, cols = ["r", "value"], [self.r, self.values]
        if self.theoretical is not None:
            header.append("theoretical")
            cols.append(self.theoretical)
        _write_table(path, header, map(_fmt, cols), f"statistic={self.statistic}{items}")

    @staticmethod
    def from_csv(path) -> "SummaryCurve":
        """Read a Curve CSV; a malformed file raises ValidationError naming the
        file, and the line where there is one."""
        with open(path, newline="") as fh:
            first = fh.readline()
            commented = first.startswith("#")
            meta = dict(tok.split("=", 1) for tok in first[1:].split() if "=" in tok) if commented else {}
            statistic = meta.pop("statistic", "unknown")
            header, above = (fh.readline(), 2) if commented else (first, 1)
            rd = csv.reader(fh)
            rows = [(above + rd.line_num, row) for row in rd if row]
        if not rows:
            raise ValidationError(f"curve file {path} has no rows")
        width = 3 if "theoretical" in [h.strip() for h in header.split(",")] else 2
        values = []
        for line, row in rows:
            try:
                values.append([float(row[k]) for k in range(width)])
            except (ValueError, IndexError):
                raise ValidationError(f"{path} line {line}: malformed or missing field in {row}") from None
        cols = np.array(values).T
        return SummaryCurve(cols[0], cols[1], statistic, cols[2] if width == 3 else None, meta)
