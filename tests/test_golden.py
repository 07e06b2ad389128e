"""Golden artifacts: a fresh run of tests/golden/regen.py against the committed
set. Under the numpy and scipy that wrote the set every file has the same
bytes; under other versions a CSV keeps its text fields and NaN positions,
and each numeric column stays within 1e-12 of its largest magnitude."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import markedpoints

GOLDEN = Path(__file__).resolve().parent / "golden"
FILES = sorted(str(p.relative_to(GOLDEN)) for p in GOLDEN.glob("*/*"))
# the declared size of the committed set (README, ROADMAP item 5), in bytes
BUDGET = 220_000


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(markedpoints.__file__)))
    proc = subprocess.run(
        [sys.executable, str(GOLDEN / "regen.py"), str(out)], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    return out


def _tables(text: str):
    """The '# key=value ...' comment line, the header and the data rows of
    a CSV, each as a table of fields."""
    lines = text.splitlines()
    comment = [lines.pop(0)[1:].replace("=", " ").split()] if lines and lines[0].startswith("#") else []
    return comment, [lines[0].split(",")], [line.split(",") for line in lines[1:]]


def _assert_close(want_rows, got_rows):
    assert [len(r) for r in got_rows] == [len(r) for r in want_rows]
    for w, g in zip(zip(*want_rows), zip(*got_rows)):
        try:
            w, g = np.array(w, dtype=float), np.array(g, dtype=float)
        except ValueError:  # a text field
            assert g == w
            continue
        assert np.array_equal(np.isnan(w), np.isnan(g))
        finite = np.isfinite(w)
        tol = 1e-12 * np.max(np.abs(w[finite]), initial=0.0)
        with np.errstate(invalid="ignore"):  # inf - inf where both are inf
            assert np.all((w == g) | (np.abs(w - g) <= tol) | np.isnan(w))


def test_golden_set_within_budget():
    # every file under tests/golden/ except the script that writes them
    assert sum(p.stat().st_size for p in GOLDEN.rglob("*") if p.is_file() and p.name != "regen.py") <= BUDGET


def test_golden_file_set(fresh):
    assert sorted(str(p.relative_to(fresh)) for p in fresh.glob("*/*")) == FILES


@pytest.mark.parametrize("name", FILES)
def test_golden_artifact(fresh, name):
    want, got = (GOLDEN / name).read_bytes(), (fresh / name).read_bytes()
    if json.loads((GOLDEN / "versions.json").read_text()) == json.loads((fresh / "versions.json").read_text()):
        assert got == want
    elif name.endswith(".csv"):
        for w, g in zip(_tables(want.decode()), _tables(got.decode())):
            _assert_close(w, g)
    else:
        pytest.skip("a plot is compared byte for byte only under the numpy and scipy that wrote it")


def test_golden_tolerance_across_versions():
    # the comparison used when numpy or scipy differ from the recorded ones
    text = (GOLDEN / "summary_f_planar" / "f.csv").read_text()
    want = _tables(text)
    nudged = _tables(text)
    rows = nudged[2]
    rows[5][1] = repr(float(rows[5][1]) * (1 + 1e-14))
    for w, g in zip(want, nudged):
        _assert_close(w, g)
    rows[5][1] = repr(float(rows[5][1]) * (1 + 1e-9))
    with pytest.raises(AssertionError):
        _assert_close(want[2], nudged[2])
    rows[5][1] = "nan"
    with pytest.raises(AssertionError):
        _assert_close(want[2], nudged[2])
