"""Pattern validation, type splitting, mark moments, CSV round-trips."""

import numpy as np
import pytest

from markedpoints import (
    LinearNetwork,
    MarkedPoint,
    MarkedPointPattern,
    NetworkLocation,
    ValidationError,
    load_pattern_csv,
    mark_moments,
    save_pattern_csv,
    split_by_type,
    validate_pattern,
)


def test_empty_pattern_valid(unit_square):
    p = MarkedPointPattern(unit_square, [])
    assert validate_pattern(p) is p


def test_out_of_domain_reports_index(unit_square):
    p = MarkedPointPattern(unit_square, [MarkedPoint((1.5, 0.5))])
    with pytest.raises(ValidationError, match="point 0"):
        validate_pattern(p)


def test_nan_mark_rejected(unit_square):
    p = MarkedPointPattern(unit_square, [MarkedPoint((0.5, 0.5), mark=float("nan"))])
    with pytest.raises(ValidationError, match="non-finite"):
        validate_pattern(p)


def test_mixed_domain_kinds_rejected(unit_square):
    p = MarkedPointPattern(unit_square, [MarkedPoint(NetworkLocation(0, 0.5))])
    with pytest.raises(ValidationError, match="network location"):
        validate_pattern(p)


def test_split_single_label(unit_square):
    p = MarkedPointPattern(
        unit_square, [MarkedPoint((0.1, 0.1), "a"), MarkedPoint((0.2, 0.2), "a")]
    )
    groups = split_by_type(p)
    assert list(groups) == ["a"]
    assert groups["a"].n == 2


def test_split_counts_and_partition(unit_square):
    pts = [
        MarkedPoint((0.1, 0.1), "a"),
        MarkedPoint((0.2, 0.2), "a"),
        MarkedPoint((0.3, 0.3), "b"),
    ]
    p = MarkedPointPattern(unit_square, pts)
    groups = split_by_type(p)
    assert {k: v.n for k, v in groups.items()} == {"a": 2, "b": 1}
    merged = sorted(
        (pt.location for g in groups.values() for pt in g.points), key=lambda t: t[0]
    )
    assert merged == sorted((pt.location for pt in pts), key=lambda t: t[0])
    # label order is lexicographic
    p2 = MarkedPointPattern(unit_square, list(reversed(pts)))
    assert list(split_by_type(p2)) == ["a", "b"]


def test_split_missing_label_raises(unit_square):
    p = MarkedPointPattern(unit_square, [MarkedPoint((0.1, 0.1))])
    with pytest.raises(ValidationError, match="type label"):
        split_by_type(p)


def test_mark_moments_hand_values(unit_square):
    p = MarkedPointPattern(
        unit_square, [MarkedPoint((0.1, 0.1), mark=2.0), MarkedPoint((0.2, 0.2), mark=4.0)]
    )
    stats = mark_moments(p)
    assert stats.mean_mark == 3.0
    assert stats.var_mark == 1.0
    assert stats.count == 2


def test_mark_moments_constant_and_single(unit_square):
    p = MarkedPointPattern(unit_square, [MarkedPoint((0.1, 0.1), mark=5.0)] * 3)
    assert mark_moments(p).var_mark == 0.0
    # 150 copies of 1.1 do not sum to 150 * 1.1, yet they do not vary
    p = MarkedPointPattern(unit_square, [MarkedPoint((0.1, 0.1), mark=1.1)] * 150)
    assert mark_moments(p).var_mark == 0.0
    p1 = MarkedPointPattern(unit_square, [MarkedPoint((0.1, 0.1), mark=7.0)])
    s = mark_moments(p1)
    assert s.mean_mark == 7.0 and s.var_mark == 0.0


def test_mark_moments_no_marks_raises(unit_square):
    p = MarkedPointPattern(unit_square, [MarkedPoint((0.1, 0.1))])
    with pytest.raises(ValidationError, match="no marks"):
        mark_moments(p)


def test_mark_moments_order_invariant(unit_square):
    rng = np.random.default_rng(0)
    marks = rng.uniform(size=10)
    xy = rng.uniform(0.1, 0.9, size=(10, 2))
    p = MarkedPointPattern(
        unit_square, [MarkedPoint((x, y), mark=m) for (x, y), m in zip(xy, marks)]
    )
    perm = rng.permutation(10)
    q = p.subset(perm)
    assert mark_moments(p).mean_mark == pytest.approx(mark_moments(q).mean_mark)
    assert mark_moments(p).var_mark == pytest.approx(mark_moments(q).var_mark)


def test_planar_csv_roundtrip(tmp_path, unit_square):
    pts = [
        MarkedPoint((0.125, 0.25), "a", 1.5),
        MarkedPoint((0.5, 0.75), "b", None),
        MarkedPoint((0.9, 0.1), "a", -2.0),
    ]
    p = MarkedPointPattern(unit_square, pts)
    path = tmp_path / "p.csv"
    save_pattern_csv(p, path)
    text = path.read_text()
    assert text.splitlines()[0] == "x,y,type,mark"
    assert ",b," in text  # empty mark cell, not a sentinel
    q = load_pattern_csv(path, unit_square)
    assert q.n == 3
    assert q.points[0].mark == 1.5
    assert q.points[1].mark is None
    assert q.points[1].type_label == "b"


def test_network_csv_roundtrip(tmp_path):
    net = LinearNetwork([[0, 0], [10, 0]], [[0, 1]])
    p = MarkedPointPattern(
        net, [MarkedPoint(NetworkLocation(0, 0.25), mark=3.0)]
    )
    path = tmp_path / "p.csv"
    save_pattern_csv(p, path)
    q = load_pattern_csv(path, net)
    assert q.points[0].location == NetworkLocation(0, 0.25)
    assert q.points[0].mark == 3.0


def test_load_rejects_domain_kind_mismatch(tmp_path, unit_square):
    net = LinearNetwork([[0, 0], [10, 0]], [[0, 1]])
    p = MarkedPointPattern(net, [MarkedPoint(NetworkLocation(0, 0.25))])
    path = tmp_path / "p.csv"
    save_pattern_csv(p, path)
    with pytest.raises(ValidationError, match="network"):
        load_pattern_csv(path, unit_square)


def test_network_embedding_coords():
    net = LinearNetwork([[0, 0], [10, 0]], [[0, 1]])
    p = MarkedPointPattern(net, [MarkedPoint(NetworkLocation(0, 0.3))])
    assert np.allclose(p.coords(), [[3.0, 0.0]])
