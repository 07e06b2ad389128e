"""Pattern construction checks, type splitting, mark moments, CSV round-trips."""

import numpy as np
import pytest

from markedpoints import (
    LinearNetwork,
    MarkedPoint,
    MarkedPointPattern,
    NetworkLocation,
    PlanarWindow,
    ValidationError,
    load_pattern_csv,
    mark_moments,
    save_pattern_csv,
    split_by_type,
)


def test_empty_pattern_valid(tmp_path, unit_square):
    assert MarkedPointPattern(unit_square, []).n == 0
    save_pattern_csv(MarkedPointPattern.from_columns(unit_square, np.zeros((0, 2))), tmp_path / "p.csv")
    assert load_pattern_csv(tmp_path / "p.csv", unit_square).n == 0


def test_out_of_domain_reports_index(tmp_path, unit_square):
    with pytest.raises(ValidationError, match=r"point 1 at \(1.5, 0.5\) outside window"):
        MarkedPointPattern(unit_square, [MarkedPoint((0.5, 0.5)), MarkedPoint((1.5, 0.5))])
    (tmp_path / "p.csv").write_text("x,y\n0.5,0.5\n1.5,0.5\n")
    with pytest.raises(ValidationError, match=r"point 1 at \(1.5, 0.5\) outside window"):
        load_pattern_csv(tmp_path / "p.csv", unit_square)


def test_nan_mark_rejected(tmp_path, unit_square):
    # a NaN mark in memory is refused by the mark statistics, a non-finite
    # mark field by the loader
    p = MarkedPointPattern(unit_square, [MarkedPoint((0.5, 0.5), mark=float("nan"))])
    with pytest.raises(ValidationError, match="mark 0 is NaN"):
        mark_moments(p)
    (tmp_path / "p.csv").write_text("x,y,mark\n0.5,0.5,1\n0.5,0.5,nan\n")
    with pytest.raises(ValidationError, match="point 1 has non-finite mark nan"):
        load_pattern_csv(tmp_path / "p.csv", unit_square)


def test_writer_refuses_an_infinite_mark_before_writing(tmp_path, unit_square):
    # the loader refuses an infinite mark field, so the writer never writes one
    p = MarkedPointPattern.from_columns(unit_square, [[0.5, 0.5], [0.25, 0.5]], [1.0, -np.inf])
    with pytest.raises(ValidationError, match="point 1 has non-finite mark -inf"):
        save_pattern_csv(p, tmp_path / "p.csv")
    assert not (tmp_path / "p.csv").exists()


def test_mixed_domain_kinds_rejected(unit_square):
    with pytest.raises(ValidationError, match="network location"):
        MarkedPointPattern(unit_square, [MarkedPoint(NetworkLocation(0, 0.5))])


def test_point_list_errors_raise_from_the_constructor(unit_square):
    net = LinearNetwork([[0, 0], [10, 0]], [[0, 1]])
    good = [MarkedPoint(NetworkLocation(0, 0.5))]
    with pytest.raises(ValidationError, match="point 1: planar location in a network pattern"):
        MarkedPointPattern(net, good + [MarkedPoint((0.5, 0.5))])
    with pytest.raises(ValidationError, match="location 1: invalid segment index 3"):
        MarkedPointPattern(net, good + [MarkedPoint(NetworkLocation(3, 0.5))])
    with pytest.raises(ValidationError, match="location 0: offset 1.5 outside"):
        MarkedPointPattern(net, [MarkedPoint(NetworkLocation(0, 1.5))] + good)
    # the domain is checked before any point
    with pytest.raises(ValidationError, match="unsupported domain type"):
        MarkedPointPattern("square", [MarkedPoint(NetworkLocation(0, 0.5))])


def test_subset_refuses_masks_and_indices_out_of_range(unit_square):
    p = MarkedPointPattern(unit_square, [MarkedPoint((0.1 * k, 0.5)) for k in range(1, 4)])
    for bad in ([True, False, True], np.ones(3, dtype=bool), [5], [0, 3], [-1]):
        with pytest.raises(ValidationError, match=r"point indices in 0 \.\. 2"):
            p.subset(bad)
    assert p.subset([2, 0, 2]).points == [p.points[2], p.points[0], p.points[2]]
    assert p.subset([]).n == 0


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


def test_planar_csv_coordinate_next_to_a_window_bound(tmp_path):
    # at 12 significant digits these x would read back outside the window:
    # 0.333333333333 below 1/3 and 0.666666666667 above 2/3
    w = PlanarWindow(1 / 3, 2 / 3, 0.0, 1.0)
    xy = np.array([[np.nextafter(1 / 3, 1.0), 0.5], [np.nextafter(2 / 3, 0.0), 0.5], [0.5, 0.25]])
    path = tmp_path / "p.csv"
    save_pattern_csv(MarkedPointPattern.from_columns(w, xy), path)
    assert path.read_text().splitlines() == ["x,y", "0.33333333333333337,0.5", "0.6666666666666665,0.5", "0.5,0.25"]
    assert np.array_equal(load_pattern_csv(path, w).coords(), xy)


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
