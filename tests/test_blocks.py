"""The entry budget of dense and pair-sized arrays: outputs that do not
depend on the block size or on the BLAS thread count, and peak memory
bounded by the budget instead of by all pairs or all distances. A budget
patched small also sends network pairs through the k-d candidate search
instead of the dense one-block matrix, and the r bins through a small table."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import markedpoints
from markedpoints import (
    GaussianFieldSpec,
    KernelSpec,
    LinearNetwork,
    MarkedPointPattern,
    NetworkLocation,
    PlanarWindow,
    STOYAN,
    SmoothingSpec1D,
    ValidationError,
    f_inhom,
    h_cross_inhom,
    intensity_heat,
    intensity_jones_diggle,
    intensity_network,
    intensity_uniform,
    k_cross_inhom,
    lgcp_network,
    mark_corr_suite,
    mark_weighted_k,
    model_marks,
    normalization,
    pair_average,
    poisson_network,
    r_grid,
)
from markedpoints import TestFunction as MarkTestFunction
from markedpoints import _dist, markcorr, summaries
from markedpoints._dist import close_pairs, cross_search
from markedpoints.geometry import _MAX_CELLS, _check_cells, _sp_dist

from conftest import grid_network_arrays, random_connected_network

BLOCKS = [1, 7, 64]


@pytest.fixture(scope="module")
def net_patterns():
    """Two patterns of about 120 and 60 points on one random network."""
    rng = np.random.default_rng(31)
    net = random_connected_network(rng, 25)
    pa = poisson_network(120.0 / net.total_length, net, rng)
    pb = poisson_network(60.0 / net.total_length, net, rng)
    return pa.with_marks(rng.gamma(2.0, 1.5, pa.n)), pb


def _same_under_blocks(monkeypatch, block, compute):
    """compute() under the default budget and under a budget of block
    entries, as two lists of arrays that must be equal (NaNs equal)."""
    want = [np.asarray(v) for v in compute()]
    monkeypatch.setattr(_dist, "_BLOCK", block)
    got = [np.asarray(v) for v in compute()]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


def test_row_blocks_cover_rows_in_order_under_the_budget(monkeypatch):
    monkeypatch.setattr(_dist, "_BLOCK", 10)
    widths = np.array([3, 4, 12, 0, 5, 5, 1, 9])
    blocks = list(_dist._row_blocks(len(widths), widths))
    assert blocks == [(0, 2), (2, 3), (3, 6), (6, 8)]
    assert all(widths[lo:hi].sum() <= 10 or hi - lo == 1 for lo, hi in blocks)
    assert list(_dist._row_blocks(5, 4)) == [(0, 2), (2, 4), (4, 5)]
    assert list(_dist._row_blocks(0, 4)) == []


@pytest.mark.parametrize("block", BLOCKS)
def test_network_pairs_block_invariant(monkeypatch, net_patterns, block):
    pa, pb = net_patterns
    _same_under_blocks(
        monkeypatch, block, lambda: [*close_pairs(pa, 3.0), *cross_search(pa.domain, pb)(pa, 3.0)]
    )


def _pair_cases():
    """Random networks, a loop, explicit lengths below and above the chords
    and two coincident vertices, each with two patterns that put every
    fifth point on a segment's first vertex and every fifth on its last."""
    rng = np.random.default_rng(35)
    nets = {f"random{k}": random_connected_network(rng, 15 + 5 * k) for k in range(3)}
    angle = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    ring = np.column_stack([np.cos(angle), np.sin(angle)]) * 10.0
    nets["loop"] = LinearNetwork(ring, [[k, (k + 1) % 12] for k in range(12)])
    base = random_connected_network(rng, 20)
    chords = base.seg_lengths
    for name, lo, hi in (("lengths_below_chords", 0.2, 1.0), ("lengths_above_chords", 1.0, 4.0)):
        nets[name] = LinearNetwork(base.vertices, base.segments, chords * rng.uniform(lo, hi, len(chords)))
    # vertex 20 sits on vertex 0, joined to it by a segment of length 2 and to vertex 5
    verts = np.vstack([base.vertices, base.vertices[:1]])
    segs = np.vstack([base.segments, [[0, 20], [20, 5]]])
    lengths = np.append(chords, [2.0, np.hypot(*(verts[5] - verts[0]))])
    nets["coincident_vertices"] = LinearNetwork(verts, segs, lengths)
    cases = {}
    for name, net in nets.items():
        patterns = []
        for n in (80, 45):
            seg, off = rng.integers(0, net.n_segments, n), rng.uniform(size=n)
            off[::5], off[1::5] = 0.0, 1.0
            patterns.append(MarkedPointPattern.from_columns(net, (seg, off)))
        cases[name] = patterns
    return cases


PAIR_CASES = _pair_cases()


@pytest.mark.parametrize("block", [7, 500])
@pytest.mark.parametrize("case", sorted(PAIR_CASES))
def test_network_pair_search_equals_the_sweep(monkeypatch, case, block):
    pa, pb = PAIR_CASES[case]
    net = pa.domain
    assert pa.n * pa.n <= _dist._BLOCK and pa.n * pb.n <= _dist._BLOCK  # one block: the dense matrix
    d = np.unique(close_pairs(pa, np.inf)[2])
    assert d[0] == 0.0  # points on one vertex through different segments
    # zero, exact pair distances and a cutoff past every pair
    cutoffs = [0.0, d[len(d) // 10], d[len(d) // 2], 2.0 * d[-1]]
    want = [[*close_pairs(pa, c), *cross_search(net, pb)(pa, c), *cross_search(net, pa)(pb, c)] for c in cutoffs]
    searches = []
    search = _dist._network_pairs
    monkeypatch.setattr(_dist, "_network_pairs", lambda *args, **kw: searches.append(1) or search(*args, **kw))
    monkeypatch.setattr(_dist, "_BLOCK", block)
    got = [[*close_pairs(pa, c), *cross_search(net, pb)(pa, c), *cross_search(net, pa)(pb, c)] for c in cutoffs]
    assert len(searches) == 3 * len(cutoffs)
    for g_all, w_all in zip(got, want):
        for g, w in zip(g_all, w_all):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("n", [512, 513, 724])
def test_network_close_pairs_equal_the_triangle_sweep(n):
    # up to 512 points the n x n distances fit in one block and come from the
    # dense matrix; beyond, from the k-d candidate search; both against the
    # shortest-path sums over every pair i < j
    net = PAIR_CASES["coincident_vertices"][0].domain
    rng = np.random.default_rng(36)
    seg, off = rng.integers(0, net.n_segments, n), rng.uniform(size=n)
    off[::5], off[1::5] = 0.0, 1.0
    cols = (seg, off)
    i, j = np.triu_indices(n, 1)
    d = _sp_dist(net, cols, cols, i, j)
    p = MarkedPointPattern.from_columns(net, cols)
    for cutoff in [0.0, float(np.median(d)), 2.0 * d.max()]:
        keep = d <= cutoff
        for got, want in zip(close_pairs(p, cutoff), (i[keep], j[keep], d[keep])):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def _grids():
    """Strictly increasing grids from 0: uniform or geometric, with the
    last value anywhere from 1e-300 to 1e300."""
    top = st.floats(1e-300, 1e300)
    uniform = st.builds(lambda t, n: np.linspace(0.0, t, n), top, st.integers(2, 600))
    geometric = st.builds(
        lambda t, n, span: np.append(0.0, np.geomspace(max(t * 10.0**-span, 1e-300), t, n)),
        top, st.integers(1, 600), st.integers(1, 200),
    )
    return st.one_of(uniform, geometric).filter(lambda r: np.all(np.diff(r) > 0))


@given(r=_grids(), data=st.data(), block=st.sampled_from([1, 7, 64, 1 << 18]))
def test_bins_equal_searchsorted(r, data, block):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    on = r[rng.integers(0, len(r), 40)]
    d = np.concatenate([
        rng.uniform(0.0, r[-1], 200),
        on, np.nextafter(on, 0.0), np.nextafter(on, np.inf),  # grid values and one ulp either side
        [r[-1] * 2.0, np.inf, np.nextafter(r[-1], np.inf), 0.0],  # beyond the grid
    ])
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("error", RuntimeWarning)
        patch.setattr(_dist, "_BLOCK", block)  # a table of 1 to 2^18 entries
        got = _dist._bins(r, d)
        empty = _dist._bins(r, np.zeros(0))
    np.testing.assert_array_equal(got, np.searchsorted(r, d))
    assert len(empty) == 0


@pytest.mark.parametrize("block", BLOCKS)
def test_model_iii_marks_block_invariant(monkeypatch, net_patterns, block):
    pa, _ = net_patterns
    rng = np.random.default_rng(0)
    _same_under_blocks(monkeypatch, block, lambda: [model_marks("III", pa, rng, radius=2.5).marks()])


def _suite_values(p, smoothing, r, ec="none"):
    s = mark_corr_suite(p, smoothing, r, ec)
    return [c.values for c in s.curves.values()] + [c.values for c in s.numerators.values()]


@pytest.mark.parametrize("block", BLOCKS)
def test_mark_corr_suite_block_invariant(monkeypatch, net_patterns, block):
    rng = np.random.default_rng(32)
    w = PlanarWindow(0.0, 1.0, 0.0, 2.0)
    p = MarkedPointPattern.from_columns(w, rng.uniform(size=(300, 2)) * [1.0, 2.0], marks=rng.gamma(2.0, 1.5, 300))
    pa, _ = net_patterns
    _same_under_blocks(
        monkeypatch,
        block,
        lambda: _suite_values(p, None, r_grid(0.4, 100), "symmetricWeight")
        + _suite_values(pa, SmoothingSpec1D(0.5), r_grid(4.0, 100)),
    )


@pytest.mark.parametrize("block", BLOCKS)
def test_network_k_h_f_block_invariant(monkeypatch, net_patterns, block):
    pa, pb = net_patterns
    r = r_grid(3.0, 60)
    # unequal per-point intensities, so the retention factors vary
    la, lb = 120.0 / pa.domain.total_length, 40.0 + 20.0 * np.sin(np.arange(pb.n))
    _same_under_blocks(
        monkeypatch,
        block,
        lambda: [
            k_cross_inhom(pa, pb, la, lb, "none", r).values,
            h_cross_inhom(pa, pb, la, lb, r=r).values,
            f_inhom(pb, lb, r=r).values,
        ],
    )


@pytest.mark.parametrize("block", BLOCKS)
def test_planar_h_f_block_invariant(monkeypatch, unit_square, block):
    rng = np.random.default_rng(33)
    xy = rng.uniform(size=(100, 2))
    pa = MarkedPointPattern.from_columns(unit_square, xy[:50])
    pb = MarkedPointPattern.from_columns(unit_square, xy[50:])
    lb = 40.0 + 20.0 * np.sin(np.arange(pb.n))
    # 9 r values: a budget of 64 entries takes 7 rows a block, whose sum
    # must run in row order like the sum of one block of every row
    r = r_grid(0.25, 8)
    _same_under_blocks(
        monkeypatch,
        block,
        lambda: [h_cross_inhom(pa, pb, 50.0, lb, r=r).values, f_inhom(pb, lb, grid_spacing=1.0 / 16.0, r=r).values],
    )


@pytest.mark.parametrize("block", BLOCKS)
def test_custom_constant_block_invariant(monkeypatch, block):
    # the oracle and tolerance of test_pair_average_matches_ordered_pair_loop
    marks = np.random.default_rng(34).gamma(2.0, 1.5, 25)
    custom = MarkTestFunction("custom", fn=lambda a, b: a * a - 3.0 * b)
    terms = [custom.fn(a, b) for i, a in enumerate(marks) for j, b in enumerate(marks) if i != j]
    want = sum(terms) / len(terms)
    monkeypatch.setattr(_dist, "_BLOCK", block)
    for got in (pair_average(custom, marks), normalization(custom, marks)):
        assert abs(got - want) <= 1e-12 * sum(abs(t) for t in terms) / len(terms)


@pytest.mark.parametrize("block", BLOCKS)
def test_network_intensity_block_invariant(monkeypatch, net_patterns, block):
    pa, pb = net_patterns

    def compute():
        est = intensity_network(pa, KernelSpec(1.5))
        return [est.norms, est.evaluate(pa.locations()), est.evaluate(pb.locations()), est.integral()]

    _same_under_blocks(monkeypatch, block, compute)


# the network chain of the benchmark's `large` workload, on one grid network
_CHAIN = """
import hashlib, importlib.util, sys
import numpy as np
import markedpoints as mp
spec = importlib.util.spec_from_file_location("bench_inputs", sys.argv[1])
inputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(inputs)
net = mp.LinearNetwork(*inputs.grid_network_arrays(np.random.default_rng(3), 30, 10.0, 100))
rng = np.random.default_rng(4)
pa = mp.poisson_network(1500.0 / net.total_length, net, rng)
pb = mp.poisson_network(600.0 / net.total_length, net, rng)
ea = mp.intensity_network(pa, mp.KernelSpec(20.0))
eb = mp.intensity_network(pb, mp.KernelSpec(20.0))
parts = [ea.norms, ea.evaluate(pa.locations()), eb.evaluate(pa.locations()), np.array([ea.integral()])]
parts.append(mp.f_inhom(pb, eb, r=mp.r_grid(60.0, 250)).values)
print(hashlib.sha256(b"".join(np.ascontiguousarray(v).tobytes() for v in parts)).hexdigest())
"""


def test_network_intensity_and_f_same_bytes_for_blas_threads():
    """gemv splits its rows between BLAS threads, which moves last bits;
    the network intensity sums each row on its own."""
    inputs = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(markedpoints.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", _CHAIN, str(inputs)], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


def _traced_peak(call) -> float:
    """Peak traced memory of call() in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def grid_pattern():
    """About 2,900 uniform points on the benchmark's 30 x 30 grid network."""
    net = LinearNetwork(*grid_network_arrays(np.random.default_rng(5), 30, 10.0, 100))
    net.vertex_distances()  # the cached V x V matrix is not the call's memory
    return poisson_network(2900.0 / net.total_length, net, np.random.default_rng(6))


def _output_mib(pairs) -> float:
    return sum(a.nbytes for a in pairs) / 2**20


def test_network_close_pairs_memory_bounded_by_the_budget(grid_pattern):
    # the full i < j sweep of 2,900 points formed 484 MiB at once, its row
    # blocks 33.6 MiB; the candidate search holds little beyond the 57,000
    # pairs it returns (1.3 MiB) and their blocks while they are joined.
    # Joining every column at once held all the blocks and the output
    # (2.74 MiB, 2.1 x the output); one column at a time, the output and
    # one column's blocks (1.87 MiB, 1.43 x)
    assert grid_pattern.n > 2800
    peak = _traced_peak(lambda: close_pairs(grid_pattern, 30.0))
    assert peak < 4
    assert peak < 1.6 * _output_mib(close_pairs(grid_pattern, 30.0))


def test_network_cross_pairs_memory_bounded_by_the_budget(grid_pattern):
    # dense row blocks of point x point distances took 15.6 MiB for the
    # 117,000 ordered pairs (2.7 MiB) returned; joining their blocks every
    # column at once took 5.55 MiB, one column at a time 3.81 MiB
    net = grid_pattern.domain
    peak = _traced_peak(lambda: cross_search(net, grid_pattern)(grid_pattern, 30.0))
    assert peak < 8
    assert peak < 1.6 * _output_mib(cross_search(net, grid_pattern)(grid_pattern, 30.0))


def test_network_intensity_memory_bounded_by_the_budget(grid_pattern):
    # the dense data x mesh distance matrix and its temporaries took 335 MiB
    assert _traced_peak(lambda: intensity_network(grid_pattern, KernelSpec(20.0))) < 64


@pytest.fixture(scope="module")
def dense_planar():
    """10^4 uniform points with gamma marks on the unit square."""
    rng = np.random.default_rng(7)
    w = PlanarWindow(0.0, 1.0, 0.0, 1.0)
    return MarkedPointPattern.from_columns(w, rng.uniform(size=(10_000, 2)), marks=rng.gamma(2.0, 1.5, 10_000))


def test_planar_k_bytes_per_pair(dense_planar):
    # each pair consumer forms each pair-length array once and updates it in
    # place: 96 (K) and 104 (mark-weighted K) B per pair when the weights,
    # the translation correction and the distances were formed by
    # expressions, 40 in place
    p, r = dense_planar, r_grid(0.05, 512)
    pairs = len(close_pairs(p, r[-1])[0])
    assert pairs > 350_000
    for call in (
        lambda: k_cross_inhom(p, p, 10_000.0, 10_000.0, "translation", r),
        lambda: mark_weighted_k(p, STOYAN, 10_000.0, "translation", r),
    ):
        assert _traced_peak(call) * 2**20 / pairs <= 56


def test_mark_corr_suite_bytes_per_pair(dense_planar):
    # the value matrix filled a column at a time, the sort permutation
    # dropped once applied: 168 B per pair before, 120 after; the values and
    # marks of one window of the pairs at a time, not of all pairs: 79
    p, sm, r = dense_planar, SmoothingSpec1D(0.001), r_grid(0.05, 512)
    pairs = len(close_pairs(p, markcorr._reach(sm, r))[0])
    assert _traced_peak(lambda: mark_corr_suite(p, sm, r, "symmetricWeight")) * 2**20 / pairs <= 86


def test_lgcp_memory_on_the_benchmark_network(grid_pattern):
    # 1,270 cells: the covariance, evaluated in row blocks, and its Cholesky
    # factor; the whole-matrix covariance, symmetry check and jitter took
    # 38.6 MiB, 24.9 after, with numpy's Cholesky holding three cells x cells
    # arrays; LAPACK's, in place, holds one: 16.7
    net = grid_pattern.domain
    spec = GaussianFieldSpec(
        mean=float(np.log(600.0 / net.total_length) - 0.05),
        cov=lambda a, b: 0.1 * np.exp(-np.abs(np.subtract(a, b)) / 10.0),
        anchor=NetworkLocation(0, 0.5),
    )
    assert _traced_peak(lambda: lgcp_network(spec, net, 15.0, np.random.default_rng(3))) <= 20


def test_mark_corr_suite_memory_bounded_by_the_budget(unit_square):
    # the whole kernel matrix at n = 10^4 took 253 MiB
    rng = np.random.default_rng(7)
    p = MarkedPointPattern.from_columns(unit_square, rng.uniform(size=(10_000, 2)), marks=rng.gamma(2.0, 1.5, 10_000))
    assert _traced_peak(lambda: mark_corr_suite(p, None, r_grid(0.05, 512))) < 64


def test_kernel_entries_over_the_cap_refused_before_any_row(monkeypatch, unit_square):
    # the cap bounds the kernel matrix's entries (r values x pairs in their
    # support); with it patched to one entry fewer than the input needs, the
    # suite is refused before any kernel row is formed
    rng = np.random.default_rng(13)
    p = MarkedPointPattern.from_columns(unit_square, rng.uniform(size=(400, 2)), marks=rng.gamma(2.0, 1.5, 400))
    sm, r = SmoothingSpec1D(0.02), r_grid(0.25, 4096)
    d = np.sort(close_pairs(p, 0.27)[2])
    entries = int((np.searchsorted(d, r + 0.02, side="right") - np.searchsorted(d, r - 0.02)).sum())
    assert entries > 8 * 10**6
    rows = []
    kernel_rows = markcorr._kernel_rows
    monkeypatch.setattr(markcorr, "_kernel_rows", lambda *args: rows.append(1) or kernel_rows(*args))
    monkeypatch.setattr(markcorr, "_MAX_ENTRIES", entries - 1)

    def refused():
        with pytest.raises(ValidationError, match=f"of {entries} entries: at most {entries - 1};"):
            mark_corr_suite(p, sm, r)

    # refused: the pairs and the r rows' bounds (1.0 MiB); run: 10.1 MiB
    assert _traced_peak(refused) < 2
    assert not rows
    monkeypatch.setattr(markcorr, "_MAX_ENTRIES", entries)  # the cap itself is allowed
    assert _traced_peak(lambda: mark_corr_suite(p, sm, r)) > 8
    assert rows


@pytest.mark.parametrize("stat", ["f", "h"])
def test_retention_entries_over_the_cap_refused_before_any_row(monkeypatch, unit_square, stat):
    # H and F cost rows x r values (type-i points, or F grid cells, at each
    # r); with the cap patched to one entry fewer than the input needs, the
    # curve is refused before its pair search over the type-j points is set up
    rng = np.random.default_rng(14)
    p = MarkedPointPattern.from_columns(unit_square, rng.uniform(size=(2000, 2)))
    r = r_grid(0.25, 512)
    if stat == "f":
        entries, call = 128 * 128 * len(r), lambda: f_inhom(p, 2000.0, r=r)
    else:
        entries, call = p.n * len(r), lambda: h_cross_inhom(p, p, 2000.0, 2000.0, r=r)
    searches = []
    search = summaries.cross_search
    monkeypatch.setattr(summaries, "cross_search", lambda *args: searches.append(1) or search(*args))
    monkeypatch.setattr(summaries, "_MAX_ENTRIES", entries - 1)

    def refused():
        with pytest.raises(ValidationError, match=f" make {entries} entries: at most {entries - 1};"):
            call()

    # refused: the F grid (0.6 MiB); run: 9-11 MiB of row blocks
    assert _traced_peak(refused) < 1
    assert not searches
    monkeypatch.setattr(summaries, "_MAX_ENTRIES", entries)  # the cap itself is allowed
    assert _traced_peak(call) > 4
    assert searches


def test_planar_f_memory_bounded_by_the_budget(unit_square):
    # rows of the 128 x 128 grid in chunks of 2,048 took 29.5 MiB
    rng = np.random.default_rng(8)
    p = MarkedPointPattern.from_columns(unit_square, rng.uniform(size=(1000, 2)))
    lam = 900.0 + 200.0 * rng.uniform(size=p.n)
    assert _traced_peak(lambda: f_inhom(p, lam, r=r_grid(0.25, 512))) < 16


def test_planar_raster_memory_bounded_by_the_budget(unit_square):
    # a 512 x 512 raster of 10^4 points in chunks of 4,096 points took 98.1 MiB
    p = MarkedPointPattern.from_columns(unit_square, np.random.default_rng(9).uniform(size=(10_000, 2)))
    assert _traced_peak(lambda: intensity_jones_diggle(p, KernelSpec(0.05), (512, 512))) < 32


def test_custom_constant_memory_bounded_by_the_budget():
    # the whole 4,000 x 4,000 ordered-pair matrix took 122 MiB
    marks = np.random.default_rng(10).gamma(2.0, 1.5, 4000)
    assert _traced_peak(lambda: normalization(MarkTestFunction("custom", fn=np.minimum), marks)) < 16


def test_grid_outside_the_cap_refused_before_allocation(unit_square, net_patterns):
    _check_cells(_MAX_CELLS, "grid")  # the cap itself is allowed
    p = MarkedPointPattern.from_columns(unit_square, np.random.default_rng(11).uniform(size=(50, 2)))
    pn, _ = net_patterns
    side = 4097  # 4097^2 cells, just above 2^24
    calls = [
        lambda: f_inhom(p, 50.0, grid_spacing=1.0 / side),
        lambda: f_inhom(p, 50.0, grid_spacing=5.0),  # no cell at all
        lambda: f_inhom(pn, 10.0, grid_spacing=pn.domain.total_length / (_MAX_CELLS + 1)),
        lambda: intensity_uniform(p, KernelSpec(0.1), (side, side)),
        lambda: intensity_jones_diggle(p, KernelSpec(0.1), (side, side)),
        lambda: intensity_heat(p, 0.1, (16, _MAX_CELLS // 16 + 1)),
        lambda: r_grid(1.0, _MAX_CELLS),  # bins + 1 values
        # 4,097 cells pass the cell cap, but their covariance has 4,097^2 entries
        lambda: lgcp_network(GaussianFieldSpec(0.0, lambda a, b: 0.0 * a * b, NetworkLocation(0, 0.5)),
                             pn.domain, pn.domain.total_length / 4097, np.random.default_rng(12)),
    ]
    for call in calls:

        def refused():
            with pytest.raises(ValidationError, match="a grid needs 1 to 16777216 cells"):
                call()

        assert _traced_peak(refused) < 1
