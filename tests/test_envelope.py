"""Rank-envelope assembly, NaN policy, determinism, and the study runner."""

import re
import sys
import threading

import numpy as np
import pytest

from markedpoints import (
    EnvelopeBand,
    SeedSpec,
    SmoothingSpec1D,
    SummaryCurve,
    ValidationError,
    envelope_rank,
    envelopes,
    mark_corr_suite,
    model_marks,
    poisson_planar,
    r_grid,
    replicate_rng,
    synthetic_tree_network,
)
from markedpoints._dist import close_pairs
from markedpoints.envelope import _assemble_band, mark_correlation_study, poisson_network_min2
from markedpoints.svgplot import curves_svg, envelope_panels_svg


def test_rank_rule():
    assert envelope_rank(199, 0.95) == 5
    assert envelope_rank(39, 0.95) == 1
    with pytest.raises(ValidationError, match="too small"):
        envelope_rank(19, 0.95)


def test_constant_statistic_band(unit_square):
    def gen(rng):
        return poisson_planar(10.0, unit_square, rng)

    def stat(p):
        return SummaryCurve(np.array([0.0, 1.0]), np.array([2.5, 2.5]), "const")

    band = envelopes(gen, stat, nsim=39, level=0.95, master_seed=1)
    assert np.all(band.lo == 2.5) and np.all(band.hi == 2.5) and np.all(band.mean == 2.5)
    assert np.all(band.n_effective == 39)


def test_band_single_replicate_k1():
    # the public rank rule cannot reach k=1 at nsim=1 for any level in (0,1);
    # the assembly itself must still collapse to the single curve when k=1
    r = np.array([0.0, 1.0, 2.0])
    matrix = np.array([[3.0, 1.0, 2.0]])
    band = _assemble_band(r, matrix, nsim=1, level=0.5, k=1)
    assert np.array_equal(band.lo, matrix[0])
    assert np.array_equal(band.hi, matrix[0])
    assert np.array_equal(band.mean, matrix[0])


def test_band_order_invariance():
    rng = np.random.default_rng(0)
    r = np.linspace(0, 1, 5)
    r[0] = 0.0
    matrix = rng.normal(size=(49, 5))
    a = _assemble_band(r, matrix, 49, 0.92, envelope_rank(49, 0.92))
    b = _assemble_band(r, matrix[rng.permutation(49)], 49, 0.92, envelope_rank(49, 0.92))
    assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)
    assert np.allclose(a.mean, b.mean)


def test_band_nan_policy():
    r = np.array([0.0, 1.0])
    matrix = np.full((39, 2), 1.0)
    matrix[:, 1] = np.nan
    matrix[:3, 1] = [0.5, 1.0, 2.0]  # only 3 replicates defined at the second r
    band = _assemble_band(r, matrix, 39, 0.95, envelope_rank(39, 0.95))
    assert band.n_effective.tolist() == [39, 3]
    assert band.lo[1] == 0.5 and band.hi[1] == 2.0  # k=1 extremes of the defined values
    assert band.mean[1] == pytest.approx(np.mean([0.5, 1.0, 2.0]))
    matrix[:, 1] = np.nan
    band2 = _assemble_band(r, matrix, 39, 0.95, envelope_rank(39, 0.95))
    assert np.isnan(band2.lo[1]) and np.isnan(band2.hi[1]) and np.isnan(band2.mean[1])
    assert band2.n_effective[1] == 0


def test_band_envelope_ordering():
    rng = np.random.default_rng(7)
    r = np.linspace(0, 1, 9)
    r[0] = 0.0
    matrix = rng.normal(size=(199, 9))
    band = _assemble_band(r, matrix, 199, 0.95, envelope_rank(199, 0.95))
    assert np.all(band.lo <= band.mean) and np.all(band.mean <= band.hi)


def test_envelopes_serial_in_order_on_calling_thread(unit_square):
    # the generator and statistic are the caller's and need not be thread-safe:
    # replicate i is generated and then evaluated, for i = 0, 1, ... in order,
    # on the calling thread
    nsim, seed = 39, 11
    first_draw = {replicate_rng(SeedSpec(seed, i)).random(): i for i in range(nsim)}
    calls, index = [], {}

    def gen(rng):
        i = first_draw[rng.random()]
        calls.append(("generator", i, threading.get_ident()))
        p = poisson_planar(40.0, unit_square, rng)
        index[id(p)] = i
        return p

    def stat(p):
        calls.append(("statistic", index[id(p)], threading.get_ident()))
        return SummaryCurve(np.array([0.0, 1.0]), np.full(2, float(p.n)), "count")

    envelopes(gen, stat, nsim=nsim, level=0.95, master_seed=seed)
    me = threading.get_ident()
    assert calls == [(step, i, me) for i in range(nsim) for step in ("generator", "statistic")]


def test_envelopes_observed_overlay(tmp_path, unit_square):
    def gen(rng):
        return poisson_planar(30.0, unit_square, rng)

    def stat(p):
        return SummaryCurve(np.array([0.0, 1.0]), np.array([float(p.n)] * 2, dtype=float), "count")

    obs = poisson_planar(30.0, unit_square, np.random.default_rng(5))
    band = envelopes(gen, stat, nsim=39, master_seed=2, observed=obs)
    assert band.observed is not None
    assert band.observed.values[0] == obs.n
    # the Envelope CSV's observed column, and the observed curve in red on the plot
    band.to_csv(tmp_path / "band.csv")
    lines = (tmp_path / "band.csv").read_text().splitlines()
    assert lines[1] == "r,lo,mean,hi,n_effective,observed"
    assert [line.split(",")[-1] for line in lines[2:]] == [str(obs.n)] * 2
    envelope_panels_svg(tmp_path / "band.svg", [("count", band)], title="counts")
    assert (tmp_path / "band.svg").read_text().count('stroke="#b3312a"') == 1


def test_svg_flat_range_nan_gap_and_one_tick_axis(tmp_path):
    r = np.linspace(0.0, 1.0, 5)

    def plot(values):
        curves_svg(tmp_path / "c.svg", [("c", SummaryCurve(r, values, "k"))], title="t")
        return (tmp_path / "c.svg").read_text()

    # a flat curve is drawn in a unit range around its value
    svg = plot(np.full(5, 2.0))
    assert [float(t) for t in re.findall(r'text-anchor="end" fill="#222">([^<]*)<', svg)] == [1.5, 1.75, 2.0, 2.25, 2.5]
    # a NaN splits the curve into two polylines
    assert plot(np.array([1.0, 2.0, np.nan, 3.0, 4.0])).count("<polyline") == 2
    # a range whose span overflows gets one tick, not an error
    with np.errstate(invalid="ignore"):
        svg = plot(np.array([-1e308, 0.0, 0.0, 0.0, 1e308]))
    assert svg.count('text-anchor="end"') == 1


def test_band_csv(tmp_path):
    r = np.array([0.0, 1.0])
    band = EnvelopeBand(
        r, np.array([0.0, 1.0]), np.array([2.0, 3.0]), np.array([1.0, 2.0]),
        nsim=39, level=0.95, k=1, n_effective=np.array([39, 39]), statistic="s",
    )
    path = tmp_path / "band.csv"
    band.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# statistic=s nsim=39")
    assert lines[1] == "r,lo,mean,hi,n_effective"


def test_reproduce_runner_small(tmp_path):
    net = synthetic_tree_network(core_depth=4)
    bands = mark_correlation_study(
        net, "III", tmp_path, nsim=39, master_seed=3, n_expected=40,
        r_max=200.0, bins=40, bandwidth=20.0,
    )
    assert set(bands) == {"stoyan", "variogram", "shimantani_i", "beisbart_kerscher"}
    for name in bands:
        assert (tmp_path / f"modelIII_{name}_band.csv").exists()
    assert (tmp_path / "modelIII_markcorr.svg").exists()
    svg = (tmp_path / "modelIII_markcorr.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


STUDY_SMALL = dict(nsim=39, master_seed=3, n_expected=40, r_max=200.0, bins=40, bandwidth=20.0)


def _files(path):
    return {f.name: f.read_bytes() for f in sorted(path.iterdir())}


@pytest.mark.parametrize("model", ["I", "II", "III"])
def test_study_bytes_identical_across_worker_counts(tmp_path, model, cpu_mask):
    # one worker per CPU in the affinity mask: the real mask, then 1, 2 and 8
    # CPUs; a fresh network per run, so workers start from an empty distance
    # cache; 8 workers and a short switch interval stress the shared network
    outs = []
    interval = sys.getswitchinterval()
    try:
        for cpus in ("real", 1, 2, 8):
            if cpus != "real":
                cpu_mask(cpus)
            sys.setswitchinterval(1e-5 if cpus == 8 else interval)
            out = tmp_path / str(cpus)
            mark_correlation_study(synthetic_tree_network(core_depth=4), model, out, **STUDY_SMALL)
            outs.append(_files(out))
    finally:
        sys.setswitchinterval(interval)
    assert len(outs[0]) == 5  # four band CSVs and the SVG
    assert all(o == outs[0] for o in outs[1:])


@pytest.mark.parametrize("radius", [0.0, 35.0, "tie", 220.0, 500.0])
def test_study_model_iii_matches_public_calls(tmp_path, radius):
    # the study shares one pair sweep, out to the larger of radius and
    # r_max + support (220 here), between the neighbour counts and the
    # kernel matrix; the bands must equal those built from model_marks and
    # mark_corr_suite
    net = synthetic_tree_network(core_depth=4)
    lam = STUDY_SMALL["n_expected"] / net.total_length
    if radius == "tie":  # a pair of replicate 0 sits exactly at the radius
        p0 = poisson_network_min2(lam, net, replicate_rng(SeedSpec(STUDY_SMALL["master_seed"], 0)))
        d = close_pairs(p0, 200.0)[2]
        radius = float(np.sort(d)[len(d) // 2])
    bands = mark_correlation_study(net, "III", tmp_path, radius=radius, **STUDY_SMALL)
    r = r_grid(STUDY_SMALL["r_max"], STUDY_SMALL["bins"])
    smoothing = SmoothingSpec1D(STUDY_SMALL["bandwidth"])
    rows = []
    for i in range(STUDY_SMALL["nsim"]):
        rng = replicate_rng(SeedSpec(STUDY_SMALL["master_seed"], i))
        p = model_marks("III", poisson_network_min2(lam, net, rng), rng, radius=radius)
        rows.append(mark_corr_suite(p, smoothing, r).curves)
    for name, band in bands.items():
        matrix = np.vstack([c[name].values for c in rows])
        k = envelope_rank(STUDY_SMALL["nsim"], 0.95)
        ref = _assemble_band(r, matrix, STUDY_SMALL["nsim"], 0.95, k, f"markcorr_{name}")
        band.to_csv(tmp_path / "study.csv")
        ref.to_csv(tmp_path / "ref.csv")
        assert (tmp_path / "study.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_study_rejects_small_nsim_before_simulating(tmp_path):
    with pytest.raises(ValidationError, match="too small"):
        mark_correlation_study(synthetic_tree_network(core_depth=4), "I", tmp_path / "out", nsim=0)
    assert not (tmp_path / "out").exists()


def test_study_rejects_negative_radius_before_simulating(tmp_path):
    with pytest.raises(ValidationError, match="nonnegative"):
        mark_correlation_study(synthetic_tree_network(core_depth=4), "III", tmp_path / "out", radius=-1.0)
    assert not (tmp_path / "out").exists()


def test_study_rejects_nan_radius_before_simulating(tmp_path):
    with pytest.raises(ValidationError, match="nonnegative"):
        mark_correlation_study(synthetic_tree_network(core_depth=4), "III", tmp_path / "out", radius=float("nan"))
    assert not (tmp_path / "out").exists()
