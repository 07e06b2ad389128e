"""Every refusal of the package reaches its error: a bad argument to a public
call raises its documented exception, and a bad command line ends in its exit
code and message. One table per module; each library case is a call on
fresh inputs, each CLI case one in-process `cli.main(argv)`."""

import itertools
import json

import numpy as np
import pytest

import markedpoints as mp
from markedpoints import NumericalError, ValidationError, cli

W = mp.PlanarWindow(0.0, 1.0, 0.0, 1.0)
# two unit segments
NET = mp.LinearNetwork([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], [[0, 1], [1, 2]])


def planar(n, marks=True):
    rng = np.random.default_rng(n)
    return mp.MarkedPointPattern.from_columns(W, rng.uniform(size=(n, 2)), rng.uniform(1.0, 2.0, n) if marks else None)


def on_net(offsets):
    return mp.MarkedPointPattern.from_columns(NET, (np.zeros(len(offsets), int), np.array(offsets, float)))


def elsewhere(n):
    """n points on a unit square that is another domain object than W."""
    return mp.MarkedPointPattern.from_columns(mp.PlanarWindow(0.0, 1.0, 0.0, 1.0), np.full((n, 2), 0.5))


def curve(r_max):
    return mp.SummaryCurve([0.0, r_max], [0.0, 0.0], "k")


def rng():
    return np.random.default_rng(0)


def differing_grids(tmp):
    grids = itertools.count(1)
    return mp.envelopes(lambda g: planar(3), lambda p: curve(next(grids)), 39)


def observed_on_another_grid(tmp):
    obs = planar(3)
    return mp.envelopes(lambda g: planar(4), lambda p: curve(2.0 if p is obs else 1.0), 39, observed=obs)


def write(path, text):
    path.write_text(text)
    return path


# (call on a temporary directory, exception, message)
CURVES = [
    pytest.param(lambda tmp: mp.SummaryCurve([0.0, 1.0], [0.0, 1.0, 2.0], "k"), ValidationError,
                 "r and values must be 1-D arrays of equal length", id="values-length"),
    pytest.param(lambda tmp: mp.SummaryCurve([0.0, 1.0], [0.0, 1.0], "k", [0.0]), ValidationError,
                 "theoretical curve length mismatch", id="theoretical-length"),
]

ENVELOPE = [
    pytest.param(lambda tmp: mp.envelope_rank(19, 1.5), ValidationError, r"level must be in \(0, 1\)", id="level"),
    pytest.param(differing_grids, ValidationError, "curves on differing r grids", id="replicate-grids"),
    pytest.param(observed_on_another_grid, ValidationError, "observed curve grid differs", id="observed-grid"),
    pytest.param(lambda tmp: mp.mark_correlation_study(NET, "IV", tmp), ValidationError,
                 "model must be I, II or III", id="model"),
]

GEOMETRY = [
    pytest.param(lambda tmp: mp.LinearNetwork([[0.0, 0.0], [1.0, 0.0]], []), ValidationError,
                 "network has no segments", id="no-segments"),
    pytest.param(lambda tmp: mp.LinearNetwork([[0.0, 0.0], [1.0, 0.0]], [[0, 1], [1, 1]]), ValidationError,
                 "segment joins a vertex to itself", id="self-loop"),
    pytest.param(lambda tmp: mp.all_pairs_network_distances(NET, []), ValidationError,
                 "needs at least one location", id="no-locations"),
    pytest.param(lambda tmp: mp.load_network(write(tmp / "net.json", '{"vertices": [[0, 0], [1, 0]]}')),
                 ValidationError, "missing key 'segments'", id="missing-key"),
]

INTENSITY = [
    pytest.param(lambda tmp: mp.KernelSpec(0.1, "triangle"), ValidationError, "unknown kernel family 'triangle'",
                 id="family"),
    pytest.param(lambda tmp: mp.kernel_mass(mp.KernelSpec(0.1), W, [2.0], [0.5]), ValidationError,
                 "point outside window", id="mass-outside"),
    pytest.param(lambda tmp: mp.IntensityEstimate(W, np.ones(4), "uniform", 0.1), ValidationError,
                 "intensity raster must be 2-D", id="raster-1d"),
    pytest.param(lambda tmp: mp.IntensityEstimate(W, -np.ones((2, 2)), "uniform", 0.1), ValidationError,
                 "intensity raster has negative values", id="raster-negative"),
    pytest.param(lambda tmp: mp.intensity_uniform(on_net([0.5]), mp.KernelSpec(0.1)), ValidationError,
                 "planar intensity estimator on a network pattern", id="planar-on-network"),
    # a box kernel far narrower than the arc mesh's cells holds no mesh cell
    pytest.param(lambda tmp: mp.intensity_network(on_net([0.10003]), mp.KernelSpec(1e-6, "box")), NumericalError,
                 "kernel mass vanished for a data point", id="network-mass"),
    pytest.param(lambda tmp: mp.bandwidth_scott(planar(1)), ValidationError, "Scott's rule needs at least 2 points",
                 id="scott"),
    pytest.param(lambda tmp: mp.bandwidth_cvl(planar(0)), ValidationError,
                 "bandwidth selection needs at least one point", id="cvl"),
    pytest.param(lambda tmp: mp.eval_intensity(np.ones(3), planar(5)), ValidationError,
                 r"per-point intensity array has shape \(3,\), need \(5,\)", id="per-point-shape"),
    pytest.param(lambda tmp: mp.eval_intensity("abc", planar(5)), ValidationError,
                 "cannot interpret str as an intensity", id="intensity-type"),
]

MARKCORR = [
    pytest.param(lambda tmp: mp.TestFunction("product"), ValidationError, "unknown test function 'product'",
                 id="test-function"),
    pytest.param(lambda tmp: mp.TestFunction("custom"), ValidationError, "custom test function requires a callable",
                 id="custom-callable"),
    pytest.param(lambda tmp: mp.default_smoothing(planar(0)), ValidationError,
                 "cannot pick a bandwidth for an empty pattern", id="bandwidth-empty"),
    pytest.param(lambda tmp: mp.mark_corr(planar(5), mp.STOYAN, mp.SmoothingSpec1D(0.1), ec="translation"),
                 ValidationError, "unknown edge correction 'translation' for mark correlation", id="edge-correction"),
]

PATTERN = [
    pytest.param(lambda tmp: mp.MarkedPointPattern.from_columns(W, np.full((3, 2), 0.5), [1.0, 2.0]),
                 ValidationError, "column lengths do not match the pattern size", id="columns"),
    pytest.param(lambda tmp: planar(3).seg_off(), ValidationError,
                 "segment/offset columns exist for network patterns only", id="seg-off"),
    pytest.param(lambda tmp: planar(3, marks=False).marks(), ValidationError, "pattern has points without marks",
                 id="no-marks"),
    pytest.param(lambda tmp: planar(3).with_marks([1.0]), ValidationError, "marks length does not match",
                 id="with-marks"),
    pytest.param(lambda tmp: planar(3).with_labels(["a"]), ValidationError, "labels length does not match",
                 id="with-labels"),
    # each squared deviation is finite, their sum is not
    pytest.param(lambda tmp: mp.mark_moments(mp.MarkedPointPattern.from_columns(
        W, np.full((8, 2), 0.5), np.tile([0.0, 1.3e154], 4))), NumericalError, "their variance overflows",
        id="variance-overflow"),
    # a planar location outside the closed window, NaN included, through
    # either constructor
    pytest.param(lambda tmp: mp.MarkedPointPattern.from_columns(W, [[2.0, 2.0]]), ValidationError,
                 r"point 0 at \(2.0, 2.0\) outside window", id="columns-outside"),
    pytest.param(lambda tmp: mp.MarkedPointPattern.from_columns(W, [[np.nan, 0.5]]), ValidationError,
                 r"point 0 at \(nan, 0.5\) outside window", id="columns-nan"),
    pytest.param(lambda tmp: mp.MarkedPointPattern(W, [mp.MarkedPoint((2.0, 2.0))]), ValidationError,
                 r"point 0 at \(2.0, 2.0\) outside window", id="points-outside"),
    pytest.param(lambda tmp: mp.MarkedPointPattern(W, [mp.MarkedPoint((np.nan, 0.5))]), ValidationError,
                 r"point 0 at \(nan, 0.5\) outside window", id="points-nan"),
    pytest.param(lambda tmp: mp.load_pattern_csv(write(tmp / "p.csv", ""), W), ValidationError,
                 "empty pattern file", id="empty-file"),
    pytest.param(lambda tmp: mp.load_pattern_csv(write(tmp / "p.csv", "x,y,mark\n0.5,0.5,1\n0.5,0.5,inf\n"), W),
                 ValidationError, "point 1 has non-finite mark inf", id="non-finite-mark"),
    pytest.param(lambda tmp: mp.load_pattern_csv(write(tmp / "p.csv", "a,b\n0.5,0.5\n"), W), ValidationError,
                 "must have columns x,y or segment,offset", id="columns-missing"),
]

SIMULATE = [
    pytest.param(lambda tmp: mp.poisson_planar(lambda x, y: np.full_like(x, 100.0), W, rng(), lam_max=50.0),
                 ValidationError, "intensity exceeds the declared bound lam_max", id="lam-max"),
    # symmetric at the scalar probes, not on the arrays of the covariance matrix
    pytest.param(lambda tmp: mp.lgcp_network(mp.GaussianFieldSpec(0.0, lambda d1, d2: np.exp(-np.abs(d1 - d2))
                                                                   + 0.1 * np.asarray(d1) * (np.ndim(d1) > 0),
                                                                   mp.NetworkLocation(0, 0.5)), NET, 0.1, rng()),
                 ValidationError, "induced covariance matrix is asymmetric", id="asymmetric-cov-matrix"),
    pytest.param(lambda tmp: mp.cosine_field_sampler(1.0, 1.0, 1.0), ValidationError,
                 "amplitude too large", id="cosine-amplitude"),
    pytest.param(lambda tmp: mp.linked_balanced_cox("mixed", 1.0, mp.constant_field_sampler(1.0), W, rng()),
                 ValidationError, "kind must be 'linked' or 'balanced'", id="cox-kind"),
    pytest.param(lambda tmp: mp.linked_balanced_cox("linked", 1.0, lambda g: (lambda x, y: x - 2.0, 1.0), W, rng()),
                 ValidationError, "base field is negative on the evaluation grid", id="negative-field"),
    pytest.param(lambda tmp: mp.model_marks("IV", on_net([0.5]), rng()), ValidationError,
                 "model must be I, II or III, got 'IV'", id="mark-model"),
    # checked before an empty pattern is handed back unmarked
    pytest.param(lambda tmp: mp.model_marks("III", on_net([]), rng(), radius=-1.0), ValidationError,
                 "radius must be nonnegative, got -1.0", id="mark-model-radius-empty"),
]

SUMMARIES = [
    pytest.param(lambda tmp: mp.k_cross_inhom(planar(3), elsewhere(3), 3.0, 3.0), ValidationError,
                 "patterns must share one domain object", id="two-windows"),
    # an empty side ends K and H before any pair search
    pytest.param(lambda tmp: mp.k_cross_inhom(planar(3), elsewhere(0), 3.0, 3.0), ValidationError,
                 "patterns must share one domain object", id="two-windows-empty-k"),
    pytest.param(lambda tmp: mp.h_cross_inhom(elsewhere(0), planar(3), 3.0, 3.0), ValidationError,
                 "patterns must share one domain object", id="two-windows-empty-h"),
    pytest.param(lambda tmp: mp.mark_weighted_k(planar(1), mp.STOYAN, 1.0), ValidationError,
                 "mark-weighted K needs at least 2 marked points", id="weighted-one-point"),
    pytest.param(lambda tmp: mp.mark_weighted_k(planar(5).with_marks(np.ones(5)), mp.VARIOGRAM, 5.0), NumericalError,
                 "pair average is zero", id="weighted-degenerate"),
    pytest.param(lambda tmp: mp.mark_sum_measure(planar(3).with_marks([1.0, np.nan, 2.0]), 0.5), ValidationError,
                 "mark 1 is NaN: no mark statistic is defined", id="sum-measure-nan-mark"),
]


TABLES = {"curves": CURVES, "envelope": ENVELOPE, "geometry": GEOMETRY, "intensity": INTENSITY,
          "markcorr": MARKCORR, "pattern": PATTERN, "simulate": SIMULATE, "summaries": SUMMARIES}


@pytest.mark.parametrize(
    "call, error, message",
    [pytest.param(*case.values, id=f"{module}-{case.id}") for module, table in TABLES.items() for case in table],
)
def test_library_refusals(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)


# (argv, exit code, stderr text); PTS is a planar pattern, TREE the bundled
# tree, ON_TREE a pattern on it, NAN_MARK and OUTSIDE planar patterns with a
# NaN mark and a point outside the unit square, NOT_JSON a text file and
# FAILING a metadata file whose run is refused
CLI = [
    pytest.param(["intensity", "--pattern", "PTS"], 3, "either --window or --network is required", id="no-domain"),
    pytest.param(["intensity", "--pattern", "PTS", "--window", "0,1"], 3,
                 "window must be xmin,xmax,ymin,ymax, got '0,1'", id="window"),
    pytest.param(["intensity", "--pattern", "PTS", "--network", "TREE"], 3,
                 "is planar but domain is a network", id="planar-file-on-network"),
    pytest.param(["intensity", "--pattern", "PTS", "--window", "0,1,0,1", "--grid", "8"], 3,
                 "grid dims must be at least 16x16, got 8x8", id="grid"),
    pytest.param(["intensity", "--pattern", "PTS", "--window", "0,1,0,1", "--sigma", "abc"], 3,
                 "--sigma must be a finite number, 'scott' or 'cvl', got 'abc'", id="sigma-text"),
    pytest.param(["intensity", "--pattern", "ON_TREE", "--network", "TREE", "--method", "heat"], 3,
                 "network intensity supports methods uniform/jd only", id="network-heat"),
    pytest.param(["intensity", "--pattern", "ON_TREE", "--network", "TREE", "--sigma", "cvl"], 3,
                 "cvl bandwidth selection is planar-only", id="network-cvl"),
    pytest.param(["simulate", "--model", "poisson", "--window", "0,1,0,1"], 3,
                 "--rate is required for poisson simulation", id="simulate-rate"),
    pytest.param(["simulate", "--model", "linked", "--network", "TREE"], 3,
                 "linked and balanced Cox patterns are planar-only", id="linked-on-network"),
    pytest.param(["envelope", "--model", "poisson", "--window", "0,1,0,1"], 3,
                 "--rate is required for poisson envelopes", id="envelope-rate"),
    pytest.param(["envelope", "--model", "poisson", "--network", "TREE", "--rate", "1"], 3,
                 "poisson envelopes are planar-only in the CLI", id="envelope-network"),
    pytest.param(["envelope", "--model", "modelI", "--stat", "stoyan", "--nsim", "39",
                  "--n-expected", "1e-9"], 3, "no pattern with 2 or more points", id="envelope-redraws"),
    pytest.param(["markcorr", "--pattern", "NAN_MARK", "--window", "0,1,0,1"], 3, "point 1 has non-finite mark nan",
                 id="non-finite-mark"),
    pytest.param(["markcorr", "--pattern", "OUTSIDE", "--window", "0,1,0,1"], 3, "point 1 at (2.0, 0.5) outside window",
                 id="outside-window"),
    pytest.param(["rerun", "NOT_JSON"], 3, "is not a JSON object with an argv record", id="rerun-not-json"),
    pytest.param(["rerun", "FAILING"], 3, "failed with exit code 3", id="rerun-failing"),
]


@pytest.fixture
def cli_files(tmp_path):
    net = mp.synthetic_tree_network(core_depth=3)
    mp.save_network(net, tmp_path / "tree.json")
    mp.save_pattern_csv(planar(20), tmp_path / "pts.csv")
    mp.save_pattern_csv(mp.poisson_network(20.0 / net.total_length, net, rng()), tmp_path / "on_tree.csv")
    write(tmp_path / "nan_mark.csv", "x,y,mark\n0.5,0.5,1\n0.5,0.5,nan\n")
    write(tmp_path / "outside.csv", "x,y\n0.5,0.5\n2,0.5\n")
    write(tmp_path / "not.json", "not json")
    run = ["simulate", "--model", "poisson", "--window", "0,1,0,1", "--out-dir", str(tmp_path / "out")]
    write(tmp_path / "failing.json", json.dumps({"argv": run}))
    return {"PTS": "pts.csv", "TREE": "tree.json", "ON_TREE": "on_tree.csv", "NAN_MARK": "nan_mark.csv",
            "OUTSIDE": "outside.csv", "NOT_JSON": "not.json", "FAILING": "failing.json"}


@pytest.mark.parametrize("argv, code, message", CLI)
def test_cli_refusals(tmp_path, capsys, cli_files, argv, code, message):
    argv = [str(tmp_path / cli_files[a]) if a in cli_files else a for a in argv]
    if argv[0] != "rerun":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not list(tmp_path.glob("out/*_metadata.json"))  # a refused run records no run

