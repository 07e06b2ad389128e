"""CLI contract: artifacts, exit codes, metadata, byte-level determinism."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markedpoints import (
    BEISBART_KERSCHER,
    SHIMANTANI_I,
    STOYAN,
    VARIOGRAM,
    MarkedPoint,
    MarkedPointPattern,
    PlanarWindow,
    SeedSpec,
    SmoothingSpec1D,
    envelopes,
    default_smoothing,
    load_network,
    load_pattern_csv,
    mark_corr,
    mark_corr_suite,
    model_marks,
    r_grid,
    replicate_rng,
    save_network,
    save_pattern_csv,
    synthetic_tree_network,
)
import markedpoints
from markedpoints._dist import close_pairs
from markedpoints.cli import build_parser, main
from markedpoints.envelope import poisson_network_min2
from markedpoints.pattern import _fmt, _write_table
from markedpoints.svgplot import curves_svg, envelope_panels_svg


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.json"
    save_network(synthetic_tree_network(core_depth=4), path)
    return str(path)


@pytest.fixture
def planar_csv(tmp_path):
    rng = np.random.default_rng(1)
    w = PlanarWindow(0, 1, 0, 1)
    pts = []
    for i, (x, y) in enumerate(rng.uniform(0.02, 0.98, size=(60, 2))):
        pts.append(MarkedPoint((x, y), "a" if i % 2 else "b", float(rng.uniform(1, 2))))
    path = tmp_path / "pattern.csv"
    save_pattern_csv(MarkedPointPattern(w, pts), path)
    return str(path)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_usage_error_exit_2():
    assert main(["summary"]) == 2
    assert main(["no-such-command"]) == 2


def test_missing_file_exit_3(tmp_path):
    rc = main(
        ["markcorr", "--pattern", "nope.csv", "--network", "missing.json",
         "--out-dir", str(tmp_path)]
    )
    assert rc == 3


def test_intensity_subcommand(tmp_path, planar_csv):
    out = tmp_path / "out"
    rc = main(
        ["intensity", "--pattern", planar_csv, "--window", "0,1,0,1",
         "--method", "jd", "--sigma", "0.08", "--grid", "64", "--out-dir", str(out)]
    )
    assert rc == 0
    assert (out / "intensity.csv").exists()
    meta = json.loads((out / "intensity_metadata.json").read_text())
    assert meta["config"]["method"] == "jd"
    assert meta["resolved_sigma"] == 0.08


def test_summary_kcross(tmp_path, planar_csv):
    out = tmp_path / "out"
    rc = main(
        ["summary", "--pattern", planar_csv, "--window", "0,1,0,1",
         "--stat", "kcross", "--type-i", "a", "--type-j", "b",
         "--ec", "translation", "--rmax", "0.2", "--bins", "32",
         "--lambda-const", "30", "--out-dir", str(out)]
    )
    assert rc == 0
    lines = (out / "kcross.csv").read_text().splitlines()
    assert lines[0].startswith("# statistic=kcross")
    assert lines[1] == "r,value,theoretical"
    assert len(lines) == 2 + 33


def test_summary_jcross(tmp_path, planar_csv):
    out = tmp_path / "out"
    rc = main(
        ["summary", "--pattern", planar_csv, "--window", "0,1,0,1",
         "--stat", "jcross", "--type-i", "a", "--type-j", "b",
         "--rmax", "0.1", "--bins", "16", "--lambda-const", "30",
         "--grid-spacing", "0.05", "--out-dir", str(out)]
    )
    assert rc == 0
    assert (out / "jcross.csv").exists()


def test_markcorr_suite_artifacts(tmp_path, tree_file):
    sim = tmp_path / "sim"
    assert main(
        ["simulate", "--model", "modelIII", "--network", tree_file,
         "--n-expected", "60", "--seed", "9", "--out-dir", str(sim)]
    ) == 0
    out = tmp_path / "mc"
    rc = main(
        ["markcorr", "--pattern", str(sim / "pattern.csv"), "--network", tree_file,
         "--tf", "suite", "--bandwidth", "15", "--rmax", "150", "--bins", "50",
         "--out-dir", str(out)]
    )
    assert rc == 0
    for name in ("stoyan", "variogram", "shimantani_i", "beisbart_kerscher"):
        assert (out / f"markcorr_{name}.csv").exists()
    assert (out / "markcorr_suite.csv").exists()
    assert (out / "markcorr_suite.svg").exists()


def test_markcorr_degenerate_exit_4(tmp_path):
    w = PlanarWindow(0, 1, 0, 1)
    pts = [MarkedPoint((0.3, 0.5), mark=2.0), MarkedPoint((0.7, 0.5), mark=2.0)]
    path = tmp_path / "const.csv"
    save_pattern_csv(MarkedPointPattern(w, pts), path)
    rc = main(
        ["markcorr", "--pattern", str(path), "--window", "0,1,0,1",
         "--tf", "vario", "--bandwidth", "0.2", "--rmax", "0.5",
         "--bins", "8", "--out-dir", str(tmp_path / "out")]
    )
    assert rc == 4


def test_simulate_models(tmp_path, tree_file):
    for model, extra in [
        ("poisson", ["--window", "0,1,0,1", "--rate", "50"]),
        ("lgcp", ["--network", tree_file, "--n-expected", "40"]),
        ("balanced", ["--window", "0,1,0,1", "--nu", "80", "--base-const", "30"]),
        ("modelII", ["--network", tree_file, "--n-expected", "40"]),
    ]:
        out = tmp_path / f"sim_{model}"
        rc = main(["simulate", "--model", model, "--seed", "3", "--out-dir", str(out)] + extra)
        assert rc == 0, model
        assert (out / "pattern.csv").exists()
        assert (out / "simulate_metadata.json").exists()


def test_envelope_k_rule_in_metadata(tmp_path, tree_file):
    out = tmp_path / "env"
    rc = main(
        ["envelope", "--model", "modelIII", "--network", tree_file, "--stat", "stoyan",
         "--nsim", "39", "--level", "0.95", "--n-expected", "40",
         "--rmax", "120", "--bins", "24", "--bandwidth", "20",
         "--seed", "5", "--out-dir", str(out)]
    )
    assert rc == 0
    meta = json.loads((out / "envelope_metadata.json").read_text())
    assert meta["k"] == 1
    assert (out / "modelIII_stoyan_band.csv").exists()


def test_cli_byte_identical_and_thread_invariant(tmp_path, tree_file):
    args = [
        "envelope", "--model", "modelIII", "--network", tree_file, "--stat", "stoyan",
        "--nsim", "39", "--n-expected", "30", "--rmax", "100", "--bins", "16",
        "--bandwidth", "25", "--seed", "7",
    ]
    outs = []
    for name, threads in (("a", None), ("b", None), ("c", "2")):
        out = tmp_path / name
        env_before = os.environ.get("MARKEDPOINTS_THREADS")
        if threads is None:
            os.environ.pop("MARKEDPOINTS_THREADS", None)
        else:
            os.environ["MARKEDPOINTS_THREADS"] = threads
        try:
            assert main(args + ["--out-dir", str(out)]) == 0
        finally:
            if env_before is None:
                os.environ.pop("MARKEDPOINTS_THREADS", None)
            else:
                os.environ["MARKEDPOINTS_THREADS"] = env_before
        outs.append(read_bytes(out / "modelIII_stoyan_band.csv"))
    assert outs[0] == outs[1] == outs[2]


def test_envelope_199_records_k5(tmp_path, tree_file):
    out = tmp_path / "env199"
    rc = main(
        ["envelope", "--model", "modelIII", "--network", tree_file, "--stat", "stoyan",
         "--nsim", "199", "--level", "0.95", "--n-expected", "25",
         "--rmax", "100", "--bins", "10", "--bandwidth", "30",
         "--seed", "2", "--out-dir", str(out)]
    )
    assert rc == 0
    meta = json.loads((out / "envelope_metadata.json").read_text())
    assert meta["k"] == 5


def test_rerun_reproduces(tmp_path, tree_file):
    out = tmp_path / "first"
    assert main(
        ["simulate", "--model", "modelIII", "--network", tree_file,
         "--n-expected", "40", "--seed", "21", "--out-dir", str(out)]
    ) == 0
    first = read_bytes(out / "pattern.csv")
    assert main(["rerun", str(out / "simulate_metadata.json")]) == 0
    assert read_bytes(out / "pattern.csv") == first


def test_envelope_zero_intensity_exits_3(tmp_path, tree_file):
    # every draw is empty, so the n >= 2 redraw loop must give up, not hang
    for stat in ("suite", "stoyan"):
        t0 = time.perf_counter()
        rc = main(
            ["envelope", "--model", "modelI", "--stat", stat, "--n-expected", "0",
             "--network", tree_file, "--nsim", "19", "--out-dir", str(tmp_path / stat)]
        )
        assert rc == 3
        assert time.perf_counter() - t0 < 60.0


BAD_PATTERN_CSV = {
    "non_numeric": "x,y\n0.5,abc\n",
    "short_row": "x,y\n0.5\n",
    "non_integer_segment": "segment,offset\n1.5,0.3\n",
}

BAD_NETWORK_JSON = {
    "network_json_list": "[[0, 0], [1, 0]]",
    "network_json_truncated": '{"vertices": [[0, 0], [1, 0]], "segm',
    "network_json_fields": '{"vertices": "abc", "segments": [[0, 1]]}',
    "network_json_nan_vertex": '{"vertices": [[0, 0], [NaN, 1], [1, 1]], "segments": [[0, 1], [1, 2]]}',
}

# every float flag rejects inf and NaN at parse time, and --base-cosine
# anything but three finite numbers; envelope cases also get the tree network
# and a short run
NON_FINITE_FLAGS = {
    "envelope_bandwidth_nan": ["envelope", "--model", "modelI", "--stat", "stoyan", "--bandwidth", "nan"],
    "envelope_radius_nan": ["envelope", "--model", "modelIII", "--stat", "stoyan", "--radius", "nan"],
    "envelope_n_expected_nan": ["envelope", "--model", "modelI", "--stat", "stoyan", "--n-expected", "nan"],
    "simulate_rate_nan": ["simulate", "--model", "poisson", "--window", "0,1,0,1", "--rate", "nan"],
    "simulate_tau_nan": ["simulate", "--model", "modelI", "--tau", "nan"],
    "simulate_a_inf": ["simulate", "--model", "modelI", "--a", "inf"],
    "simulate_base_cosine_abc": ["simulate", "--model", "linked", "--window", "0,1,0,1", "--base-cosine", "abc"],
    "simulate_base_cosine_short": ["simulate", "--model", "linked", "--window", "0,1,0,1", "--base-cosine", "1,2"],
}

# paths the CLI cannot read or write: each names the file (exit 3); DIR is a
# directory, FILE an existing file, and an --out-dir in the argv replaces the default
UNUSABLE_PATHS = {
    "pattern_directory": ["markcorr", "--pattern", "DIR", "--window", "0,1,0,1"],
    "network_directory": ["simulate", "--model", "modelII", "--network", "DIR"],
    "rerun_directory": ["rerun", "DIR"],
    "out_dir_is_file": ["simulate", "--model", "poisson", "--window", "0,1,0,1", "--rate", "1", "--out-dir", "FILE"],
    "pattern_not_utf8": ["markcorr", "--pattern", "FILE", "--window", "0,1,0,1"],
    "rerun_argv_not_list": ["rerun", "FILE"],
    "rerun_of_rerun": ["rerun", "FILE"],
}
# what FILE holds; a rerun record that replays itself recursed without end
FILE_BYTES = {"pattern_not_utf8": b"\xff\xfex,y\n0.5,0.5\n", "rerun_argv_not_list": b'{"argv": 5}'}

# a window, an expected count or a mean intensity that numpy's samplers would fail on
SAMPLER_INPUTS = {
    "simulate_window_inf": ["simulate", "--model", "poisson", "--window", "0,inf,0,1", "--rate", "1"],
    "simulate_rate_over_cap": ["simulate", "--model", "poisson", "--window", "0,1,0,1", "--rate", "1e20"],
    "simulate_lgcp_mu_over_cap": ["simulate", "--model", "lgcp", "--lgcp-mu", "50"],
    "simulate_lgcp_n_expected_zero": ["simulate", "--model", "lgcp", "--n-expected", "0"],
}


@pytest.mark.parametrize(
    "case, code",
    [
        ("non_numeric", 3),
        ("short_row", 3),
        ("non_integer_segment", 3),
        ("envelope_bad_stat", 2),
        ("summary_missing_type_j", 3),
        ("threads_not_integer", 3),
        ("envelope_nsim_zero", 3),
        ("envelope_suite_trend_flags", 3),
        ("intensity_sigma_inf", 3),
        ("summary_lambda_const_inf", 2),
        ("network_json_list", 3),
        ("network_json_truncated", 3),
        ("network_json_fields", 3),
        ("network_json_nan_vertex", 3),
        ("summary_grid_spacing_zero", 3),
    ]
    + [(case, 2) for case in NON_FINITE_FLAGS]
    + [(case, 3) for case in UNUSABLE_PATHS]
    + [(case, 3) for case in SAMPLER_INPUTS],
)
def test_bad_input_exit_code_without_traceback(tmp_path, tree_file, planar_csv, case, code):
    env = dict(os.environ)
    env.pop("MARKEDPOINTS_THREADS", None)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(markedpoints.__file__))
    out = ["--out-dir", str(tmp_path / "out")]
    if case in BAD_PATTERN_CSV:
        bad = tmp_path / "bad.csv"
        bad.write_text(BAD_PATTERN_CSV[case])
        domain = ["--network", tree_file] if case == "non_integer_segment" else ["--window", "0,1,0,1"]
        argv = ["markcorr", "--pattern", str(bad)] + domain
    elif case in BAD_NETWORK_JSON:
        bad = tmp_path / "bad.json"
        bad.write_text(BAD_NETWORK_JSON[case])
        argv = ["simulate", "--model", "modelII", "--network", str(bad)]
    elif case in UNUSABLE_PATHS:
        named = tmp_path / "named"
        named.write_bytes(FILE_BYTES.get(case, b"x,y\n"))
        if case == "rerun_of_rerun":
            named.write_text(json.dumps({"argv": ["rerun", str(named)]}))
        paths = {"DIR": str(tmp_path), "FILE": str(named)}
        argv = [paths.get(a, a) for a in UNUSABLE_PATHS[case]]
        if argv[0] == "rerun" or "--out-dir" in argv:
            out = []
    elif case in SAMPLER_INPUTS:
        argv = SAMPLER_INPUTS[case]
    elif case in NON_FINITE_FLAGS:
        argv = NON_FINITE_FLAGS[case]
        if argv[0] == "envelope":
            argv = argv + ["--network", tree_file, "--nsim", "19"]
    elif case == "envelope_suite_trend_flags":
        argv = ["envelope", "--model", "modelI", "--stat", "suite", "--network", tree_file, "--a", "5"]
    elif case == "intensity_sigma_inf":
        argv = ["intensity", "--pattern", planar_csv, "--window", "0,1,0,1", "--sigma", "inf"]
    elif case == "summary_lambda_const_inf":
        argv = ["summary", "--pattern", planar_csv, "--window", "0,1,0,1", "--stat", "f",
                "--lambda-const", "inf"]
    elif case == "envelope_bad_stat":
        argv = ["envelope", "--model", "modelI", "--stat", "foo", "--network", tree_file]
    elif case == "envelope_nsim_zero":
        argv = ["envelope", "--model", "modelI", "--stat", "suite", "--network", tree_file, "--nsim", "0"]
    elif case == "summary_grid_spacing_zero":
        argv = ["summary", "--pattern", planar_csv, "--window", "0,1,0,1", "--stat", "f",
                "--lambda-const", "30", "--grid-spacing", "0"]
    elif case == "summary_missing_type_j":
        argv = ["summary", "--pattern", planar_csv, "--window", "0,1,0,1", "--stat", "f",
                "--type-j", "zzz", "--lambda-const", "30"]
    else:
        env["MARKEDPOINTS_THREADS"] = "two"
        argv = ["envelope", "--model", "modelI", "--stat", "stoyan", "--network", tree_file,
                "--nsim", "3"]
    proc = subprocess.run(
        [sys.executable, "-m", "markedpoints.cli"] + argv + out,
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if case == "network_json_nan_vertex":
        assert "bad.json" in proc.stderr and "vertex coordinates must be finite" in proc.stderr
    if case in UNUSABLE_PATHS:
        assert (str(tmp_path) if "directory" in case else "named") in proc.stderr


ENVELOPE_SMALL = dict(nsim=39, seed=7, n_expected=30.0, rmax=100.0, bins=16, bandwidth=25.0)


@pytest.mark.parametrize(
    "model, stat, extra",
    [
        ("modelI", "stoyan", {"a": 2.0, "b": 0.5, "tau": 3.0}),
        ("modelII", "vario", {}),
        ("modelIII", "bk", {"radius": 0.0}),
        ("modelIII", "shimantani", {"radius": "tie"}),
        ("modelIII", "stoyan", {"radius": 400.0}),  # above rmax + kernel support
    ],
)
def test_envelope_one_statistic_matches_public_calls(tmp_path, tree_file, monkeypatch, model, stat, extra):
    # the band CSV and SVG of `envelope --stat <tf>` under a mark model equal
    # a replay from envelopes, model_marks and mark_corr, for every worker count
    cfg = ENVELOPE_SMALL
    net = load_network(tree_file)
    lam = cfg["n_expected"] / net.total_length
    if extra.get("radius") == "tie":  # a pair of replicate 0 sits exactly at the radius
        p0 = poisson_network_min2(lam, net, replicate_rng(SeedSpec(cfg["seed"], 0)))
        d = np.sort(close_pairs(p0, 200.0)[2])
        extra = {"radius": float(d[len(d) // 2])}
    kw = {"a": 0.0, "b": 1.0, "tau": None, "radius": 80.0, **extra}
    r = r_grid(cfg["rmax"], cfg["bins"])
    smoothing = SmoothingSpec1D(cfg["bandwidth"])
    tf = {"stoyan": STOYAN, "vario": VARIOGRAM, "bk": BEISBART_KERSCHER, "shimantani": SHIMANTANI_I}[stat]

    def gen(rng):
        return model_marks(model[5:], poisson_network_min2(lam, net, rng), rng, **kw)

    def statistic(p):
        return mark_corr(p, tf, smoothing, r, degenerate="nan")

    band = envelopes(gen, statistic, cfg["nsim"], 0.95, cfg["seed"])
    band.to_csv(tmp_path / "ref.csv")
    envelope_panels_svg(tmp_path / "ref.svg", [(tf.name, band)], title=f"{model}: {tf.name} envelope")

    argv = ["envelope", "--model", model, "--stat", stat, "--network", tree_file]
    for key, value in list(cfg.items()) + list(extra.items()):
        argv += [f"--{key.replace('_', '-')}", repr(value)]
    for threads in (None, "1", "2"):
        if threads is None:
            monkeypatch.delenv("MARKEDPOINTS_THREADS", raising=False)
        else:
            monkeypatch.setenv("MARKEDPOINTS_THREADS", threads)
        out = tmp_path / f"threads_{threads}"
        assert main(argv + ["--out-dir", str(out)]) == 0
        assert read_bytes(out / f"{model}_{tf.name}_band.csv") == read_bytes(tmp_path / "ref.csv")
        assert read_bytes(out / f"{model}_{tf.name}_band.svg") == read_bytes(tmp_path / "ref.svg")


@pytest.mark.parametrize(
    "domain, tf",
    [("planar", "suite"), ("planar", "vario"), ("network", "suite"), ("network", "stoyan")],
)
def test_markcorr_artifacts_match_library(tmp_path, tree_file, planar_csv, domain, tf):
    # every CSV and SVG of `markcorr` equals a replay from the library calls
    if domain == "planar":
        pattern = planar_csv
        p = load_pattern_csv(pattern, PlanarWindow(0, 1, 0, 1))
        flags = ["--window", "0,1,0,1", "--ec", "symmetricWeight", "--bandwidth", "0.05", "--rmax", "0.2"]
        ec, smoothing, r = "symmetricWeight", SmoothingSpec1D(0.05), r_grid(0.2, 40)
    else:
        sim = tmp_path / "sim"
        assert main(["simulate", "--model", "modelIII", "--network", tree_file, "--n-expected", "60",
                     "--seed", "9", "--out-dir", str(sim)]) == 0
        pattern = str(sim / "pattern.csv")
        p = load_pattern_csv(pattern, load_network(tree_file))
        flags = ["--network", tree_file, "--rmax", "150"]  # default bandwidth
        ec, smoothing, r = "none", default_smoothing(p), r_grid(150.0, 40)
    out = tmp_path / "out"
    assert main(["markcorr", "--pattern", pattern, "--tf", tf, "--bins", "40", "--out-dir", str(out)] + flags) == 0

    ref = tmp_path / "ref"
    ref.mkdir()
    if tf == "suite":
        suite = mark_corr_suite(p, smoothing, r, ec)
        names = sorted(suite.curves)
        cols = [r] + [suite.curves[n].values for n in names] + [suite.numerators[n].values for n in names]
        _write_table(ref / "markcorr_suite.csv", ["r"] + names + [f"raw_{n}" for n in names], map(_fmt, cols))
        for name, curve in suite.curves.items():
            curve.to_csv(ref / f"markcorr_{name}.csv")
        curves_svg(ref / "markcorr_suite.svg", [(n, suite.curves[n]) for n in names],
                   title="mark correlation functions")
    else:
        test_fn = {"vario": VARIOGRAM, "stoyan": STOYAN}[tf]
        curve, numer = mark_corr(p, test_fn, smoothing, r, ec, return_numerator=True)
        curve.to_csv(ref / f"markcorr_{test_fn.name}.csv")
        numer.to_csv(ref / f"markcorr_raw_{test_fn.name}.csv")
        curves_svg(ref / f"markcorr_{test_fn.name}.svg", [(test_fn.name, curve)],
                   title=f"mark correlation: {test_fn.name}")
    written = sorted(f for f in os.listdir(out) if f != "markcorr_metadata.json")
    assert written == sorted(os.listdir(ref))
    for name in written:
        assert read_bytes(out / name) == read_bytes(ref / name), name


# ---------------- the bad-input contract as a property test ----------------

_OMIT = None
_BAD = ["0", "-1", "nan", "inf", "abc", "1,2"]
# a small valid value per flag, on a 50 x 50 window, a 190-long test network
# or the 2,820-long bundled tree
_VALID = {
    "--seed": "1", "--window": "0,50,0,50", "--sigma": "5", "--grid": "8", "--type-i": "a",
    "--type-j": "b", "--rmax": "20", "--bins": "8", "--lambda-const": "0.02", "--grid-spacing": "5",
    "--bandwidth": "5", "--rate": "0.02", "--n-expected": "30", "--nu": "2", "--base-const": "0.01",
    "--base-cosine": "0.02,0.005,20", "--lgcp-mu": "-3", "--lgcp-var": "0.25", "--lgcp-step": "50",
    "--a": "1", "--b": "1", "--tau": "1", "--radius": "10", "--nsim": "19", "--level": "0.8",
}
# flags that set how much work a run does are never left at their defaults
# and never take a large value: no size preflight guards them yet
_SIZE_FLAGS = {"--grid", "--bins", "--nsim", "--n-expected", "--rate", "--grid-spacing", "--lgcp-step",
               "--nu", "--base-const"}
_FILE_FLAGS = {"--pattern": ("planar.csv", "network.csv"), "--network": ("net.json",), "metadata": ("meta.json",)}


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    """Valid, truncated and non-numeric pattern, network and metadata files,
    a file that is not UTF-8, a directory and a missing path."""
    root = tmp_path_factory.mktemp("contract")
    rng = np.random.default_rng(5)
    net = markedpoints.LinearNetwork([[0, 0], [40, 0], [40, 40], [0, 40], [20, 60]],
                                     [[0, 1], [1, 2], [2, 3], [3, 0], [2, 4]])
    save_network(net, root / "net.json")
    labels = ["a", "b"] * 15
    planar = MarkedPointPattern.from_columns(PlanarWindow(0, 50, 0, 50), rng.uniform(1, 49, size=(30, 2)),
                                             marks=rng.gamma(2.0, 1.0, 30), labels=labels)
    save_pattern_csv(planar, root / "planar.csv")
    on_net = MarkedPointPattern.from_columns(net, (rng.integers(0, 5, 30), rng.uniform(size=30)),
                                             marks=rng.gamma(2.0, 1.0, 30), labels=labels)
    save_pattern_csv(on_net, root / "network.csv")
    assert main(["simulate", "--model", "poisson", "--window", "0,50,0,50", "--rate", "0.01",
                 "--out-dir", str(root / "sim")]) == 0
    os.replace(root / "sim" / "simulate_metadata.json", root / "meta.json")
    files = {}
    for name in ("net.json", "planar.csv", "network.csv", "meta.json"):
        text = (root / name).read_text()
        cut, bad = root / f"truncated_{name}", root / f"nonnumeric_{name}"
        cut.write_text(text[: len(text) // 2])
        bad.write_text(text.replace("0", "abc", 3) if name.endswith("json") else text.replace(",", ",abc", 2))
        files[name] = str(root / name)
        files[f"truncated_{name}"], files[f"nonnumeric_{name}"] = str(cut), str(bad)
    files["missing"] = str(root / "missing.csv")
    (root / "directory").mkdir()
    files["directory"] = str(root / "directory")
    (root / "not_utf8.csv").write_bytes(b"\xff\xfe" + (root / "planar.csv").read_bytes())
    files["not_utf8"] = str(root / "not_utf8.csv")
    return files


@st.composite
def _contract_argv(draw, files):
    """argv of one subcommand: every flag at a valid value or left out, except
    up to two flags drawn from the bad values (or a wrong file)."""
    subparsers = build_parser()._subparsers._group_actions[0].choices
    command = draw(st.sampled_from(sorted(subparsers)))
    actions = [a for a in subparsers[command]._actions if a.dest not in ("help", "out_dir")]
    names = [a.option_strings[0] if a.option_strings else a.dest for a in actions]
    bad = draw(st.sets(st.sampled_from(names), max_size=2))
    argv = [command]
    for action, name in zip(actions, names):
        if name in _FILE_FLAGS:
            good = [files[f] for f in _FILE_FLAGS[name]]
            wrong = sorted(set(files.values()) - set(good))
            values = wrong if name in bad else good + ([] if action.required or not action.option_strings else [_OMIT])
        elif action.choices:
            values = _BAD + [_OMIT] if name in bad else sorted(action.choices) + [_OMIT]
        else:
            omit = [] if name in _SIZE_FLAGS else [_OMIT]
            values = _BAD + omit if name in bad else [_VALID[name]] + omit
        value = draw(st.sampled_from(values))
        if value is not _OMIT:
            argv += [name, value] if action.option_strings else [value]
    return argv


# no deadline: one example can run a short envelope; max_examples comes from the profile
@settings(deadline=None)
@given(data=st.data())
def test_every_subcommand_exits_with_a_documented_code(contract_files, tmp_path_factory, data):
    argv = data.draw(_contract_argv(contract_files))
    # the output directory is a fresh one or an existing (input) file
    out = data.draw(st.sampled_from([str(tmp_path_factory.mktemp("run")), contract_files["planar.csv"]]))
    if argv[0] != "rerun":
        argv += ["--out-dir", out]
    assert main(argv) in (0, 2, 3, 4)
