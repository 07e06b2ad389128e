"""Write the golden artifact set that tests/test_golden.py compares with a
fresh run: the CLI outputs that row blocks, sum orders, pair searches and
BLAS threads can move (planar and network K, mark-weighted K, F, H and J
curves, mark correlation suites, planar rasters with a fixed and a cvl
bandwidth and with the Epanechnikov kernel, and a network intensity), the study
bands of models I-III, a single-statistic envelope, a Poisson K envelope and
simulated linked Cox, LGCP, model II and model III patterns.

    PYTHONPATH=src python tests/golden/regen.py           # rewrite tests/golden
    PYTHONPATH=src python tests/golden/regen.py OUT_DIR   # write the set elsewhere

Each case runs the CLI on inputs drawn here from fixed seeds and keeps the
CSV and SVG files it writes in <dir>/<case>/; versions.json records the
numpy and scipy that wrote them. A change that rewrites the set declares
which files moved and by how much.
"""

import os
import sys

# one BLAS thread, set before numpy loads: a planar raster's matrix product
# moves in its last bits with the thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import scipy

from markedpoints import (
    MarkedPointPattern,
    PlanarWindow,
    poisson_network,
    save_network,
    save_pattern_csv,
    synthetic_tree_network,
)
from markedpoints.cli import main

PLANAR = ["--pattern", "INPUTS/planar.csv", "--window", "0,1,0,1", "--rmax", "0.05"]
NETWORK = ["--pattern", "INPUTS/network.csv", "--network", "INPUTS/tree.json"]
# 1,400 points: their pairs take more than one row block, so the network pair
# engine searches candidates instead of sweeping every pair
DENSE = ["--pattern", "INPUTS/network_dense.csv", "--network", "INPUTS/tree.json"]
SUMMARY = ["summary", "--type-i", "a", "--type-j", "b", "--bins", "64", "--stat"]
# 5,000 points on a 24 x 24 raster take more than one row block of points
RASTER = ["intensity", "--sigma", "0.05", "--grid", "24", "--pattern", "INPUTS/planar.csv", "--window", "0,1,0,1"]
STUDY = ["envelope", "--stat", "suite", "--nsim", "39", "--bins", "30", "--model"]
MARKCORR = ["markcorr", "--tf", "suite", "--bins", "64"]

CASES = {
    "summary_f_planar": SUMMARY + ["f"] + PLANAR,
    "summary_hcross_planar": SUMMARY + ["hcross"] + PLANAR,
    "summary_jcross_planar": SUMMARY + ["jcross"] + PLANAR,
    "summary_f_network": SUMMARY + ["f"] + NETWORK,
    "summary_hcross_network": SUMMARY + ["hcross"] + NETWORK,
    "summary_jcross_network": SUMMARY + ["jcross"] + NETWORK,
    "summary_kcross_planar": SUMMARY + ["kcross"] + PLANAR,
    "summary_kcross_network": SUMMARY + ["kcross"] + DENSE,
    "summary_kweighted_planar": SUMMARY + ["kweighted"] + PLANAR,
    "summary_kweighted_network": SUMMARY + ["kweighted"] + DENSE,
    "intensity_uniform": RASTER + ["--method", "uniform"],
    "intensity_jd": RASTER + ["--method", "jd"],
    "study_modelI": STUDY + ["modelI"],
    "study_modelII": STUDY + ["modelII"],
    "study_modelIII": STUDY + ["modelIII"],
    "markcorr_planar": MARKCORR + PLANAR,
    "markcorr_network": MARKCORR + NETWORK,
    "intensity_jd_cvl": ["intensity", "--method", "jd", "--sigma", "cvl", "--grid", "16"] + PLANAR[:4],
    # the compact kernel in 2-D, where most points lie outside a cell's support
    "intensity_epanechnikov": ["intensity", "--method", "uniform", "--kernel", "epanechnikov", "--sigma", "0.05",
                               "--grid", "16"] + PLANAR[:4],
    "envelope_modelII_stoyan": ["envelope", "--model", "modelII", "--stat", "stoyan", "--nsim", "39", "--bins", "30"],
    "simulate_linked": ["simulate", "--model", "linked", "--window", "0,1,0,1", "--nu", "2", "--base-cosine", "40,10,0.5"],
    "simulate_modelIII": ["simulate", "--model", "modelIII"],
    # the LGCP's constant mean and the study's and mark models' defaults
    "simulate_lgcp": ["simulate", "--model", "lgcp", "--n-expected", "40"],
    "simulate_modelII": ["simulate", "--model", "modelII", "--n-expected", "40"],
    # the network intensity CSV, and a Poisson K envelope run to the end
    "intensity_network": ["intensity", "--sigma", "200"] + NETWORK,
    "envelope_poisson": ["envelope", "--model", "poisson", "--window", "0,1,0,1", "--rate", "50", "--nsim", "39",
                         "--bins", "30"],
}


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def write_inputs(inputs: Path):
    """A 5,000-point planar pattern, and a 300-point and a 1,400-point
    network pattern on the dendrite tree, each with types a and b and gamma
    marks."""
    rng = np.random.default_rng(20240)
    types = np.where(np.arange(5000) % 2, "a", "b")
    window = PlanarWindow(0.0, 1.0, 0.0, 1.0)
    planar = MarkedPointPattern.from_columns(window, rng.uniform(size=(5000, 2)), rng.gamma(2.0, 1.5, 5000), types)
    save_pattern_csv(planar, inputs / "planar.csv")
    net = synthetic_tree_network(core_depth=4)
    save_network(net, inputs / "tree.json")
    p = poisson_network(300.0 / net.total_length, net, rng)
    p = p.with_marks(rng.gamma(2.0, 1.5, p.n)).with_labels(np.where(np.arange(p.n) % 2, "a", "b"))
    save_pattern_csv(p, inputs / "network.csv")
    rng = np.random.default_rng(20241)
    p = poisson_network(1400.0 / net.total_length, net, rng)
    p = p.with_marks(rng.gamma(2.0, 1.5, p.n)).with_labels(np.where(np.arange(p.n) % 2, "a", "b"))
    save_pattern_csv(p, inputs / "network_dense.csv")


def regenerate(out: Path):
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_inputs(tmp)
        for case, argv in CASES.items():
            argv = [a.replace("INPUTS", str(tmp)) for a in argv] + ["--out-dir", str(tmp / case)]
            if main(argv) != 0:
                raise SystemExit(f"golden case {case} failed: markedpoints {' '.join(argv)}")
            shutil.rmtree(out / case, ignore_errors=True)
            (out / case).mkdir()
            for path in sorted((tmp / case).glob("*")):
                if path.suffix in (".csv", ".svg"):
                    shutil.copyfile(path, out / case / path.name)
    (out / "versions.json").write_text(json.dumps(versions(), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent)
