"""Independent reference computations for the traced run's cross-checks:
network distances by scipy's csgraph Dijkstra, pair counts by KD-tree,
rank bands, and a replay of each CLI subcommand through public calls.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

import checks

import markedpoints as mp
from markedpoints import svgplot

# ---------------------------------------------------------------- distances and counts


def network_pair_distances(p) -> np.ndarray:
    """Shortest-path distances between the points of a network pattern.

    Vertex distances come from scipy's csgraph Dijkstra; each point reaches
    the rest of the network through the two ends of its segment, and two
    points on one segment may also meet directly along it.
    """
    net = p.domain
    segs = net.segments
    graph = coo_matrix((net.seg_lengths, (segs[:, 0], segs[:, 1])),
                       shape=(net.n_vertices, net.n_vertices))
    dv = dijkstra(graph, directed=False)
    seg = np.array([loc.segment for loc in p.locations()], dtype=int)
    off = np.array([loc.offset for loc in p.locations()])
    length = net.seg_lengths[seg]
    ends = [(off * length, segs[seg, 0]), ((1.0 - off) * length, segs[seg, 1])]
    best = np.full((p.n, p.n), np.inf)
    for da, va in ends:
        for db, vb in ends:
            best = np.minimum(best, da[:, None] + dv[np.ix_(va, vb)] + db[None, :])
    same = seg[:, None] == seg[None, :]
    direct = np.abs(off[:, None] - off[None, :]) * length[:, None]
    best = np.where(same, np.minimum(best, direct), best)
    np.fill_diagonal(best, 0.0)
    return best


def count_within(dist: np.ndarray, d_max: float) -> int:
    """Ordered pairs i != j of a square distance matrix with d <= d_max."""
    return int((dist <= d_max).sum() - len(dist))


def planar_count_within(xy: np.ndarray, d_max: float) -> int:
    tree = cKDTree(xy)
    return int(tree.count_neighbors(tree, d_max) - len(xy))


def f_grid_cells(window, spacing: float) -> int:
    nx = len(np.arange(window.xmin + spacing / 2.0, window.xmax, spacing))
    ny = len(np.arange(window.ymin + spacing / 2.0, window.ymax, spacing))
    return nx * ny


# ---------------------------------------------------------------- bands and files


def rank_band(r, matrix, nsim, level, statistic):
    """Pointwise rank envelope: the k-th lowest and k-th highest defined value."""
    k = math.floor((1.0 - level) / 2.0 * (nsim + 1))
    srt = np.sort(matrix, axis=0)
    n_eff = (~np.isnan(matrix)).sum(axis=0)
    lo = np.full(matrix.shape[1], np.nan)
    hi = np.full(matrix.shape[1], np.nan)
    mean = np.full(matrix.shape[1], np.nan)
    cols = np.nonzero(n_eff >= k)[0]
    lo[cols] = srt[k - 1, cols]
    hi[cols] = srt[n_eff[cols] - k, cols]
    some = n_eff > 0
    with np.errstate(invalid="ignore"):
        mean[some] = np.nanmean(matrix[:, some], axis=0)
    return mp.EnvelopeBand(r, lo, hi, mean, nsim, level, k, n_eff, statistic)


def same_bytes(path_a, path_b):
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        if fa.read() == fb.read():
            return None
    return f"{os.path.basename(path_a)} differs from {path_b}"


def jd_csv_integrates_to_n(path, p):
    """The Jones-Diggle raster written by the CLI integrates to n (see checks)."""
    with open(path, newline="") as fh:
        head = dict(tok.split("=", 1) for tok in fh.readline()[1:].split())
        rows = list(csv.DictReader(fh))
    nx, ny, sigma = int(head["nx"]), int(head["ny"]), float(head["sigma"])
    w = p.domain
    got = sum(float(row["value"]) for row in rows) * (w.width / nx) * (w.height / ny)
    want = checks.jd_raster_expected(p.coords(), w, sigma, nx, ny)
    if abs(got - want) > 1e-6 * max(p.n, 1):
        return f"JD raster integral {got} differs from {want} (n={p.n})"
    return None


# ---------------------------------------------------------------- CLI replay


def replay_cli(inp, rec):
    """Redo each CLI call of one pass through the public functions the
    subcommand uses, with a span around each call, and compare every
    replayed artifact with the CLI's own byte-for-byte."""
    out, seed, dims = inp["out"], inp["seed"], (inp["grid"], inp["grid"])
    rdir = os.path.join(os.path.dirname(out), "replay")
    os.makedirs(rdir, exist_ok=True)
    w = mp.PlanarWindow(0.0, 1.0, 0.0, 1.0)
    nsim = inp["nsim"]

    def compare(produced, cli_path):
        rec.fail(f"trace_crosscheck:{os.path.relpath(cli_path, out)}", same_bytes(produced, cli_path))

    def to_csv(obj, name, cli_rel):
        path = os.path.join(rdir, name)
        rec.call(f"io.to_csv:{name}", obj.to_csv, path)
        compare(path, os.path.join(out, cli_rel))

    # simulate --model modelIII on the tree
    net = rec.call("geometry.load_network", mp.load_network, inp["tree"])
    rng = mp.replicate_rng(mp.SeedSpec(seed, 0))
    p = rec.call("simulate.poisson_network", mp.poisson_network, 150.0 / net.total_length, net, rng)
    p = rec.call("simulate.model_marks:III", mp.model_marks, "III", p, rng, a=0.0, b=1.0,
                 tau=None, radius=80.0)
    rec.count_dense(p.n, p.n)
    path = os.path.join(rdir, "tree_pattern.csv")
    rec.call("io.save_pattern_csv", mp.save_pattern_csv, p, path)
    compare(path, os.path.join(out, "sim_tree", "pattern.csv"))

    # simulate --model linked on the unit square
    base, amp, scale = (float(t) for t in inp["cosine"].split(","))
    rng = mp.replicate_rng(mp.SeedSpec(seed, 0))
    p = rec.call("simulate.linked_balanced_cox", mp.linked_balanced_cox, "linked", 1.0,
                 mp.cosine_field_sampler(base, amp, scale), w, rng)
    path = os.path.join(rdir, "planar_pattern.csv")
    rec.call("io.save_pattern_csv", mp.save_pattern_csv, p, path)
    compare(path, os.path.join(out, "sim_planar", "pattern.csv"))

    # intensity --sigma cvl --method jd
    planar_csv = os.path.join(out, "sim_planar", "pattern.csv")
    p = rec.call("io.load_pattern_csv", mp.load_pattern_csv, planar_csv, w)
    sigma = rec.call("intensity.bandwidth_cvl", mp.bandwidth_cvl, p, dims)
    est = rec.call("intensity.intensity_jones_diggle", mp.intensity_jones_diggle, p,
                   mp.KernelSpec(sigma, "gaussian"), dims)
    rec.count("intensity.kernel_evals", 31 * p.n * dims[0] * dims[1])  # 30 candidates + the estimate
    to_csv(est, "intensity.csv", os.path.join("intensity", "intensity.csv"))

    # summary --stat jcross --sigma scott
    p = planar = rec.call("io.load_pattern_csv", mp.load_pattern_csv, planar_csv, w)
    r = mp.r_grid(0.25, 512)
    groups = rec.call("pattern.split_by_type", mp.split_by_type, p)
    lam = {}
    for t in ("1", "2"):
        sx, sy = rec.call("intensity.bandwidth_scott", mp.bandwidth_scott, groups[t])
        lam[t] = rec.call("intensity.intensity_uniform", mp.intensity_uniform, groups[t],
                          mp.KernelSpec(float(np.sqrt(sx * sy)), "gaussian"), dims)
        rec.count("intensity.kernel_evals", groups[t].n * dims[0] * dims[1])
    h = rec.call("summaries.h_cross_inhom", mp.h_cross_inhom, groups["1"], groups["2"], lam["1"],
                 lam["2"], r=r)
    f = rec.call("summaries.f_inhom", mp.f_inhom, groups["2"], lam["2"], grid_spacing=None, r=r)
    j = rec.call("summaries.j_cross_inhom", mp.j_cross_inhom, h, f)
    j.meta.update(intensity="uniform", sigma="scott")
    to_csv(j, "jcross.csv", os.path.join("summary", "jcross.csv"))
    grid = f_grid_cells(w, f.meta["spacing"])
    rec.count("summaries.f_grid_cells", grid)
    n1, n2 = groups["1"].n, groups["2"].n
    for a, b in ((n1, n2), (grid, n2)):
        rec.count_dense(a, b)
    rec.count_pairs(p.n, planar_count_within(p.coords(), 0.25))

    # markcorr --tf suite on the tree pattern
    net = rec.call("geometry.load_network", mp.load_network, inp["tree"])
    p = rec.call("io.load_pattern_csv", mp.load_pattern_csv,
                 os.path.join(out, "sim_tree", "pattern.csv"), net)
    r = mp.r_grid(min(250.0, net.total_length / 4.0), 512)
    smoothing = mp.default_smoothing(p)
    suite = rec.call("markcorr.mark_corr_suite", mp.mark_corr_suite, p, smoothing, r, "none")
    names = sorted(suite.curves)
    for name in names:
        to_csv(suite.curves[name], f"markcorr_{name}.csv",
               os.path.join("markcorr", f"markcorr_{name}.csv"))
    path = os.path.join(rdir, "markcorr_suite.svg")
    rec.call("io.svg", svgplot.curves_svg, path, [(n, suite.curves[n]) for n in names],
             title="mark correlation functions")
    compare(path, os.path.join(out, "markcorr", "markcorr_suite.svg"))
    rec.count_dense(p.n, p.n)
    tree_pattern = p

    # envelope --model poisson (K with translation correction per replicate)
    rate = float(inp["rate"])
    r = mp.r_grid(0.25, 250)

    def gen_poisson(rng):
        with rec.tracer.span("envelope.generator"):
            return rec.call("simulate.poisson_planar", mp.poisson_planar, rate, w, rng)

    def stat_k(q):
        with rec.tracer.span("envelope.statistic"):
            qi = rec.call("pattern.with_labels", q.with_labels, ["i"] * q.n)
            rec.count_dense(q.n, q.n)
            return rec.call("summaries.k_cross_inhom", mp.k_cross_inhom, qi, qi, rate, rate,
                            "translation", r)

    band = rec.call("envelope.envelopes", mp.envelopes, gen_poisson, stat_k, nsim, 0.95, seed,
                    n_jobs=None)
    to_csv(band, "poisson_k_band.csv", os.path.join("env_poisson", "poisson_k_band.csv"))

    # envelope --model modelII --stat stoyan
    net = rec.call("geometry.load_network", mp.load_network, inp["tree"])
    lam_tree = 150.0 / net.total_length
    r = mp.r_grid(250.0, 250)
    smoothing = mp.SmoothingSpec1D(10.0)

    def gen_model2(rng):
        with rec.tracer.span("envelope.generator"):
            while True:
                q = rec.call("simulate.poisson_network", mp.poisson_network, lam_tree, net, rng)
                if q.n >= 2:
                    rec.count_dense(q.n, net.n_vertices)
                    return rec.call("simulate.model_marks:II", mp.model_marks, "II", q, rng,
                                    a=0.0, b=1.0, tau=None, radius=80.0)

    def stat_stoyan(q):
        with rec.tracer.span("envelope.statistic"):
            rec.count_dense(q.n, q.n)
            return rec.call("markcorr.mark_corr", mp.mark_corr, q, mp.STOYAN, smoothing, r,
                            degenerate="nan")

    band = rec.call("envelope.envelopes", mp.envelopes, gen_model2, stat_stoyan, nsim, 0.95, seed,
                    n_jobs=None)
    to_csv(band, "modelII_stoyan_band.csv", os.path.join("env_modelII", "modelII_stoyan_band.csv"))
    path = os.path.join(rdir, "modelII_stoyan_band.svg")
    rec.call("io.svg", svgplot.envelope_panels_svg, path, [("stoyan", band)],
             title="modelII: stoyan envelope")
    compare(path, os.path.join(out, "env_modelII", "modelII_stoyan_band.svg"))

    return {"tree_pattern": tree_pattern, "planar_pattern": planar}
