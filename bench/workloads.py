"""The benchmark workloads: `study`, and `large`, which runs the
planar_large, network_large and cli parts one after another in each pass.

Each workload (and each part of `large`) has
  setup(seed, size, work)   -> inputs, generated from the seed only;
  run_pass(inp, rec)        -> outputs of one timed pass (public calls only);
  verify(inp, outs, rec)    -> output checks that need more than one output;
  properties(inp, outs)     -> input properties recorded with the results;
  probe(inp, outs, rec)     -> traced-run extras: per-layer probes and counts.

Every call into the package goes through `rec.call`, which opens a span
named `<module>.<function>[:detail]` when the run is traced.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np

import checks
import oracles
from inputs import grid_network_arrays

import markedpoints as mp
from markedpoints import cli, svgplot


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def pattern_probe(rec, p):
    """Time the pattern accessors on a fresh copy of p (coords are cached per object)."""
    q = mp.MarkedPointPattern(p.domain, p.points)
    rec.call("pattern.coords", q.coords)
    rec.call("pattern.locations", q.locations)
    if q.has_marks():
        marks = rec.call("pattern.marks", q.marks)
        rec.call("pattern.with_marks", q.with_marks, marks)
    if q.n and all(lab is not None for lab in q.labels()):
        rec.call("pattern.split_by_type", mp.split_by_type, q)


def network_distance_probe(rec, p, d_max):
    """all_pairs_network_distances on p, checked against the independent
    oracle, plus the ordered pair counts within d_max."""
    d = rec.call("geometry.all_pairs_network_distances", mp.all_pairs_network_distances,
                 p.domain, p.locations())
    want = oracles.network_pair_distances(p)
    err = float(np.abs(d - want).max()) if d is not None else np.inf
    rec.fail("geometry.all_pairs_network_distances:oracle",
             None if err <= 1e-9 * max(1.0, float(want.max())) else f"differs by {err:.3e}")
    rec.count_pairs(p.n, oracles.count_within(want, d_max))


# --------------------------------------------------------------------------- study

STUDY_MODELS = ("I", "II", "III")
STUDY_STATS = ("stoyan", "variogram", "shimantani_i", "beisbart_kerscher")


class Study:
    """Paper study: models I/II/III x nsim replicates of the four mark
    correlation functions on the dendrite tree, with rank envelopes."""

    name = "study"
    sizes = {
        "full": dict(nsim=199, n_expected=150.0, r_max=250.0, bins=250, bandwidth=10.0, radius=80.0),
        "smoke": dict(nsim=39, n_expected=40.0, r_max=250.0, bins=50, bandwidth=10.0, radius=80.0),
    }

    def setup(self, seed, size, work):
        net = mp.synthetic_tree_network()
        return dict(net=net, seed=seed, out=_fresh_dir(os.path.join(work, "study")), **self.sizes[size])

    def run_pass(self, inp, rec):
        outs = {}
        for model in STUDY_MODELS:
            outs[model] = rec.call(
                f"envelope.mark_correlation_study:{model}",
                mp.mark_correlation_study,
                inp["net"], model, inp["out"],
                nsim=inp["nsim"], master_seed=inp["seed"], n_expected=inp["n_expected"],
                r_max=inp["r_max"], bins=inp["bins"], bandwidth=inp["bandwidth"],
                radius=inp["radius"], check=checks.bands_ordered,
            )
        return outs

    def verify(self, inp, outs, rec):
        rec.record_digest("files", checks.dir_digests(inp["out"]))
        rec.count("io.bytes_written", checks.dir_bytes(inp["out"]))

    def properties(self, inp, outs):
        net = inp["net"]
        return {"tree": {"V": net.n_vertices, "S": net.n_segments, "length": net.total_length},
                "nsim": inp["nsim"], "n_expected": inp["n_expected"]}

    def probe(self, inp, outs, rec):
        """Rebuild every replicate from public calls on the same seed streams,
        reassemble the bands, and compare them byte-for-byte with the study's."""
        net = inp["net"]
        fresh = mp.synthetic_tree_network()
        rec.call("geometry.vertex_distances", fresh.vertex_distances)
        lam = inp["n_expected"] / net.total_length
        r = mp.r_grid(inp["r_max"], inp["bins"])
        smoothing = mp.SmoothingSpec1D(inp["bandwidth"])
        trend_a = 1.0 - float(net.vertices.sum(axis=1).min())
        d_max = inp["r_max"] + inp["bandwidth"]
        probe_dir = _fresh_dir(os.path.join(os.path.dirname(inp["out"]), "study_probe"))
        durations, sizes, redraws = [], [], 0
        for model in STUDY_MODELS:
            rows = []
            for i in range(inp["nsim"]):
                t0 = time.perf_counter()
                with rec.tracer.span("envelope.replicate"):
                    rng = mp.replicate_rng(mp.SeedSpec(inp["seed"], i))
                    while True:
                        p = rec.call("simulate.poisson_network", mp.poisson_network, lam, net, rng)
                        if p.n >= 2:
                            break
                        redraws += 1
                    marked = rec.call("simulate.model_marks", mp.model_marks, model, p, rng,
                                      a=trend_a, b=1.0, radius=inp["radius"])
                    suite = rec.call("markcorr.mark_corr_suite", mp.mark_corr_suite,
                                     marked, smoothing, r)
                durations.append(time.perf_counter() - t0)
                rows.append([suite.curves[s].values for s in STUDY_STATS])
                sizes.append(p.n)
                rec.count_dense(p.n, p.n)  # pair distances in the suite
                if model == "II":
                    rec.count_dense(p.n, net.n_vertices)  # point-to-vertex distances
                if model == "III":
                    rec.count_dense(p.n, p.n)  # all-pairs distances for the counts
                network_distance_probe(rec, marked, d_max)
                if model == "I" and i == 0:
                    pattern_probe(rec, marked)
            bands = {}
            for s, name in enumerate(STUDY_STATS):
                matrix = np.vstack([row[s] for row in rows])
                bands[name] = oracles.rank_band(r, matrix, inp["nsim"], 0.95, f"markcorr_{name}")
                fname = f"model{model}_{name}_band.csv"
                rec.call("io.to_csv:band", bands[name].to_csv, os.path.join(probe_dir, fname))
                rec.fail(f"trace_crosscheck:{fname}",
                         oracles.same_bytes(os.path.join(probe_dir, fname),
                                            os.path.join(inp["out"], fname)))
            svg = f"model{model}_markcorr.svg"
            rec.call("io.svg", svgplot.envelope_panels_svg, os.path.join(probe_dir, svg),
                     [(name, bands[name]) for name in STUDY_STATS],
                     title=f"Model {model}: mark correlation envelopes ({inp['nsim']} replicates)")
            rec.fail(f"trace_crosscheck:{svg}", oracles.same_bytes(
                os.path.join(probe_dir, svg), os.path.join(inp["out"], svg)))
        rec.count("simulate.redraws", redraws)
        return {"replicate_s": durations, "replicate_n": sizes}


# --------------------------------------------------------------------------- planar_large


class PlanarLarge:
    """Linked bivariate Cox pattern on the unit square with gamma marks;
    one pass of every planar estimator."""

    name = "planar_large"
    sizes = {
        "full": dict(base=1000.0, amplitude=100.0, scale=0.25, dims=128, r_max=0.25, bins=512),
        "smoke": dict(base=100.0, amplitude=10.0, scale=0.25, dims=32, r_max=0.25, bins=64),
    }

    def setup(self, seed, size, work):
        cfg = self.sizes[size]
        w = mp.PlanarWindow(0.0, 1.0, 0.0, 1.0)
        rng = mp.replicate_rng(mp.SeedSpec(seed, 0))
        sampler = mp.cosine_field_sampler(cfg["base"], cfg["amplitude"], cfg["scale"])
        p = mp.linked_balanced_cox("linked", 1.0, sampler, w, rng)
        p = p.with_marks(rng.gamma(2.0, 1.5, size=p.n))
        return dict(p=p, r=mp.r_grid(cfg["r_max"], cfg["bins"]), **cfg)

    def run_pass(self, inp, rec):
        p, r, dims = inp["p"], inp["r"], (inp["dims"], inp["dims"])
        o = {}
        sx, sy = rec.call("intensity.bandwidth_scott", mp.bandwidth_scott, p)
        kernel = mp.KernelSpec(float(np.sqrt(sx * sy)))
        groups = rec.call("pattern.split_by_type", mp.split_by_type, p)
        p1, p2 = groups["1"], groups["2"]
        for t, g in (("1", p1), ("2", p2)):
            o[f"jd{t}"] = rec.call(f"intensity.intensity_jones_diggle:{t}", mp.intensity_jones_diggle,
                                   g, kernel, dims,
                                   check=lambda est, g=g: checks.jd_integrates_to_n(est, g))
            o[f"unif{t}"] = rec.call(f"intensity.intensity_uniform:{t}", mp.intensity_uniform,
                                     g, kernel, dims, check=checks.positive_raster)
        o["heat"] = rec.call("intensity.intensity_heat", mp.intensity_heat, p, kernel.bandwidth, dims,
                             check=checks.positive_raster)
        lam1, lam2 = o["jd1"], o["jd2"]
        o["kcross"] = rec.call("summaries.k_cross_inhom", mp.k_cross_inhom, p1, p2, lam1, lam2,
                               "translation", r, check=checks.k_nondecreasing)
        o["h"] = rec.call("summaries.h_cross_inhom", mp.h_cross_inhom, p1, p2, lam1, lam2, r=r,
                          check=checks.in_unit_interval)
        o["f"] = rec.call("summaries.f_inhom", mp.f_inhom, p2, lam2, r=r, check=checks.in_unit_interval)
        o["j"] = rec.call("summaries.j_cross_inhom", mp.j_cross_inhom, o["h"], o["f"],
                          check=lambda j: checks.j_identity(j, o["h"], o["f"]))
        lam_all = np.where(np.array(p.labels()) == "1", lam1.evaluate(p.coords()),
                           lam2.evaluate(p.coords()))
        o["kweighted"] = rec.call("summaries.mark_weighted_k", mp.mark_weighted_k, p, mp.STOYAN,
                                  lam_all, "translation", r, check=checks.k_nondecreasing)
        o["suite"] = rec.call("markcorr.mark_corr_suite", mp.mark_corr_suite, p, None, r,
                              "symmetricWeight", check=checks.suite_valid)
        o["groups"] = groups
        return o

    def verify(self, inp, outs, rec):
        """K on a ~200-point subsample against the double-loop oracle."""
        p1, p2 = outs["groups"]["1"], outs["groups"]["2"]
        sub1 = p1.subset(range(0, p1.n, max(1, p1.n // 100)))
        sub2 = p2.subset(range(0, p2.n, max(1, p2.n // 100)))
        l1 = outs["jd1"].evaluate(sub1.coords())
        l2 = outs["jd2"].evaluate(sub2.coords())
        want = checks.brute_k_cross(sub1.coords(), sub2.coords(), l1, l2, p1.domain, inp["r"])
        rec.call("summaries.k_cross_inhom:oracle", mp.k_cross_inhom, sub1, sub2, l1, l2,
                 "translation", inp["r"], check=lambda c: checks.k_matches_brute(c, want))

    def properties(self, inp, outs):
        p = inp["p"]
        labels = p.labels()
        return {"n": p.n, "n_type1": labels.count("1"), "n_type2": labels.count("2"),
                "dims": inp["dims"], "r_max": inp["r_max"], "bins": inp["bins"]}

    def probe(self, inp, outs, rec):
        p, dims = inp["p"], inp["dims"]
        n1, n2 = outs["groups"]["1"].n, outs["groups"]["2"].n
        grid = oracles.f_grid_cells(p.domain, outs["f"].meta["spacing"])
        rec.count("summaries.f_grid_cells", grid)
        rec.count("intensity.kernel_evals", 2 * p.n * dims * dims)  # JD and uniform rasters
        for na, nb in ((n1, n2), (n1, n2), (grid, n2), (p.n, p.n), (p.n, p.n)):
            rec.count_dense(na, nb)  # K and H cross, F grid, weighted K, suite
        pattern_probe(rec, p)
        support = mp.default_smoothing(p).bandwidth  # Epanechnikov support = bandwidth
        rec.count_pairs(p.n, oracles.planar_count_within(p.coords(), inp["r_max"] + support))
        return {}


# --------------------------------------------------------------------------- network_large


class NetworkLarge:
    """Seeded ~1000-vertex grid network with cycles and spurs, built fresh
    in every pass; simulation, network intensity and summaries on it."""

    name = "network_large"
    sizes = {
        "full": dict(side=30, spacing=10.0, spurs=100, n_poisson=1500.0, n_lgcp=600.0,
                     lgcp_var=0.1, lgcp_scale=10.0, step=15.0, sigma=20.0, radius=30.0,
                     r_max=60.0, bins=250, bandwidth=2.0),
        "smoke": dict(side=8, spacing=10.0, spurs=10, n_poisson=100.0, n_lgcp=60.0,
                      lgcp_var=0.1, lgcp_scale=10.0, step=15.0, sigma=20.0, radius=30.0,
                      r_max=30.0, bins=50, bandwidth=2.0),
    }

    def setup(self, seed, size, work):
        cfg = self.sizes[size]
        rng = mp.replicate_rng(mp.SeedSpec(seed, 0))
        verts, segs = grid_network_arrays(rng, cfg["side"], cfg["spacing"], cfg["spurs"])
        return dict(vertices=verts, segments=segs, seed=seed,
                    r=mp.r_grid(cfg["r_max"], cfg["bins"]), **cfg)

    def run_pass(self, inp, rec):
        o = {}
        net = rec.call("geometry.LinearNetwork", mp.LinearNetwork, inp["vertices"], inp["segments"])
        rec.call("geometry.vertex_distances", net.vertex_distances)
        length = net.total_length
        rng = mp.replicate_rng(mp.SeedSpec(inp["seed"], 1))
        pa = rec.call("simulate.poisson_network", mp.poisson_network,
                      inp["n_poisson"] / length, net, rng)
        o["marks2"] = rec.call("simulate.model_marks:II", mp.model_marks, "II", pa, rng)
        pa3 = rec.call("simulate.model_marks:III", mp.model_marks, "III", pa, rng, radius=inp["radius"])
        var, scale = inp["lgcp_var"], inp["lgcp_scale"]
        spec = mp.GaussianFieldSpec(
            mean=float(np.log(inp["n_lgcp"] / length) - var / 2.0),
            cov=lambda a, b: var * np.exp(-np.abs(np.subtract(a, b)) / scale),
            anchor=mp.NetworkLocation(0, 0.5),
        )
        pb = rec.call("simulate.lgcp_network", mp.lgcp_network, spec, net, inp["step"], rng)
        kernel = mp.KernelSpec(inp["sigma"])
        ea = rec.call("intensity.intensity_network:a", mp.intensity_network, pa3, kernel,
                      check=lambda e: checks.network_integrates_to_n(e, pa3))
        eb = rec.call("intensity.intensity_network:b", mp.intensity_network, pb, kernel,
                      check=lambda e: checks.network_integrates_to_n(e, pb))
        r = inp["r"]
        o["kcross"] = rec.call("summaries.k_cross_inhom", mp.k_cross_inhom, pa3, pb, ea, eb, "none", r,
                               check=checks.k_nondecreasing)
        o["h"] = rec.call("summaries.h_cross_inhom", mp.h_cross_inhom, pa3, pb, ea, eb, r=r,
                          check=checks.in_unit_interval)
        o["f"] = rec.call("summaries.f_inhom", mp.f_inhom, pb, eb, r=r, check=checks.in_unit_interval)
        o["j"] = rec.call("summaries.j_cross_inhom", mp.j_cross_inhom, o["h"], o["f"],
                          check=lambda j: checks.j_identity(j, o["h"], o["f"]))
        o["suite"] = rec.call("markcorr.mark_corr_suite", mp.mark_corr_suite, pa3,
                              mp.SmoothingSpec1D(inp["bandwidth"]), r, check=checks.suite_valid)
        o.update(net=net, pa3=pa3, pb=pb, ea=ea)
        return o

    def verify(self, inp, outs, rec):
        pass  # every output of this pass is checked by its own call

    def properties(self, inp, outs):
        verts, segs = inp["vertices"], inp["segments"]
        deg = np.bincount(segs.ravel(), minlength=len(verts))
        return {"network": {"V": len(verts), "S": len(segs), "degree1": int((deg == 1).sum())},
                "n_poisson": outs["pa3"].n, "n_lgcp": outs["pb"].n,
                "r_max": inp["r_max"], "bins": inp["bins"]}

    def probe(self, inp, outs, rec):
        net, na, nb = outs["net"], outs["pa3"].n, outs["pb"].n
        nv, mesh = net.n_vertices, len(outs["ea"].mesh_locs)
        grid = len(mp.geometry.network_arc_mesh(net, outs["f"].meta["spacing"])[0])
        cells = len(mp.geometry.network_arc_mesh(net, inp["step"])[0])
        rec.count("summaries.f_grid_cells", grid)
        rec.count("intensity.kernel_evals", (na + nb) * mesh)
        for a, b in (
            (nv, nv), (na, nv), (na, na), (cells, 1),  # Dijkstra cache, marks II/III, LGCP anchor
            (na, mesh), (nb, mesh),  # network intensity kernel norms
            (na, na), (nb, nb), (na, nb),  # K: intensity at points, cross distances
            (na, na), (nb, nb), (na, nb), (na, nv),  # H: same plus border distances
            (grid, nv), (grid, nb), (nb, nb),  # F: mesh border distances, mesh-to-point
            (na, na),  # suite pair distances
        ):
            rec.count_dense(a, b)
        d_max = inp["r_max"] + inp["bandwidth"]
        for key in ("pa3", "pb"):
            pattern_probe(rec, outs[key])
        network_distance_probe(rec, outs["pa3"], d_max)
        return {"n_poisson": na, "n_lgcp": nb, "lgcp_cells": cells, "intensity_mesh_cells": mesh,
                "f_grid_cells": grid}


# --------------------------------------------------------------------------- cli


def _cli_argv(inp):
    """The CLI calls of one pass, with their output directories."""
    d, tree, win, seed = inp["out"], inp["tree"], "0,1,0,1", str(inp["seed"])
    planar = os.path.join(d, "sim_planar", "pattern.csv")
    tree_pat = os.path.join(d, "sim_tree", "pattern.csv")
    nsim = str(inp["nsim"])
    return [
        ("simulate", ["simulate", "--model", "modelIII", "--network", tree, "--seed", seed,
                      "--out-dir", os.path.join(d, "sim_tree")]),
        ("simulate", ["simulate", "--model", "linked", "--window", win, "--nu", "1",
                      "--base-cosine", inp["cosine"], "--seed", seed,
                      "--out-dir", os.path.join(d, "sim_planar")]),
        ("intensity", ["intensity", "--pattern", planar, "--window", win, "--sigma", "cvl",
                       "--method", "jd", "--grid", str(inp["grid"]),
                       "--out-dir", os.path.join(d, "intensity")]),
        ("summary", ["summary", "--pattern", planar, "--window", win, "--stat", "jcross",
                     "--type-i", "1", "--type-j", "2", "--sigma", "scott", "--grid", str(inp["grid"]),
                     "--out-dir", os.path.join(d, "summary")]),
        ("markcorr", ["markcorr", "--pattern", tree_pat, "--network", tree, "--tf", "suite",
                      "--out-dir", os.path.join(d, "markcorr")]),
        ("envelope", ["envelope", "--model", "poisson", "--window", win, "--rate", inp["rate"],
                      "--nsim", nsim, "--seed", seed, "--out-dir", os.path.join(d, "env_poisson")]),
        ("envelope", ["envelope", "--model", "modelII", "--network", tree, "--stat", "stoyan",
                      "--nsim", nsim, "--seed", seed, "--out-dir", os.path.join(d, "env_modelII")]),
    ]


class Cli:
    """Every CLI subcommand, called in-process through markedpoints.cli.main."""

    name = "cli"
    sizes = {
        "full": dict(cosine="1000,100,0.25", grid=128, rate="200", nsim=99),
        "smoke": dict(cosine="100,10,0.25", grid=32, rate="50", nsim=39),
    }

    def setup(self, seed, size, work):
        root = _fresh_dir(os.path.join(work, "cli"))
        tree = os.path.join(root, "tree.json")
        mp.save_network(mp.synthetic_tree_network(), tree)
        return dict(seed=seed, tree=tree, out=os.path.join(root, "out"), **self.sizes[size])

    def run_pass(self, inp, rec):
        _fresh_dir(inp["out"])
        for i, (cmd, argv) in enumerate(_cli_argv(inp)):
            rec.call(f"cli.{cmd}:{i}", cli.main, argv, check=checks.cli_exit)
        return {}

    def verify(self, inp, outs, rec):
        out = inp["out"]
        files = checks.dir_digests(out)
        rec.record_digest("files", files)
        rec.count("io.bytes_written", checks.dir_bytes(out))
        for f in files:
            if f.endswith("_band.csv"):
                rec.fail(f"band:{f}", checks.band_csv_ordered(os.path.join(out, f)))
        w = mp.PlanarWindow(0.0, 1.0, 0.0, 1.0)
        planar = mp.load_pattern_csv(os.path.join(out, "sim_planar", "pattern.csv"), w)
        rec.fail("intensity.csv:integral", oracles.jd_csv_integrates_to_n(
            os.path.join(out, "intensity", "intensity.csv"), planar))

    def properties(self, inp, outs):
        n = {}
        for sub in ("sim_tree", "sim_planar"):
            with open(os.path.join(inp["out"], sub, "simulate_metadata.json")) as fh:
                n[sub] = json.load(fh)["n_points"]
        return {"n_tree": n["sim_tree"], "n_planar": n["sim_planar"], "nsim": inp["nsim"],
                "grid": inp["grid"], "poisson_rate": inp["rate"], "linked_base_cosine": inp["cosine"]}

    def probe(self, inp, outs, rec):
        """Replay each subcommand through the public functions it calls,
        compare the replayed artifacts with the CLI's, and time the layers."""
        replayed = oracles.replay_cli(inp, rec)
        tree = replayed["tree_pattern"]
        pattern_probe(rec, replayed["planar_pattern"])
        pattern_probe(rec, tree)
        network_distance_probe(rec, tree, 250.0 + mp.default_smoothing(tree).bandwidth)
        return {"n_tree": tree.n, "n_planar": replayed["planar_pattern"].n}


# --------------------------------------------------------------------------- large


class Large:
    """planar_large, network_large and cli, in turn, in every pass.

    They are one workload, not three, so that the benchmark's runs can be
    long and still fit its time limit: on a shared 2-CPU host the speed
    swings between runs, and cli alone spread 0.19 (quartile distance over
    median, 5 seeds) in 30-s runs against 0.08 in 55-s runs. Each part's
    share of a pass is kept as part_s in the results; its calls keep their
    own spans, checks and digests.
    """

    name = "large"
    parts = (PlanarLarge(), NetworkLarge(), Cli())

    def setup(self, seed, size, work):
        return {p.name: p.setup(seed, size, work) for p in self.parts}

    def run_pass(self, inp, rec):
        outs, part_s = {}, {}
        for p in self.parts:
            t0 = time.perf_counter()
            with rec.part(p.name):
                outs[p.name] = p.run_pass(inp[p.name], rec)
            part_s[p.name] = time.perf_counter() - t0
        outs["part_s"] = part_s
        return outs

    def verify(self, inp, outs, rec):
        for p in self.parts:
            with rec.part(p.name):
                p.verify(inp[p.name], outs[p.name], rec)

    def properties(self, inp, outs):
        return {p.name: p.properties(inp[p.name], outs[p.name]) for p in self.parts}

    def probe(self, inp, outs, rec):
        extra = {}
        for p in self.parts:
            with rec.part(p.name):
                extra[p.name] = p.probe(inp[p.name], outs[p.name], rec) or {}
        return extra


WORKLOADS = {w.name: w for w in (Study(), Large())}
