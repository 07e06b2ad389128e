"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to later
calibration. Monte Carlo criteria use fixed master seeds.
"""

import json
import time

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import markedpoints as mp
from markedpoints.cli import main as cli_main
from markedpoints.envelope import mark_correlation_study
from markedpoints.intensity import _deposit_masses, heat_evolve, kernel1d_pdf

from conftest import planar_pattern, random_connected_network, shortest_path_by_enumeration

W = mp.PlanarWindow(0.0, 1.0, 0.0, 1.0)

# oversmoothed plug-in bandwidth: estimated intensities in second-order
# statistics need more smoothing than density estimation to avoid the
# overfitting bias that deflates pair weights
PLUGIN_SIGMA = 0.4
PLUGIN_GRID = (96, 96)


def _check(cid, parts):
    """parts: list of (label, bool, detail). Prints one line per criterion."""
    ok = all(p[1] for p in parts)
    detail = "; ".join(f"{label}={'ok' if good else 'FAIL'} {info}" for label, good, info in parts)
    print(f"[criterion {cid}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {cid}: {detail}"


def _plugin(p):
    return mp.intensity_uniform(p, mp.KernelSpec(PLUGIN_SIGMA), PLUGIN_GRID)


def test_criterion_1_poisson_k_baseline():
    t0 = time.time()
    r = np.linspace(0.0, 0.2, 41)
    sel = (r >= 0.05) & (r <= 0.15)
    acc = np.zeros(len(r))
    nreps = 500
    used = 0
    for i in range(nreps):
        rng = mp.replicate_rng(mp.SeedSpec(101_000, i))
        pi = mp.poisson_planar(100.0, W, rng)
        pj = mp.poisson_planar(100.0, W, rng)
        if pi.n < 2 or pj.n < 2:
            continue
        curve = mp.k_cross_inhom(pi, pj, _plugin(pi), _plugin(pj), "translation", r)
        acc += curve.values
        used += 1
    mean = acc / used
    rel = np.abs(mean[sel] - np.pi * r[sel] ** 2) / (np.pi * r[sel] ** 2)
    elapsed = time.time() - t0
    _check(
        1,
        [
            ("K bias", rel.max() <= 0.05, f"max rel err {rel.max():.4f} (<=0.05)"),
            ("runtime", elapsed < 120.0, f"{elapsed:.1f}s (<120s)"),
        ],
    )


def test_criterion_2_poisson_j_baseline():
    r = np.linspace(0.0, 0.12, 25)
    sel = (r >= 0.02) & (r <= 0.10)
    acc = np.zeros(len(r))
    cnt = np.zeros(len(r))
    for i in range(200):
        rng = mp.replicate_rng(mp.SeedSpec(102_000, i))
        pi = mp.poisson_planar(100.0, W, rng)
        pj = mp.poisson_planar(100.0, W, rng)
        if pi.n < 2 or pj.n < 2:
            continue
        li, lj = _plugin(pi), _plugin(pj)
        h = mp.h_cross_inhom(pi, pj, li, lj, r=r)
        f = mp.f_inhom(pj, lj, grid_spacing=1.0 / 128.0, r=r)
        j = mp.j_cross_inhom(h, f).values
        ok = ~np.isnan(j)
        acc[ok] += j[ok]
        cnt[ok] += 1
    mean = acc[sel] / cnt[sel]
    _check(
        2,
        [
            (
                "J in [0.95,1.05]",
                bool(mean.min() >= 0.95 and mean.max() <= 1.05),
                f"range [{mean.min():.4f}, {mean.max():.4f}]",
            )
        ],
    )


def test_criterion_3_independent_marking():
    r = np.linspace(0.0, 0.25, 51)
    sel = (r >= 0.05) & (r <= 0.20)
    sm = mp.SmoothingSpec1D(0.03)
    sums = {k: np.zeros(len(r)) for k in ("stoyan", "shimantani_i")}
    cnts = {k: np.zeros(len(r)) for k in ("stoyan", "shimantani_i")}
    vsum = np.zeros(len(r))
    vcnt = np.zeros(len(r))
    sample_vars = []
    for i in range(200):
        rng = mp.replicate_rng(mp.SeedSpec(103_000, i))
        p = mp.poisson_planar(100.0, W, rng)
        if p.n < 3:
            continue
        marks = rng.uniform(0.0, 1.0, size=p.n)
        suite = mp.mark_corr_suite(p.with_marks(marks), sm, r)
        for k in sums:
            v = suite.curves[k].values
            ok = ~np.isnan(v)
            sums[k][ok] += v[ok]
            cnts[k][ok] += 1
        v = suite.numerators["variogram"].values  # raw mark variogram
        ok = ~np.isnan(v)
        vsum[ok] += v[ok]
        vcnt[ok] += 1
        sample_vars.append(marks.var())
    st = (sums["stoyan"] / cnts["stoyan"])[sel]
    sh = (sums["shimantani_i"] / cnts["shimantani_i"])[sel]
    va = (vsum / vcnt)[sel]
    ref_var = float(np.mean(sample_vars))
    _check(
        3,
        [
            ("stoyan", bool(st.min() >= 0.95 and st.max() <= 1.05), f"[{st.min():.3f},{st.max():.3f}]"),
            ("shimantani", bool(sh.min() >= -0.05 and sh.max() <= 0.05), f"[{sh.min():.3f},{sh.max():.3f}]"),
            (
                "variogram vs mark variance",
                bool(np.abs(va / ref_var - 1).max() <= 0.10),
                f"max rel dev {np.abs(va / ref_var - 1).max():.3f}",
            ),
        ],
    )


def test_criterion_4_mass_conservation():
    rng = np.random.default_rng(104_000)
    worst_jd = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 150))
        xy = rng.uniform(0.0, 1.0, size=(n, 2))
        sigma = float(rng.uniform(0.02, 0.12))
        p = planar_pattern(W, xy)
        est = mp.intensity_jones_diggle(p, mp.KernelSpec(sigma), (256, 256))
        worst_jd = max(worst_jd, abs(est.integral() - n) / n)

    p = mp.poisson_planar(60.0, W, np.random.default_rng(104_001))
    field = _deposit_masses(p, 64, 64)
    h = 1.0 / 64
    mass0 = field.sum() * h * h
    worst_step = 0.0
    dt = 0.05**2 / 32
    for _ in range(32):
        field = heat_evolve(field, h, h, dt)
        worst_step = max(worst_step, abs(field.sum() * h * h - mass0))

    est = mp.intensity_heat(p, 2.0, (64, 64))
    target = p.n / W.area
    heat_dev = np.max(np.abs(est.values - target)) / target
    _check(
        4,
        [
            ("JD integral", worst_jd <= 0.005, f"worst rel dev {worst_jd:.2e} (<=0.5%)"),
            ("heat mass/step", worst_step <= 1e-10, f"worst {worst_step:.2e}"),
            ("heat uniform limit", heat_dev <= 0.01, f"max dev {heat_dev:.2e} (<=1%)"),
        ],
    )


def test_criterion_5_bandwidth_criteria():
    xs = [-1.0] * 32 + [1.0] * 32
    ys = [1.0] * 32 + [-1.0] * 32
    p64 = planar_pattern(mp.PlanarWindow(-2, 2, -2, 2), list(zip(xs, ys)))
    scott = mp.bandwidth_scott(p64)

    rng = mp.replicate_rng(mp.SeedSpec(105_000, 0))
    p = mp.poisson_planar(100.0, W, rng)
    crit_const = mp.cvl_criterion(p, p.n / W.area)

    p200 = mp.poisson_planar(200.0, W, mp.replicate_rng(mp.SeedSpec(105_000, 1)))
    sigma = mp.bandwidth_cvl(p200, (64, 64), (0.02, 0.5))
    bal = mp.cvl_criterion(p200, mp.intensity_uniform(p200, mp.KernelSpec(sigma), (64, 64)))
    _check(
        5,
        [
            ("scott exact", scott == (0.5, 0.5), f"{scott}"),
            ("cvl zero at constant", abs(crit_const) <= 1e-12, f"{crit_const:.2e}"),
            ("cvl balance", bal <= 0.1 * W.area, f"{bal:.4f} (<= {0.1 * W.area})"),
        ],
    )


def test_criterion_6_graph_oracle():
    rng = np.random.default_rng(106_000)
    checked = 0
    exact = True
    sym = True
    for _ in range(200):
        nv = int(rng.integers(3, 9))
        net = random_connected_network(rng, nv)
        D = net.vertex_distances()
        for _ in range(3):
            a, b = sorted(int(v) for v in rng.integers(0, nv, size=2))
            want = shortest_path_by_enumeration(net, a, b) if a != b else 0.0
            if D[a, b] != want:
                exact = False
            checked += 1
        locs = [
            mp.NetworkLocation(int(rng.integers(net.n_segments)), float(rng.uniform()))
            for _ in range(4)
        ]
        m = mp.all_pairs_network_distances(net, locs)
        if not (np.array_equal(m, m.T) and np.all(np.diag(m) == 0.0)):
            sym = False
    _check(
        6,
        [
            ("distance exact", exact, f"{checked} vertex pairs on 200 networks"),
            ("all_pairs symmetric, zero diag", sym, ""),
        ],
    )


def _k_oracle(pi, pj, li, lj, r_values):
    w = pi.domain
    out = np.zeros(len(r_values))
    for a, x in enumerate(pi.coords()):
        for b, y in enumerate(pj.coords()):
            d = np.hypot(x[0] - y[0], x[1] - y[1])
            out += (d <= r_values) / (li[a] * lj[b])
    return out / w.area


def _h_oracle(pi, pj, li, lj, inf_lj, r_values):
    w = pi.domain
    out = np.full(len(r_values), np.nan)
    for k, r in enumerate(r_values):
        num = den = 0.0
        used = 0
        for a, x in enumerate(pi.coords()):
            bd = min(x[0] - w.xmin, w.xmax - x[0], x[1] - w.ymin, w.ymax - x[1])
            if bd < r:
                continue
            used += 1
            prod = 1.0
            for b, y in enumerate(pj.coords()):
                if np.hypot(x[0] - y[0], x[1] - y[1]) <= r:
                    prod *= 1.0 - inf_lj / lj[b]
            num += prod / li[a]
            den += 1.0 / li[a]
        if used:
            out[k] = 1.0 - num / den
    return out


def _f_oracle(pj, lj, inf_lj, spacing, r_values):
    w = pj.domain
    xs = np.arange(w.xmin + spacing / 2.0, w.xmax, spacing)
    out = np.full(len(r_values), np.nan)
    for k, r in enumerate(r_values):
        total = 0.0
        used = 0
        for ux in xs:
            for uy in xs:
                bd = min(ux - w.xmin, w.xmax - ux, uy - w.ymin, w.ymax - uy)
                if bd < r:
                    continue
                used += 1
                prod = 1.0
                for b, y in enumerate(pj.coords()):
                    if np.hypot(ux - y[0], uy - y[1]) <= r:
                        prod *= 1.0 - inf_lj / lj[b]
                total += prod
        if used:
            out[k] = 1.0 - total / used
    return out


def _kappa_oracle(xy, marks, h, r_values):
    num = np.zeros(len(r_values))
    den = np.zeros(len(r_values))
    n = len(marks)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = np.hypot(xy[i, 0] - xy[j, 0], xy[i, 1] - xy[j, 1])
            kv = kernel1d_pdf("epanechnikov", h, d - r_values)
            num += marks[i] * marks[j] * kv
            den += kv
    out = np.full(len(r_values), np.nan)
    ok = den >= 1e-12
    out[ok] = num[ok] / den[ok]
    s1, s2 = marks.sum(), (marks**2).sum()
    c = (s1 * s1 - s2) / (n * (n - 1))
    return out / c


def _close(got, want, rtol=1e-12):
    both = ~np.isnan(want)
    if not np.array_equal(np.isnan(got), np.isnan(want)):
        return False
    return np.allclose(got[both], want[both], rtol=rtol, atol=1e-13)


def test_criterion_7_brute_force_estimators():
    rng = np.random.default_rng(107_000)
    all_ok = {"K": True, "H": True, "F": True, "kappa": True}
    for _ in range(100):
        ni = int(rng.integers(2, 13))
        nj = int(rng.integers(1, 13))
        pi = planar_pattern(W, rng.uniform(size=(ni, 2)))
        pj = planar_pattern(W, rng.uniform(size=(nj, 2)))
        li = rng.uniform(0.5, 2.0, size=ni)
        lj = rng.uniform(0.5, 2.0, size=nj)
        r = np.linspace(0, 0.4, 11)
        if not _close(mp.k_cross_inhom(pi, pj, li, lj, "none", r).values, _k_oracle(pi, pj, li, lj, r)):
            all_ok["K"] = False
        inf_lj = float(lj.min())
        if not _close(
            mp.h_cross_inhom(pi, pj, li, lj, inf_lj, r).values,
            _h_oracle(pi, pj, li, lj, inf_lj, r),
        ):
            all_ok["H"] = False
        if not _close(
            mp.f_inhom(pj, lj, inf_lj, 0.13, r).values,
            _f_oracle(pj, lj, inf_lj, 0.13, r),
        ):
            all_ok["F"] = False
        marks = rng.uniform(0.5, 2.0, size=ni)
        pm = pi.with_marks(marks)
        got = mp.mark_corr(pm, mp.STOYAN, mp.SmoothingSpec1D(0.08), r, degenerate="nan").values
        if not _close(got, _kappa_oracle(pi.coords(), marks, 0.08, r)):
            all_ok["kappa"] = False
    _check(7, [(k, v, "") for k, v in all_ok.items()])


def test_criterion_8_envelope_coverage():
    r = np.array([0.0, 0.5, 1.0])

    def stat(p):
        if p.n < 2:
            return mp.SummaryCurve(r, np.full(3, np.nan), "meannnd")
        xy = p.coords()
        d = cdist(xy, xy)
        np.fill_diagonal(d, np.inf)
        v = float(d.min(axis=1).mean())
        return mp.SummaryCurve(r, np.array([v, v, v]), "meannnd")

    def gen(rng):
        return mp.poisson_planar(25.0, W, rng)

    outside = 0
    ntrials = 500
    for trial in range(ntrials):
        master = 108_000 + trial
        band = mp.envelopes(gen, stat, nsim=199, level=0.95, master_seed=master)
        fresh = stat(gen(mp.replicate_rng(mp.SeedSpec(master, 199))))
        v = fresh.values[1]
        if v < band.lo[1] or v > band.hi[1]:
            outside += 1
    freq = outside / ntrials
    _check(
        8,
        [("coverage", bool(0.03 <= freq <= 0.07), f"outside frequency {freq:.3f} (5% +- 2%)")],
    )


def test_criterion_9_mark_model_study(tmp_path):
    net = mp.synthetic_tree_network()
    bands = {}
    times = {}
    for model in ("I", "II", "III"):
        t0 = time.time()
        bands[model] = mark_correlation_study(
            net, model, tmp_path / f"model{model}", nsim=199, master_seed=109_000,
            n_expected=150.0, r_max=250.0, bins=250, bandwidth=10.0,
        )
        times[model] = time.time() - t0
    r = bands["I"]["stoyan"].r
    small = (r >= 5) & (r <= 30)
    large = (r >= 200) & (r <= 250)

    def vario_bins(model):
        va = bands[model]["variogram"].mean
        return [float(np.nanmean(va[(r >= a) & (r < a + 50)])) for a in (0, 50, 100, 150, 200)]

    vb1 = vario_bins("I")
    st1 = bands["I"]["stoyan"].mean
    sh1 = bands["I"]["shimantani_i"].mean
    parts = [
        ("I: variogram increasing", all(b > a for a, b in zip(vb1, vb1[1:])),
         "bins " + ",".join(f"{v:.2f}" for v in vb1)),
        ("I: stoyan>1 small r", bool(np.nanmin(st1[small]) > 1.0), f"min {np.nanmin(st1[small]):.3f}"),
        ("I: stoyan decays", bool(np.nanmean(st1[large]) < np.nanmin(st1[small])),
         f"large mean {np.nanmean(st1[large]):.3f}"),
        ("I: shimantani sign flip", bool(np.nanmean(sh1[small]) > 0 and np.nanmean(sh1[large]) < 0),
         f"small {np.nanmean(sh1[small]):.3f}, large {np.nanmean(sh1[large]):.3f}"),
    ]
    va2 = bands["II"]["variogram"].mean
    st2 = bands["II"]["stoyan"].mean
    bk2 = bands["II"]["beisbart_kerscher"].mean
    parts += [
        ("II: variogram near 0 small r", bool(np.nanmean(va2[small]) < 0.2),
         f"{np.nanmean(va2[small]):.3f}"),
        ("II: opposite small-r behavior",
         bool(np.nanmean(st2[small]) > 1.0 + np.nanmean(va2[small]) and np.nanmean(bk2[small]) > 1.0),
         f"stoyan {np.nanmean(st2[small]):.3f}, bk {np.nanmean(bk2[small]):.3f}"),
    ]
    st3 = bands["III"]["stoyan"].mean
    bk3 = bands["III"]["beisbart_kerscher"].mean
    argmax_r = float(r[np.nanargmax(st3)])
    parts += [
        ("III: stoyan>1 small r", bool(np.nanmin(st3[small]) > 1.0), f"min {np.nanmin(st3[small]):.3f}"),
        ("III: bk>1 small r", bool(np.nanmin(bk3[small]) > 1.0), f"min {np.nanmin(bk3[small]):.3f}"),
        ("III: stoyan argmax in [60,100]", bool(60.0 <= argmax_r <= 100.0), f"argmax {argmax_r:.0f}"),
        ("runtime per model < 10 min", bool(max(times.values()) < 600.0),
         f"max {max(times.values()):.1f}s"),
    ]
    _check(9, parts)
    for model in ("I", "II", "III"):
        assert (tmp_path / f"model{model}" / f"model{model}_markcorr.svg").exists()


def test_criterion_10_cli_determinism(tmp_path, cpu_mask):
    net_path = tmp_path / "tree.json"
    mp.save_network(mp.synthetic_tree_network(), net_path)
    args = [
        "envelope", "--model", "modelIII", "--network", str(net_path), "--stat", "stoyan",
        "--nsim", "39", "--n-expected", "60", "--rmax", "150", "--bins", "30",
        "--bandwidth", "15", "--seed", "77",
    ]
    digests = []
    # two runs on the real affinity mask, then masks of 1, 2 and 8 CPUs
    for name, cpus in (("a", None), ("b", None), ("c", 1), ("d", 2), ("e", 8)):
        if cpus is not None:
            cpu_mask(cpus)
        out = tmp_path / name
        assert cli_main(args + ["--out-dir", str(out)]) == 0
        digests.append((out / "modelIII_stoyan_band.csv").read_bytes())
    sim_digests = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert cli_main(
            ["simulate", "--model", "modelI", "--network", str(net_path),
             "--n-expected", "80", "--seed", "5", "--out-dir", str(out)]
        ) == 0
        sim_digests.append((out / "pattern.csv").read_bytes())
    _check(
        10,
        [
            ("envelope CSV identical", all(d == digests[0] for d in digests[1:]),
             "2 repeats + CPU masks 1, 2, 8"),
            ("simulate CSV identical", sim_digests[0] == sim_digests[1], ""),
        ],
    )
