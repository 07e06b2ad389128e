"""Runs one workload: set-up rounds, timed passes, and the traced run.

Untraced run (end-to-end metrics):
  set-up: imports, input generation from the seed (SETUP_ROUNDS times,
      median), and one warm-up pass on smoke-size inputs from another seed,
      so that first-call costs (lazy imports, BLAS start-up) are paid here
      and the run's time goes to timed passes; setup_s is the sum;
  timed passes until --seconds is used up; wall_s is their median (and
      part_s, for a workload made of parts, each part's median);
  peak_rss_mb is the process high-water mark after set-up and the first
      timed pass.

Traced run (per-layer metrics):
  one set-up round, one untraced pass (the base for trace.overhead and
  proc.cpu_s), one traced pass with a span around every package call,
  then the workload's probes (replica rebuilds, replays, oracles).
"""

from __future__ import annotations

import os
import resource
import statistics
import time

from envinfo import blas_threads
from recorder import Recorder
from tracing import Tracer

SETUP_ROUNDS = 3
WARMUP_SEED_OFFSET = 7919

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_ratio": "fraction"}

# per-layer time metrics: summed duration of the outermost matching spans
SPAN_METRICS = {
    "simulate.busy_s": ("simulate.",),
    "geometry.vertex_dist_s": ("geometry.vertex_distances",),
    "geometry.cross_dist_probe_s": ("geometry.all_pairs_network_distances",),
    "pattern.arrays_s": ("pattern.",),
    "summaries.kcross_s": ("summaries.k_cross_inhom",),
    "summaries.hcross_s": ("summaries.h_cross_inhom",),
    "summaries.f_s": ("summaries.f_inhom",),
    "summaries.kweighted_s": ("summaries.mark_weighted_k",),
    "markcorr.suite_s": ("markcorr.mark_corr_suite",),
    "markcorr.corr_s": ("markcorr.mark_corr",),
    "intensity.raster_s": ("intensity.intensity_jones_diggle", "intensity.intensity_uniform"),
    "intensity.heat_s": ("intensity.intensity_heat",),
    "intensity.cvl_s": ("intensity.bandwidth_cvl",),
    "intensity.network_s": ("intensity.intensity_network",),
    "envelope.study_modelI_s": ("envelope.mark_correlation_study:I",),
    "envelope.study_modelII_s": ("envelope.mark_correlation_study:II",),
    "envelope.study_modelIII_s": ("envelope.mark_correlation_study:III",),
    "io.pattern_csv_read_s": ("io.load_pattern_csv",),
    "io.pattern_csv_write_s": ("io.save_pattern_csv",),
    "io.curve_csv_s": ("io.to_csv",),
    "io.svg_s": ("io.svg",),
    "cli.simulate_s": ("cli.simulate",),
    "cli.intensity_s": ("cli.intensity",),
    "cli.summary_s": ("cli.summary",),
    "cli.markcorr_s": ("cli.markcorr",),
    "cli.envelope_s": ("cli.envelope",),
}

COUNTER_UNITS = {
    "simulate.points": "count",
    "simulate.redraws": "count",
    "geometry.dense_mb": "MiB",
    "dist.pairs_all": "count",
    "dist.pairs_within_rmax": "count",
    "summaries.f_grid_cells": "count",
    "intensity.kernel_evals": "count",
    "io.bytes_written": "bytes",
}

OTHER_UNITS = {
    "dist.useful_share": "fraction",
    "envelope.replicate_p50_ms": "ms",
    "envelope.replicate_tail_ms": "ms",
    "envelope.self_s": "s",
    "proc.cpu_s": "s",
    "proc.blas_threads": "count",
    "trace.overhead": "ratio",
}


# what the traced run cannot see from outside the package, and what it does instead
HOW_MEASURED = {
    "geometry.dense_mb": "computed, not measured: 8 * n_a * n_b bytes for each dense distance "
    "matrix the package builds for the pass's calls, since allocations inside a call are not "
    "visible from outside",
    "intensity.kernel_evals": "computed, not measured: n * raster cells per raster estimate "
    "(31 rasters for the cvl search and its estimate), n * mesh cells per network estimate",
    "dist.*": "_dist is private, so ordered pairs within r_max plus the kernel support are "
    "counted independently: KD-tree on the plane, csgraph Dijkstra distances on networks",
    "study layers": "mark_correlation_study is one call, so its replicates are rebuilt from "
    "public calls on the same seed streams; the rebuilt bands must equal the study's CSVs "
    "byte-for-byte (trace_crosscheck)",
    "cli layers": "cli.main is one call per subcommand, so each is replayed through the public "
    "functions it uses; every replayed artifact must equal the CLI's byte-for-byte",
    "zeros": "a time metric is 0 when the workload makes no call of that layer (not_exercised)",
}


def _base(name: str) -> str:
    return name.split(":")[0]


def span_total(tracer: Tracer, pass_ids, keys) -> float:
    """Summed duration of spans matching any key, counting nested matches once.

    A key ending in '.' matches a module prefix; otherwise it matches the
    span name exactly, or the name up to its ':detail' suffix.
    """
    def match(name):
        return any(name.startswith(k) if k.endswith(".") else (name == k or _base(name) == k)
                   for k in keys)

    spans = [s for s in tracer.spans if s.pass_id in pass_ids]
    by_id = {s.sid: s for s in spans}
    total = 0.0
    for s in spans:
        if not match(s.name):
            continue
        p = s.parent
        while p is not None and p in by_id and not match(by_id[p].name):
            p = by_id[p].parent
        if p is None or p not in by_id:
            total += s.duration
    return total


def tail(values):
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    v = sorted(values)
    if len(v) <= 10:
        return v[-1], 100.0
    return v[len(v) - 11], 100.0 * (len(v) - 10) / len(v)


class Totals:
    """Attempted and failed calls over every recorder of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, rec: Recorder):
        self.attempted += rec.attempted
        self.failed += rec.failed
        self.failures.extend(rec.failures)


def _one_pass(workload, inp, rec, totals, label):
    """Run, check and verify one pass; returns (wall seconds, cpu seconds, outputs)."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        outs = workload.run_pass(inp, rec)
    except Exception as e:  # a pass that cannot finish is one failed call
        outs = None
        rec.fail(f"{label}:pass", f"{type(e).__name__}: {e}")
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    rec.finish()
    if outs is not None:
        # checks make calls of their own; an untraced recorder keeps them out of the spans
        chk = Recorder()
        try:
            workload.verify(inp, outs, chk)
        except Exception as e:  # a check that cannot run is a failed check
            chk.fail(f"{label}:verify", f"{type(e).__name__}: {e}")
        chk.finish()
        rec.merge(chk)
    totals.add(rec)
    return wall, cpu, outs


def setup(workload, seed, size, work, totals, rounds):
    """Input generation, timed `rounds` times (median), plus one warm-up
    pass on smoke-size inputs from another seed, so that first-call costs
    land in set-up and not in the first timed pass. The warm-up runs every
    call of a full pass, on inputs small enough to leave the run's time to
    the timed passes."""
    samples, inp = [], None
    for _ in range(rounds):
        t0 = time.perf_counter()
        inp = workload.setup(seed, size, work)
        samples.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    warm = workload.setup(seed + WARMUP_SEED_OFFSET, "smoke", os.path.join(work, "warmup"))
    _one_pass(workload, warm, Recorder(), totals, "warmup")
    warmup_s = time.perf_counter() - t0
    return inp, statistics.median(samples) + warmup_s, {"inputs_s": samples, "warmup_s": warmup_s}


def run_untraced(workload, seed, seconds, size, work, import_s):
    totals = Totals()
    inp, setup_s, setup_detail = setup(workload, seed, size, work, totals, SETUP_ROUNDS)
    walls, parts, digests, mismatches, first = [], [], None, [], None
    start = time.perf_counter()
    while True:
        rec = Recorder()
        wall, _, outs = _one_pass(workload, inp, rec, totals, f"pass{len(walls)}")
        walls.append(wall)
        if outs is not None and "part_s" in outs:
            parts.append(outs["part_s"])
        if digests is None:
            digests, first = dict(rec.digests), outs
            # high-water mark after set-up and one pass; later passes only add
            # allocator fragmentation, which would tie the figure to --seconds
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            for name, d in rec.digests.items():
                if digests.get(name) != d:
                    mismatches.append(f"pass{len(walls) - 1}:{name}")
                    totals.failed += 1
                    totals.failures.append(f"{name}: output differs from the first pass")
                totals.attempted += 1
        used = time.perf_counter() - start
        if used + statistics.median(walls) > seconds:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": import_s + setup_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "ok_ratio": 1.0 - totals.failed / max(totals.attempted, 1),
    }
    detail = {
        "wall_s_samples": walls,
        "part_s_samples": parts,
        "part_s": {k: statistics.median(p[k] for p in parts) for k in parts[0]} if parts else {},
        "setup": dict(setup_detail, import_s=import_s),
        "fail_ratio": totals.failed / max(totals.attempted, 1),
        "digests": digests,
        "digest_mismatches": mismatches,
        "properties": workload.properties(inp, first) if first is not None else None,
    }
    return metrics, totals, detail


def run_traced(workload, seed, size, work):
    totals = Totals()
    inp, _, setup_detail = setup(workload, seed, size, work, totals, 1)
    wall_u, cpu_u, _ = _one_pass(workload, inp, Recorder(), totals, "untraced")

    tracer = Tracer()
    tracer.pass_id = "traced"
    traced = Recorder(tracer)
    wall_t, _, outs = _one_pass(workload, inp, traced, totals, "traced")

    tracer.pass_id = "probe"
    probe = Recorder(tracer, keep_outputs=False)
    extra = {}
    if outs is not None:
        try:
            extra = workload.probe(inp, outs, probe) or {}
        except Exception as e:  # a probe that cannot finish is one failed call
            probe.fail("probe", f"{type(e).__name__}: {e}")
    totals.add(probe)

    counters = {k: traced.counters.get(k, 0.0) + probe.counters.get(k, 0.0) for k in COUNTER_UNITS}
    metrics = {name: span_total(tracer, ("traced", "probe"), keys)
               for name, keys in SPAN_METRICS.items()}
    metrics.update(counters)
    pairs = counters["dist.pairs_all"]
    metrics["dist.useful_share"] = counters["dist.pairs_within_rmax"] / pairs if pairs else 0.0
    reps = extra.get("replicate_s", [])
    if reps:
        metrics["envelope.replicate_p50_ms"] = 1e3 * statistics.median(reps)
        metrics["envelope.replicate_tail_ms"] = 1e3 * tail(reps)[0]
    else:
        metrics["envelope.replicate_p50_ms"] = metrics["envelope.replicate_tail_ms"] = 0.0
    self_t = tracer.self_times([s for s in tracer.spans if s.pass_id == "probe"])
    metrics["envelope.self_s"] = sum(self_t[s.sid] for s in tracer.spans
                                     if s.pass_id == "probe" and s.name == "envelope.envelopes")
    metrics["proc.cpu_s"] = cpu_u
    metrics["proc.blas_threads"] = blas_threads() or 0
    metrics["trace.overhead"] = wall_t / wall_u - 1.0
    units = {**{k: "s" for k in SPAN_METRICS}, **COUNTER_UNITS, **OTHER_UNITS}
    detail = {
        "untraced_wall_s": wall_u,
        "traced_wall_s": wall_t,
        "setup": setup_detail,
        "replicates": {"n": len(reps), "tail_percentile": tail(reps)[1] if reps else None,
                       "sizes": extra.get("replicate_n")},
        "probe": {k: v for k, v in extra.items() if k not in ("replicate_s", "replicate_n")},
        "not_exercised": sorted(name for name in SPAN_METRICS if metrics[name] == 0.0),
        "properties": workload.properties(inp, outs) if outs is not None else None,
        "how_measured": HOW_MEASURED,
        "spans": tracer.to_records(),
    }
    return metrics, units, totals, detail
