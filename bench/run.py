"""Benchmark of the markedpoints package, run from the root of a checkout.

    python3 bench/run.py --workload study --seed 1 --seconds 20 --trace 0

Workloads: study, and large (the planar_large, network_large and cli parts
in turn; see workloads.py), or `all`, which runs each untraced in its own
process and prints one table.
--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb,
ok_ratio); --trace 1 reports the per-layer metrics from a traced run.
--size smoke runs the same calls on tiny inputs (see selftest.py).

The package is imported from ./src of the checkout and receives only the
inputs generated from --seed. No worker count is passed and
MARKEDPOINTS_THREADS is removed from the environment, so replicates run
serially, as they do by default. Details (per-pass samples, environment,
input properties, output digests, spans) go to
.bench_out/results/<workload>-seed<seed>-trace<t>.json; the last line of
standard output is the result as one JSON object.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("study", "large")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    return ap.parse_args(argv)


def import_package():
    """Import markedpoints from ./src of this checkout, and only from there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "markedpoints", "__init__.py")):
        raise SystemExit(f"error: no package source at {src}/markedpoints")
    sys.path[:0] = [src, HERE]
    import markedpoints

    if os.path.dirname(os.path.dirname(os.path.abspath(markedpoints.__file__))) != src:
        raise SystemExit(f"error: markedpoints imported from {markedpoints.__file__}, not {src}")


def run_all(args):
    """Each workload untraced, in its own process; one table of the results."""
    rows, ok = {}, True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0", "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        rows[name] = json.loads(lines[-1])
    print(f"{'workload':<14} {'wall_s':>10} {'setup_s':>10} {'peak_rss_mb':>12} {'fail_ratio':>11}")
    metrics, attempted, failed = {}, 0, 0
    for name, res in rows.items():
        m = res["metrics"]
        fail_ratio = res["failed"] / res["attempted"]
        print(f"{name:<14} {m['wall_s']['value']:>8.3f} s {m['setup_s']['value']:>8.3f} s "
              f"{m['peak_rss_mb']['value']:>8.1f} MiB {fail_ratio:>11.4f}")
        attempted += res["attempted"]
        failed += res["failed"]
        ok = ok and res["correct"]
        for key, val in m.items():
            metrics[f"{name}.{key}"] = val
        metrics[f"{name}.fail_ratio"] = {"value": fail_ratio, "unit": "fraction"}
    print(json.dumps({"correct": ok and len(rows) == len(WORKLOAD_NAMES), "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return run_all(args)
    threads_env = os.environ.pop("MARKEDPOINTS_THREADS", None)
    import_package()
    import checks
    import envinfo
    import harness
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _T0
    out_dir = os.path.join(ROOT, ".bench_out")
    work = os.path.relpath(os.path.join(out_dir, f"work-{args.workload}"))
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            metrics, units, totals, detail = harness.run_traced(workload, args.seed, args.size, work)
        else:
            metrics, totals, detail = harness.run_untraced(
                workload, args.seed, args.seconds, args.size, work, import_s)
            units = harness.END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    detail.update(
        workload=args.workload, size=args.size, seconds=args.seconds, trace=args.trace,
        environment=envinfo.collect(ROOT, args.seed, threads_env),
        failures=totals.failures[:50], result=result,
    )
    res_dir = os.path.join(out_dir, "results")
    os.makedirs(res_dir, exist_ok=True)
    path = os.path.join(res_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1, default=str)
    for line in totals.failures[:10]:
        print(f"FAILED {line}")
    notes = {}
    if not args.trace:
        notes = {"wall_s": f"median of {len(detail['wall_s_samples'])} passes",
                 "setup_s": f"imports + median of {len(detail['setup']['inputs_s'])} input "
                            "generations + one smoke-size warm-up pass"}
    for k, v in result["metrics"].items():
        note = f"  ({notes[k]})" if k in notes else ""
        print(f"{k:<32} {v['value']:>16.6g} {v['unit']}{note}")
    for k, v in detail.get("part_s", {}).items():
        print(f"{'  part ' + k:<32} {v:>16.6g} s  (median share of a pass; not a metric)")
    if detail.get("digests"):
        print(f"output digest {checks.digest(detail['digests'])} (first pass; {path})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
