"""Self-test of the benchmark: every workload at the smoke size, untraced and
traced, in a few seconds each.

    python3 bench/selftest.py

Asserts that each run exits 0, that every output check passes, and that
the last line names exactly the metrics BENCHMARK.json lists for its mode,
each with its unit. Also asserts that the benchmark refuses to run (nonzero
exit, no result line) in a directory holding only BENCHMARK.json and the
benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300, check=False)


def check_result(spec, workload, trace, proc):
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        raise AssertionError(f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(res)}")
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        raise AssertionError(f"{where}: checks failed\n{proc.stdout[-3000:]}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise AssertionError(f"{where}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    return res


def check_bare_directory():
    """Without the package source the benchmark must fail, printing no result."""
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, "study", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        raise AssertionError(f"bare directory: exit {proc.returncode}, output {last}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace in (0, 1):
            res = check_result(spec, w["name"], trace, run(ROOT, w["name"], trace))
            print(f"ok  {w['name']:<14} trace={trace}  attempted={res['attempted']}")
    check_bare_directory()
    print("ok  bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
