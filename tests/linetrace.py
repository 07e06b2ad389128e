"""Line trace of src/ under tier-1: which lines of the package no test runs.

    python tests/linetrace.py [pytest arguments ...]

Runs `python -m pytest` from the root of the checkout over a temporary copy
of src/ whose `sitecustomize.py` traces the package in every process that
imports it (the CLI subprocesses too) and in every thread it starts (the
replicate pool), with the standard library only (`sys.settrace`). Executable
lines are those of the modules' code objects (`co_lines`), raise statements
included.

Prints one Markdown table of never-run lines per module to standard output
(pytest's own output goes to standard error) and exits 1 when the tests fail
or any line never ran: a line of src/ runs under tier-1 or goes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "markedpoints"

# loaded at start-up by every interpreter that has the copy on PYTHONPATH;
# writes the lines it saw to $LINETRACE_OUT/<pid>.json at exit
SITECUSTOMIZE = '''
import atexit, json, os, sys, threading

_PKG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "markedpoints") + os.sep
_hits = set()


def _line(frame, event, arg):
    _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    if frame.f_code.co_filename.startswith(_PKG):
        return _line(frame, event, arg)
    return None


def _dump():
    with open(os.path.join(os.environ["LINETRACE_OUT"], f"{os.getpid()}.json"), "w") as fh:
        json.dump(sorted(_hits), fh)


if os.environ.get("LINETRACE_OUT"):
    sys.settrace(_call)
    threading.settrace(_call)
    atexit.register(_dump)
'''


def executable_lines(code):
    """Every line number that code or a code object nested in it executes."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def never_run(src_dir, hits):
    """{module file name: (executable lines, never-run lines)}."""
    table = {}
    for path in sorted((src_dir / PACKAGE).glob("*.py")):
        lines = executable_lines(compile(path.read_text(), str(path), "exec"))
        table[path.name] = (len(lines), sorted(lines - hits.get(str(path), set())))
    return table


def ranges(lines):
    """[3, 4, 5, 9] -> '3-5, 9'."""
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report(table) -> int:
    """Print the table; returns the count of never-run lines."""
    print("| module | executable | never run | lines |")
    print("|---|---:|---:|---|")
    for name, (n, missed) in table.items():
        print(f"| {name} | {n} | {len(missed)} | {ranges(missed)} |")
    n, missed = sum(r[0] for r in table.values()), sum(len(r[1]) for r in table.values())
    print(f"| total | {n} | {missed} | |")
    return missed


def main(pytest_args):
    with tempfile.TemporaryDirectory(prefix="linetrace-") as tmp:
        src_dir, out_dir = Path(tmp, "src"), Path(tmp, "hits")
        shutil.copytree(ROOT / "src" / PACKAGE, src_dir / PACKAGE, ignore=shutil.ignore_patterns("__pycache__"))
        (src_dir / "sitecustomize.py").write_text(SITECUSTOMIZE)
        out_dir.mkdir()
        env = dict(os.environ, PYTHONPATH=str(src_dir), LINETRACE_OUT=str(out_dir))
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *pytest_args]
        tests = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
        hits = {}
        for dump in out_dir.glob("*.json"):
            for filename, line in json.loads(dump.read_text()):
                hits.setdefault(filename, set()).add(line)
        table = never_run(src_dir, hits)
    missed = report(table)
    if tests.returncode != 0:
        print(f"\ntier-1 failed under the tracer (pytest exit code {tests.returncode})")
        return 1
    if missed:
        print(f"\n{missed} line(s) of src/ never ran")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
