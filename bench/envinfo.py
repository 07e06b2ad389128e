"""Environment record written with every result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys

import numpy as np
import scipy


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    info = {"name": "unknown", "version": "unknown"}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=cfg.get("name", "unknown"), version=cfg.get("version", "unknown"))
    except (TypeError, KeyError):
        pass
    info["threads"] = blas_threads()
    return info


def blas_threads():
    """Thread count the bundled OpenBLAS will use, or None if it cannot be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref:"):
            return ref
        name = ref.split(None, 1)[1]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def collect(root, seed, threads_env) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "MARKEDPOINTS_THREADS": threads_env if threads_env is not None else "unset",
        "git_commit": _git_commit(root),
        "workload_seed": seed,
    }
