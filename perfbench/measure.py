"""Summary statistics, memory and environment facts for benchmark results."""

from __future__ import annotations

import ctypes
import math
import os
import platform
import resource
import subprocess
import sys

TAIL_MIN_BEYOND = 10
TAIL_MIN_PERCENTILE = 75  # runs go on until the tail is at least this high


def tail_percentile(values, min_beyond=TAIL_MIN_BEYOND):
    """Highest whole percentile with at least ``min_beyond`` samples above it.

    Uses the nearest-rank percentile: the p-th percentile of n sorted samples
    is the ceil(p*n/100)-th smallest, so n - rank samples lie beyond it.
    Returns (p, value, n).
    """
    xs = sorted(values)
    n = len(xs)
    if n <= min_beyond:
        raise ValueError(
            f"{n} samples cannot put {min_beyond} beyond a percentile")
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= min_beyond:
            return p, xs[rank - 1], n
    raise AssertionError("unreachable: p=1 qualifies for n > min_beyond")


def tail_ready(n):
    """Whether n samples put TAIL_MIN_BEYOND beyond the TAIL_MIN_PERCENTILE-th
    percentile, so the tail reported is at least that high."""
    return n - math.ceil(TAIL_MIN_PERCENTILE * n / 100) >= TAIL_MIN_BEYOND


def peak_rss_mb(workers_growth_kb=0):
    """Peak resident set of this process plus what its pool workers added
    (``workers_growth_kb``, see Tracer.merge_spills), in MiB.  Set-up probes
    are not counted."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + workers_growth_kb) / 1024.0


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas():
    """BLAS name/version as numpy reports it and the thread count the loaded
    OpenBLAS library reports; nothing is changed."""
    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        pass
    info["threads"] = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    break
    except OSError:
        pass
    info["env"] = {k: os.environ[k] for k in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS") if k in os.environ}
    return info


def _git_commit(root):
    if not (root / ".git").exists():
        return None  # an exported checkout carries no commit
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root, workload, seed):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "workload": workload,
        "seed": seed,
    }
