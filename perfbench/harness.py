"""Shared plumbing for the benchmark: paths, child processes, statistics, environment.

This module imports neither diraclab nor numpy at load time, so the
orchestrating process stays small and never pays the package's import cost.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

# The console-script entry point of `diraclab`, spelled out so the CLI runs
# from a source checkout without an install.
CLI_ENTRY = "import sys; from diraclab.cli import main; sys.exit(main(sys.argv[1:]))"

THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def have_program() -> bool:
    return os.path.isfile(os.path.join(SRC, "diraclab", "__init__.py"))


def child_env(extra: dict | None = None) -> dict:
    """Environment for every child: the checkout's src/ first on the path.

    DIRACLAB_CONFIG is dropped so a config file in the caller's environment
    cannot change what the benchmark measures.
    """
    env = dict(os.environ)
    env.pop("DIRACLAB_CONFIG", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    if extra:
        env.update(extra)
    return env


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    ready_s: float | None  # time from spawn to the child's READY line
    maxrss_mb: float
    stdout: str
    stderr: str


def run_child(argv, *, env: dict, timeout: float, wait_ready: bool = False) -> ChildResult:
    """Run one child to completion; time it and take its own peak RSS from wait4.

    With wait_ready the child is expected to print a line "READY" once its
    set-up is done; the time to that line is returned as ready_s.  stderr
    goes to a file so neither pipe can fill and stall the child.
    """
    os.makedirs(OUT, exist_ok=True)
    err_path = os.path.join(OUT, f"stderr-{os.getpid()}.txt")
    with open(err_path, "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env,
                                cwd=ROOT, text=True)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            ready_s = None
            lines = []
            if wait_ready:
                for line in proc.stdout:
                    if line.strip() == "READY":
                        ready_s = time.perf_counter() - start
                        break
                    lines.append(line)
            lines.append(proc.stdout.read())
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall_s = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        stderr = err.read()
    os.remove(err_path)
    return ChildResult(returncode=proc.returncode, wall_s=wall_s, ready_s=ready_s,
                       maxrss_mb=usage.ru_maxrss / 1024.0, stdout="".join(lines),
                       stderr=stderr)


def last_json_line(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


# --- statistics ------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def tail(values, beyond: int = 10):
    """The highest percentile with at least `beyond` samples above it.

    With n sorted samples that is the sample of rank n - beyond (1-based),
    the 100 (n - beyond) / n percentile.  Returns (value, percentile, n), or
    None when there are not more than `beyond` samples.
    """
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    return float(ordered[n - beyond - 1]), 100.0 * (n - beyond) / n, n


def windowed_rate(ops, window: int = 3) -> float:
    """Passed operations per second: the median over windows of `window`
    consecutive operations, so a stall in one part of a run moves one window,
    not the figure.

    `ops` is the run's operations in order, as (seconds, passed) pairs.  A
    last window shorter than `window` is dropped, unless the run holds no
    full window, in which case the whole run is one window.
    """
    windows = [ops[i:i + window] for i in range(0, len(ops) - window + 1, window)] or [ops]
    return median([sum(p for _, p in w) / sum(s for s, _ in w) for w in windows])


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else math.inf


# --- environment record ----------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    info = _read("/proc/cpuinfo") or ""
    for line in info.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _cpu_caches() -> list:
    base = "/sys/devices/system/cpu/cpu0/cache"
    caches = []
    try:
        entries = sorted(e for e in os.listdir(base) if e.startswith("index"))
    except OSError:
        return caches
    for entry in entries:
        d = os.path.join(base, entry)
        caches.append({"level": _read(os.path.join(d, "level")),
                       "type": _read(os.path.join(d, "type")),
                       "size": _read(os.path.join(d, "size"))})
    return caches


def environment(seed: int) -> dict:
    """What produced the numbers.  Reads only; changes no machine setting."""
    from importlib import metadata

    import numpy as np

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy older than 1.25 has no dict mode
        deps = {}
    return {
        "workload_seed": seed,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas_lapack": {k: deps.get(k) for k in ("blas", "lapack")},
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cpu_caches": _cpu_caches(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV_VARS},
        "platform": platform.platform(),
    }
