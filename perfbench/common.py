"""Paths, the hermetic child environment, and small statistics helpers.

Everything the benchmark writes lives under ``.perfbench/`` at the root
of the checkout it runs in: the private artifact cache, per-run result
files and trace dumps.  Child processes (the gateway under test, the
reader worker, the cache primer) get an environment with every
``REPRO_*`` variable stripped, BLAS/OpenMP pinned to one thread and
``REPRO_CACHE_DIR`` pointed at the private cache, so no run reads or
writes ``~/.cache/repro``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
CACHE_DIR = STATE / "cache"
RESULTS_DIR = STATE / "results"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Thread-count variables pinned to 1 in every process of a run.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> None:
    """Pin BLAS/OpenMP pools to one thread (call before importing numpy)."""
    for name in THREAD_ENV:
        os.environ[name] = "1"


def cpu_roles() -> tuple:
    """(generator CPUs, process-under-test CPUs) for affinity pinning.

    The load generator and the process under test each get a CPU of
    their own, so the scheduler cannot move them onto one core or swap
    them mid-run; unpinned, runs on two CPUs fall into two latency
    modes depending on placement.  With one CPU both share it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[-2]}, {cpus[-1]}


def pin_process(pid: int, cpus: set) -> None:
    """Best-effort CPU affinity for ``pid`` (0 = this process)."""
    try:
        os.sched_setaffinity(pid, cpus)
    except OSError:
        pass


def source_available() -> bool:
    """Whether the program under test is present next to the benchmark."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_source() -> None:
    """Make ``import repro`` resolve to the checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))


def child_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Environment for a benchmark child process."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and not key.startswith("PERFBENCH_")}
    for name in THREAD_ENV:
        env[name] = "1"
    env["REPRO_CACHE_DIR"] = str(CACHE_DIR)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    if extra:
        env.update(extra)
    return env


def load_spec() -> dict:
    """The benchmark definition (``BENCHMARK.json``)."""
    with open(SPEC_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]; NaN when empty."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Iterable[float]) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)


def mean(values: List[float]) -> float:
    """Arithmetic mean; 0.0 when empty."""
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process [MiB]."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def source_revision() -> str:
    """Git SHA of the checkout, or a content hash of ``src/`` without git."""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
            if sha:
                return sha
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def environment_record() -> dict:
    """Machine and toolchain facts recorded with every result."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        import numba  # noqa: F401
        numba_available = True
    except ImportError:
        numba_available = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_available": numba_available,
        "revision": source_revision(),
        "threads_pinned": {name: os.environ.get(name) for name in THREAD_ENV},
    }
