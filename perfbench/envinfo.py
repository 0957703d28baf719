"""The environment block written into every result file."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np

#: Recorded as found; the benchmark never sets them, so that oversubscription
#: between ``--workers`` threads and BLAS threads stays visible.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_BLAS_KEYS = ("name", "version", "openblas configuration")


def _blas_info() -> dict:
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        return {"blas": "unknown", "lapack": "unknown"}
    return {
        lib: {key: deps.get(lib, {}).get(key, "unknown") for key in _BLAS_KEYS}
        for lib in ("blas", "lapack")
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 0


def src_line_count(root: Path) -> int:
    """Lines in ``src/entrunc/*.py``: information for ROADMAP aim 2, not a metric."""
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((root / "src" / "entrunc").glob("*.py"))
    )


def environment(root: Path) -> dict:
    return {
        "numpy": np.__version__,
        **_blas_info(),
        "thread_env": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
        "src_entrunc_lines": src_line_count(root),
    }
