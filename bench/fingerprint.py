"""Machine and source fingerprint printed next to every result (not gated)."""

from __future__ import annotations

import os
import platform
import sys

BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: {"name": v.get("name"), "version": v.get("version")} for k, v in deps.items()}
    except (TypeError, KeyError):  # numpy older than 1.25
        return {}


def _git_commit(root: str) -> str | None:
    """HEAD commit read from the .git directory, when the checkout has one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_lines(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src", "orthocal")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def fingerprint(root: str) -> dict:
    import numpy as np

    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": _git_commit(root),
        "src_orthocal_lines": source_lines(root),
    }
