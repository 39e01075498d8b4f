"""Paths and fixed settings shared by the benchmark's scripts."""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE_CSV = os.path.join(BENCH_DIR, "sweep_reference.csv")

# CPUs this process may run on, as nproc counts them
NPROC = len(os.sched_getaffinity(0))
SWEEP_THREADS = NPROC
SWEEP_BETAS = (2, 8)
SWEEP_THETA_MAXES = (4, 16, 24)


def require_program() -> None:
    """Put ``src`` on the import path, or exit 2 if the program is absent."""
    if not os.path.isfile(os.path.join(SRC, "qpanet", "__init__.py")):
        print(f"error: no qpanet sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def work_dir() -> str:
    """Scratch directory inside the checkout (ignored by git)."""
    path = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(path, exist_ok=True)
    return path


def sweep_argv(q, betas, theta_maxes, threads: int, out: str) -> list[str]:
    """``qpanet sweep`` arguments for one decay factor ``q``."""
    return [
        "sweep",
        "--family", "exponential",
        "--q", f"{q:g}",
        "--beta", ",".join(str(b) for b in betas),
        "--theta-max", ",".join(str(t) for t in theta_maxes),
        "--threads", str(threads),
        "-o", out,
    ]
