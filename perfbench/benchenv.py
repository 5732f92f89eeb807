"""Process environment shared by the benchmark and its child processes.

Import this before numpy: BLAS reads its thread count when it loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
NPROC = len(os.sched_getaffinity(0))
# one BLAS thread (at most nproc): a threaded eigh needs every core at
# once, so on a shared machine a neighbour's load on any core stalls it
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS threads and put the checkout's ``src`` first on the
    import path; exit non-zero when the checkout holds no kwgraph."""
    if not (SRC / "kwgraph" / "__init__.py").is_file():
        sys.exit(f"error: no kwgraph sources under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
