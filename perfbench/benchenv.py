"""Process environment for the benchmark: thread caps, the source path of
the package under test, and the environment record printed with results.

``configure`` must run before numpy is imported anywhere in the process,
because BLAS reads its thread count once, at load time.
"""

from __future__ import annotations

import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "src")

# One client drives tiny matrices, so one BLAS thread is both the
# steadiest choice and never more than the cores the process may use.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS = "1"


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/otfusion`` package to benchmark."""


def configure():
    """Cap BLAS threads and put the checkout's ``src`` first on the path."""
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    if not os.path.isfile(os.path.join(SOURCE_DIR, "otfusion", "__init__.py")):
        raise SourceMissing(f"no otfusion package under {SOURCE_DIR}")
    if SOURCE_DIR not in sys.path:
        sys.path.insert(0, SOURCE_DIR)


def check_imported_from_source():
    """Refuse to measure an otfusion that is not this checkout's."""
    import otfusion

    found = os.path.dirname(os.path.abspath(otfusion.__file__))
    if found != os.path.join(SOURCE_DIR, "otfusion"):
        raise SourceMissing(f"otfusion imported from {found}, not {SOURCE_DIR}")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def record(workload: str, seed: int) -> dict:
    """Interpreter, library versions, BLAS build and thread settings."""
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "nproc": nproc(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
