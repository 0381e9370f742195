"""Process set-up shared by the benchmark scripts: thread pinning, loading
lrkrylov from the checkout's ``src/`` and the environment record."""

import importlib.util
import os
import platform
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def pin_threads():
    """One BLAS thread and serial solver runs.  Must run before numpy is
    first imported, because OpenBLAS reads its thread count at load."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("LRK_THREADS", None)


def load_package():
    """Put the checkout's ``src/`` first on the import path; exit with an
    error, before any measurement, when it holds no lrkrylov package."""
    if not (SRC / "lrkrylov" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lrkrylov package under {SRC}")
    sys.path.insert(0, str(SRC))


def describe(seed):
    """Versions and machine facts that the numbers depend on."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "seed": seed,
    }
