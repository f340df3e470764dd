"""Process set-up shared by the benchmark's scripts: thread pins, importing
the program from the checkout's own sources, and the run environment."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# One single-threaded process per run: BLAS pools would otherwise compete
# with the timed Python code for the machine's cores.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def pin_threads() -> None:
    """Pin BLAS thread pools to one thread; call before numpy is imported."""
    os.environ.update(THREAD_PINS)


def import_program():
    """Import `ssein` from the checkout's `src/`, never from elsewhere."""
    if not (SRC / "ssein" / "__init__.py").is_file():
        raise ImportError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ssein

    if not Path(ssein.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ssein imported from {ssein.__file__}, not {SRC}")
    return ssein


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def describe() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }
