"""Hermetic environment: pin it before numpy loads, stamp it into results.

Nothing here imports numpy at module level — :func:`pin` has to run first.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

#: root of the checkout (``benchmarks/layerbench/env.py`` → two levels up)
ROOT = Path(__file__).resolve().parents[2]

#: BLAS/OpenMP pools are sized when numpy loads; one thread each, because a
#: 2-thread run on a shared 2-core box measures the scheduler, not the solver
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin() -> None:
    """Pin BLAS threads and the kernel backend, and put ``src/`` on the path.

    Exits with an error when numpy was already imported under another
    thread setting (the pools cannot be resized afterwards) or when the
    checkout holds no ``src/repro`` to measure.
    """
    if "numpy" in sys.modules:
        wrong = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
        if wrong:
            sys.exit("layerbench: numpy was imported before the BLAS thread "
                     f"pins were set ({', '.join(wrong)} != 1); run it as "
                     "`python -m benchmarks.layerbench ...` in a fresh process")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["REPRO_BACKEND"] = "numpy"
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"layerbench: no solver to measure ({src}/repro is missing)")
    sys.path.insert(0, str(src))


def fresh_import_seconds(times: int) -> List[float]:
    """CPU seconds a fresh interpreter takes to import numpy, scipy and
    ``repro``, ``times`` times: the one part of set-up that cannot be
    repeated inside the measuring process."""
    code = ("import time; t = time.process_time(); "
            "import numpy, scipy.sparse.linalg, repro; "
            "print(time.process_time() - t)")
    child_env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return [float(subprocess.run(
        [sys.executable, "-c", code], env=child_env, timeout=120,
        capture_output=True, text=True, check=True).stdout)
        for _ in range(times)]


def load_spec() -> Dict[str, Any]:
    """The root ``BENCHMARK.json``: workload names, metric units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git_head() -> str:
    """``git rev-parse HEAD`` of the checkout, ``"unknown"`` outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def stamp() -> Dict[str, Any]:
    """What a result was measured on; recorded in every result file."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in
                 ("name", "version", "openblas configuration")},
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_head": _git_head(),
        "env": {v: os.environ.get(v)
                for v in THREAD_VARS + ("REPRO_BACKEND",)},
    }
