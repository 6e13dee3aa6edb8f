"""What importing fogfed does to its process: numpy's BLAS thread count.

Each check runs a fresh interpreter, because OpenBLAS fixes its thread
count once, when numpy first loads it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fogfed

SRC = Path(fogfed.__file__).resolve().parent.parent
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
)
THREADS = (
    "[print(line.split()[1]) for line in open('/proc/self/status')"
    " if line.startswith('Threads:')]"
)


def blas_name() -> str:
    config = getattr(np.__config__, "CONFIG", None)  # numpy >= 1.26
    return config["Build Dependencies"]["blas"]["name"] if config else ""


linux_openblas = pytest.mark.skipif(
    sys.platform != "linux" or "openblas" not in blas_name(),
    reason="counts OpenBLAS threads in /proc/self/status",
)


def python(code: str, **blas: str) -> list[str]:
    """Standard output lines of ``code`` run with only ``blas`` of the
    BLAS variables set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(blas)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.split()


def test_import_leaves_no_blas_variable():
    out = python(
        "import os, fogfed.cli\n"
        f"print(*(v in os.environ for v in {BLAS_VARS!r}))"
    )
    assert out == ["False"] * len(BLAS_VARS)


@linux_openblas
def test_import_loads_one_blas_thread():
    assert python("import fogfed.cli\n" + THREADS) == ["1"]


@pytest.mark.parametrize("var", BLAS_VARS)
def test_import_keeps_the_callers_thread_count(var):
    code = f"import os, fogfed.cli\nprint(os.environ[{var!r}])"
    assert python(code, **{var: "2"}) == ["2"]


@linux_openblas
@pytest.mark.skipif(
    sys.platform == "linux" and len(os.sched_getaffinity(0)) < 2,
    reason="OpenBLAS starts no second thread on one core",
)
@pytest.mark.parametrize("var", BLAS_VARS)
def test_callers_thread_count_reaches_openblas(var):
    assert python("import fogfed.cli\n" + THREADS, **{var: "2"}) == ["2"]


def test_large_pmf_mean_does_not_depend_on_the_core_count():
    # 30 101 bins: large enough for a multi-threaded np.dot to split the sum
    code = (
        "from fogfed.dist import NormalSpec, pmf_from_normal\n"
        "print(pmf_from_normal(NormalSpec(1350.0, 415.0), 0.1).mean.hex())"
    )
    assert python(code) == python(code, OPENBLAS_NUM_THREADS="1")
