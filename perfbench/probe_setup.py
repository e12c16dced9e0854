"""Cold set-up of one workload in a fresh interpreter; prints seconds taken.

    python3 perfbench/probe_setup.py <workload> <seed> <workdir>

Covers importing the package, making the workload's first inputs and
calibrating the box of every default bound family at the workload's P.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv) -> int:
    name, seed, workdir = argv
    from workloads import WORKLOADS

    os.makedirs(workdir, exist_ok=True)
    WORKLOADS[name].setup(int(seed), workdir)
    print(repr(time.perf_counter() - _START))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
