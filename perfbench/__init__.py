"""End-to-end SLiMFast benchmark: three workloads, per-layer traced timings.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed
<n> --seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/README.md``.
"""

import os


def pin_threads() -> None:
    """Single-threaded numerics; call before numpy is first imported."""
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
