"""Run one benchmark workload and print its metrics; the last line is JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch_fuse --seed 0 --seconds 15 --trace 0

Workloads: ``batch_fuse``, ``learner_grid``, ``stream_serve``.  Exit code
0 when every check passed, 1 when a check failed, 2 when the run could not
start (for instance without the ``src/repro`` package next to this
directory).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import pin_threads

    pin_threads()
    from perfbench.harness import main

    sys.exit(main())
