import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import pin_threads  # noqa: E402

# Same single-threaded numerics as run.py; tiny L-BFGS solves are many
# times slower with a multi-threaded BLAS.
pin_threads()
