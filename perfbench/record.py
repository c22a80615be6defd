"""Record each seed's reference accuracy and optimizer choice.

The benchmark checks every op against these values (``expected.json``);
a seed without an entry is checked against its own warm-up op instead.
Re-record only when a change is meant to alter results, and say so.

Usage, from the repository root::

    python3 perfbench/record.py --size full --seeds 0-31
    python3 perfbench/record.py --size tiny --seeds 0-3 --workload stream_serve
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    from perfbench.harness import EXPECTED, load_expected
    from perfbench.tracing import NULL_TRACER
    from perfbench.workloads import SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--seeds", type=_seeds, required=True, help="N or FIRST-LAST")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()

    expected = load_expected()
    workdir = ROOT / ".perfbench" / "record"
    try:
        for name in args.workload or sorted(WORKLOADS):
            workload = WORKLOADS[name](SIZES[args.size][name])
            table = expected.setdefault(name, {}).setdefault(args.size, {})
            for seed in args.seeds:
                op = workload.op(workload.setup(seed, workdir), NULL_TRACER)
                if op.failures:
                    raise RuntimeError(f"{name} seed {seed}: {op.failures}")
                table[str(seed)] = {"accuracy": op.accuracy, "choice": op.choice}
                print(f"{name} {args.size} seed {seed}: {table[str(seed)]}", flush=True)
                EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import pin_threads

    pin_threads()
    sys.exit(main())
