"""Out-of-core scale benchmark: the ragged posterior store at ~1M observations.

Builds a deliberately *skewed* workload — one hub object whose candidate
domain is thousands of values wide, plus a long tail of narrow objects —
where the retired dense ``(n_objects, max_domain)`` posterior matrix
would cost ``n_objects * max_domain`` cells (tens of GiB at full scale)
while the ragged :class:`repro.fusion.posterior_store.PosteriorStore`
holds one row per *candidate* (a few MiB).  The case:

* fits and predicts through the facade under the ragged store and names
  the learner the optimizer chose (``SLiMFast()``: EM at smoke size, ERM
  at ``scale_1m``);
* demonstrates that the dense path *cannot* run: projected dense cells
  exceed ``DENSE_MAX_CELLS`` and ``posterior_matrix`` materialization is
  refused with ``MemoryError``;
* records wall time, process peak RSS, and the ragged-vs-dense memory
  footprint in a ``BENCH_scale.json`` artifact.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py            # smoke (140k obs)
    PYTHONPATH=src python benchmarks/bench_scale.py --full     # scale_1m (990k obs)

``REPRO_BENCH_SCALE=full`` (the ``run_all.py --full`` convention) also
selects the full size.  Exits nonzero when any contract assertion fails,
so the nightly workflow gates on it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

DEFAULT_OUTPUT = Path(__file__).parent / "results" / "BENCH_scale.json"

SIZES = {
    # A (source, object) pair may claim at most once, so the hub's domain
    # width equals the source count: every source contributes one distinct
    # hub value.  dense cells = (n_tail + 1) * hub_domain.
    "smoke": dict(n_tail=45_000, hub_domain=5_000, obs_per_tail=3),
    "scale_1m": dict(n_tail=245_000, hub_domain=10_000, obs_per_tail=4),
}


def _peak_rss_kb():
    """Process peak RSS in KiB, or ``None`` where ``resource`` is absent."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes on macOS, KiB on Linux
        peak //= 1024
    return int(peak)


def build_skewed_dataset(n_tail: int, hub_domain: int, obs_per_tail: int):
    """Hub-and-tail fusion workload with one very wide candidate domain.

    The hub object receives one *distinct* claim from every source (a
    source may claim an object at most once, so its candidate row count
    is ``hub_domain == n_sources``); each tail object receives
    ``obs_per_tail`` claims from distinct sources, drawn from a 3-value
    candidate pool with source accuracy around 0.7.  Deterministic in
    its arguments.
    """
    import numpy as np

    from repro.fusion import FusionDataset

    rng = np.random.default_rng(11)
    n_sources = hub_domain
    sources = [f"s{i}" for i in range(n_sources)]
    observations = [(sources[v], "hub", f"hub-v{v}") for v in range(hub_domain)]
    truth = {"hub": "hub-v0"}

    # Distinct sources per tail object without per-object sampling loops:
    # a random base source plus a fixed stride of consecutive offsets.
    base_source = rng.integers(0, n_sources, size=n_tail)
    tail_truth_codes = rng.integers(0, 3, size=n_tail)
    correct = rng.random((n_tail, obs_per_tail)) < 0.7
    noise = rng.integers(0, 3, size=(n_tail, obs_per_tail))
    for o in range(n_tail):
        obj = f"o{o}"
        truth[obj] = f"v{tail_truth_codes[o]}"
        for j in range(obs_per_tail):
            code = tail_truth_codes[o] if correct[o, j] else noise[o, j]
            source = sources[(base_source[o] + j) % n_sources]
            observations.append((source, obj, f"v{code}"))
    return FusionDataset(observations, ground_truth=truth)


def run_case(full: bool, output: Path) -> int:
    import numpy as np

    from repro.core.em import EMConfig
    from repro.core.slimfast import SLiMFast
    from repro.fusion.posterior_store import DENSE_MAX_CELLS

    name = "scale_1m" if full else "smoke"
    size = SIZES[name]
    print(f"building {name} workload {size} ...", file=sys.stderr)
    started = time.perf_counter()
    dataset = build_skewed_dataset(**size)
    build_seconds = time.perf_counter() - started
    train = dataset.split(0.10, seed=0).train_truth
    print(
        f"dataset: {dataset.n_sources} sources, {dataset.n_objects} objects, "
        f"{dataset.n_observations} observations ({build_seconds:.1f}s)",
        file=sys.stderr,
    )

    started = time.perf_counter()
    model = SLiMFast(em_config=EMConfig(solver="lbfgs-warm", max_iterations=3, tolerance=0.0))
    result = model.fit(dataset, train).predict()
    fit = {
        "learner": model.chosen_learner_,
        "seconds": time.perf_counter() - started,
        "peak_rss_kb": _peak_rss_kb(),
    }
    print(f"learner={fit['learner']}: fit+predict {fit['seconds']:.1f}s", file=sys.stderr)

    # The dense posterior matrix must be impossible here: the projection
    # overflows the materialization guard, and the store refuses it.
    failures = []
    store = result.posterior_store
    dense_cells = store.dense_cells()
    dense_refused = False
    try:
        result.posterior_matrix
    except MemoryError:
        dense_refused = True
    if dense_cells <= DENSE_MAX_CELLS:
        failures.append(
            f"workload too small: projected dense cells {dense_cells:,} fit under "
            f"DENSE_MAX_CELLS={DENSE_MAX_CELLS:,}; the case no longer exercises "
            "the out-of-core path"
        )
    if not dense_refused:
        failures.append("dense materialization was not refused")

    ragged_mib = store.nbytes / 2**20
    dense_mib = store.dense_nbytes() / 2**20
    print(
        f"ragged store {ragged_mib:.1f} MiB vs projected dense {dense_mib:.0f} MiB "
        f"({dense_cells:,} cells); dense refused: {dense_refused}",
        file=sys.stderr,
    )

    report = {
        "benchmark": "scale",
        "case": name,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "dataset": {
            "n_sources": dataset.n_sources,
            "n_objects": dataset.n_objects,
            "n_observations": dataset.n_observations,
            "max_domain": int(store.max_domain),
            "build_seconds": build_seconds,
        },
        "store": {
            "n_rows": int(store.n_rows),
            "ragged_bytes": int(store.nbytes),
            "projected_dense_bytes": int(store.dense_nbytes()),
            "projected_dense_cells": int(dense_cells),
            "dense_refused": dense_refused,
        },
        "fit": fit,
        "failures": failures,
    }
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}", file=sys.stderr)

    if failures:
        print("SCALE BENCH FAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--full",
        action="store_true",
        help="scale_1m size (990k observations; default is a CI-sized smoke)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON artifact (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    full = args.full or os.environ.get("REPRO_BENCH_SCALE") == "full"
    return run_case(full, args.output)


if __name__ == "__main__":
    sys.exit(main())
