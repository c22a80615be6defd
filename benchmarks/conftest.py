"""Shared fixtures and output plumbing for the paper benchmarks.

Every benchmark regenerates one paper table or figure and writes the
rendered rows to ``benchmarks/results/<artifact>.txt`` (also echoed to
stdout, visible with ``pytest -s``), so ``benchmarks/results/`` holds every
output.  Where a shape departs from the paper's, the assertion's comment
points at "Deviations from the paper" in README.md.

Scales are reduced relative to the paper (fewer seeds, smaller synthetic
grids) so the full bench suite finishes in minutes; the dataset simulators
themselves run at full Table 1 size unless noted.  Set
``REPRO_BENCH_SCALE=full`` for paper-scale sweeps.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
RESULTS_DIR.mkdir(exist_ok=True)

FULL_SCALE = os.environ.get("REPRO_BENCH_SCALE", "").lower() == "full"

#: Training-data fractions mirroring the paper's {0.1, 1, 5, 10, 20}%.
FRACTIONS = (0.001, 0.01, 0.05, 0.10, 0.20)
SEEDS = (0, 1, 2) if FULL_SCALE else (0,)


def publish(name: str, text: str) -> None:
    """Write an artifact's rendered rows to disk and stdout."""
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    sys.stdout.write(f"\n=== {name} ===\n{text}\n")


@pytest.fixture(scope="session")
def paper_datasets():
    """The four simulated evaluation datasets at Table 1 scale."""
    from repro.data import (
        generate_crowd,
        generate_demos,
        generate_genomics,
        generate_stocks,
    )

    return {
        "stocks": generate_stocks(seed=0),
        "demos": generate_demos(seed=0),
        "crowd": generate_crowd(seed=0),
        "genomics": generate_genomics(seed=0),
    }
