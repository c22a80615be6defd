"""Benchmark the reliability featurizer: stats kernel, cache, and accuracy.

Three sections:

1. **Ratio cases** (gated like the engine benchmark's):
   ``featurize_stats`` compares the vectorized chunkable statistics pass
   (:func:`repro.featurize.compute_source_stats`) against a pure-Python
   per-observation reference loop computing the same accumulators, and
   ``featurize_cache`` compares a cold featurization of a fresh encoding
   against a content+version-keyed cache hit of the same dataset.
2. **Accuracy artifact**: featurized vs unfeaturized SLiMFast on the
   adversarial scenario generators.  Drift and copier-clique streams run
   the ERM path on the scenario dataset with the stream's revealed truth
   (scarce supervision — where reliability features pool information
   across sources), scored on the held-out objects and averaged over
   seeds; a synthetic instance reports the EM path for reference.
3. **Gates**: the bench **fails** (exit 1) when the featurized mean
   accuracy falls below the unfeaturized mean on the drift or copier
   scenarios — the "features computed from the data itself must pay for
   themselves" contract of the featurizer pipeline.

Usage::

    PYTHONPATH=src python benchmarks/bench_featurize.py                # full (5 seeds)
    PYTHONPATH=src python benchmarks/bench_featurize.py --smoke        # CI-sized (3 seeds)
    PYTHONPATH=src python benchmarks/bench_featurize.py --smoke \
        --check-against benchmarks/BENCH_inference.json                # regression gate
    PYTHONPATH=src python benchmarks/bench_featurize.py --smoke \
        --merge-into benchmarks/BENCH_inference.json                   # refresh committed baseline

``--check-against`` reuses the engine benchmark's ``check_regression``
(>20% speedup / >25% peak-RSS gates, matched by case name);
``--merge-into`` splices this benchmark's cases and its ``featurize``
section into the shared committed baseline without touching the other
benchmarks' cases.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from collections import Counter, defaultdict
from pathlib import Path

from bench_vectorized_engine import (
    _generate,
    _median_time,
    _peak_rss_kb,
    check_regression,
)

DEFAULT_OUTPUT = Path(__file__).parent / "results" / "BENCH_featurize.json"
BASELINE_PATH = Path(__file__).parent / "BENCH_inference.json"

#: Accuracy cases where the featurized mean must not fall below the
#: unfeaturized mean (strict, no tolerance: the means are multi-seed).
GATED_SCENARIOS = ("drift", "copier")


def _reference_stats(dataset, half_life: float):
    """Pure-Python per-source statistics — the loop the kernel replaces.

    Mirrors :func:`repro.featurize.compute_source_stats` semantics (same
    consensus tie-break, same normalized entropy) one dict update at a
    time, the way a straightforward implementation would.
    """
    votes = defaultdict(Counter)
    order = {}
    for row, obs in enumerate(dataset.observations):
        votes[obs.obj][obs.value] += 1
        order[(obs.source, obs.obj)] = row

    consensus = {}
    entropy = {}
    for obj, counter in votes.items():
        first_seen = list(counter)  # insertion order = first-claim order
        consensus[obj] = max(
            first_seen,
            # Bind the loop state as defaults (B023: no loop-var closure).
            key=lambda v, c=counter, fs=first_seen: (c[v], -fs.index(v)),
        )
        total = sum(counter.values())
        h = -sum((c / total) * math.log(c / total) for c in counter.values() if c)
        entropy[obj] = h / math.log(max(len(counter), 2))

    stats = {
        source: {
            "n_claims": 0,
            "n_solo": 0,
            "n_consensus": 0,
            "n_contradicted": 0,
            "sum_domain": 0.0,
            "sum_coclaim": 0.0,
            "sum_agree": 0.0,
            "sum_entropy": 0.0,
            "sum_row": 0.0,
            "first_row": None,
            "last_row": -1,
            "decayed_volume": 0.0,
            "decayed_agree": 0.0,
        }
        for source in dataset.sources.items
    }
    for obs in dataset.observations:
        row = order[(obs.source, obs.obj)]
        counter = votes[obs.obj]
        claims = sum(counter.values())
        entry = stats[obs.source]
        entry["n_claims"] += 1
        entry["n_solo"] += claims == 1
        entry["n_consensus"] += obs.value == consensus[obs.obj]
        entry["n_contradicted"] += counter[obs.value] < claims
        entry["sum_domain"] += len(counter)
        entry["sum_coclaim"] += claims - 1
        entry["sum_agree"] += counter[obs.value] - 1
        entry["sum_entropy"] += entropy[obs.obj]
        entry["sum_row"] += row
        if entry["first_row"] is None or row < entry["first_row"]:
            entry["first_row"] = row
        entry["last_row"] = max(entry["last_row"], row)
    for obs in dataset.observations:
        row = order[(obs.source, obs.obj)]
        entry = stats[obs.source]
        weight = 2.0 ** ((row - entry["last_row"]) / half_life)
        entry["decayed_volume"] += weight
        entry["decayed_agree"] += weight * (votes[obs.obj][obs.value] - 1)
    return stats


def _scenario_datasets(name: str, seeds):
    from repro.data import copier_clique_scenario, drift_scenario

    for seed in seeds:
        if name == "drift":
            scn = drift_scenario(n_sources=20, objects_per_step=12, n_steps=25, seed=seed)
        else:
            scn = copier_clique_scenario(
                n_sources=18,
                n_cliques=2,
                clique_size=4,
                objects_per_step=12,
                n_steps=25,
                seed=seed,
            )
        yield scn.to_dataset(), scn.revealed_truth()


def _fit_accuracy(dataset, train_truth, learner: str, featurizer) -> float:
    from repro import SLiMFast

    result = SLiMFast(learner=learner, featurizer=featurizer).fit_predict(dataset, train_truth)
    test = [obj for obj in dataset.ground_truth if obj not in train_truth]
    hits = sum(result.values.get(obj) == dataset.ground_truth[obj] for obj in test)
    return hits / max(len(test), 1)


def run_benchmarks(smoke: bool, n_observations: int, repeats: int) -> dict:
    import numpy as np

    from repro.featurize import FeaturizerPipeline, compute_source_stats
    from repro.featurize.stats import STAT_ARRAYS
    from repro.fusion.encoding import DenseEncoding, encode_dataset

    failures = []
    cases = []

    def case(name, reference_fn, vectorized_fn):
        reference_seconds = _median_time(reference_fn, repeats)
        vectorized_seconds = _median_time(vectorized_fn, repeats)
        entry = {
            "name": name,
            "reference_seconds": reference_seconds,
            "vectorized_seconds": vectorized_seconds,
            "speedup": reference_seconds / vectorized_seconds,
            "peak_rss_kb": _peak_rss_kb(),
        }
        cases.append(entry)
        print(
            f"{name}: reference {reference_seconds * 1e3:.2f}ms "
            f"vectorized {vectorized_seconds * 1e3:.2f}ms "
            f"speedup {entry['speedup']:.1f}x"
        )

    # Ratio case 1: statistics kernel vs the pure-Python loop.
    dataset = _generate(60, 500 if smoke else 2500, n_observations, seed=0)
    pipeline = FeaturizerPipeline()
    encoding = encode_dataset(dataset)
    arrays = {name: getattr(encoding, name) for name in STAT_ARRAYS}
    case(
        "featurize_stats",
        lambda: _reference_stats(dataset, pipeline.half_life),
        lambda: compute_source_stats(arrays, encoding.n_sources, half_life=pipeline.half_life),
    )

    # Ratio case 2: cold featurization vs a warm cache hit.  The digest is
    # memoized on the encoding, so each cold call featurizes a fresh
    # encoding of the same data (rebuilt from one export, no recompile).
    pipeline.featurize(dataset)  # prime the memo
    state = encoding.export_state()

    def cold():
        FeaturizerPipeline().featurize(DenseEncoding.from_state(dataset, state))

    case("featurize_cache", cold, lambda: pipeline.featurize(dataset))

    # Sanity: the kernel and the reference loop agree on a spot-checked
    # source (guards the ratio case against benchmarking different math).
    reference = _reference_stats(dataset, pipeline.half_life)
    kernel = compute_source_stats(arrays, encoding.n_sources, half_life=pipeline.half_life)
    probe = encoding.sources.item(0)
    entry = reference[probe]
    for field_name in ("n_claims", "n_consensus", "n_contradicted"):
        if int(getattr(kernel, field_name)[0]) != int(entry[field_name]):
            failures.append(
                f"reference loop and kernel disagree on {field_name} for {probe!r}: "
                f"{entry[field_name]} vs {int(getattr(kernel, field_name)[0])}"
            )
    if not np.isclose(float(kernel.decayed_agree[0]), entry["decayed_agree"], atol=1e-6):
        failures.append(f"reference loop and kernel disagree on decayed_agree for {probe!r}")

    # Accuracy artifact: featurized vs unfeaturized, averaged over seeds.
    seeds = (0, 1, 3) if smoke else (0, 1, 2, 3, 7)
    accuracy = {"seeds": list(seeds), "scenarios": []}
    for scenario_name in GATED_SCENARIOS:
        plain_accs, feat_accs = [], []
        for ds, train_truth in _scenario_datasets(scenario_name, seeds):
            plain_accs.append(_fit_accuracy(ds, train_truth, "erm", None))
            feat_accs.append(_fit_accuracy(ds, train_truth, "erm", FeaturizerPipeline()))
        plain_mean = sum(plain_accs) / len(plain_accs)
        feat_mean = sum(feat_accs) / len(feat_accs)
        accuracy["scenarios"].append(
            {
                "name": scenario_name,
                "learner": "erm",
                "unfeaturized_mean": plain_mean,
                "featurized_mean": feat_mean,
                "unfeaturized": plain_accs,
                "featurized": feat_accs,
                "gated": True,
            }
        )
        print(
            f"{scenario_name}: unfeaturized {plain_mean:.4f} "
            f"featurized {feat_mean:.4f} ({feat_mean - plain_mean:+.4f})"
        )
        if feat_mean < plain_mean:
            failures.append(
                f"featurized ERM mean accuracy {feat_mean:.4f} fell below the "
                f"unfeaturized mean {plain_mean:.4f} on the {scenario_name} scenario"
            )

    # Reference-only synthetic case (EM path, metadata available): reported
    # in the artifact but not gated — featurized augments real metadata here.
    plain = _fit_accuracy(dataset, {}, "em", None)
    feat = _fit_accuracy(dataset, {}, "em", FeaturizerPipeline())
    accuracy["scenarios"].append(
        {
            "name": "synthetic",
            "learner": "em",
            "unfeaturized_mean": plain,
            "featurized_mean": feat,
            "unfeaturized": [plain],
            "featurized": [feat],
            "gated": False,
        }
    )
    print(f"synthetic (em, ungated): unfeaturized {plain:.4f} featurized {feat:.4f}")

    return {
        "benchmark": "featurize",
        "mode": "smoke" if smoke else "full",
        "repeats": repeats,
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
            "version_key": pipeline.version_key,
        },
        "cases": cases,
        "featurize": accuracy,
        "failures": failures,
    }


def merge_into_baseline(report: dict, baseline_path: Path) -> None:
    """Splice this benchmark's cases + featurize section into the baseline.

    Other benchmarks' cases are untouched; featurize cases are replaced
    by name (or appended on first merge) and the accuracy figures land
    under their own ``featurize`` key, so one committed
    ``BENCH_inference.json`` carries every benchmark's gates.
    """
    baseline = json.loads(baseline_path.read_text())
    merged = {case["name"]: case for case in baseline.get("cases", [])}
    for case in report["cases"]:
        merged[case["name"]] = case
    baseline["cases"] = list(merged.values())
    baseline["featurize"] = report["featurize"]
    baseline_path.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"merged featurize cases into {baseline_path}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run: 2000 observations, 3 seeds"
    )
    parser.add_argument(
        "--observations",
        type=int,
        default=None,
        help="observation count for the ratio cases (default: 10000, smoke: 2000)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timing repeats per ratio case (default 5)"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON artifact (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--check-against",
        type=Path,
        default=None,
        help="baseline BENCH_inference.json to gate the ratio cases against",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="allowed fractional speedup regression vs the baseline (default 0.20)",
    )
    parser.add_argument(
        "--max-rss-regression",
        type=float,
        default=0.25,
        help="allowed fractional peak-RSS growth vs the baseline (default 0.25)",
    )
    parser.add_argument(
        "--merge-into",
        type=Path,
        default=None,
        help="splice featurize cases + figures into this committed baseline",
    )
    args = parser.parse_args(argv)

    n_observations = args.observations or (2000 if args.smoke else 10000)
    report = run_benchmarks(args.smoke, n_observations, args.repeats)

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)

    exit_code = 0
    if report["failures"]:
        print("FEATURIZE BENCHMARK FAILURES:", file=sys.stderr)
        for failure in report["failures"]:
            print(f"  - {failure}", file=sys.stderr)
        exit_code = 1

    if args.check_against is not None:
        if not args.check_against.exists():
            print(
                f"baseline {args.check_against} not found; generate one with "
                f"--merge-into {args.check_against}",
                file=sys.stderr,
            )
            return 1
        exit_code = max(
            exit_code,
            check_regression(
                report, args.check_against, args.max_regression, args.max_rss_regression
            ),
        )

    if args.merge_into is not None and exit_code == 0:
        merge_into_baseline(report, args.merge_into)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
