"""Benchmark the vectorized inference engine against the loop oracles.

Times the hot paths that the dense-encoding layer (``repro.fusion.encoding``)
rewrote — posterior queries, array-native fusion-result packaging, the EM
E-step and full EM/ERM fits (including the warm-started second-order
M-step) — against the per-object loops they replaced, which live on as
test oracles in ``tests/oracles/`` (the "reference" column), plus two
engine-vs-engine cases:
``sweep_16`` (a 16-point EM sweep run by the batched ``SweepRunner``
versus sequential isolated fits), ``sweep_16_par`` (the same sweep fanned
out across ``--sweep-jobs`` worker processes versus serial batched) and
``stream_append`` (the streaming fuser over an incremental encoding
versus the oracle's dict-per-observation replay).  Writes a
``BENCH_inference.json`` trajectory artifact with
per-case median runtimes and speedups.  The per-factor Gibbs sweep
comparison runs only in full (non-smoke) mode; its equivalence is covered
by the test suite.

Usage::

    PYTHONPATH=src python benchmarks/bench_vectorized_engine.py            # full (10k observations)
    PYTHONPATH=src python benchmarks/bench_vectorized_engine.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_vectorized_engine.py --smoke \
        --check-against benchmarks/BENCH_inference.json                    # regression gate

The regression gate compares *speedup ratios* (vectorized vs oracle on the
same machine), which are stable across hardware, and exits nonzero when
any case regresses by more than ``--max-regression`` (default 20%) against
the committed baseline.  Each case also records the process peak RSS
(``resource.getrusage``) observed after it ran; the gate fails memory
regressions past ``--max-rss-regression`` (default 25%) at matching case
positions.  ``sweep_16_par`` is *always* gated: the check fails outright
when the runner reports fewer than two CPUs (a single-core box cannot
measure parallel speedup), and until the committed baseline itself comes
from a multi-core runner the case must clear an absolute
``PARALLEL_ARMING_FLOOR`` instead of a baseline ratio.  Refresh the
baseline locally with::

    PYTHONPATH=src python benchmarks/bench_vectorized_engine.py --smoke \
        --output benchmarks/BENCH_inference.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

DEFAULT_OUTPUT = Path(__file__).parent / "results" / "BENCH_inference.json"
BASELINE_PATH = Path(__file__).parent / "BENCH_inference.json"
#: The repo root, where the ``tests.oracles`` package imports from.
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Cases whose regression gate never disarms: a missing or single-core
#: measurement is a CI failure, not a skip.  sweep_16_par exists to prove
#: multi-core fan-out pays for itself; letting it silently skip on a
#: 1-core runner is how a broken pool ships.
ALWAYS_GATED = ("sweep_16_par",)

#: Absolute speedup floor for ALWAYS_GATED cases while the committed
#: baseline still comes from a single-core box (where the parallel ratio
#: is meaningless).  2.0x is the gate's usual materiality threshold;
#: the floor is that minus the standard 20% tolerance.  Once a multi-core
#: runner refreshes the baseline, the normal ratio gate takes over.
PARALLEL_ARMING_FLOOR = 1.6


def _peak_rss_kb():
    """Process peak RSS in KiB, or ``None`` where ``resource`` is absent.

    ``ru_maxrss`` is the process-lifetime high-water mark, so per-case
    values are nondecreasing down the case list; the regression gate
    compares matching positions, which keeps the monotonicity harmless.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS, KiB on Linux
        peak //= 1024
    return int(peak)


def _median_time(fn, repeats: int, min_sample_seconds: float = 0.05) -> float:
    """Median per-call runtime, timeit-style.

    Sub-millisecond calls are batched until each timed sample lasts at
    least ``min_sample_seconds``, keeping speedup ratios out of the timer
    noise floor (the regression gate compares ratios across CI runs).
    """
    started = time.perf_counter()
    fn()
    first = time.perf_counter() - started
    calls = max(1, int(min_sample_seconds / max(first, 1e-9)))
    times = [first] if first >= min_sample_seconds else []
    while len(times) < repeats:
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - started) / calls)
    return float(statistics.median(times))


def _generate(n_sources: int, n_objects: int, n_observations: int, seed: int = 0):
    from repro.data import SyntheticConfig, generate

    density = min(n_observations / (n_sources * n_objects), 1.0)
    config = SyntheticConfig(
        n_sources=n_sources,
        n_objects=n_objects,
        density=density,
        avg_accuracy=0.72,
        n_features=8,
        n_informative=4,
        seed=seed,
        name=f"bench-{n_observations}",
    )
    return generate(config).dataset


def run_benchmarks(smoke: bool, n_observations: int, repeats: int, sweep_jobs: int = 4) -> dict:
    import numpy as np

    from repro.core.em import EMLearner
    from repro.core.erm import ERMLearner
    from repro.core.inference import expected_correctness, map_rows, posterior_rows
    from repro.core.structure import build_pair_structure
    from repro.fusion.encoding import encode_dataset
    from repro.fusion.result import FusionResult

    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from tests.oracles import inference as oracle_inference
    from tests.oracles import learners as oracle_learners
    from tests.oracles import streaming as oracle_streaming
    from tests.oracles import structure as oracle_structure

    dataset = _generate(
        n_sources=max(30, n_observations // 33),
        n_objects=max(50, n_observations // 4),
        n_observations=n_observations,
        seed=0,
    )
    # The paper's largest semi-supervised regime (20% revealed truth).
    truth = dataset.split(0.20, seed=0).train_truth

    print(
        f"dataset: {dataset.n_sources} sources, {dataset.n_objects} objects, "
        f"{dataset.n_observations} observations, {len(truth)} labels",
        file=sys.stderr,
    )

    started = time.perf_counter()
    encoding = encode_dataset(dataset)
    encode_seconds = time.perf_counter() - started
    model = ERMLearner().fit(dataset, truth)
    trust = model.trust_scores()

    structure_ref = oracle_structure.build_pair_structure(dataset)
    structure_vec = build_pair_structure(dataset)
    label_rows = structure_vec.label_rows(truth)

    cases = []

    def case(name: str, reference, vectorized, case_repeats=None) -> None:
        ref_s = _median_time(reference, case_repeats or repeats)
        vec_s = _median_time(vectorized, case_repeats or repeats)
        cases.append(
            {
                "name": name,
                "reference_seconds": ref_s,
                "vectorized_seconds": vec_s,
                "speedup": ref_s / vec_s if vec_s > 0 else float("inf"),
                "peak_rss_kb": _peak_rss_kb(),
            }
        )
        print(
            f"{name:>18}: reference {ref_s * 1e3:8.2f} ms | "
            f"vectorized {vec_s * 1e3:8.2f} ms | {ref_s / vec_s:6.1f}x",
            file=sys.stderr,
        )

    case(
        "structure_compile",
        lambda: oracle_structure.build_pair_structure(dataset),
        lambda: build_pair_structure(dataset),
    )

    def _query_reference():
        # End-to-end MAP query exactly as the pre-vectorization facade ran
        # it: re-walk the dataset into a structure, package per-object
        # dicts, scan them for the argmax.
        structure = oracle_structure.build_pair_structure(dataset)
        return oracle_inference.map_assignment(
            oracle_inference.posteriors(dataset, model, structure=structure, clamp=truth)
        )

    def _query_vectorized():
        structure = build_pair_structure(dataset)
        return map_rows(structure, posterior_rows(structure, model), clamp=truth)

    case("posterior_query", _query_reference, _query_vectorized)
    # Full fusion-output packaging: the oracle walks per-object dicts,
    # the array-native path scatters the flat row probabilities into a
    # FusionResult (value codes + dense posterior matrix) with no
    # per-object Python loop; the dict views stay unmaterialized.
    accuracies = model.accuracies()
    case(
        "posterior_package",
        lambda: oracle_inference.posteriors(
            dataset, model, structure=structure_ref, clamp=truth
        ),
        lambda: FusionResult.from_rows(
            structure_vec,
            posterior_rows(structure_vec, model),
            clamp=truth,
            accuracy_vector=accuracies,
            source_ids=model.source_ids,
        ),
    )
    case(
        "em_estep",
        lambda: oracle_inference.expected_correctness(structure_ref, trust, label_rows),
        lambda: expected_correctness(structure_vec, trust, label_rows),
    )

    em_rounds = 3 if smoke else 5
    case(
        "em_fit",
        lambda: oracle_learners.fit_em(dataset, truth, max_iterations=em_rounds, tolerance=0.0),
        lambda: EMLearner(max_iterations=em_rounds, tolerance=0.0).fit(dataset, truth),
    )
    # Warm-started second-order M-step vs the oracle's scipy-per-round
    # loop: the headline end-to-end EM comparison.
    case(
        "em_fit_warm",
        lambda: oracle_learners.fit_em(dataset, truth, max_iterations=em_rounds, tolerance=0.0),
        lambda: EMLearner(max_iterations=em_rounds, tolerance=0.0, solver="lbfgs-warm").fit(
            dataset, truth
        ),
    )
    case(
        "erm_fit",
        lambda: oracle_learners.fit_erm(dataset, truth),
        lambda: ERMLearner().fit(dataset, truth),
    )

    # 16-point EM sweep (train fractions x ridge strengths) over one
    # dataset: the batched SweepRunner (shared encoding/structure, cached
    # label/clamp plans, cached re-reduced objective, warm-start handoff,
    # contracted lbfgs-warm M-step) versus sequential isolated fits on the
    # existing per-fit path.  Multi-second arms, so fewer timing repeats.
    from repro.experiments.sweeps import FitSpec, SweepRunner

    sweep_rounds = 3
    sweep_specs = [
        FitSpec(
            name=f"em@{fraction}:l2={l2}",
            learner="em",
            train_truth=dataset.split(fraction, seed=0).train_truth,
            overrides={
                "max_iterations": sweep_rounds,
                "tolerance": 0.0,
                "l2_sources": l2,
            },
        )
        for fraction in (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40)
        for l2 in (2.0, 4.0)
    ]
    case(
        "sweep_16",
        lambda: SweepRunner(dataset, mode="isolated").run(sweep_specs),
        lambda: SweepRunner(dataset, mode="batched").run(sweep_specs),
        case_repeats=min(repeats, 3),
    )

    # The same 16-point sweep fanned out across worker processes: serial
    # batched ("reference" column) versus `n_jobs` workers sharing the
    # shipped compile.  The worker count is pinned via --sweep-jobs /
    # BENCH_SWEEP_JOBS so the speedup ratio is comparable across machines
    # (CI sets it explicitly to the runner's core count).
    case(
        "sweep_16_par",
        lambda: SweepRunner(dataset, mode="batched").run(sweep_specs),
        lambda: SweepRunner(dataset, mode="batched", n_jobs=sweep_jobs).run(sweep_specs),
        case_repeats=min(repeats, 3),
    )

    # Streaming ingest: incremental encoding + vectorized batch scatters
    # versus the oracle's dict-per-observation replay of the same stream
    # (same random order, same truth reveal).
    from repro.extensions.streaming import replay_dataset

    case(
        "stream_append",
        lambda: oracle_streaming.replay_dataset(dataset, truth, seed=0),
        lambda: replay_dataset(dataset, truth, seed=0, batch_size=256),
        case_repeats=min(repeats, 3),
    )

    if not smoke:
        # The per-factor Gibbs sweeps are retired from the CI smoke run
        # (their equivalence is asserted in the test suite); the full
        # benchmark keeps them for the occasional deep comparison.
        from repro.factorgraph import GibbsSampler, compile_dataset

        gibbs_dataset = _generate(
            n_sources=30,
            n_objects=150,
            n_observations=1200,
            seed=1,
        )
        gibbs_truth = gibbs_dataset.split(0.10, seed=0).train_truth
        gibbs_model = ERMLearner().fit(gibbs_dataset, gibbs_truth)
        compiled = compile_dataset(gibbs_dataset, evidence=gibbs_truth)
        compiled.set_weights_from_model(gibbs_model)
        sampler = GibbsSampler(n_samples=200, burn_in=40, seed=0)
        case(
            "gibbs_marginals",
            lambda: sampler.run_sweeps(compiled.graph),
            lambda: sampler.run(compiled.graph),
        )

    core_cases = ("posterior_query", "posterior_package", "em_estep", "em_fit", "em_fit_warm")
    core_speedup = float(statistics.median(c["speedup"] for c in cases if c["name"] in core_cases))
    return {
        "benchmark": "vectorized_engine",
        "mode": "smoke" if smoke else "full",
        "repeats": repeats,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            # Parallel-case context: a sweep_16_par ratio is only
            # meaningful relative to the cores/workers it ran with.
            "cpu_count": os.cpu_count(),
            "sweep_jobs": sweep_jobs,
        },
        "dataset": {
            "n_sources": dataset.n_sources,
            "n_objects": dataset.n_objects,
            "n_observations": dataset.n_observations,
            "n_labels": len(truth),
            "encode_seconds": encode_seconds,
        },
        "cases": cases,
        "summary": {"posteriors_em_median_speedup": core_speedup},
    }


def check_regression(
    report: dict,
    baseline_path: Path,
    max_regression: float,
    max_rss_regression: float = 0.25,
) -> int:
    """Compare speedup ratios against a baseline report; 0 when within budget."""
    baseline = json.loads(baseline_path.read_text())
    baseline_cases = {c["name"]: c for c in baseline.get("cases", [])}
    baseline_cpus = baseline.get("environment", {}).get("cpu_count") or 0
    report_cpus = report.get("environment", {}).get("cpu_count") or 0
    failures = []
    for current in report["cases"]:
        reference = baseline_cases.get(current["name"])
        if reference is None:
            continue
        if current["name"] in ALWAYS_GATED:
            # Armed multi-core gate: no escape hatch.  A runner that
            # cannot exercise parallelism fails loudly instead of
            # vacuously passing.
            if report_cpus < 2:
                failures.append(
                    f"{current['name']}: runner reports cpu_count={report_cpus}; "
                    "the parallel gate requires a multi-core runner"
                )
                continue
            if baseline_cpus < 2:
                # Baseline measured single-core: its ratio is meaningless,
                # so hold the case to the absolute arming floor until a
                # multi-core runner refreshes the committed baseline.
                floor = PARALLEL_ARMING_FLOOR
                context = f"absolute arming floor, baseline cpu_count={baseline_cpus}"
            else:
                floor = min(reference["speedup"] * (1.0 - max_regression), 10.0)
                context = (
                    f"baseline {reference['speedup']:.2f}x "
                    f"- {max_regression:.0%} tolerance"
                )
            if current["speedup"] < floor:
                failures.append(
                    f"{current['name']}: speedup {current['speedup']:.2f}x fell "
                    f"below {floor:.2f}x ({context})"
                )
            continue
        # Near-1x cases (solver/packaging overhead bound) swing more than
        # 20% with machine load, so only the summary gate covers them; and
        # order-of-magnitude cases only fail when they collapse: a
        # 700x -> 500x swing is timer noise, 700x -> 8x is a regression.
        if reference["speedup"] < 2.0:
            continue
        floor = min(reference["speedup"] * (1.0 - max_regression), 10.0)
        if current["speedup"] < floor:
            failures.append(
                f"{current['name']}: speedup {current['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {reference['speedup']:.2f}x "
                f"- {max_regression:.0%} tolerance)"
            )
    # Memory gate: peak RSS per case position, current vs baseline.
    # ru_maxrss is a process-lifetime high-water mark, so both columns are
    # nondecreasing down the case list and position-wise ratios compare
    # like with like.
    for current in report["cases"]:
        reference = baseline_cases.get(current["name"])
        if reference is None:
            continue
        current_rss = current.get("peak_rss_kb")
        baseline_rss = reference.get("peak_rss_kb")
        if not current_rss or not baseline_rss:
            continue
        ceiling = baseline_rss * (1.0 + max_rss_regression)
        if current_rss > ceiling:
            failures.append(
                f"{current['name']}: peak RSS {current_rss / 1024:.1f} MiB exceeded "
                f"{ceiling / 1024:.1f} MiB (baseline {baseline_rss / 1024:.1f} MiB "
                f"+ {max_rss_regression:.0%} tolerance)"
            )
    # Reports without the engine summary (e.g. bench_serve, which reuses
    # this gate for its ratio cases) skip the summary check entirely.
    current_summary = report.get("summary", {}).get("posteriors_em_median_speedup")
    baseline_summary = baseline.get("summary", {}).get("posteriors_em_median_speedup")
    if current_summary is not None and baseline_summary is not None:
        floor = baseline_summary * (1.0 - max_regression)
        if current_summary < floor:
            failures.append(
                f"summary posteriors+EM speedup {current_summary:.2f}x fell below "
                f"{floor:.2f}x (baseline {baseline_summary:.2f}x)"
            )
    if failures:
        print("BENCHMARK REGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    summary_note = (
        f"posteriors+EM speedup {current_summary:.1f}x, "
        f"baseline {baseline_summary if baseline_summary is not None else 'n/a'}"
        if current_summary is not None
        else f"{len(report['cases'])} gated cases"
    )
    print(f"no regression vs {baseline_path} ({summary_note})", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: 2000 observations, fewer repeats",
    )
    parser.add_argument(
        "--observations",
        type=int,
        default=None,
        help="observation count (default: 10000, smoke: 2000)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="timing repeats per case (median is reported; default 5)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON artifact (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--sweep-jobs",
        type=int,
        default=int(os.environ.get("BENCH_SWEEP_JOBS", "4")),
        help="worker processes for the sweep_16_par case (default: "
        "BENCH_SWEEP_JOBS or 4; pin it in CI so runner-core variance "
        "does not flap the regression gate)",
    )
    parser.add_argument(
        "--check-against",
        type=Path,
        default=None,
        help="baseline BENCH_inference.json to gate speedups against",
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
    args = parser.parse_args(argv)

    n_observations = args.observations or (2000 if args.smoke else 10000)

    report = run_benchmarks(args.smoke, n_observations, args.repeats, sweep_jobs=args.sweep_jobs)

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)

    summary = report["summary"]["posteriors_em_median_speedup"]
    print(f"posteriors+EM median speedup: {summary:.1f}x")

    if args.check_against is not None:
        if not args.check_against.exists():
            print(
                f"baseline {args.check_against} not found; generate one with "
                f"--output {args.check_against}",
                file=sys.stderr,
            )
            return 2
        return check_regression(
            report,
            args.check_against,
            args.max_regression,
            max_rss_regression=args.max_rss_regression,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
