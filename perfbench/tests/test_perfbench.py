"""The benchmark's own tests, at the ``tiny`` input size.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import harness
from perfbench.tracing import Tracer, summarize
from perfbench.workloads import WORKLOADS
from repro.serve.metrics import ServeMetrics
from repro.serve.snapshot import Snapshot

ROOT = Path(__file__).resolve().parents[2]


def run_tiny(tmp_path, workload, trace, seed=0, expected=None):
    return harness.run(
        workload, seed, seconds=0, trace=trace, size="tiny", expected=expected, out_dir=tmp_path
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(tmp_path, workload):
    result = run_tiny(tmp_path, workload, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == harness.END_TO_END
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert not list(tmp_path.glob("work-*")), "set-up files must be removed"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(tmp_path, workload):
    result = run_tiny(tmp_path, workload, trace=True)
    assert result["correct"]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == harness.PER_LAYER
    layer_total = sum(metrics[f"self.{layer}_s"] for layer in harness.LAYERS)
    assert layer_total == pytest.approx(metrics["trace.op_wall_s"], rel=1e-9)
    trace = json.loads((tmp_path / f"trace-{workload}-seed0.json").read_text())
    assert {"id", "name", "start", "end", "parent"} <= set(trace["spans"][0])


def test_each_workload_puts_its_layers_in_the_trace(tmp_path):
    metrics = {}
    for workload in WORKLOADS:
        result = run_tiny(tmp_path, workload, trace=True)
        metrics[workload] = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["batch_fuse"]["core.optimizer.decide_s"] > 0
    assert metrics["batch_fuse"]["data.io.load_s"] > 0
    assert metrics["batch_fuse"]["core.optimizer.choice"] in (1.0, 2.0)
    for workload in ("learner_grid", "stream_serve"):
        assert metrics[workload]["core.optimizer.decide_s"] == 0
        assert metrics[workload]["core.optimizer.choice"] == 0
    assert metrics["learner_grid"]["core.em.fit_s"] > 0
    assert metrics["learner_grid"]["core.erm.fit_s"] > 0
    stream = metrics["stream_serve"]
    assert stream["extensions.streaming.append_s"] > 0
    assert stream["serve.snapshot.build_s"] > 0
    assert stream["core.em.refit_s"] > 0
    assert stream["serve.server.query_us"] > 0
    assert stream["serve.server.publishes"] > 0
    assert stream["extensions.streaming.refits"] >= 1


def test_timings_scale_with_the_calibration_kernel():
    ops = [
        SimpleNamespace(wall_s=wall, accuracy=0.9, n_observations=100, writer_s=wall, lags_s=[wall])
        for wall in (2.0, 1.0, 3.0)
    ]
    metrics = harness.end_to_end_metrics(ops, [4.0, 6.0, 5.0], 2 * harness.REFERENCE_KERNEL_S)
    assert metrics["setup_s"] == 2.5
    assert metrics["wall_s"] == 0.5
    assert metrics["ingest_obs_per_s"] == 200.0
    assert metrics["publish_lag_ms_p50"] == 500.0


def test_recorded_references_match(tmp_path):
    expected = harness.load_expected()
    for workload in WORKLOADS:
        assert harness.reference_for(expected, workload, "tiny", 0) is not None
        assert run_tiny(tmp_path, workload, trace=False)["correct"]


def test_wrong_reference_fails_every_op(tmp_path):
    expected = {"learner_grid": {"tiny": {"0": {"accuracy": 0.5, "choice": None}}}}
    result = run_tiny(tmp_path, "learner_grid", trace=False, expected=expected)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_wrong_reference_sets_the_exit_code(tmp_path, monkeypatch, capsys):
    path = tmp_path / "expected.json"
    path.write_text(json.dumps({"batch_fuse": {"tiny": {"0": {"accuracy": 1.0, "choice": "erm"}}}}))
    monkeypatch.setattr(harness, "EXPECTED", path)
    argv = ["--workload", "batch_fuse", "--seed", "0", "--seconds", "0", "--size", "tiny"]
    assert harness.main(argv) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == last["attempted"]


def test_unnormalized_posteriors_fail(tmp_path, monkeypatch):
    original = Snapshot.posterior

    def inflated(self, obj):
        return {value: 2.0 * p for value, p in original(self, obj).items()}

    monkeypatch.setattr(Snapshot, "posterior", inflated)
    result = run_tiny(tmp_path, "batch_fuse", trace=False)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_ingest_errors_fail_stream_ops(tmp_path, monkeypatch):
    monkeypatch.setattr(ServeMetrics, "ingest_errors", property(lambda self: 1))
    result = run_tiny(tmp_path, "stream_serve", trace=False)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_instrument_restores_functions_and_classmethods():
    class Owner:
        def method(self):
            return "m"

        @classmethod
        def build(cls):
            return cls

    tracer = Tracer()
    with tracer.instrument([(Owner, "method", "a.b.method"), (Owner, "build", "a.b.build")]):
        assert Owner().method() == "m" and Owner.build() is Owner
    assert [span.name for span in tracer.spans] == ["a.b.method", "a.b.build"]
    assert isinstance(vars(Owner)["build"], classmethod)
    assert Owner().method() == "m" and len(tracer.spans) == 2


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 5.5, 9.5, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("op"):
        with tracer.span("core.em.fit"):
            with tracer.span("core.erm.fit"):
                pass
        with tracer.span("data.io.load"):
            pass
    inclusive, self_time = summarize(tracer.spans)
    assert inclusive == {"op": 10.0, "core.em.fit": 4.0, "core.erm.fit": 2.0, "data.io.load": 4.0}
    assert self_time == {"other": 2.0, "core.em": 2.0, "core.erm": 2.0, "data.io": 4.0}


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    argv = ["--workload", "batch_fuse", "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
