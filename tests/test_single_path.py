"""The retired engine switches and look-alike layers stay retired.

Every fusion operation has one production path; the loop implementations
it is checked against live in ``tests/oracles/``.  No public function,
constructor or config field accepts the old ``backend=`` switch, and the
per-observation ``decay=`` factor of the streaming fuser is gone too
(``trust_decay=DecayConfig(half_life=h)`` is the same knob).

There is also one observation encoding: ``IncrementalEncoding`` is the
appendable form of ``DenseEncoding``, so the dataset-shaped view over it,
its cold-recompile and dense-export side doors, the separate incremental
structure builder and the options that chose between those routes are
gone.

A claim has one shape: ``Observation`` is a named triple equal to its
plain tuple, every dataset and append ingests through one transpose into
id columns and decodes through one, so the record helpers
(``as_records``, ``record_columns``), the encoding's ``observations()``
and a publish's dataset export (``with_dataset``, ``Snapshot(dataset=)``)
are gone; ``IncrementalEncoding.to_dataset`` is the one export.

Serving reads are lease-free: the published snapshot is one reference
that readers load without a lock, so the reader-lease, retirement and
drain protocol, the swap lock and the metrics only it could feed are
gone.

Process fan-out has one primitive, ``repro.parallel.WorkerPool``: the
sweep engine's transport switch, the featurizer's per-call worker count,
the shard E-step pool class and the ``repro.experiments.parallel`` module
it lived in are gone.  A parallel sweep is its one consumer: the
featurizer's statistics pass runs once over the whole source range (its
source-range chunks, their concatenation and the pipeline's worker count
are gone).  ``FeatureSpace``'s pre-redesign aliases and dataset-fitting
``fit`` went with the deprecation shim.

EM has one E-step: every round scores the whole structure and reduces
its per-observation soft labels per source.  Sharded EM
(``EMConfig(n_shards=)``, the ``repro.fusion.sharding`` module with its
shard pool, transport state and ``EMConfig(shard_jobs=)``, and the
encoding's ``shard`` shortcut) is gone, and with it
``repro.parallel.chunk_bounds``, which only it and ``chunk_indices``
called.

Labels have one coding, ``DenseEncoding.truth_codes``, read through each
``PairStructure``: the encoding's duplicate of the structure's
``label_rows``, the stream's ``None``-label set and the raw values an
append returned only to match labels by ``==`` are gone.  A batched sweep
always hands warm state between its EM fits, so ``SweepRunner(warm_start=)``
is gone.

EM's M-step has two solvers, ``repro.core.em.EM_SOLVERS``: the scipy
reference and warm-started structured Newton, whose singular rounds make
the reference's call.  The hand-written warm L-BFGS, the curvature memory
it carried from fit to fit (with the warm state's serialization helpers),
EM's SGD M-step with its epoch and seed knobs, the facade's ``seed`` and
Newton's unused ``ftol`` are gone; SGD stays an ERM solver
(``ERMConfig(solver="sgd")``).  ``FeaturizerPipeline(cache=)`` takes a
directory path, so its ``cache_dir=`` alias is gone too.

The facade passes no learner or optimizer knob through: its ``tau``,
``objective``, penalties, ``solver`` and optimizer variants only copied
the defaults of ``decide``, ``ERMConfig`` and ``EMConfig``, which take
them directly.  ERM's ``"lbfgs-warm"`` alias existed only so the facade's
shared ``solver=`` could reach ERM, and went with it.
"""

import functools
import importlib

import numpy as np
import pytest

import repro.experiments
from repro import parallel as parallel_module
from repro.core import SLiMFast
from repro.core import structure as structure_module
from repro.core.em import EMConfig, EMLearner, fit_incremental
from repro.core.erm import ERMConfig, ERMLearner, correctness_training_pairs
from repro.core.inference import expected_correctness, posteriors
from repro.core.structure import build_masked_structure, build_pair_structure
from repro.experiments import SweepRunner
from repro.extensions import StreamingFuser
from repro.factorgraph import GibbsSampler
import repro.featurize
import repro.fusion
from repro.featurize import FeaturizerPipeline, ObjectStats, SourceStats, compute_source_stats
from repro.featurize import stats as stats_module
from repro.featurize.pipeline import FeaturizedSpace
from repro.data import save_dataset
from repro.fusion import dataset as dataset_module
from repro.fusion import encoding as encoding_module
from repro.fusion.dataset import FusionDataset, subset_sources
from repro.fusion.encoding import DenseEncoding, IncrementalEncoding
from repro.fusion.features import FeatureSpace
from repro.optim import solvers as solvers_module
from repro.optim.solvers import WarmStartState, minimize_newton
from repro.serve import FusionServer, ServeMetrics, Snapshot
from repro.serve import snapshot as snapshot_module

RETIRED_OPTIONS = [
    (build_pair_structure, "backend"),
    (build_masked_structure, "backend"),
    (posteriors, "backend"),
    (expected_correctness, "backend"),
    (correctness_training_pairs, "backend"),
    (ERMConfig, "backend"),
    (EMConfig, "backend"),
    (SLiMFast, "backend"),
    (SweepRunner, "backend"),
    (StreamingFuser, "backend"),
    (GibbsSampler, "backend"),
    (StreamingFuser, "decay"),
    (functools.partial(fit_incremental, IncrementalEncoding()), "materialize_dataset"),
    (IncrementalEncoding().to_dataset, "attach_encoding"),
    (SweepRunner, "shared_memory"),
    (FeaturizerPipeline().featurize, "n_jobs"),
    (FeaturizerPipeline().design_for, "n_jobs"),
    (EMConfig, "sgd_epochs"),
    (EMConfig, "seed"),
    (SLiMFast, "seed"),
    (minimize_newton, "ftol"),
    (FeaturizerPipeline, "cache_dir"),
    (FeaturizerPipeline, "n_jobs"),
    (EMConfig, "shard_jobs"),
    (compute_source_stats, "n_jobs"),
    (SweepRunner, "warm_start"),
    (EMConfig, "n_shards"),
    (FusionServer, "with_dataset"),
    (Snapshot.from_fuser, "with_dataset"),
    (StreamingFuser().publish_state, "with_dataset"),
    (Snapshot, "dataset"),
    (Snapshot.from_result, "dataset"),
    *[
        (SLiMFast, option)
        for option in (
            "tau",
            "objective",
            "l2_sources",
            "l2_features",
            "solver",
            "optimizer_per_observation",
            "optimizer_accuracy_method",
        )
    ],
]


def _name(target) -> str:
    return getattr(target, "__name__", None) or target.func.__name__


@pytest.mark.parametrize(
    "target, option",
    RETIRED_OPTIONS,
    ids=[f"{_name(target)}-{option}" for target, option in RETIRED_OPTIONS],
)
def test_retired_option_is_rejected(target, option):
    # Keyword arguments bind before the body runs, so the unknown keyword
    # is reported even though required positional arguments are missing.
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{option}'"):
        target(**{option: "reference" if option == "backend" else 0.9})


def test_server_does_not_forward_retired_decay():
    with pytest.raises(TypeError, match="unexpected keyword argument 'decay'"):
        FusionServer(decay=0.9)


RETIRED_NAMES = [
    (encoding_module, "EncodingDatasetView"),
    (IncrementalEncoding, "rebuild"),
    (IncrementalEncoding, "as_dense"),
    (IncrementalEncoding, "dataset_view"),
    (structure_module, "build_incremental_structure"),
    (snapshot_module, "GUARDED_BY"),
    *[
        (Snapshot, name)
        for name in (
            "acquire", "release", "retire", "reader_count", "retired", "drained",
            "wait_drained", "_init_runtime",
        )
    ],
    *[
        (Snapshot.empty(), name)
        for name in ("_lease_lock", "_readers", "_retired", "_drained")
    ],
    (FusionServer, "retiring_count"),
    (FusionServer, "_reap_retired"),
    *[(FusionServer(), name) for name in ("_swap_lock", "_retiring", "_version")],
    (ServeMetrics, "record_drained"),
    (ServeMetrics, "drained_count"),
    (ServeMetrics(), "swap_latency"),
    (ServeMetrics(), "_drained"),
    (parallel_module, "ShardStatPool"),
    (repro.experiments, "parallel"),
    (solvers_module, "LBFGSMemory"),
    (solvers_module, "minimize_lbfgs_warm"),
    (WarmStartState, "to_state"),
    (WarmStartState, "from_state"),
    (WarmStartState(w=np.zeros(3)), "memory"),
    (repro.featurize, "compute_source_stats_chunk"),
    (stats_module, "compute_source_stats_chunk"),
    (SourceStats, "concat"),
    (ObjectStats, "as_arrays"),
    (DenseEncoding, "shard"),
    (FeatureSpace, "fit_metadata"),
    (FeatureSpace, "encode"),
    (FeatureSpace, "encode_sources"),
    (FeaturizedSpace, "encode"),
    (StreamingFuser(), "_none_labels"),
    (DenseEncoding, "label_rows"),
    (IncrementalEncoding().append([("s", "o", "v")]), "values"),
    (repro.fusion, "StructureShard"),
    (repro.fusion, "shard_structure"),
    (parallel_module, "chunk_bounds"),
    (dataset_module, "as_records"),
    (dataset_module, "record_columns"),
    (IncrementalEncoding, "observations"),
    (Snapshot.empty(), "dataset"),
]


def _owner_name(owner) -> str:
    # Instance attributes need an instance as the owner: "Type()".
    return getattr(owner, "__name__", None) or f"{type(owner).__name__}()"


@pytest.mark.parametrize(
    "owner, name",
    RETIRED_NAMES,
    ids=[f"{_owner_name(owner)}.{name}" for owner, name in RETIRED_NAMES],
)
def test_retired_name_is_gone(owner, name):
    assert not hasattr(owner, name)


def test_sharding_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.fusion.sharding")


def test_em_sgd_solver_is_rejected():
    with pytest.raises(ValueError, match="unknown solver 'sgd'"):
        EMLearner(EMConfig(solver="sgd"))


def test_erm_warm_alias_is_rejected():
    with pytest.raises(ValueError, match="unknown solver 'lbfgs-warm'"):
        ERMLearner(solver="lbfgs-warm")


def test_column_paths_build_no_record(monkeypatch, tmp_path):
    dataset = FusionDataset(
        [("s1", "o1", 1), ("s2", "o1", True), ("s1", "o2", "x"), ("s3", "o2", "y")],
        ground_truth={"o1": 1},
    )

    def refuse(self):
        raise AssertionError("a column path read FusionDataset.observations")

    monkeypatch.setattr(FusionDataset, "observations", property(refuse))
    exported = IncrementalEncoding.from_dataset(dataset).to_dataset()
    save_dataset(exported, tmp_path)
    assert subset_sources(dataset, ["s1"]).n_observations == 2
    assert dataset.extended([("s3", "o1", 2)]).n_observations == 5
    np.testing.assert_array_equal(exported.obs_value_idx, dataset.obs_value_idx)
