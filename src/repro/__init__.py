"""repro — a full reproduction of SLiMFast (SIGMOD 2017).

SLiMFast expresses *data fusion* — resolving conflicting claims from many
sources by estimating source reliability — as statistical learning over a
discriminative probabilistic model (logistic regression), with rigorous
error guarantees and an optimizer that chooses between supervised (ERM)
and unsupervised (EM) learning.

Quickstart::

    from repro import FusionDataset, SLiMFast

    dataset = FusionDataset(
        observations=[("src1", "obj1", "A"), ("src2", "obj1", "B"), ...],
        ground_truth={"obj1": "A"},                 # optional, partial
        source_features={"src1": {"year": 2009}},   # optional
    )
    result = SLiMFast().fit_predict(dataset, train_truth={"obj1": "A"})
    result.values              # estimated true values per object
    result.source_accuracies   # estimated accuracy per source

Package map:

* :mod:`repro.core` — SLiMFast model, ERM/EM learners, the EM-vs-ERM
  optimizer, guarantees, lasso analysis, copying extension.
* :mod:`repro.fusion` — dataset containers, feature encoding, metrics, and
  the dense-encoding layer backing the vectorized engine.
* :mod:`repro.featurize` — versioned reliability feature groups computed
  from the claims themselves (volume, breadth, recency, corroboration,
  contradiction, overlap, entropy), composed by a
  content+version-cached :class:`~repro.featurize.FeaturizerPipeline`
  that plugs into every learner via ``featurizer=``.
* :mod:`repro.baselines` — Majority, Counts, ACCU, CATD, SSTF, TruthFinder.
* :mod:`repro.factorgraph` — factor-graph engine (DeepDive substrate).
* :mod:`repro.optim` — objectives and solvers (L-BFGS, FISTA, SGD).
* :mod:`repro.data` — synthetic generators and paper-dataset simulators.
* :mod:`repro.experiments` — harness regenerating every paper table/figure,
  plus the batched multi-fit sweep engine
  (:class:`~repro.experiments.sweeps.SweepRunner`: one dataset compile
  shared by every fit of a parameter sweep, with warm-start handoff).
* :mod:`repro.serve` — fusion as a service: a concurrent query front-end
  (:class:`~repro.serve.server.FusionServer`) over immutable published
  snapshots with atomic swap, so reads never block on ingest.

One production path
-------------------

Every fusion operation (posteriors, EM E-step, ERM objectives, streaming
updates) has one implementation: flat NumPy index arrays compiled once per
dataset by :mod:`repro.fusion.encoding` (CSR object→observation spans,
value codes, candidate-pair rows, cached design matrix).  Inference is a
single segmented softmax over row spans, and EM/ERM solver iterations run
on per-source sufficient statistics.

Append-only workloads use
:class:`~repro.fusion.encoding.IncrementalEncoding` (O(batch) appends
that stay exactly equivalent to a cold compile of the accumulated
dataset) and the array-native streaming fuser
(:class:`~repro.extensions.streaming.StreamingFuser`, with an optional
periodic warm-started EM re-fit) instead of recompiling per change.

The per-object Python loops these arrays replaced are kept as test
oracles in ``tests/oracles/``; ``tests/test_vectorized_equivalence.py``
asserts the production path agrees with them to ``atol=1e-8`` across
random datasets.  Benchmark the engine against the oracles and refresh
the CI regression baseline with::

    PYTHONPATH=src python benchmarks/bench_vectorized_engine.py            # full, 10k observations
    PYTHONPATH=src python benchmarks/bench_vectorized_engine.py --smoke \
        --output benchmarks/BENCH_inference.json                           # refresh CI baseline

CI (``.github/workflows/ci.yml``) runs the tier-1 suite on Python
3.9/3.11/3.12, ruff lint + format, a docs build with a README code-block
smoke, and the smoke benchmark gated against the committed
``benchmarks/BENCH_inference.json`` (>20% speedup regression fails).
"""

from .baselines import Accu, Catd, Counts, MajorityVote, Sstf, TruthFinder
from .core import (
    AccuracyModel,
    CopyingSLiMFast,
    EMConfig,
    EMLearner,
    ERMConfig,
    ERMLearner,
    OptimizerDecision,
    SLiMFast,
    estimate_average_accuracy,
    lasso_path,
)
from .featurize import FeatureCache, FeaturizerPipeline
from .fusion import (
    FeatureSpace,
    FeatureSpec,
    FusionDataset,
    FusionResult,
    Observation,
    object_value_accuracy,
    source_accuracy_error,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SLiMFast",
    "AccuracyModel",
    "ERMLearner",
    "ERMConfig",
    "EMLearner",
    "EMConfig",
    "OptimizerDecision",
    "CopyingSLiMFast",
    "estimate_average_accuracy",
    "lasso_path",
    "FusionDataset",
    "FusionResult",
    "FeatureSpace",
    "FeatureSpec",
    "FeaturizerPipeline",
    "FeatureCache",
    "Observation",
    "object_value_accuracy",
    "source_accuracy_error",
    "MajorityVote",
    "Counts",
    "Accu",
    "Catd",
    "Sstf",
    "TruthFinder",
]
