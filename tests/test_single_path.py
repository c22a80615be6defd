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

Serving reads are lease-free: the published snapshot is one reference
that readers load without a lock, so the reader-lease, retirement and
drain protocol, the swap lock and the metrics only it could feed are
gone.
"""

import functools

import pytest

from repro.core import SLiMFast
from repro.core import structure as structure_module
from repro.core.em import EMConfig, fit_incremental
from repro.core.erm import ERMConfig, correctness_training_pairs
from repro.core.inference import expected_correctness, posteriors
from repro.core.structure import build_masked_structure, build_pair_structure
from repro.experiments import SweepRunner
from repro.extensions import StreamingFuser
from repro.factorgraph import GibbsSampler
from repro.fusion import encoding as encoding_module
from repro.fusion.encoding import IncrementalEncoding
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
