"""The retired engine switches stay retired.

Every fusion operation has one production path; the loop implementations
it is checked against live in ``tests/oracles/``.  No public function,
constructor or config field accepts the old ``backend=`` switch, and the
per-observation ``decay=`` factor of the streaming fuser is gone too
(``trust_decay=DecayConfig(half_life=h)`` is the same knob).
"""

import pytest

from repro.core import SLiMFast
from repro.core.em import EMConfig
from repro.core.erm import ERMConfig, correctness_training_pairs
from repro.core.inference import expected_correctness, posteriors
from repro.core.structure import build_masked_structure, build_pair_structure
from repro.experiments import SweepRunner
from repro.extensions import StreamingFuser
from repro.factorgraph import GibbsSampler
from repro.serve import FusionServer

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
]


@pytest.mark.parametrize(
    "target, option",
    RETIRED_OPTIONS,
    ids=[f"{target.__name__}-{option}" for target, option in RETIRED_OPTIONS],
)
def test_retired_option_is_rejected(target, option):
    # Keyword arguments bind before the body runs, so the unknown keyword
    # is reported even though required positional arguments are missing.
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{option}'"):
        target(**{option: "reference" if option == "backend" else 0.9})


def test_server_does_not_forward_retired_decay():
    with pytest.raises(TypeError, match="unexpected keyword argument 'decay'"):
        FusionServer(decay=0.9)
