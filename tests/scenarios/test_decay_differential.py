"""Differential pins for :class:`repro.extensions.DecayConfig`.

Two exact (bit-level, ``==``) equivalences anchor the decayed-trust
machinery to code that is already trusted:

* a flat ``DecayConfig()`` must leave the fuser identical to one built
  with no decay arguments at all;
* under either decay mode, a fuser fed one observation at a time must
  reproduce the dict-loop oracle (``tests/oracles/streaming.py``) exactly.
"""

import numpy as np
import pytest

from repro.data import drift_scenario
from repro.extensions import DecayConfig, StreamingFuser
from tests.oracles.streaming import ReferenceStreamingFuser


def _scenario():
    return drift_scenario(n_sources=10, objects_per_step=8, n_steps=10, seed=5)


def _replay(fuser, scn, one_by_one=False):
    scn.replay(fuser, one_by_one=one_by_one)
    return fuser


def _assert_same_state(a: StreamingFuser, b: StreamingFuser) -> None:
    acc_a, acc_b = a.source_accuracies(), b.source_accuracies()
    assert set(acc_a) == set(acc_b)
    for source in acc_a:
        assert acc_a[source] == acc_b[source], source
    for obj in _scenario().eval_objects():
        post_a, post_b = a.posterior(obj), b.posterior(obj)
        assert set(post_a) == set(post_b)
        for value in post_a:
            assert post_a[value] == post_b[value], (obj, value)
        assert a.current_value(obj) == b.current_value(obj)


class TestDecayConfigValidation:
    def test_rejects_both_modes(self):
        with pytest.raises(ValueError, match="at most one of half_life and window"):
            DecayConfig(half_life=10.0, window=5.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="half_life"):
            DecayConfig(half_life=0.0)
        with pytest.raises(ValueError, match="window"):
            DecayConfig(window=-3.0)

    def test_rejects_window_below_prior(self):
        with pytest.raises(ValueError, match="window must be at least prior_total"):
            StreamingFuser(trust_decay=DecayConfig(window=1.0))

    def test_factor(self):
        assert DecayConfig().factor == 1.0
        assert DecayConfig(window=8.0).factor == 1.0
        assert DecayConfig(half_life=1.0).factor == pytest.approx(0.5)
        assert DecayConfig().is_flat
        assert not DecayConfig(half_life=4.0).is_flat
        assert not DecayConfig(window=8.0).is_flat


class TestFlatEquivalence:
    """DecayConfig() must be bit-identical to no decay at all."""

    @pytest.mark.parametrize(
        "fuser_cls", [ReferenceStreamingFuser, StreamingFuser], ids=["reference", "vectorized"]
    )
    def test_flat_config_is_identity(self, fuser_cls):
        plain = _replay(fuser_cls(), _scenario())
        flat = _replay(fuser_cls(trust_decay=DecayConfig()), _scenario())
        _assert_same_state(plain, flat)


class TestOracleParity:
    """Size-1 batches must reproduce the sequential dict-loop oracle."""

    @pytest.mark.parametrize(
        "trust_decay",
        [None, DecayConfig(half_life=30.0), DecayConfig(window=12.0)],
        ids=["flat", "half-life", "window"],
    )
    def test_one_by_one_replay_matches_reference(self, trust_decay):
        reference = _replay(
            ReferenceStreamingFuser(trust_decay=trust_decay, self_training=True), _scenario()
        )
        vectorized = _replay(
            StreamingFuser(trust_decay=trust_decay, self_training=True),
            _scenario(),
            one_by_one=True,
        )
        _assert_same_state(reference, vectorized)


class TestWindowSemantics:
    @pytest.mark.parametrize(
        "fuser_cls", [ReferenceStreamingFuser, StreamingFuser], ids=["reference", "vectorized"]
    )
    def test_window_caps_effective_sample_size(self, fuser_cls):
        window = 10.0
        fuser = _replay(fuser_cls(trust_decay=DecayConfig(window=window)), _scenario())
        if fuser_cls is StreamingFuser:
            totals = fuser._total[: len(fuser.source_accuracies())]
        else:
            totals = np.array([state.total for state in fuser.sources.values()])
        assert np.all(totals <= window + 1e-9)
        # the busy sources actually hit the cap
        assert np.any(totals > window - 1.0)

    def test_window_is_identity_until_saturation(self):
        """Before any source accumulates `window` counts, windowing is a no-op."""
        scn = drift_scenario(n_sources=12, objects_per_step=3, n_steps=2, seed=2)
        plain = _replay(StreamingFuser(self_training=False), scn)
        windowed = _replay(
            StreamingFuser(self_training=False, trust_decay=DecayConfig(window=500.0)),
            drift_scenario(n_sources=12, objects_per_step=3, n_steps=2, seed=2),
        )
        _assert_same_state(plain, windowed)
