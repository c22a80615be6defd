"""Tests for the dataset-to-factor-graph compiler."""

import copy
import pickle

import pytest

from repro.core import ERMLearner, posteriors
from repro.factorgraph import GibbsSampler, compile_dataset
from repro.factorgraph.graph import LATENT


class TestCompileStructure:
    def test_one_variable_per_object(self, tiny_dataset):
        compiled = compile_dataset(tiny_dataset)
        assert len(compiled.graph.variables) == tiny_dataset.n_objects

    def test_domains_match_dataset(self, tiny_dataset):
        compiled = compile_dataset(tiny_dataset)
        var = compiled.graph.variable(("T", "gigyf2"))
        assert set(var.domain) == {"false", "true"}

    def test_evidence_objects_observed(self, tiny_dataset):
        compiled = compile_dataset(tiny_dataset, evidence={"gba": "true"})
        assert compiled.graph.variable(("T", "gba")).observed == "true"
        assert compiled.graph.variable(("T", "gigyf2")).observed is LATENT

    def test_none_evidence_is_a_label_like_any_other(self, tiny_dataset):
        compiled = compile_dataset(tiny_dataset, evidence={"gba": None})
        var = compiled.graph.variable(("T", "gba"))
        assert var.observed is None
        assert None in var.domain
        assert var not in compiled.graph.latent_variables()
        assert copy.deepcopy(var).observed is None
        assert pickle.loads(pickle.dumps(LATENT)) is copy.deepcopy(LATENT) is LATENT

    def test_evidence_extends_domain_when_unclaimed(self, tiny_dataset):
        compiled = compile_dataset(tiny_dataset, evidence={"gba": "false"})
        var = compiled.graph.variable(("T", "gba"))
        assert "false" in var.domain

    def test_source_weights_tied(self, tiny_dataset):
        compiled = compile_dataset(tiny_dataset)
        # a1 observes two objects but owns a single weight
        assert ("src", "a1") in compiled.graph.weights
        a1_factors = [f for f in compiled.graph.factors if f.weight_id == ("src", "a1")]
        assert len(a1_factors) == 2

    def test_feature_weights_created(self, tiny_dataset):
        compiled = compile_dataset(tiny_dataset, use_features=True)
        feature_ids = [w for w in compiled.graph.weights if isinstance(w, tuple) and w[0] == "feat"]
        assert len(feature_ids) > 0

    def test_no_feature_weights_when_disabled(self, tiny_dataset):
        compiled = compile_dataset(tiny_dataset, use_features=False)
        feature_ids = [w for w in compiled.graph.weights if isinstance(w, tuple) and w[0] == "feat"]
        assert feature_ids == []

    def test_learnable_ids_exclude_offset(self, multi_valued_dataset):
        compiled = compile_dataset(multi_valued_dataset)
        assert "__offset__" not in compiled.learnable_weight_ids()
        assert compiled.graph.weights["__offset__"] == 1.0


class TestEquivalenceWithClosedForm:
    def test_gibbs_matches_exact_posteriors(self, tiny_dataset):
        """The compiled graph + Gibbs must agree with Equation 4's softmax."""
        model = ERMLearner().fit(tiny_dataset, tiny_dataset.ground_truth)
        exact = posteriors(tiny_dataset, model)

        compiled = compile_dataset(tiny_dataset, use_features=True)
        compiled.set_weights_from_model(model)
        result = GibbsSampler(n_samples=6000, burn_in=300, seed=0).run(compiled.graph)

        for obj in tiny_dataset.objects:
            marginal = result.marginals[("T", obj)]
            for value, prob in exact[obj].items():
                assert marginal[value] == pytest.approx(prob, abs=0.04)

    def test_gibbs_matches_exact_multivalued(self, multi_valued_dataset):
        """Domain-corrected compilation agrees with closed-form inference."""
        split = multi_valued_dataset.split(0.5, seed=0)
        model = ERMLearner().fit(multi_valued_dataset, split.train_truth)
        exact = posteriors(multi_valued_dataset, model)

        compiled = compile_dataset(multi_valued_dataset)
        compiled.set_weights_from_model(model)
        result = GibbsSampler(n_samples=3000, burn_in=200, seed=1).run(compiled.graph)

        checked = 0
        for obj in list(multi_valued_dataset.objects)[:10]:
            marginal = result.marginals[("T", obj)]
            for value, prob in exact[obj].items():
                assert marginal.get(value, 0.0) == pytest.approx(prob, abs=0.06)
                checked += 1
        assert checked > 0
