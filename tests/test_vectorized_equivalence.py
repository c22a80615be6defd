"""Machine-checked equivalence of the production path vs the loop oracles.

The dense-encoding engine must reproduce the original loop implementations
kept in ``tests/oracles/`` exactly: same index structures, same posteriors,
same learned models.  These property-style tests sweep seeded random
datasets — binary and multi-valued domains, featureful and featureless
sources, empty/partial/full supervision — and assert numerical agreement
at ``atol=1e-8`` (structures, posterior packaging and the array-backed
``FusionResult`` views must match exactly; end-to-end fitted models are
allowed solver-path noise well below 1e-6).

Solver equivalence (``solver="lbfgs-warm"`` vs the scipy reference) is
asserted at ``atol=1e-8`` in *objective-value* space: both converge the
same convex M-step, but scipy's decrease-based stop plateaus at gradient
norms around 1e-8 in double precision, so parameter-space agreement
bottoms out near 1e-6 — the tests pin both scales explicitly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SLiMFast
from repro.core.em import EMLearner
from repro.core.erm import ERMLearner, correctness_training_pairs
from repro.core.inference import (
    expected_correctness,
    map_assignment,
    map_rows,
    package_posteriors,
    posterior_rows,
    posteriors,
)
from repro.core.structure import build_pair_structure
from repro.data import SyntheticConfig, generate
from repro.factorgraph import GibbsSampler, compile_dataset, compile_unary_score_tables
from repro.factorgraph.graph import GraphError
from repro.fusion.encoding import DenseEncoding, encode_dataset, expand_spans
from repro.fusion.result import FusionResult
from repro.optim.numerics import sigmoid, softmax
from repro.optim.objectives import CorrectnessObjective, reduce_correctness_samples
from repro.optim.solvers import minimize_lbfgs, minimize_newton
from tests.oracles import inference as oracle_inference
from tests.oracles import learners as oracle_learners
from tests.oracles import structure as oracle_structure

ATOL = 1e-8

CONFIGS = [
    SyntheticConfig(
        n_sources=40,
        n_objects=90,
        density=0.15,
        avg_accuracy=0.72,
        n_features=6,
        n_informative=3,
        seed=101,
        name="binary-featureful",
    ),
    SyntheticConfig(
        n_sources=25,
        n_objects=70,
        density=0.25,
        avg_accuracy=0.6,
        domain_size_range=(3, 5),
        n_features=5,
        n_informative=2,
        seed=202,
        name="multi-valued",
    ),
    SyntheticConfig(
        n_sources=30,
        n_objects=60,
        density=0.2,
        avg_accuracy=0.8,
        n_features=0,
        n_informative=0,
        seed=303,
        name="featureless",
    ),
]


@pytest.fixture(params=CONFIGS, ids=lambda c: c.name)
def dataset(request):
    return generate(request.param).dataset


def _truth_fraction(dataset, fraction, seed=0):
    if fraction == 0.0:
        return {}
    if fraction == 1.0:
        return dict(dataset.ground_truth)
    split = dataset.split(fraction, seed=seed)
    return split.train_truth


class TestEncoding:
    def test_csr_spans_cover_observations(self, dataset):
        enc = encode_dataset(dataset)
        assert isinstance(enc, DenseEncoding)
        assert enc.obs_offsets[-1] == dataset.n_observations
        # Every observation appears once, grouped by its object.
        recovered = set()
        for o in range(enc.n_objects):
            span = slice(int(enc.obs_offsets[o]), int(enc.obs_offsets[o + 1]))
            assert np.all(enc.obs_object_idx[span] == o)
            recovered.update(enc.obs_order[span].tolist())
        assert recovered == set(range(dataset.n_observations))

    def test_encoding_is_cached(self, dataset):
        assert encode_dataset(dataset) is encode_dataset(dataset)

    def test_design_matrix_cached_and_equal(self, dataset):
        from repro.fusion.features import build_design_matrix

        enc = encode_dataset(dataset)
        design, _ = enc.design(True)
        assert enc.design(True)[0] is design
        reference, _ = build_design_matrix(dataset, use_features=True)
        np.testing.assert_array_equal(design, reference)

    def test_expand_spans(self):
        starts = np.asarray([5, 0, 9])
        lengths = np.asarray([2, 0, 3])
        np.testing.assert_array_equal(expand_spans(starts, lengths), [5, 6, 9, 10, 11])
        assert expand_spans(np.zeros(0), np.zeros(0)).size == 0


class TestStructureEquivalence:
    @pytest.mark.parametrize("subset", [False, True])
    def test_structures_identical(self, dataset, subset):
        objects = None
        if subset:
            objects = list(dataset.objects)[::3]
        vec = build_pair_structure(dataset, objects)
        ref = oracle_structure.build_pair_structure(dataset, objects)
        assert vec.object_ids == ref.object_ids
        assert vec.pair_values == ref.pair_values
        np.testing.assert_array_equal(vec.object_dataset_idx, ref.object_dataset_idx)
        np.testing.assert_array_equal(vec.pair_object_pos, ref.pair_object_pos)
        np.testing.assert_array_equal(vec.pair_offsets, ref.pair_offsets)
        np.testing.assert_array_equal(vec.obs_source_idx, ref.obs_source_idx)
        np.testing.assert_array_equal(vec.obs_pair_idx, ref.obs_pair_idx)
        np.testing.assert_allclose(vec.base_scores, ref.base_scores, atol=ATOL)

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
    def test_label_rows_identical(self, dataset, fraction):
        truth = _truth_fraction(dataset, fraction)
        vec = build_pair_structure(dataset)
        ref = oracle_structure.label_rows(oracle_structure.build_pair_structure(dataset), truth)
        np.testing.assert_array_equal(vec.label_rows(truth), ref)
        np.testing.assert_array_equal(encode_dataset(dataset).label_rows(truth), ref)


class TestPosteriorEquivalence:
    @pytest.mark.parametrize("clamp_fraction", [0.0, 0.25])
    def test_posteriors_match(self, dataset, clamp_fraction):
        truth = _truth_fraction(dataset, 0.2, seed=1)
        model = ERMLearner().fit(dataset, truth)
        clamp = _truth_fraction(dataset, clamp_fraction, seed=2)
        vec = posteriors(dataset, model, clamp=clamp)
        ref = oracle_inference.posteriors(dataset, model, clamp=clamp)
        assert vec.keys() == ref.keys()
        for obj in ref:
            assert vec[obj].keys() == ref[obj].keys()
            for value, prob in ref[obj].items():
                assert vec[obj][value] == pytest.approx(prob, abs=ATOL)

    def test_map_rows_matches_map_assignment(self, dataset):
        truth = _truth_fraction(dataset, 0.2, seed=1)
        model = ERMLearner().fit(dataset, truth)
        structure = build_pair_structure(dataset)
        probs = posterior_rows(structure, model)
        dict_path = map_assignment(package_posteriors(structure, probs, clamp=truth))
        array_path = map_rows(structure, probs, clamp=truth)
        assert dict_path == array_path

    @pytest.mark.parametrize("fraction", [0.0, 0.4])
    def test_expected_correctness_matches(self, dataset, fraction):
        truth = _truth_fraction(dataset, 0.3, seed=3)
        model = ERMLearner().fit(dataset, truth)
        structure_vec = build_pair_structure(dataset)
        structure_ref = oracle_structure.build_pair_structure(dataset)
        label_rows = oracle_structure.label_rows(
            structure_ref, _truth_fraction(dataset, fraction, seed=4)
        )
        trust = model.trust_scores()
        q_vec, rows_vec = expected_correctness(structure_vec, trust, label_rows)
        q_ref, rows_ref = oracle_inference.expected_correctness(structure_ref, trust, label_rows)
        np.testing.assert_allclose(q_vec, q_ref, atol=ATOL)
        np.testing.assert_allclose(rows_vec, rows_ref, atol=ATOL)


class TestLearnerEquivalence:
    def test_training_pairs_identical(self, dataset):
        truth = _truth_fraction(dataset, 0.5, seed=5)
        src_vec, lab_vec = correctness_training_pairs(dataset, truth)
        src_ref, lab_ref = oracle_learners.correctness_training_pairs(dataset, truth)
        np.testing.assert_array_equal(src_vec, src_ref)
        np.testing.assert_array_equal(lab_vec, lab_ref)

    def test_reduced_objective_matches_full(self, dataset):
        truth = _truth_fraction(dataset, 0.5, seed=5)
        src, labels = correctness_training_pairs(dataset, truth)
        full = CorrectnessObjective(
            source_idx=src,
            labels=labels,
            design=np.zeros((dataset.n_sources, 0)),
            l2_sources=2.0,
            intercept=True,
        )
        r_src, r_labels, r_weights = reduce_correctness_samples(src, labels, dataset.n_sources)
        reduced = CorrectnessObjective(
            source_idx=r_src,
            labels=r_labels,
            sample_weights=r_weights,
            design=np.zeros((dataset.n_sources, 0)),
            l2_sources=2.0,
            intercept=True,
        )
        rng = np.random.default_rng(0)
        for _ in range(3):
            w = rng.normal(size=full.n_params)
            v_full, g_full = full.value_and_grad(w)
            v_red, g_red = reduced.value_and_grad(w)
            assert v_red == pytest.approx(v_full, abs=ATOL)
            np.testing.assert_allclose(g_red, g_full, atol=ATOL)

    @pytest.mark.parametrize("objective", ["correctness", "conditional"])
    def test_erm_fits_match(self, dataset, objective):
        truth = _truth_fraction(dataset, 0.4, seed=6)
        vec = ERMLearner(objective=objective).fit(dataset, truth)
        ref = oracle_learners.fit_erm(dataset, truth, objective=objective)
        np.testing.assert_allclose(vec.accuracies(), ref.accuracies(), atol=1e-6)
        np.testing.assert_allclose(vec.w_features, ref.w_features, atol=1e-5)

    def test_erm_sgd_path_is_bitwise_identical(self, dataset):
        # SGD consumes per-observation samples; the production path must
        # feed it the exact same sample stream as the oracle.
        truth = _truth_fraction(dataset, 0.4, seed=6)
        vec = ERMLearner(solver="sgd").fit(dataset, truth)
        ref = oracle_learners.fit_erm(dataset, truth, solver="sgd")
        np.testing.assert_array_equal(vec.w_sources, ref.w_sources)
        np.testing.assert_array_equal(vec.w_features, ref.w_features)

    @pytest.mark.parametrize("fraction", [0.0, 0.2])
    def test_em_fits_match(self, dataset, fraction):
        truth = _truth_fraction(dataset, fraction, seed=7)
        vec = EMLearner(max_iterations=8).fit(dataset, truth)
        ref = oracle_learners.fit_em(dataset, truth, max_iterations=8)
        np.testing.assert_allclose(vec.accuracies(), ref.accuracies(), atol=1e-6)


class TestGibbsEquivalence:
    def test_score_tables_match_exact_posteriors(self, dataset):
        truth = _truth_fraction(dataset, 0.2, seed=8)
        model = ERMLearner().fit(dataset, truth)
        compiled = compile_dataset(dataset, evidence=truth)
        compiled.set_weights_from_model(model)
        tables = compile_unary_score_tables(compiled.graph)
        exact = posteriors(dataset, model, clamp=truth)
        for i, name in enumerate(tables.names):
            obj = name[1]
            start, stop = int(tables.offsets[i]), int(tables.offsets[i + 1])
            conditional = softmax(tables.scores[start:stop])
            expected = [exact[obj][value] for value in tables.domains[i]]
            np.testing.assert_allclose(conditional, expected, atol=ATOL)

    def test_vectorized_marginals_agree_with_reference(self):
        dataset = generate(SyntheticConfig(n_sources=15, n_objects=10, density=0.3, seed=9)).dataset
        truth = _truth_fraction(dataset, 0.2, seed=9)
        model = ERMLearner().fit(dataset, truth)
        compiled = compile_dataset(dataset, evidence=truth)
        compiled.set_weights_from_model(model)
        sampler = GibbsSampler(n_samples=2000, burn_in=100, seed=0)
        # run() samples the compiled score tables; run_sweeps() is the
        # per-factor loop it replaces on unary graphs.
        ref = sampler.run_sweeps(compiled.graph)
        vec = sampler.run(compiled.graph)
        assert vec.marginals.keys() == ref.marginals.keys()
        assert vec.marginals != ref.marginals  # two different sample streams
        for name, dist in ref.marginals.items():
            for value, prob in dist.items():
                # Both are Monte-Carlo estimates of the same conditional;
                # 2000 samples bound the deviation well below 0.05.
                assert vec.marginals[name][value] == pytest.approx(prob, abs=0.05)

    def test_run_falls_back_to_sweeps_on_non_unary_factors(self):
        from repro.factorgraph import FactorGraph

        graph = FactorGraph()
        graph.add_variable("a", ("x", "y"))
        graph.add_variable("b", ("x", "y"))
        graph.add_factor(
            ["a", "b"],
            lambda args: 1.0 if args[0] == args[1] else 0.0,
            "tie",
            initial_weight=0.7,
        )
        sampler = GibbsSampler(n_samples=200, burn_in=20, seed=1)
        assert sampler.run(graph).marginals == sampler.run_sweeps(graph).marginals
        with pytest.raises(GraphError, match="unary"):
            compile_unary_score_tables(graph)


class TestFacadeEquivalence:
    @pytest.mark.parametrize("learner", ["erm", "em"])
    def test_fit_predict_values_match(self, dataset, learner):
        from repro.core import SLiMFast

        truth = _truth_fraction(dataset, 0.3, seed=10)
        vec = SLiMFast(learner=learner).fit_predict(dataset, truth)
        values, posteriors_ref, accuracies = oracle_learners.fit_predict(dataset, truth, learner)
        assert vec.values == values
        for obj, dist in posteriors_ref.items():
            for value, prob in dist.items():
                assert vec.posteriors[obj][value] == pytest.approx(prob, abs=1e-6)
        for source, acc in accuracies.items():
            assert vec.source_accuracies[source] == pytest.approx(acc, abs=1e-6)


class TestFusionResultViews:
    """Array-backed FusionResult views vs the oracle's dict packaging."""

    @pytest.mark.parametrize("clamp_fraction", [0.0, 0.25])
    def test_views_match_reference_packaging(self, dataset, clamp_fraction):
        truth = _truth_fraction(dataset, 0.2, seed=1)
        model = ERMLearner().fit(dataset, truth)
        clamp = _truth_fraction(dataset, clamp_fraction, seed=2)
        structure = build_pair_structure(dataset)
        probs = posterior_rows(structure, model)
        result = FusionResult.from_rows(
            structure,
            probs,
            clamp=clamp,
            accuracy_vector=model.accuracies(),
            source_ids=model.source_ids,
        )
        assert result.has_arrays
        reference = oracle_inference.posteriors(dataset, model, clamp=clamp)
        assert result.values == oracle_inference.map_assignment(reference)
        assert result.posteriors.keys() == reference.keys()
        for obj, dist in reference.items():
            assert result.posteriors[obj].keys() == dist.keys()
            for value, prob in dist.items():
                assert result.posteriors[obj][value] == pytest.approx(prob, abs=ATOL)
        for source, acc in zip(model.source_ids, model.accuracies()):
            assert result.source_accuracies[source] == pytest.approx(float(acc), abs=ATOL)

    def test_from_rows_matches_package_posteriors(self, dataset):
        truth = _truth_fraction(dataset, 0.3, seed=3)
        model = ERMLearner().fit(dataset, truth)
        structure = build_pair_structure(dataset)
        probs = posterior_rows(structure, model)
        result = FusionResult.from_rows(structure, probs, clamp=truth)
        packaged = package_posteriors(structure, probs, clamp=truth)
        assert result.posteriors.keys() == packaged.keys()
        for obj, dist in packaged.items():
            assert result.posteriors[obj] == pytest.approx(dist, abs=ATOL)
        assert result.values == map_rows(structure, probs, clamp=truth)

    def test_posterior_matrix_rows_are_distributions(self, dataset):
        truth = _truth_fraction(dataset, 0.2, seed=4)
        model = ERMLearner().fit(dataset, truth)
        structure = build_pair_structure(dataset)
        result = FusionResult.from_rows(structure, posterior_rows(structure, model))
        matrix = result.posterior_matrix
        assert matrix.shape[0] == dataset.n_objects
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=ATOL)
        codes = result.value_codes
        assert np.all(codes >= 0)
        np.testing.assert_array_equal(np.argmax(matrix, axis=1), codes)

    def test_view_mutation_does_not_corrupt_arrays(self, dataset):
        truth = _truth_fraction(dataset, 0.3, seed=5)
        result = SLiMFast(learner="erm").fit_predict(dataset, truth)
        codes_before = result.value_codes.copy()
        matrix_before = result.posterior_matrix.copy()
        baseline_accuracy = result.accuracy(dataset)

        first_view = result.values
        some_obj = next(iter(first_view))
        first_view[some_obj] = "mutated-value"
        result.posteriors[some_obj]["mutated-value"] = 0.5
        # The views are cached (same object on re-access) ...
        assert result.values is first_view
        # ... and mutating them never writes back into the array backing.
        np.testing.assert_array_equal(result.value_codes, codes_before)
        np.testing.assert_array_equal(result.posterior_matrix, matrix_before)
        assert result.accuracy(dataset) == baseline_accuracy

    def test_setter_replaces_view_and_drops_arrays(self, dataset):
        truth = _truth_fraction(dataset, 0.3, seed=5)
        result = SLiMFast(learner="erm").fit_predict(dataset, truth)
        result.values = {"only": "this"}
        assert result.values == {"only": "this"}
        with pytest.raises(ValueError, match="dict-backed"):
            _ = result.value_codes

    def test_clamp_value_outside_domain_becomes_override(self, dataset):
        structure = build_pair_structure(dataset)
        model = ERMLearner().fit(dataset, _truth_fraction(dataset, 0.2, seed=6))
        probs = posterior_rows(structure, model)
        target = structure.object_ids[0]
        clamp = {target: "never-claimed-value"}
        result = FusionResult.from_rows(structure, probs, clamp=clamp)
        assert result.value_codes[0] == -1
        assert result.overrides == clamp
        assert result.values[target] == "never-claimed-value"
        assert result.posteriors[target]["never-claimed-value"] == 1.0
        assert sum(result.posteriors[target].values()) == pytest.approx(1.0)
        reference = oracle_inference.posteriors(dataset, model, clamp=clamp)
        assert result.posteriors[target] == pytest.approx(reference[target])

    def test_accuracy_array_path_matches_dict_path(self, dataset):
        truth = _truth_fraction(dataset, 0.3, seed=7)
        result = SLiMFast(learner="em").fit_predict(dataset, truth)
        array_accuracy = result.accuracy(dataset)
        # Materializing the views first forces the dict path on a copy.
        dict_result = FusionResult(
            values=dict(result.values),
            posteriors=result.posteriors,
            source_accuracies=result.source_accuracies,
        )
        assert array_accuracy == dict_result.accuracy(dataset)

    def test_attach_dataset_promotes_dict_results(self, dataset):
        from repro.baselines import MajorityVote

        result = MajorityVote().fit_predict(dataset)
        assert not result.has_arrays
        result.attach_dataset(dataset)
        assert result.has_arrays
        decoded = dict(zip(result.object_ids, result.predicted_values()))
        assert decoded == result.values


class TestWarmSolverEquivalence:
    """solver="lbfgs-warm" vs the scipy reference path."""

    def _m_step_objective(self, dataset, fraction=0.4, seed=8):
        truth = _truth_fraction(dataset, fraction, seed=seed)
        src, labels = correctness_training_pairs(dataset, truth)
        r_src, r_labels, r_weights = reduce_correctness_samples(src, labels, dataset.n_sources)
        design, _ = encode_dataset(dataset).design(True)
        return CorrectnessObjective(
            source_idx=r_src,
            labels=r_labels,
            sample_weights=r_weights,
            design=design,
            l2_sources=4.0,
            l2_features=1.0,
            intercept=True,
        )

    def test_newton_reaches_scipy_minimizer(self, dataset):
        objective = self._m_step_objective(dataset)
        w0 = np.zeros(objective.n_params)
        scipy_fit = minimize_lbfgs(
            objective, w0=w0, tolerance=1e-15, gtol=1e-12, max_iterations=2000
        )
        newton_fit = minimize_newton(objective, w0=w0, gtol=1e-11)
        # Identical minimum of the convex M-step at atol=1e-8 in value space.
        assert newton_fit.value == pytest.approx(scipy_fit.value, abs=ATOL)
        # The second-order solve is at least as converged as scipy, whose
        # decrease-based stop plateaus near gradient 1e-8 in double
        # precision; that plateau bounds parameter agreement at ~1e-6.
        assert np.max(np.abs(objective.grad(newton_fit.w))) <= np.max(
            np.abs(objective.grad(scipy_fit.w))
        )
        n_sources = dataset.n_sources
        np.testing.assert_allclose(
            sigmoid(newton_fit.w[:n_sources]), sigmoid(scipy_fit.w[:n_sources]), atol=1e-5
        )

    def test_newton_direction_solves_the_hessian_system(self, dataset):
        objective = self._m_step_objective(dataset)
        rng = np.random.default_rng(0)
        w = rng.normal(scale=0.3, size=objective.n_params)
        grad = objective.grad(w)
        direction = objective.newton_direction(w, grad)
        # H d = -g, checked through a finite-difference Hessian-vector
        # product: (grad(w + eps d) - grad(w)) / eps ~ H d.
        eps = 1e-6 / max(float(np.linalg.norm(direction)), 1.0)
        hvp = (objective.grad(w + eps * direction) - grad) / eps
        np.testing.assert_allclose(hvp, -grad, atol=1e-4)

    @pytest.mark.parametrize("fraction", [0.0, 0.2])
    def test_em_warm_matches_reference_path(self, dataset, fraction):
        truth = _truth_fraction(dataset, fraction, seed=7)
        reference = oracle_learners.fit_em(dataset, truth, max_iterations=8, m_step_tolerance=1e-13)
        warm = EMLearner(max_iterations=8, solver="lbfgs-warm", m_step_tolerance=1e-13).fit(
            dataset, truth
        )
        # Bounded by scipy's double-precision stopping plateau (see module
        # docstring), not by the warm solver, which solves tighter.
        np.testing.assert_allclose(warm.accuracies(), reference.accuracies(), atol=5e-5)

    def test_erm_accepts_warm_alias(self, dataset):
        truth = _truth_fraction(dataset, 0.4, seed=6)
        alias = ERMLearner(solver="lbfgs-warm").fit(dataset, truth)
        plain = ERMLearner(solver="lbfgs").fit(dataset, truth)
        np.testing.assert_array_equal(alias.accuracies(), plain.accuracies())

    def test_facade_warm_solver_end_to_end(self, dataset):
        truth = _truth_fraction(dataset, 0.3, seed=9)
        warm = SLiMFast(learner="em", solver="lbfgs-warm").fit_predict(dataset, truth)
        plain = SLiMFast(learner="em", solver="lbfgs").fit_predict(dataset, truth)
        assert warm.has_arrays
        for source, acc in plain.source_accuracies.items():
            assert warm.source_accuracies[source] == pytest.approx(acc, abs=1e-3)
        agreement = np.mean([warm.values[obj] == value for obj, value in plain.values.items()])
        assert agreement >= 0.99
