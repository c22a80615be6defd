"""Equivalence contract of the batched sweep engine.

``SweepRunner(mode="batched")`` shares one compiled encoding, cached
structures/label plans and warm-start state across fits; these tests pin
that its results match independent per-fit runs (``mode="isolated"``) at
the PR 2 solver-contract tolerances — final objective values at atol=1e-8
and source accuracies near 1e-6 — across EM, ERM and the selection
leave-one-source-out path.  With the inner M-step tolerance tightened the
two modes' trajectories coincide and agreement is far tighter; with each
mode's *default* solver (batched: ``lbfgs-warm``; isolated: scipy
``lbfgs``) agreement is bounded by scipy's double-precision stopping
plateau, exactly like the EM warm-solver contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SLiMFast
from repro.core.structure import build_masked_structure
from repro.data import SyntheticConfig, generate
from repro.experiments import FitSpec, SweepRunner, leave_one_out_specs, sweep
from repro.extensions import leave_one_out_impacts
from repro.fusion.dataset import subset_sources
from tests.oracles import learners as oracle_learners
from tests.oracles import structure as oracle_structure

OBJECTIVE_ATOL = 1e-8
ACCURACY_ATOL = 1e-6
#: Tightened inner tolerance that makes solver trajectories coincide.
TIGHT = {"m_step_tolerance": 1e-13}

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
]


@pytest.fixture(params=CONFIGS, ids=lambda c: c.name)
def dataset(request):
    return generate(request.param).dataset


def _em_specs(dataset, fractions=(0.1, 0.25, 0.4), solver="lbfgs-warm", **extra):
    overrides = {"max_iterations": 6, "solver": solver, **TIGHT, **extra}
    return [
        FitSpec(
            name=f"em@{fraction}",
            learner="em",
            train_truth=dataset.split(fraction, seed=0).train_truth,
            overrides=overrides,
        )
        for fraction in fractions
    ]


def _assert_fits_match(batched, isolated, atol=ACCURACY_ATOL):
    for b, i in zip(batched, isolated):
        assert b.objective_value == pytest.approx(i.objective_value, abs=OBJECTIVE_ATOL)
        np.testing.assert_allclose(b.model.accuracies(), i.model.accuracies(), atol=atol)
        assert b.result.object_ids == i.result.object_ids
        np.testing.assert_allclose(
            b.result.posterior_matrix, i.result.posterior_matrix, atol=atol * 10
        )


class TestEMEquivalence:
    def test_batched_matches_isolated_same_solver(self, dataset):
        specs = _em_specs(dataset)
        batched = SweepRunner(dataset, mode="batched").run(specs)
        isolated = SweepRunner(dataset, mode="isolated").run(specs)
        # Warm handoff threads through the sweep after the first fit...
        assert [fit.warm_started for fit in batched][1:] == ["em@0.1", "em@0.25"]
        # ...while every result stays equivalent to an independent fit.
        _assert_fits_match(batched, isolated)

    def test_batched_matches_isolated_scipy_solver(self, dataset):
        # Same scipy M-step in both modes: only the shared caches and the
        # warm inner starting points differ.
        specs = _em_specs(dataset, solver="lbfgs")
        batched = SweepRunner(dataset, mode="batched").run(specs)
        isolated = SweepRunner(dataset, mode="isolated").run(specs)
        _assert_fits_match(batched, isolated)

    def test_default_solvers_meet_warm_contract(self, dataset):
        # Batched defaults to lbfgs-warm, isolated to scipy lbfgs; the two
        # agree at the PR 2 warm-solver contract scale (scipy's stopping
        # plateau bounds accuracy agreement near 1e-6; 5e-5 is the same
        # slack the EM warm-solver test uses, and the per-round label drift
        # it causes moves unconverged mid-run objectives a notch above the
        # same-solver 1e-8 bound).
        specs = [
            FitSpec(
                name="default",
                learner="em",
                train_truth=dataset.split(0.2, seed=3).train_truth,
                overrides={"max_iterations": 6, **TIGHT},
            )
        ]
        b0 = SweepRunner(dataset, mode="batched").run(specs)[0]
        i0 = SweepRunner(dataset, mode="isolated").run(specs)[0]
        assert b0.objective_value == pytest.approx(i0.objective_value, abs=1e-6)
        np.testing.assert_allclose(b0.model.accuracies(), i0.model.accuracies(), atol=5e-5)

    def test_unsupervised_fit(self, dataset):
        specs = [
            FitSpec(name="unsup", learner="em", overrides={"max_iterations": 5, **TIGHT})
        ]
        batched = SweepRunner(dataset).run(specs)
        isolated = SweepRunner(dataset, mode="isolated").run(specs)
        _assert_fits_match(batched, isolated)

    def test_batched_matches_facade(self, dataset):
        # The facade is the historical per-fit entry point; a batched fit
        # with the facade's solver must reproduce it.
        truth = dataset.split(0.3, seed=1).train_truth
        fit = SweepRunner(dataset).run_one(
            FitSpec(
                name="facade",
                learner="em",
                train_truth=truth,
                overrides={"solver": "lbfgs", **TIGHT},
            )
        )
        from repro.core.em import EMConfig

        facade = SLiMFast(
            learner="em",
            em_config=EMConfig(solver="lbfgs", m_step_tolerance=TIGHT["m_step_tolerance"]),
        )
        reference = facade.fit_predict(dataset, truth)
        estimated = fit.result.source_accuracies
        for source, acc in reference.source_accuracies.items():
            assert estimated[source] == pytest.approx(acc, abs=ACCURACY_ATOL)
        assert fit.result.values == reference.values


class TestERMEquivalence:
    def test_batched_matches_isolated(self, dataset):
        specs = [
            FitSpec(
                name=f"erm@{fraction}",
                learner="erm",
                train_truth=dataset.split(fraction, seed=2).train_truth,
            )
            for fraction in (0.2, 0.4, 0.6)
        ]
        batched = SweepRunner(dataset).run(specs)
        isolated = SweepRunner(dataset, mode="isolated").run(specs)
        # ERM fits are never warm-started (see sweeps.py): a one-shot convex
        # solve under scipy's decrease-based stop would terminate early.
        assert all(fit.warm_started is None for fit in batched)
        _assert_fits_match(batched, isolated)

    def test_erm_intercept_override(self, dataset):
        truth = dataset.split(0.4, seed=4).train_truth
        spec = FitSpec(
            name="erm",
            learner="erm",
            train_truth=truth,
            use_features=False,
            overrides={"intercept": True},
        )
        fit = SweepRunner(dataset).run_one(spec)
        from repro.core.erm import ERMConfig, ERMLearner

        reference = ERMLearner(
            ERMConfig(use_features=False, intercept=True)
        ).fit(dataset, truth)
        np.testing.assert_allclose(
            fit.model.accuracies(), reference.accuracies(), atol=ACCURACY_ATOL
        )

    def test_auto_learner_matches_facade_choice(self, dataset):
        truth = dataset.split(0.5, seed=5).train_truth
        fit = SweepRunner(dataset).run_one(
            FitSpec(name="auto", learner="auto", train_truth=truth, overrides=TIGHT)
        )
        facade = SLiMFast(learner="auto").fit(dataset, truth)
        assert fit.learner_used == facade.chosen_learner_
        # Auto fits record the optimizer decision, like the facade does.
        decision = fit.result.diagnostics["optimizer"]
        assert decision.algorithm == facade.decision_.algorithm

    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.5])
    def test_auto_learner_choice_mode_independent(self, dataset, fraction):
        # The batched mode caches the optimizer's accuracy estimate; it must
        # be the same estimator decide() uses, or the cached value could
        # flip an auto decision between modes.
        truth = dataset.split(fraction, seed=6).train_truth if fraction else {}
        spec = FitSpec(name="auto", learner="auto", train_truth=truth)
        batched = SweepRunner(dataset, mode="batched").run_one(spec)
        isolated = SweepRunner(dataset, mode="isolated").run_one(spec)
        assert batched.learner_used == isolated.learner_used

    @pytest.mark.parametrize("mode", ["batched", "isolated"])
    def test_auto_learner_ignores_unobserved_labels(self, dataset, mode):
        # Labels on objects the dataset never observed count for nothing:
        # the optimizer picks EM, the only learner that can fit.
        ghost = {f"ghost{i}": "v0" for i in range(500)}
        spec = FitSpec(name="auto", learner="auto", train_truth=ghost)
        fit = SweepRunner(dataset, mode=mode).run_one(spec)
        assert fit.learner_used == "em"
        assert fit.result.diagnostics["optimizer"].erm_units == 0.0

    def test_isolated_erm_supports_sgd_and_conditional(self, dataset):
        # Isolated mode is the classic per-fit path: configs the structure
        # path cannot express (sgd sample streams, conditional objective)
        # must keep working.
        truth = dataset.split(0.4, seed=7).train_truth
        runner = SweepRunner(dataset, mode="isolated")
        for overrides in ({"solver": "sgd", "sgd_epochs": 2}, {"objective": "conditional"}):
            fit = runner.run_one(
                FitSpec(name="erm", learner="erm", train_truth=truth, overrides=overrides)
            )
            assert fit.learner_used == "erm"

    def test_masked_erm_requires_structure_path(self, dataset):
        truth = dataset.split(0.4, seed=7).train_truth
        spec = FitSpec(
            name="erm",
            learner="erm",
            train_truth=truth,
            exclude_sources=(dataset.sources.items[0],),
            overrides={"solver": "sgd"},
        )
        with pytest.raises(ValueError, match="source-masked ERM"):
            SweepRunner(dataset).run_one(spec)


class TestLeaveOneOutEquivalence:
    def test_masked_specs_match_isolated(self, dataset):
        truth = dataset.split(0.2, seed=0).train_truth
        specs = leave_one_out_specs(
            dataset,
            truth,
            sources=dataset.sources.items[:4],
            overrides={"max_iterations": 5, "solver": "lbfgs-warm", **TIGHT},
        )
        batched = SweepRunner(dataset).run(specs)
        isolated = SweepRunner(dataset, mode="isolated").run(specs)
        _assert_fits_match(batched, isolated)

    def test_masked_fit_matches_subset_dataset(self, dataset):
        # Featureless sources-EM on a masked structure must reproduce a fit
        # on the rebuilt subset dataset: the model slot kept for the
        # excluded source is inert (no samples, ridge pulls it to the
        # intercept) and the masked blocks equal the subset domains.
        dropped = dataset.sources.items[0]
        truth = dataset.split(0.2, seed=0).train_truth
        overrides = {"max_iterations": 5, "solver": "lbfgs-warm", **TIGHT}
        fit = SweepRunner(dataset).run_one(
            FitSpec(
                name="loo",
                learner="em",
                train_truth=truth,
                use_features=False,
                exclude_sources=(dropped,),
                overrides=overrides,
            )
        )
        subset = subset_sources(dataset, [s for s in dataset.sources.items if s != dropped])
        subset_truth = {obj: v for obj, v in truth.items() if obj in subset.objects}
        from repro.core.em import EMConfig, EMLearner

        config = EMConfig(use_features=False, **overrides)
        reference = EMLearner(config).fit(subset, subset_truth)
        masked_accs = dict(zip(fit.model.source_ids, fit.model.accuracies()))
        for source, acc in zip(reference.source_ids, reference.accuracies()):
            assert masked_accs[source] == pytest.approx(float(acc), abs=1e-5)
        reference_posteriors = dict(fit.result.posteriors)
        subset_result = SweepRunner(subset, mode="isolated").run_one(
            FitSpec(
                name="subset",
                learner="em",
                train_truth=subset_truth,
                use_features=False,
                overrides=overrides,
            )
        )
        for obj, dist in subset_result.result.posteriors.items():
            for value, prob in dist.items():
                assert reference_posteriors[obj][value] == pytest.approx(prob, abs=1e-5)

    def test_masked_structure_matches_oracle(self, dataset):
        exclude = dataset.sources.items[:2]
        vec = build_masked_structure(dataset, exclude)
        ref = oracle_structure.build_masked_structure(dataset, exclude)
        assert vec.object_ids == ref.object_ids
        assert vec.pair_values == ref.pair_values
        np.testing.assert_array_equal(vec.object_dataset_idx, ref.object_dataset_idx)
        np.testing.assert_array_equal(vec.pair_object_pos, ref.pair_object_pos)
        np.testing.assert_array_equal(vec.pair_offsets, ref.pair_offsets)
        np.testing.assert_array_equal(vec.obs_source_idx, ref.obs_source_idx)
        np.testing.assert_array_equal(vec.obs_pair_idx, ref.obs_pair_idx)
        np.testing.assert_allclose(vec.base_scores, ref.base_scores, atol=1e-12)

    def test_masked_em_warm_start_matches_oracle(self, dataset):
        # The ERM warm start inside a masked EM fit must restrict itself to
        # the surviving observations, as the oracle's does; warm-starting
        # from the full dataset leaks the excluded source's votes into the
        # initialization.
        truth = dataset.split(0.3, seed=2).train_truth
        excluded = (dataset.sources.items[0],)
        spec = FitSpec(
            name="loo",
            learner="em",
            train_truth=truth,
            exclude_sources=excluded,
            overrides={"max_iterations": 5, "solver": "lbfgs", **TIGHT},
        )
        vec = SweepRunner(dataset, mode="isolated").run_one(spec)
        ref = oracle_learners.fit_em(
            dataset, truth, max_iterations=5, exclude_sources=excluded, **TIGHT
        )
        np.testing.assert_allclose(vec.model.accuracies(), ref.accuracies(), atol=ACCURACY_ATOL)

    def test_leave_one_out_impacts_modes_agree(self, dataset):
        truth = dataset.split(0.25, seed=1).train_truth
        kwargs = dict(
            sources=dataset.sources.items[:3],
            use_features=False,
            overrides={"max_iterations": 4, "solver": "lbfgs-warm", **TIGHT},
        )
        batched = leave_one_out_impacts(dataset, truth, mode="batched", **kwargs)
        isolated = leave_one_out_impacts(dataset, truth, mode="isolated", **kwargs)
        assert [i.source for i in batched] == [i.source for i in isolated]
        for b, i in zip(batched, isolated):
            assert b.loo_accuracy == pytest.approx(i.loo_accuracy, abs=1e-9)
            assert b.impact == pytest.approx(i.impact, abs=1e-9)


class TestRunnerBehaviour:
    def test_rejects_unknown_mode_and_learner(self, dataset):
        with pytest.raises(ValueError, match="unknown mode"):
            SweepRunner(dataset, mode="parallel")
        with pytest.raises(ValueError, match="unknown learner"):
            SweepRunner(dataset).run_one(FitSpec(name="x", learner="gibbs"))

    def test_erm_requires_truth(self, dataset):
        from repro.fusion.types import DatasetError

        with pytest.raises(DatasetError, match="ground truth"):
            SweepRunner(dataset).run_one(FitSpec(name="erm", learner="erm"))

    def test_warm_start_can_be_disabled(self, dataset):
        specs = _em_specs(dataset, fractions=(0.1, 0.2))
        runner = SweepRunner(dataset, warm_start=False)
        fits = runner.run(specs)
        assert all(fit.warm_started is None for fit in fits)

    def test_structures_and_plans_are_cached(self, dataset):
        runner = SweepRunner(dataset)
        truth = dataset.split(0.2, seed=0).train_truth
        spec = FitSpec(name="a", learner="erm", train_truth=truth)
        runner.run([spec, FitSpec(name="b", learner="erm", train_truth=truth)])
        assert len(runner._structures) == 1
        assert len(runner._label_plans) == 1

    def test_from_method_mapping(self, dataset):
        truth = dataset.split(0.3, seed=0).train_truth
        spec = FitSpec.from_method("sources-em", "sources-em", truth)
        assert spec.learner == "em"
        assert spec.use_features is False
        with pytest.raises(KeyError, match="no sweep spec"):
            FitSpec.from_method("x", "majority", truth)

    def test_harness_sweep_modes_agree(self, dataset):
        methods = ["sources-erm", "majority"]
        batched = sweep(dataset, methods, (0.2,), seeds=(0,), mode="batched")
        isolated = sweep(dataset, methods, (0.2,), seeds=(0,), mode="isolated")
        for b, i in zip(batched, isolated):
            assert b.method == i.method
            assert b.object_accuracy == pytest.approx(i.object_accuracy, abs=1e-6)

    def test_harness_sweep_rejects_unknown_mode(self, dataset):
        with pytest.raises(ValueError, match="unknown mode"):
            sweep(dataset, ["majority"], (0.2,), seeds=(0,), mode="Batched")


class TestParallelExecution:
    """Cross-process determinism contract of ``SweepRunner(n_jobs=...)``.

    A sweep run with ``n_jobs=1``, ``n_jobs=4`` and the serial batched
    path must produce equal ``SweepFitResult`` objectives/accuracies at
    the contract tolerances, including the leave-one-out masked-structure
    path — and the parallel results must not depend on worker scheduling
    (chunking is deterministic, warm donors never cross chunks).
    """

    def _mixed_specs(self, dataset):
        em = _em_specs(dataset, fractions=(0.1, 0.25, 0.4))
        erm = [
            FitSpec(
                name="erm@0.3",
                learner="erm",
                train_truth=dataset.split(0.3, seed=2).train_truth,
            )
        ]
        auto = [
            FitSpec(
                name="auto@0.2",
                learner="auto",
                train_truth=dataset.split(0.2, seed=5).train_truth,
                overrides=TIGHT,
            )
        ]
        return em + erm + auto

    def test_n_jobs_matches_serial_batched(self, dataset):
        specs = self._mixed_specs(dataset)
        serial = SweepRunner(dataset, mode="batched").run(specs)
        one = SweepRunner(dataset, mode="batched", n_jobs=1).run(specs)
        four = SweepRunner(dataset, mode="batched", n_jobs=4).run(specs)
        _assert_fits_match(serial, one)
        _assert_fits_match(serial, four)
        for s, p in zip(serial, four):
            assert s.learner_used == p.learner_used
            assert s.result.method == p.result.method

    def test_parallel_runs_are_reproducible(self, dataset):
        specs = _em_specs(dataset, fractions=(0.1, 0.2, 0.3, 0.4))
        first = SweepRunner(dataset, mode="batched", n_jobs=3).run(specs)
        second = SweepRunner(dataset, mode="batched", n_jobs=3).run(specs)
        for a, b in zip(first, second):
            assert a.objective_value == b.objective_value
            np.testing.assert_array_equal(a.model.accuracies(), b.model.accuracies())
            assert a.warm_started == b.warm_started

    def test_leave_one_out_masked_path(self, dataset):
        truth = dataset.split(0.2, seed=0).train_truth
        specs = leave_one_out_specs(
            dataset,
            truth,
            sources=dataset.sources.items[:4],
            overrides={"max_iterations": 5, "solver": "lbfgs-warm", **TIGHT},
        )
        serial = SweepRunner(dataset, mode="batched").run(specs)
        parallel = SweepRunner(dataset, mode="batched", n_jobs=4).run(specs)
        _assert_fits_match(serial, parallel)

    def test_forced_shared_memory_transport(self, dataset, monkeypatch):
        import repro.experiments.parallel as parallel_module

        # Force every array through the shared segment regardless of size,
        # exercising pack/attach on platforms where fork would otherwise
        # bypass it.
        monkeypatch.setattr(parallel_module, "SHARED_ARRAY_MIN_BYTES", 1)
        specs = _em_specs(dataset, fractions=(0.1, 0.3)) + leave_one_out_specs(
            dataset,
            dataset.split(0.2, seed=0).train_truth,
            sources=dataset.sources.items[:1],
            overrides={"max_iterations": 4, **TIGHT},
        )
        serial = SweepRunner(dataset, mode="batched").run(specs)
        shm = SweepRunner(dataset, mode="batched", n_jobs=2, shared_memory=True).run(specs)
        _assert_fits_match(serial, shm)

    def test_single_spec_stays_in_process(self, dataset):
        runner = SweepRunner(dataset, mode="batched", n_jobs=4)
        spec = FitSpec(
            name="solo",
            learner="em",
            train_truth=dataset.split(0.2, seed=0).train_truth,
            overrides={"max_iterations": 3, **TIGHT},
        )
        fits = runner.run([spec])  # no pool for one fit
        reference = SweepRunner(dataset, mode="batched").run([spec])
        _assert_fits_match(fits, reference)

    def test_harness_sweep_n_jobs_agrees(self, dataset):
        from repro.experiments import sweep

        methods = ["sources-erm", "slimfast-em"]
        serial = sweep(dataset, methods, (0.2, 0.4), seeds=(0,), n_jobs=1)
        parallel = sweep(dataset, methods, (0.2, 0.4), seeds=(0,), n_jobs=2)
        for s, p in zip(serial, parallel):
            assert s.method == p.method and s.seed == p.seed
            assert s.object_accuracy == pytest.approx(p.object_accuracy, abs=1e-6)
            assert s.source_error == pytest.approx(p.source_error, abs=1e-6, nan_ok=True)

    def test_validation(self, dataset):
        with pytest.raises(ValueError, match='mode="batched"'):
            SweepRunner(dataset, mode="isolated", n_jobs=2)
        with pytest.raises(ValueError, match="positive integer"):
            SweepRunner(dataset, n_jobs=0)
        with pytest.raises(ValueError, match="shared_memory"):
            SweepRunner(dataset, shared_memory="always")
        with pytest.raises(ValueError, match="unknown learner"):
            SweepRunner(dataset, n_jobs=2).run(
                [FitSpec(name="a", learner="gibbs"), FitSpec(name="b", learner="gibbs")]
            )

    def test_n_jobs_none_resolves_to_cpu_count(self, dataset):
        import os

        runner = SweepRunner(dataset, n_jobs=None)
        assert runner.n_jobs == max(os.cpu_count() or 1, 1)


class TestParallelHelpers:
    def test_chunk_indices_contiguous_and_balanced(self):
        from repro.experiments.parallel import chunk_indices

        chunks = chunk_indices(10, 4)
        flat = [i for chunk in chunks for i in chunk]
        assert flat == list(range(10))
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1
        # Deterministic: same inputs, same chunking.
        assert chunks == chunk_indices(10, 4)
        # More chunks than items collapses to one item per chunk.
        assert [len(c) for c in chunk_indices(2, 8)] == [1, 1]
        assert chunk_indices(0, 3) == []

    def test_shared_array_pack_round_trip(self):
        from repro.experiments.parallel import SharedArrayPack, attach_shared_arrays

        arrays = {
            "a": np.arange(7, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 5),
            "c": np.zeros((3, 2), dtype=np.float32),
        }
        pack = SharedArrayPack(arrays)
        try:
            attached, segment = attach_shared_arrays(pack.descriptor)
            for key, array in arrays.items():
                np.testing.assert_array_equal(attached[key], array)
                assert not attached[key].flags.writeable
            segment.close()
        finally:
            pack.release()
            pack.release()  # idempotent

    def test_registry_state_round_trips_through_pickle(self, dataset):
        import pickle

        specs = _em_specs(dataset, fractions=(0.1,))
        runner = SweepRunner(dataset, mode="batched")
        runner.run(specs)
        state = runner._warm_registry[-1][-1]
        revived = pickle.loads(pickle.dumps(state))
        np.testing.assert_array_equal(revived.w, state.w)
        assert (revived.memory is None) == (state.memory is None)

    def test_warm_start_state_round_trip(self):
        import pickle

        from repro.optim.solvers import LBFGSMemory, WarmStartState

        rng = np.random.default_rng(0)
        memory = LBFGSMemory(max_pairs=5)
        for _ in range(3):
            s_vec = rng.normal(size=6)
            memory.push(s_vec, s_vec + 0.1 * rng.normal(size=6))
        assert memory.s
        state = WarmStartState(w=rng.normal(size=6), memory=memory)

        revived = WarmStartState.from_state(state.to_state())
        np.testing.assert_array_equal(revived.w, state.w)
        assert len(revived.memory.s) == len(state.memory.s)
        for a, b in zip(revived.memory.s, state.memory.s):
            np.testing.assert_array_equal(a, b)

        pickled = pickle.loads(pickle.dumps(state))
        np.testing.assert_array_equal(pickled.w, state.w)
        assert pickled.memory.rho == state.memory.rho
        # A deserialized memory still produces descent directions.
        grad = np.ones_like(state.w)
        direction = pickled.memory.direction(grad)
        assert float(grad @ direction) < 0
