"""Loop oracles: the per-object Python implementations that the production
array path replaced, kept as machine-checked ground truth.

Each module mirrors production code and is imported by the tests that pin
the production path to it, and by ``benchmarks/bench_vectorized_engine.py``
as speedup denominators:

* :mod:`tests.oracles.structure` — plain and source-masked candidate
  structures (``tests/test_vectorized_equivalence.py``,
  ``tests/experiments/test_sweeps.py``) and the per-label truth coding
  (``tests/fusion/test_encoding_memos.py``);
* :mod:`tests.oracles.inference` — dict posteriors and the post-hoc E-step
  clamp (``tests/test_vectorized_equivalence.py``);
* :mod:`tests.oracles.learners` — ERM and EM fits and the facade's
  fit-then-predict (``tests/test_vectorized_equivalence.py``,
  ``tests/experiments/test_sweeps.py``);
* :mod:`tests.oracles.streaming` — the sequential dict-per-observation
  streaming fuser (``tests/test_incremental_encoding.py``,
  ``tests/scenarios/test_decay_differential.py``) and the per-object
  span-relocation loops of the slot store and the score table
  (``relocate_slot_spans``, ``sync_score_spans``;
  ``tests/test_incremental_encoding.py``), and the compile-path publish
  (``compiled_result``; ``tests/serve/test_snapshot.py``);
* :mod:`tests.oracles.optimizer` — the agreement matrix's pair walk, the
  average domain size, the EM information units and the optimizer
  decision built on them (``tests/core/test_optimizer_equivalence.py``);
* :mod:`tests.oracles.ingest` — per-record batch validation and interning
  (``tests/fusion/test_ingest_equivalence.py``, and the ``stream_serve``
  replay in ``tests/serve/test_snapshot.py``);
* :mod:`tests.oracles.stats` — ``RunningSourceStats.observe`` with its
  per-source reductions over the whole known source range
  (``observe_running_stats``; ``tests/featurize/test_stats.py``);
* :mod:`tests.oracles.simulators` — the synthetic generator and the four
  paper simulators as first written: one dense ``(S, O)`` mask draw, a
  claim rescan per unclaimed truth and a sorted ``Observation`` list
  (``tests/data/test_simulator_identity.py``).

An oracle never calls the production code it checks.  It may share the
unforked pieces both sides build on: the dataset and model containers, the
design-matrix encoder and the objectives and solvers of :mod:`repro.optim`.
"""
