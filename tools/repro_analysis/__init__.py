"""Repo-aware static analysis for the SLiMFast reproduction.

``python -m tools.repro_analysis`` runs three rule families over the tree
(zero dependencies, pure ``ast``), each enforcing an invariant the
runtime differential suites otherwise catch only as flaky failures:

* **RA1 — determinism.**  No ad-hoc RNG construction in ``src/repro`` or
  ``examples``: every generator flows through
  :func:`repro._rng.as_generator` / ``spawn_generators`` (re-exported by
  ``repro.data.simulators``), so seeds stay process-fan-out
  reproducible.
* **RA2 — lock discipline.**  Modules that declare a ``GUARDED_BY``
  table (``repro.serve``) get a guarded-attribute race check: each
  listed attribute may only be touched inside ``with self.<lock>:`` (or
  in ``__init__``/``__new__``, or in a function annotated
  ``# repro-analysis: holds[<lock>]``).
* **RA4 — cache-version honesty.**  The source of every
  ``FeatureGroup`` subclass and of the ``featurize.stats`` kernels is
  digested into ``versions.lock``; editing one without bumping its
  ``version`` / ``FEATURIZER_VERSION`` fails, keeping ``FeatureCache``
  keys honest.  ``--update-lock`` refreshes the lock.

Per-line suppression: ``# repro-analysis: ignore[RA2]`` on the flagged
line, the line above it, or the ``def``/``class`` header (covers the
whole body).  ``--strict`` additionally fails on suppressions that no
longer match anything.  See ``docs/analysis.md`` for the full catalog.
"""

from .core import Finding, Project, Report, run_rules  # noqa: F401

__all__ = ["Finding", "Project", "Report", "run_rules"]
