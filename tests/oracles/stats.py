"""Loop oracle for :meth:`repro.featurize.stats.RunningSourceStats.observe`.

:func:`observe_running_stats` is the method as first written: its per-source
accumulators are reduced over the whole known source range on every batch
(``np.bincount(..., minlength=n_sources)``, full-width scratch arrays),
O(known sources) per batch.  Production reduces over the batch's distinct
sources only.  It is written as a method: a test binds it to a
``RunningSourceStats`` and asserts every accumulator stays ``==`` the
production one's after every batch (``tests/featurize/test_stats.py``).
It shares the per-object consensus pass (``_object_contribution``) and the
capacity growth (``_grow``) with production.
"""

from __future__ import annotations

import numpy as np

from repro.featurize.stats import _ROW_SENTINEL


def observe_running_stats(self, encoding, batch) -> None:
    """Fold one :class:`AppendBatch` (already applied to ``encoding``).

    ``self`` is a ``RunningSourceStats``.  The source-range reductions are
    full width: ``np.bincount(..., minlength=n_sources)`` and
    ``np.full(n_sources)`` scratch arrays, O(known sources) per batch.
    """
    k = len(batch)
    if k == 0:
        return
    src = batch.source_idx
    self._grow(int(src.max()) + 1)
    rows = self.n_observations + np.arange(k, dtype=np.int64)
    self.n_observations += k

    counts = np.bincount(src, minlength=self._n_sources)[: self._n_sources]
    touched_src = np.flatnonzero(counts)
    self.n_claims[: self._n_sources] += counts
    self.sum_row[: self._n_sources] += np.bincount(
        src, weights=rows.astype(float), minlength=self._n_sources
    )[: self._n_sources]

    batch_first = np.full(self._n_sources, _ROW_SENTINEL, dtype=np.int64)
    np.minimum.at(batch_first, src, rows)
    batch_last = np.full(self._n_sources, -1, dtype=np.int64)
    np.maximum.at(batch_last, src, rows)
    new_last = np.maximum(self.last_row[: self._n_sources], batch_last)

    # Rescale the decayed accumulators to the advanced clock, then add
    # the batch's (<= 0 exponent) volume terms.  (decayed_agree's new
    # terms land in the per-object pass below, which runs after
    # last_row is advanced so its weights match the rescaled state.)
    had_prior = self.last_row[touched_src] >= 0
    shift = np.zeros(touched_src.shape[0])
    shift[had_prior] = (
        self.last_row[touched_src[had_prior]] - new_last[touched_src[had_prior]]
    ) / self.half_life
    rescale = np.exp2(shift)
    self.decayed_volume[touched_src] *= rescale
    self.decayed_agree[touched_src] *= rescale
    age = (rows.astype(float) - new_last[src].astype(float)) / self.half_life
    self.decayed_volume[: self._n_sources] += np.bincount(
        src, weights=np.exp2(age), minlength=self._n_sources
    )[: self._n_sources]

    np.minimum.at(self.first_row, src, rows)
    self.last_row[: self._n_sources] = new_last

    # Consensus-dependent stats: re-derive each touched object's
    # contribution.  Old claims are the span prefix (the batch's k_new
    # claims sit at the span's end, in arrival order).
    for o_idx, k_new in zip(batch.objects.tolist(), batch.object_counts.tolist()):
        all_src, all_code, all_rows = encoding.object_claims(o_idx, with_rows=True)
        if all_src.shape[0] > k_new:
            self._object_contribution(all_src[:-k_new], all_code[:-k_new], all_rows[:-k_new], -1.0)
        self._object_contribution(all_src, all_code, all_rows, +1.0)
