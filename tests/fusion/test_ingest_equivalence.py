"""Differential test: the production ingest routine against its loop oracle.

:func:`repro.fusion.dataset.intern_columns` validates and interns a batch
with whole-column passes; ``tests/oracles/ingest.py`` walks the batch one
record at a time.  Through every production entry point —
``FusionDataset(...)``, ``FusionDataset.from_columns(...)`` and
``IncrementalEncoding.append`` — both must agree exactly: the id tables
(each stored representative and its type), every value domain, the code
columns, the error raised and its message, and a rejected batch must leave
the tables and the seen pairs untouched.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fusion.dataset import FusionDataset
from repro.fusion.encoding import IncrementalEncoding
from repro.fusion.types import DatasetError, Indexer, Observation
from tests.oracles import ingest as oracle

# Small pools, so sources, objects and values collide within and across
# batches; 1 / 1.0 / True (and 0 / 0.0 / -0.0 / False) hash and compare
# equal, so each group is one id whose stored representative is the first
# seen.
SOURCES = st.sampled_from(["s0", "s1", "ß", "源", 1, 1.0, True, 2, None])
OBJECTS = st.one_of(
    st.sampled_from(["o0", "o1", "ü", 0, 0.0, False, -0.0, 7]),
    st.text(min_size=1, max_size=2),
)
#: Singleton-prone (a few constants) and large (hundreds of ints) domains.
VALUES = st.one_of(
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, None, "1", "é"]),
    st.text(max_size=2),
    st.integers(-2, 300),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
)


@st.composite
def batch(draw):
    """One batch of triples, possibly with a repeated pair and a NaN value."""
    pairs = draw(st.lists(st.tuples(SOURCES, OBJECTS), unique=True, max_size=25))
    rows = [(source, obj, draw(VALUES)) for source, obj in pairs]
    if rows and draw(st.integers(0, 4)) == 0:
        source, obj, _ = rows[draw(st.integers(0, len(rows) - 1))]
        rows.insert(draw(st.integers(0, len(rows))), (source, obj, draw(VALUES)))
    if rows and draw(st.integers(0, 4)) == 0:
        row = draw(st.integers(0, len(rows) - 1))
        rows[row] = (rows[row][0], rows[row][1], float("nan"))
    if draw(st.booleans()):
        rows = [Observation(*row) for row in rows]
    return rows


def typed(items):
    return [(type(item).__name__, repr(item)) for item in items]


def tables(sources, objects, domains):
    return typed(sources.items), typed(objects.items), [typed(domain.items) for domain in domains]


def run_oracle(rows, sources, objects, domains, seen_pairs=None):
    try:
        return oracle.intern_observations(rows, sources, objects, domains, seen_pairs), None
    except DatasetError as error:
        return None, str(error)


def assert_dataset_matches(build, rows):
    sources, objects, domains = Indexer(), Indexer(), []
    expected, error = run_oracle(rows, sources, objects, domains)
    if error is None and not rows:
        error = "a fusion dataset requires at least one observation"
    try:
        dataset = build(rows)
    except DatasetError as raised:
        assert str(raised) == error
        return None
    assert error is None
    entries, source_idx, object_idx, value_code = expected
    assert tables(dataset.sources, dataset.objects, dataset._domains) == tables(
        sources, objects, domains
    )
    np.testing.assert_array_equal(dataset.obs_source_idx, source_idx)
    np.testing.assert_array_equal(dataset.obs_object_idx, object_idx)
    np.testing.assert_array_equal(dataset.obs_value_idx, value_code)
    assert dataset.n_observations == len(entries)
    return dataset, entries


@settings(max_examples=100, deadline=None)
@given(rows=batch())
def test_fusion_dataset_matches_oracle(rows):
    built = assert_dataset_matches(FusionDataset, rows)
    if built is not None:
        dataset, entries = built
        # Record-built datasets keep the records given, with their own types.
        assert typed(obs.value for obs in dataset.observations) == typed(
            obs.value for obs in entries
        )


@settings(max_examples=100, deadline=None)
@given(rows=batch())
def test_from_columns_matches_oracle(rows):
    columns = [list(column) for column in zip(*rows)] if rows else [[], [], []]
    built = assert_dataset_matches(lambda _: FusionDataset.from_columns(*columns), rows)
    if built is not None:
        dataset, entries = built
        assert dataset._observations is None
        assert dataset.observations == tuple(entries)


@settings(max_examples=100, deadline=None)
@given(batches=st.lists(batch(), min_size=1, max_size=5))
def test_incremental_append_matches_oracle(batches):
    encoding = IncrementalEncoding()
    sources, objects, domains, seen = Indexer(), Indexer(), [], set()
    for rows in batches:
        before = tables(encoding.sources, encoding.objects, encoding._domains)
        seen_before = set(encoding._seen_pairs)
        n_sources, n_objects = len(sources), len(objects)
        expected, error = run_oracle(rows, sources, objects, domains, seen)
        try:
            appended = encoding.append(rows)
        except DatasetError as raised:
            assert str(raised) == error
            assert tables(encoding.sources, encoding.objects, encoding._domains) == before
            assert encoding._seen_pairs == seen_before
            continue
        assert error is None
        entries, source_idx, object_idx, value_code = expected
        np.testing.assert_array_equal(appended.source_idx, source_idx)
        np.testing.assert_array_equal(appended.object_idx, object_idx)
        np.testing.assert_array_equal(appended.value_code, value_code)
        assert typed(appended.values) == typed(obs.value for obs in entries)
        assert appended.n_new_sources == len(sources) - n_sources
        assert appended.n_new_objects == len(objects) - n_objects
        assert tables(encoding.sources, encoding.objects, encoding._domains) == tables(
            sources, objects, domains
        )
        assert encoding._seen_pairs == seen
