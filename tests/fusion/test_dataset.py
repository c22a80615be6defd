"""Unit tests for repro.fusion.dataset."""

import numpy as np
import pytest

from repro.fusion import DatasetError, FusionDataset, IncrementalEncoding, Observation
from repro.fusion.dataset import subset_sources
from repro.fusion.encoding import encode_dataset


class TestConstruction:
    def test_accepts_tuples_and_observations(self):
        ds = FusionDataset([("s1", "o1", "v"), Observation("s2", "o1", "w")])
        assert ds.n_sources == 2
        assert ds.n_objects == 1
        assert ds.n_observations == 2

    def test_empty_observations_rejected(self):
        with pytest.raises(DatasetError, match="at least one observation"):
            FusionDataset([])

    def test_duplicate_source_object_rejected(self):
        with pytest.raises(DatasetError, match="duplicate observation"):
            FusionDataset([("s", "o", "a"), ("s", "o", "b")])

    def test_nan_claim_value_rejected(self):
        # Two NaN claims never compare equal, so they would become two
        # candidates and lose to the single "x" claim.
        nan = float("nan")
        with pytest.raises(DatasetError, match="NaN claim value for source='b' obj='o'"):
            FusionDataset([("a", "o", "x"), ("b", "o", nan), ("c", "o", nan)])

    @pytest.mark.parametrize(
        "nan", [np.float64("nan"), np.float32("nan")], ids=["float64", "float32"]
    )
    def test_numpy_nan_claim_value_rejected(self, nan):
        # Values read from NumPy columns keep their scalar type.
        with pytest.raises(DatasetError, match="NaN claim value for source='a' obj='o'"):
            FusionDataset([("a", "o", nan), ("b", "o", "x")])

    def test_single_nan_claim_rejected(self):
        # No second claim is needed: a lone NaN is rejected up front.
        with pytest.raises(DatasetError, match="NaN claim value for source='s' obj='o2'"):
            FusionDataset([("s", "o1", "x"), ("s", "o2", float("nan"))])

    def test_from_columns_rejects_ragged_columns(self):
        with pytest.raises(DatasetError, match="1 sources, 2 objects, 1 values"):
            FusionDataset.from_columns(["s"], ["o", "p"], ["v"])

    def test_ground_truth_for_unknown_object_rejected(self):
        with pytest.raises(DatasetError, match="unknown object"):
            FusionDataset([("s", "o", "a")], ground_truth={"nope": "a"})

    def test_name_defaults(self):
        assert FusionDataset([("s", "o", "a")]).name == "fusion-dataset"


class TestIndices:
    def test_observation_index_alignment(self, tiny_dataset):
        for i, obs in enumerate(tiny_dataset.observations):
            assert tiny_dataset.sources.item(tiny_dataset.obs_source_idx[i]) == obs.source
            assert tiny_dataset.objects.item(tiny_dataset.obs_object_idx[i]) == obs.obj

    def test_domain_first_seen_order(self, tiny_dataset):
        assert tiny_dataset.domain("gigyf2") == ["false", "true"]
        assert tiny_dataset.domain("gba") == ["true"]

    def test_observations_of_object(self, tiny_dataset):
        obs = tiny_dataset.observations_of_object("gigyf2")
        assert len(obs) == 3
        assert {o.source for o in obs} == {"a1", "a2", "a3"}

    def test_observations_of_source(self, tiny_dataset):
        obs = tiny_dataset.observations_of_source("a1")
        assert {o.obj for o in obs} == {"gigyf2", "gba"}

    def test_source_observation_counts(self, tiny_dataset):
        counts = tiny_dataset.source_observation_counts()
        assert counts.sum() == tiny_dataset.n_observations
        assert counts[tiny_dataset.sources.index("a2")] == 1

    def test_value_idx_matches_domain(self, tiny_dataset):
        for i, obs in enumerate(tiny_dataset.observations):
            o_idx = tiny_dataset.obs_object_idx[i]
            domain = tiny_dataset.domain_by_index(int(o_idx))
            assert domain.item(int(tiny_dataset.obs_value_idx[i])) == obs.value


class TestEmpiricalAccuracies:
    def test_hand_computed(self, tiny_dataset):
        accs = tiny_dataset.empirical_accuracies()
        assert accs["a1"] == 1.0  # right on both objects
        assert accs["a2"] == 0.0  # wrong on gigyf2
        assert accs["a3"] == 1.0

    def test_partial_truth_restricts_population(self, tiny_dataset):
        accs = tiny_dataset.empirical_accuracies({"gigyf2": "false"})
        assert "a1" in accs and accs["a1"] == 1.0
        assert accs["a2"] == 0.0

    def test_sources_without_labeled_observations_missing(self):
        ds = FusionDataset(
            [("s1", "o1", "a"), ("s2", "o2", "b")], ground_truth={"o1": "a", "o2": "b"}
        )
        accs = ds.empirical_accuracies({"o1": "a"})
        assert "s1" in accs
        assert "s2" not in accs


class TestSplit:
    def test_split_sizes(self, small_dataset):
        split = small_dataset.split(0.25, seed=0)
        n = small_dataset.n_objects
        assert len(split.train_truth) == round(0.25 * n)
        assert len(split.test_objects) == n - len(split.train_truth)

    def test_split_disjoint_and_exhaustive(self, small_dataset):
        split = small_dataset.split(0.5, seed=1)
        train = set(split.train_truth)
        test = set(split.test_objects)
        assert not train & test
        assert train | test == set(small_dataset.ground_truth)

    def test_split_deterministic_per_seed(self, small_dataset):
        a = small_dataset.split(0.3, seed=5)
        b = small_dataset.split(0.3, seed=5)
        assert a.train_truth == b.train_truth

    def test_split_varies_with_seed(self, small_dataset):
        a = small_dataset.split(0.3, seed=0)
        b = small_dataset.split(0.3, seed=1)
        assert a.train_truth != b.train_truth

    def test_zero_fraction_rejected(self, small_dataset):
        # The degenerate "no training side" split used to be produced
        # silently and crash much later (empty ERM warm starts); now it is
        # rejected up front with a pointer to the unsupervised spelling.
        with pytest.raises(DatasetError, match="reveals no ground truth"):
            small_dataset.split(0.0, seed=0)

    def test_full_fraction_rejected(self, small_dataset):
        with pytest.raises(DatasetError, match="leaving no evaluation side"):
            small_dataset.split(1.0, seed=0)

    def test_fraction_rounding_to_empty_train_rejected(self, small_dataset):
        # Small positive fractions that round to zero revealed objects are
        # the same degenerate split as 0.0 and must raise too.
        fraction = 0.4 / len(small_dataset.ground_truth)
        with pytest.raises(DatasetError, match="reveals no ground truth"):
            small_dataset.split(fraction, seed=0)

    def test_fraction_rounding_to_empty_eval_rejected(self, small_dataset):
        n = len(small_dataset.ground_truth)
        with pytest.raises(DatasetError, match="evaluation side"):
            small_dataset.split((n - 0.4) / n, seed=0)

    def test_boundary_errors_are_value_errors(self, small_dataset):
        # DatasetError doubles as ValueError so generic parameter
        # validation in callers keeps working.
        with pytest.raises(ValueError):
            small_dataset.split(0.0)
        with pytest.raises(ValueError):
            small_dataset.split(1.0)

    def test_near_boundary_fractions_still_split(self, small_dataset):
        n = len(small_dataset.ground_truth)
        split = small_dataset.split(1.4 / n, seed=0)
        assert len(split.train_truth) == 1
        split = small_dataset.split((n - 0.6) / n, seed=0)
        assert len(split.test_objects) == 1

    def test_invalid_fraction_rejected(self, small_dataset):
        with pytest.raises(DatasetError):
            small_dataset.split(1.5)

    def test_split_without_ground_truth_rejected(self):
        ds = FusionDataset([("s", "o", "v")])
        with pytest.raises(DatasetError, match="no ground truth"):
            ds.split(0.5)

    def test_train_values_match_ground_truth(self, small_dataset):
        split = small_dataset.split(0.4, seed=3)
        for obj, value in split.train_truth.items():
            assert small_dataset.ground_truth[obj] == value


class TestStats:
    def test_stats_counts(self, tiny_dataset):
        stats = tiny_dataset.stats()
        assert stats.n_sources == 3
        assert stats.n_objects == 2
        assert stats.n_observations == 5
        assert stats.n_domain_features == 2  # citations, year
        assert stats.ground_truth_fraction == 1.0

    def test_avg_accuracy_computed(self, tiny_dataset):
        stats = tiny_dataset.stats(min_source_observations_for_acc=1)
        assert stats.avg_source_accuracy == pytest.approx((1.0 + 0.0 + 1.0) / 3)

    def test_sparse_dataset_hides_accuracy(self):
        # one observation per source -> below the default threshold
        ds = FusionDataset(
            [("s1", "o1", "a"), ("s2", "o2", "b")], ground_truth={"o1": "a", "o2": "b"}
        )
        assert ds.stats().avg_source_accuracy is None


class TestSubsetSources:
    def test_restricts_observations(self, tiny_dataset):
        sub = subset_sources(tiny_dataset, ["a1"])
        assert sub.n_sources == 1
        assert {o.obj for o in sub.observations} == {"gigyf2", "gba"}

    def test_drops_uncovered_objects_from_truth(self):
        ds = FusionDataset(
            [("s1", "o1", "a"), ("s2", "o2", "b")],
            ground_truth={"o1": "a", "o2": "b"},
        )
        sub = subset_sources(ds, ["s1"])
        assert set(sub.ground_truth) == {"o1"}

    def test_empty_subset_rejected(self, tiny_dataset):
        with pytest.raises(DatasetError):
            subset_sources(tiny_dataset, ["unknown-source"])

    def test_features_and_accuracies_filtered(self, small_dataset):
        keep = small_dataset.sources.items[:10]
        sub = subset_sources(small_dataset, keep)
        assert set(sub.source_features) <= set(keep)
        assert set(sub.true_accuracies) <= set(keep)


class TestDomainAPI:
    """Each domain is a per-object dict; ``domain_by_index`` returns a copy."""

    # ``True`` equals ``1``, so o1's domain is ["a", 1].
    OBSERVATIONS = [("s1", "o1", "a"), ("s2", "o1", 1), ("s3", "o1", True), ("s1", "o2", "x")]

    def build(self, kind):
        if kind == "dataset":
            return FusionDataset(self.OBSERVATIONS)
        encoding = IncrementalEncoding()
        encoding.append(self.OBSERVATIONS)
        return encoding

    @pytest.mark.parametrize("kind", ["dataset", "incremental"])
    def test_copy_lists_the_domain(self, kind):
        built = self.build(kind)
        assert built.domain("o1") == ["a", 1]
        assert [type(value) for value in built.domain("o1")] == [str, int]
        for o_idx, obj in enumerate(built.objects.items):
            assert list(built.domain_by_index(o_idx)) == built.domain(obj)
            for code, value in enumerate(built.domain(obj)):
                assert built.value_code(o_idx, value) == code
        assert built.value_code(0, True) == 1
        assert built.value_code(0, "missing") is None

    @pytest.mark.parametrize("kind", ["dataset", "incremental"])
    def test_mutating_the_copies_changes_nothing(self, kind):
        built = self.build(kind)
        pair_values = list(encode_dataset(built).pair_values)
        built.domain_by_index(0).add("zzz")
        built.domain("o1").append("zzz")
        assert built.domain("o1") == ["a", 1]
        assert built.value_code(0, "zzz") is None
        assert encode_dataset(built).pair_values == pair_values == ["a", 1, "x"]
        if kind == "incremental":
            batch = built.append([("s4", "o1", "zzz"), ("s4", "o2", 1.0), ("s2", "o2", "x")])
            assert batch.value_code.tolist() == [2, 1, 0]
            assert built.domain("o1") == ["a", 1, "zzz"]
            assert built.pair_values == ["a", 1, "zzz", "x", 1.0]
