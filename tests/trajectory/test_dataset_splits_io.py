"""Tests for dataset containers, batch encoding, benchmark splits and IO."""

from __future__ import annotations

import numpy as np
import pytest

from repro.trajectory import (
    LabeledTrajectory,
    MapMatchedTrajectory,
    TrajectoryDataset,
    encode_batch,
    load_dataset,
    mix_id_ood,
    save_dataset,
)
from repro.utils import RandomState


def make_dataset(num_segments=20):
    trajectories = [
        MapMatchedTrajectory(f"t{i}", tuple(range(i % 3, i % 3 + 4 + i % 5))) for i in range(12)
    ]
    labels = [i % 2 for i in range(12)]
    items = [
        LabeledTrajectory(t, label=l, anomaly_kind="detour" if l else None)
        for t, l in zip(trajectories, labels)
    ]
    return TrajectoryDataset(items, num_segments, name="unit")


class TestEncodeBatch:
    def test_shapes_and_padding(self):
        trajectories = [
            MapMatchedTrajectory("a", (0, 1, 2, 3)),
            MapMatchedTrajectory("b", (4, 5)),
        ]
        batch = encode_batch(trajectories, num_segments=10)
        assert batch.full_segments.shape == (2, 4)
        assert batch.inputs.shape == (2, 3)
        assert batch.targets.shape == (2, 3)
        assert batch.pad_id == 10
        np.testing.assert_array_equal(batch.full_segments[1], [4, 5, 10, 10])
        np.testing.assert_array_equal(batch.mask[1], [True, False, False])
        np.testing.assert_array_equal(batch.lengths, [4, 2])
        np.testing.assert_array_equal(batch.sources, [0, 4])
        np.testing.assert_array_equal(batch.destinations, [3, 5])

    def test_targets_shifted_by_one(self):
        batch = encode_batch([MapMatchedTrajectory("a", (7, 8, 9))], num_segments=10)
        np.testing.assert_array_equal(batch.inputs[0], [7, 8])
        np.testing.assert_array_equal(batch.targets[0], [8, 9])

    def test_out_of_range_segments_rejected(self):
        with pytest.raises(ValueError):
            encode_batch([MapMatchedTrajectory("a", (0, 99))], num_segments=10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            encode_batch([], num_segments=5)

    def test_label_alignment(self):
        trajectories = [MapMatchedTrajectory("a", (0, 1)), MapMatchedTrajectory("b", (2, 3))]
        batch = encode_batch(trajectories, 5, labels=[0, 1])
        np.testing.assert_array_equal(batch.labels, [0, 1])
        with pytest.raises(ValueError):
            encode_batch(trajectories, 5, labels=[0])


class TestTrajectoryDataset:
    def test_basic_properties(self):
        dataset = make_dataset()
        assert len(dataset) == 12
        assert dataset.num_anomalies == 6
        assert dataset.mean_length() > 0
        assert dataset[0].trajectory.trajectory_id == "t0"

    def test_labels_aligned(self):
        dataset = make_dataset()
        np.testing.assert_array_equal(dataset.labels, [i % 2 for i in range(12)])

    def test_group_by_sd_covers_all(self):
        dataset = make_dataset()
        groups = dataset.group_by_sd()
        assert sum(len(v) for v in groups.values()) == len(dataset)

    def test_subset_and_merge(self):
        dataset = make_dataset()
        first = dataset.subset([0, 1, 2])
        second = dataset.subset([3, 4])
        merged = first.merge(second)
        assert len(merged) == 5

    def test_merge_rejects_mismatched_networks(self):
        with pytest.raises(ValueError):
            make_dataset(20).merge(make_dataset(30))

    def test_filter_by_sd(self):
        dataset = make_dataset()
        pairs = list(dataset.sd_pairs())[:1]
        kept = dataset.filter_by_sd(pairs, keep=True)
        dropped = dataset.filter_by_sd(pairs, keep=False)
        assert len(kept) + len(dropped) == len(dataset)
        assert kept.sd_pairs() <= set(pairs)

    def test_shuffled_preserves_content(self):
        dataset = make_dataset()
        shuffled = dataset.shuffled(rng=RandomState(0))
        assert sorted(i.trajectory.trajectory_id for i in shuffled) == sorted(
            i.trajectory.trajectory_id for i in dataset
        )

    def test_truncate_observed(self):
        dataset = make_dataset()
        truncated = dataset.truncate_observed(0.5)
        for original, cut in zip(dataset, truncated):
            assert len(cut.trajectory) <= max(2, len(original.trajectory))
            assert cut.label == original.label

    def test_iter_batches_covers_everything_once(self):
        dataset = make_dataset()
        seen = 0
        for batch in dataset.iter_batches(batch_size=5, shuffle=True, rng=RandomState(1)):
            seen += batch.batch_size
        assert seen == len(dataset)

    def test_iter_batches_drop_last(self):
        dataset = make_dataset()
        sizes = [b.batch_size for b in dataset.iter_batches(5, shuffle=False, drop_last=True)]
        assert all(size == 5 for size in sizes)

    def test_iter_batches_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(make_dataset().iter_batches(0))

    def test_bucketing_modes_cover_everything_once(self):
        dataset = make_dataset()
        seen = []
        for batch in dataset.iter_batches(batch_size=5, shuffle=True, rng=RandomState(3)):
            seen.extend(batch.lengths.tolist())
        assert len(seen) == len(dataset)
        assert sorted(seen) == sorted(len(item.trajectory) for item in dataset)

    def test_length_bucketing_minimises_padding(self):
        """Length-bucketed batches pad less than the same shuffle left unsorted."""
        dataset = make_dataset()

        def padded_steps(batches):
            return sum(
                batch.batch_size * batch.max_length - int(batch.full_mask.sum())
                for batch in batches
            )

        order = list(range(len(dataset)))
        RandomState(9).shuffle(order)
        unsorted = [dataset.encode(order[start : start + 4]) for start in range(0, len(order), 4)]
        bucketed = dataset.iter_batches(batch_size=4, shuffle=True, rng=RandomState(9))
        assert padded_steps(bucketed) < padded_steps(unsorted)

    def test_length_bucketing_batches_are_near_homogeneous(self):
        dataset = make_dataset()
        for batch in dataset.iter_batches(batch_size=4, shuffle=True, rng=RandomState(5)):
            # Lengths within a batch are contiguous in the sorted global order.
            assert batch.lengths.max() - batch.lengths.min() <= 3

    def test_invalid_num_segments(self):
        with pytest.raises(ValueError):
            TrajectoryDataset([], 0)


class TestBenchmarkData:
    def test_summary_counts(self, benchmark_data):
        summary = benchmark_data.summary()
        assert summary["train"] > 0
        assert summary["id_test"] > 0
        assert summary["ood_test"] > 0
        assert summary["num_segments"] == benchmark_data.city.network.num_segments

    def test_train_and_id_share_sd_distribution(self, benchmark_data):
        train_pairs = benchmark_data.train.sd_pairs()
        id_pairs = benchmark_data.id_test.sd_pairs()
        assert id_pairs <= train_pairs

    def test_ood_pairs_unseen_in_training(self, benchmark_data):
        train_pairs = benchmark_data.train.sd_pairs()
        ood_pairs = benchmark_data.ood_test.sd_pairs()
        assert not (ood_pairs & train_pairs)

    def test_training_set_is_all_normal(self, benchmark_data):
        assert benchmark_data.train.num_anomalies == 0

    def test_test_combinations_are_roughly_balanced(self, benchmark_data):
        for name in ("id_detour", "id_switch", "ood_detour", "ood_switch"):
            dataset = getattr(benchmark_data, name)
            anomaly_fraction = dataset.num_anomalies / len(dataset)
            assert 0.25 <= anomaly_fraction <= 0.6, name

    def test_combination_lookup(self, benchmark_data):
        assert benchmark_data.combination("ID", "detour") is benchmark_data.id_detour
        with pytest.raises(KeyError):
            benchmark_data.combination("id", "teleport")

    def test_anomalies_are_valid_routes(self, benchmark_data):
        network = benchmark_data.city.network
        for item in benchmark_data.id_detour:
            if item.label == 1:
                assert network.is_valid_route(list(item.trajectory.segments))


class TestMixIdOod:
    def test_alpha_zero_uses_only_id_normals(self, benchmark_data):
        mixed = mix_id_ood(benchmark_data.id_detour, benchmark_data.ood_detour, 0.0, rng=RandomState(2))
        id_ids = {i.trajectory.trajectory_id for i in benchmark_data.id_detour if i.label == 0}
        normal_ids = {i.trajectory.trajectory_id for i in mixed if i.label == 0}
        assert normal_ids <= id_ids

    def test_alpha_one_uses_only_ood_normals(self, benchmark_data):
        mixed = mix_id_ood(benchmark_data.id_detour, benchmark_data.ood_detour, 1.0, rng=RandomState(2))
        ood_ids = {i.trajectory.trajectory_id for i in benchmark_data.ood_detour if i.label == 0}
        normal_ids = {i.trajectory.trajectory_id for i in mixed if i.label == 0}
        assert normal_ids <= ood_ids

    def test_contains_both_classes(self, benchmark_data):
        mixed = mix_id_ood(benchmark_data.id_detour, benchmark_data.ood_detour, 0.5, rng=RandomState(2))
        labels = mixed.labels
        assert labels.sum() > 0 and labels.sum() < len(labels)

    def test_invalid_alpha(self, benchmark_data):
        with pytest.raises(ValueError):
            mix_id_ood(benchmark_data.id_detour, benchmark_data.ood_detour, 1.5)


class TestDatasetIO:
    def test_roundtrip(self, tmp_path):
        dataset = make_dataset()
        path = save_dataset(dataset, tmp_path / "data.json")
        loaded = load_dataset(path)
        assert len(loaded) == len(dataset)
        assert loaded.num_segments == dataset.num_segments
        assert loaded.name == dataset.name
        np.testing.assert_array_equal(loaded.labels, dataset.labels)
        assert loaded[3].trajectory == dataset[3].trajectory

    def test_bad_version_rejected(self, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99, "num_segments": 5, "items": []}))
        with pytest.raises(ValueError):
            load_dataset(path)
