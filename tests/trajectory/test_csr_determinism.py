"""Determinism of dataset generation under the CSR routing path.

Guards the generator rewiring of the CSR refactor: trajectory generation and
map matching must be (a) bit-identical run-to-run for a fixed seed and
(b) bit-identical between the compiled CSR path and the dict-based route
sampler kept as a parity oracle (``tests/roadnet_reference.py``) — the
stream of RNG draws, the sampled routes and the synthesised timestamps all
have to line up exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.roadnet import CityConfig, generate_arterial_city
from repro.trajectory import (
    BenchmarkConfig,
    MapMatcher,
    SimulatorConfig,
    TrajectorySimulator,
    build_benchmark_data,
    simulate_gps,
)
from repro.utils import RandomState
from tests.roadnet_reference import legacy_simulator


@pytest.fixture(scope="module")
def city():
    return generate_arterial_city(
        CityConfig(name="determinism-city", rows=7, cols=7, num_pois=3), rng=RandomState(5)
    )


def _generate(city, seed, simulator_type=TrajectorySimulator):
    simulator = simulator_type(
        city, config=SimulatorConfig(min_length=5, max_length=40), rng=RandomState(seed)
    )
    return simulator.generate_many(25)


class TestGenerationDeterminism:
    def test_same_seed_is_bit_identical(self, city):
        first = _generate(city, seed=77)
        second = _generate(city, seed=77)
        assert len(first) == len(second) == 25
        for a, b in zip(first, second):
            assert a.trajectory_id == b.trajectory_id
            assert a.segments == b.segments
            assert a.timestamps == b.timestamps  # exact float equality

    def test_compiled_matches_legacy_path(self, city):
        compiled = _generate(city, seed=78)
        legacy = _generate(city, seed=78, simulator_type=legacy_simulator)
        assert len(compiled) == len(legacy)
        for a, b in zip(compiled, legacy):
            assert a.segments == b.segments
            assert a.timestamps == b.timestamps

    def test_sd_pair_stream_unchanged(self, city):
        """The SD sampler consumes the RNG identically on both paths."""
        sim_a = TrajectorySimulator(city, rng=RandomState(9))
        sim_b = legacy_simulator(city, rng=RandomState(9))
        pairs_a = [sim_a.sample_sd_pair() for _ in range(50)]
        pairs_b = [sim_b.sample_sd_pair() for _ in range(50)]
        assert [p.as_tuple() for p in pairs_a] == [p.as_tuple() for p in pairs_b]


class TestMatchingDeterminism:
    def test_matching_bit_identical_run_to_run(self, city):
        trajectories = _generate(city, seed=80)[:8]
        raws = [
            simulate_gps(city.network, t, rng=RandomState(500 + i))
            for i, t in enumerate(trajectories)
        ]
        matcher_a = MapMatcher(city.network)
        matcher_b = MapMatcher(city.network)
        for raw in raws:
            first = matcher_a.match(raw)
            second = matcher_b.match(raw)
            assert first.trajectory.segments == second.trajectory.segments
            assert first.mean_match_distance == second.mean_match_distance


class TestBenchmarkBundleDeterminism:
    def test_full_dataset_build_is_deterministic(self, city):
        config = BenchmarkConfig(
            num_sd_pairs=5,
            trajectories_per_pair=5,
            num_ood_trajectories=12,
            simulator=SimulatorConfig(min_length=5, max_length=40),
        )
        first = build_benchmark_data(city=city, config=config, rng=RandomState(13))
        second = build_benchmark_data(city=city, config=config, rng=RandomState(13))
        for split in ("train", "id_test", "ood_test"):
            a, b = getattr(first, split), getattr(second, split)
            assert len(a) == len(b)
            for item_a, item_b in zip(a, b):
                assert item_a.trajectory.segments == item_b.trajectory.segments
                assert item_a.label == item_b.label
