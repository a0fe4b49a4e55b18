"""Scoring parity: fleet engine == per-ride online session == offline model.

The acceptance bar for the serving subsystem: for the same trajectories, the
batched :class:`FleetEngine`, the per-ride :class:`OnlineSession` replay and
the offline :meth:`CausalTAD.score_trajectory` must agree to 1e-12, on both the
road-constrained (successor softmax) and unconstrained softmax paths, and for
a ``kl_weight`` other than 1 (a training-loss weight that no score applies).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import CausalTAD, CausalTADConfig, OnlineDetector
from repro.serving import FleetEngine, replay_trajectories
from repro.utils import RandomState

TOL = 1e-12


def fleet_final_scores(model, trajectories, **engine_kwargs):
    engine = FleetEngine(model, **engine_kwargs)
    summary = engine.run(replay_trajectories(trajectories))
    return {ride_id: record.final_score for ride_id, record in summary.finished.items()}


class TestMaskedPathParity:
    """Trained model with an attached road network (road-constrained softmax)."""

    def test_fleet_matches_session_and_offline(self, trained_causal_tad, benchmark_data):
        assert trained_causal_tad.transition_mask is not None
        trajectories = benchmark_data.id_test.trajectories[:12]
        detector = OnlineDetector(trained_causal_tad)
        fleet = fleet_final_scores(trained_causal_tad, trajectories)
        for trajectory in trajectories:
            session_score = detector.final_score(trajectory)
            offline_score = trained_causal_tad.score_trajectory(trajectory)
            assert fleet[trajectory.trajectory_id] == pytest.approx(session_score, abs=TOL, rel=TOL)
            assert fleet[trajectory.trajectory_id] == pytest.approx(offline_score, abs=TOL, rel=TOL)

    def test_fleet_matches_session_prefixes(self, trained_causal_tad, benchmark_data):
        """Cumulative scores agree at *every* prefix, not just the end."""
        trajectory = benchmark_data.id_test.trajectories[0]
        detector = OnlineDetector(trained_causal_tad)
        prefix_scores = detector.score_prefixes(trajectory)

        engine = FleetEngine(trained_causal_tad)
        from repro.serving import RideStart, SegmentObserved

        engine.submit(RideStart("r", trajectory.sd_pair, trajectory.segments[0]))
        engine.tick()
        assert engine.score("r") == pytest.approx(prefix_scores[0], abs=TOL, rel=TOL)
        for position, segment in enumerate(trajectory.segments[1:], start=1):
            engine.submit(SegmentObserved("r", segment))
            engine.tick()
            assert engine.score("r") == pytest.approx(prefix_scores[position], abs=TOL, rel=TOL)

    def test_anomalous_trajectories_also_agree(self, trained_causal_tad, benchmark_data):
        anomalies = [item.trajectory for item in benchmark_data.id_detour.items if item.label == 1][:6]
        detector = OnlineDetector(trained_causal_tad)
        fleet = fleet_final_scores(trained_causal_tad, anomalies)
        for trajectory in anomalies:
            assert fleet[trajectory.trajectory_id] == pytest.approx(
                detector.final_score(trajectory), abs=TOL, rel=TOL
            )


class TestUnconstrainedPathParity:
    """Model without a road network (plain softmax over all segments)."""

    @pytest.fixture(scope="class")
    def unmasked_model(self, benchmark_data):
        model = CausalTAD(CausalTADConfig.tiny(benchmark_data.num_segments), rng=RandomState(7))
        model.eval()
        assert model.transition_mask is None
        return model

    def test_fleet_matches_session_and_offline(self, unmasked_model, benchmark_data):
        trajectories = benchmark_data.id_test.trajectories[:12]
        detector = OnlineDetector(unmasked_model)
        fleet = fleet_final_scores(unmasked_model, trajectories)
        for trajectory in trajectories:
            session_score = detector.final_score(trajectory)
            offline_score = unmasked_model.score_trajectory(trajectory)
            assert fleet[trajectory.trajectory_id] == pytest.approx(session_score, abs=TOL, rel=TOL)
            assert fleet[trajectory.trajectory_id] == pytest.approx(offline_score, abs=TOL, rel=TOL)

    def test_road_constrained_flag_off_with_network(self, benchmark_data):
        """road_constrained=False must ignore an attached transition mask."""
        config = CausalTADConfig(
            num_segments=benchmark_data.num_segments,
            embedding_dim=16,
            hidden_dim=16,
            latent_dim=8,
            road_constrained=False,
        )
        model = CausalTAD(config, network=benchmark_data.city.network, rng=RandomState(9))
        model.eval()
        trajectories = benchmark_data.id_test.trajectories[:6]
        detector = OnlineDetector(model)
        fleet = fleet_final_scores(model, trajectories)
        for trajectory in trajectories:
            assert fleet[trajectory.trajectory_id] == pytest.approx(
                model.score_trajectory(trajectory), abs=TOL, rel=TOL
            )
            assert fleet[trajectory.trajectory_id] == pytest.approx(
                detector.final_score(trajectory), abs=TOL, rel=TOL
            )


class TestLambdaOverrideParity:
    def test_custom_lambda_agrees(self, trained_causal_tad, benchmark_data):
        trajectories = benchmark_data.id_test.trajectories[:5]
        lam = 0.3
        detector = OnlineDetector(trained_causal_tad, lambda_weight=lam)
        fleet = fleet_final_scores(trained_causal_tad, trajectories, lambda_weight=lam)
        for trajectory in trajectories:
            assert fleet[trajectory.trajectory_id] == pytest.approx(
                detector.final_score(trajectory), abs=TOL, rel=TOL
            )
            assert fleet[trajectory.trajectory_id] == pytest.approx(
                trained_causal_tad.score_trajectory(trajectory, lambda_weight=lam), abs=TOL, rel=TOL
            )


class TestKLWeightParity:
    def test_kl_weight_is_not_part_of_the_score(self, benchmark_data):
        config = CausalTADConfig.tiny(benchmark_data.num_segments)
        config = dataclasses.replace(config, kl_weight=0.5)
        model = CausalTAD(config, network=benchmark_data.city.network, rng=RandomState(11))
        model.eval()
        trajectories = benchmark_data.id_test.trajectories[:6]
        detector = OnlineDetector(model)
        fleet = fleet_final_scores(model, trajectories)
        for trajectory in trajectories:
            offline_score = model.score_trajectory(trajectory)
            assert fleet[trajectory.trajectory_id] == pytest.approx(offline_score, abs=TOL, rel=TOL)
            assert detector.final_score(trajectory) == pytest.approx(
                offline_score, abs=TOL, rel=TOL
            )
