"""Lifecycle, alerting, eviction and telemetry behaviour of the FleetEngine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CausalTAD, CausalTADConfig, OnlineDetector
from repro.roadnet import RoadNetwork
from repro.serving import (
    FleetEngine,
    RideEnd,
    RideStart,
    SegmentObserved,
    SessionStore,
    ThresholdAlertPolicy,
    replay_trajectories,
)
from repro.trajectory.types import MapMatchedTrajectory, SDPair
from repro.utils import RandomState


@pytest.fixture(scope="module")
def model(benchmark_data):
    model = CausalTAD(
        CausalTADConfig.tiny(benchmark_data.num_segments),
        network=benchmark_data.city.network,
        rng=RandomState(5),
    )
    model.eval()
    return model


@pytest.fixture()
def trajectories(benchmark_data):
    return benchmark_data.id_test.trajectories[:8]


def _spur_model() -> CausalTAD:
    """A model on a four-node line whose segment 4 is a one-way dead-end spur."""
    net = RoadNetwork(name="dead-end")
    for node, (x, y) in enumerate([(0, 0), (100, 0), (200, 0), (200, 100)]):
        net.add_intersection(node, x, y)
    net.add_bidirectional_road(0, 1)  # segments 0: 0->1, 1: 1->0
    net.add_bidirectional_road(1, 2)  # segments 2: 1->2, 3: 2->1
    net.add_segment(2, 3)  # segment 4: one-way spur into dead-end node 3
    return CausalTAD(CausalTADConfig.tiny(net.num_segments), network=net, rng=RandomState(0))


class TestLifecycle:
    def test_run_finishes_every_ride(self, model, trajectories):
        engine = FleetEngine(model)
        summary = engine.run(replay_trajectories(trajectories))
        assert set(summary.finished) == {t.trajectory_id for t in trajectories}
        assert engine.active_rides == 0
        for trajectory in trajectories:
            record = summary.finished[trajectory.trajectory_id]
            assert record.observed_length == len(trajectory)
            assert not record.evicted
            assert np.isfinite(record.final_score)

    def test_staggered_starts(self, model, trajectories):
        engine = FleetEngine(model)
        summary = engine.run(replay_trajectories(trajectories, starts_per_tick=2))
        assert len(summary.finished) == len(trajectories)
        assert summary.telemetry["rides_started"] == len(trajectories)

    def test_events_take_effect_on_tick(self, model, trajectories):
        trajectory = trajectories[0]
        engine = FleetEngine(model)
        engine.submit(RideStart("r1", trajectory.sd_pair, trajectory.segments[0]))
        assert engine.active_rides == 0  # queued, not yet ticked in
        engine.tick()
        assert engine.active_rides == 1
        assert engine.score("r1") is not None

    def test_one_observation_per_ride_per_tick(self, model, trajectories):
        """Multiple queued observations drain one per tick, order preserved."""
        trajectory = trajectories[0]
        engine = FleetEngine(model)
        engine.submit(RideStart("r1", trajectory.sd_pair, trajectory.segments[0]))
        for segment in trajectory.segments[1:]:
            engine.submit(SegmentObserved("r1", segment))
        report = engine.tick()
        assert report.rides_started == 1
        assert report.segments_processed == 1
        ticks = 1
        while engine.store.get("r1").pending:
            engine.tick()
            ticks += 1
        # First tick handles the start plus one observation, every later tick
        # exactly one observation: len-1 ticks for len-1 queued segments.
        assert ticks == len(trajectory) - 1
        state = engine.store.get("r1")
        assert state.observed_length == len(trajectory)
        assert state.last_segment == trajectory.segments[-1]
        assert engine.score("r1") == pytest.approx(
            model.score_trajectory(trajectory), rel=1e-12, abs=1e-12
        )

    def test_second_run_summary_is_run_scoped(self, model, trajectories):
        """Reusing one engine across runs must not leak earlier runs' rides."""
        first, second = trajectories[:3], trajectories[3:6]
        engine = FleetEngine(model)
        summary_a = engine.run(replay_trajectories(first))
        summary_b = engine.run(replay_trajectories(second))
        assert set(summary_a.finished) == {t.trajectory_id for t in first}
        assert set(summary_b.finished) == {t.trajectory_id for t in second}
        assert summary_b.ticks < summary_a.ticks + summary_b.ticks
        # Lifetime telemetry still covers both runs.
        assert engine.telemetry.rides_finished == len(first) + len(second)

    def test_telemetry_latency_window_bounds_memory(self, model, trajectories):
        engine = FleetEngine(model)
        engine.telemetry.latency_window = 4
        for _ in range(20):
            engine.tick()
        window = engine.telemetry.registry.get("fleet/tick_seconds").values()
        assert len(window) == 4
        assert engine.telemetry.ticks == 20
        assert engine.telemetry.p95_tick_seconds >= 0

    def test_duplicate_active_ride_rejected(self, model, trajectories):
        trajectory = trajectories[0]
        engine = FleetEngine(model)
        engine.submit(RideStart("r1", trajectory.sd_pair))
        with pytest.raises(ValueError):
            engine.submit(RideStart("r1", trajectory.sd_pair))

    def test_invalid_segment_rejected(self, model, trajectories):
        engine = FleetEngine(model)
        engine.submit(RideStart("r1", trajectories[0].sd_pair))
        engine.tick()
        with pytest.raises(ValueError):
            engine.submit(SegmentObserved("r1", 10**6))
        with pytest.raises(ValueError):
            engine.submit(RideStart("r2", SDPair(0, 10**6)))

    def test_non_integer_segment_ids_rejected_before_any_state_change(self, model, trajectories):
        """A float id raises in submit() and leaves the engine as it was."""
        trajectory = trajectories[0]
        first, second = trajectory.segments[0], trajectory.segments[1]
        engine = FleetEngine(model)
        engine.submit(RideStart("a", trajectory.sd_pair, first))
        engine.tick()
        for bad in (second + 0.7, float(second)):
            with pytest.raises(TypeError):
                engine.submit(SegmentObserved("a", bad))
        source, destination = trajectory.sd_pair.source, trajectory.sd_pair.destination
        for bad_start in (
            RideStart("b", SDPair(source + 0.5, destination)),
            RideStart("b", SDPair(source, float(destination))),
            RideStart("b", trajectory.sd_pair, first + 0.5),
        ):
            with pytest.raises(TypeError):
                engine.submit(bad_start)
        assert engine.store.get("a").pending == ()
        assert engine.telemetry.events_dropped == 0
        report = engine.tick()
        assert (report.rides_started, report.segments_processed) == (0, 0)
        assert engine.active_rides == 1 and engine.score("b") is None
        # The rejected ride id is still free, and numpy integer ids are fine.
        engine.submit(RideStart("b", trajectory.sd_pair, np.int64(first)))
        engine.submit(SegmentObserved("b", np.int64(second)))
        engine.submit(SegmentObserved("a", second))
        engine.tick()
        assert engine.score("b") == engine.score("a")
        assert engine.store.get("b").last_segment == second

    def test_unknown_ride_events_dropped_not_fatal(self, model):
        engine = FleetEngine(model)
        engine.submit(SegmentObserved("ghost", 0))
        engine.submit(RideEnd("ghost"))
        engine.tick()
        assert engine.telemetry.events_dropped == 2

    def test_dead_end_ride_does_not_stall_co_batched_rides(self, caplog):
        """A ride on a segment with no successor loses only its own observation."""
        model = _spur_model()
        engine = FleetEngine(model)
        engine.submit(RideStart("healthy", SDPair(0, 3), 0))
        engine.submit(RideStart("stuck", SDPair(2, 4), 4))
        engine.tick()
        engine.submit(SegmentObserved("healthy", 2))
        engine.submit(SegmentObserved("stuck", 3))
        with caplog.at_level("WARNING", logger="repro.serving.engine"):
            report = engine.tick()

        assert report.segments_processed == 1
        assert engine.telemetry.events_dropped == 1
        assert any("'stuck'" in record.getMessage() for record in caplog.records)
        healthy = engine.store.get("healthy")
        assert healthy.observed_length == 2 and healthy.last_segment == 2
        assert not healthy.pending
        stuck = engine.store.get("stuck")
        assert stuck.observed_length == 1 and stuck.last_segment == 4
        assert not stuck.pending
        session = OnlineDetector(model).start_session(SDPair(0, 3), 0)
        assert engine.score("healthy") == pytest.approx(
            session.update(2).cumulative_score, rel=1e-12, abs=1e-12
        )
        # Once it reaches its destination, the healthy ride scores as offline.
        engine.submit(SegmentObserved("healthy", 3))
        engine.tick()
        assert engine.score("healthy") == pytest.approx(
            model.score_trajectory(MapMatchedTrajectory("healthy", (0, 2, 3))),
            rel=1e-12, abs=1e-12,
        )

    def test_dead_end_session_update_names_the_segment(self):
        """``OnlineSession.update`` off a dead end raises, naming it, and changes nothing."""
        session = OnlineDetector(_spur_model()).start_session(SDPair(2, 4), 4)
        score, segments = session.current_score, list(session.segments)
        with pytest.raises(ValueError, match=r"\bsegment 4\b.*no successor"):
            session.update(3)
        assert session.current_score == score
        assert session.segments == segments
        assert session.updates == []

    def test_end_defers_until_observations_drain(self, model, trajectories):
        trajectory = trajectories[0]
        engine = FleetEngine(model)
        engine.submit(RideStart("r1", trajectory.sd_pair, trajectory.segments[0]))
        for segment in trajectory.segments[1:3]:
            engine.submit(SegmentObserved("r1", segment))
        engine.submit(RideEnd("r1"))
        engine.tick()
        assert engine.active_rides == 1  # one observation still queued
        engine.tick()
        assert engine.active_rides == 0
        assert engine.finished["r1"].observed_length == 3


class TestEviction:
    def test_capacity_evicts_lru(self, model, trajectories):
        engine = FleetEngine(model, capacity=4)
        summary = engine.run(replay_trajectories(trajectories, starts_per_tick=1))
        assert len(summary.finished) == len(trajectories)
        assert engine.telemetry.rides_evicted > 0
        evicted = [r for r in summary.finished.values() if r.evicted]
        finished = [r for r in summary.finished.values() if not r.evicted]
        assert evicted and finished
        assert engine.active_rides <= 4

    def test_ttl_evicts_idle_sessions(self, model, trajectories):
        trajectory = trajectories[0]
        engine = FleetEngine(model, ttl_ticks=2)
        engine.submit(RideStart("idle", trajectory.sd_pair, trajectory.segments[0]))
        engine.tick()
        for _ in range(4):
            engine.tick()
        assert engine.active_rides == 0
        assert engine.finished["idle"].evicted
        assert engine.telemetry.rides_evicted == 1

    def test_store_validates_arguments(self):
        with pytest.raises(ValueError):
            SessionStore(capacity=0)
        with pytest.raises(ValueError):
            SessionStore(ttl_ticks=0)

    def test_finished_retention_is_bounded(self, model, trajectories):
        """A long-running engine must not accumulate records forever."""
        engine = FleetEngine(model, retention=3)
        engine.run(replay_trajectories(trajectories))
        assert len(engine.finished) == 3
        # The most recently finished rides are the ones kept.
        assert set(engine.finished) <= {t.trajectory_id for t in trajectories}
        with pytest.raises(ValueError):
            FleetEngine(model, retention=0)

    def test_invalid_sd_pair_rejected_in_session_start(self, model):
        """Negative SD ids must raise, not silently wrap in the embedding."""
        from repro.core import OnlineDetector

        detector = OnlineDetector(model)
        with pytest.raises(ValueError):
            detector.start_session(SDPair(-5, 3))


class TestAlerting:
    def test_threshold_alert_fires_once(self, model, trajectories):
        trajectory = trajectories[0]
        # Threshold below any realistic rate: the ride must alert exactly once.
        engine = FleetEngine(model, alert_policy=ThresholdAlertPolicy(-1e9))
        summary = engine.run(replay_trajectories([trajectory]))
        assert len(summary.alerts) == 1
        alert = summary.alerts[0]
        assert alert.ride_id == trajectory.trajectory_id
        assert alert.observed_length >= 2
        assert engine.telemetry.alerts_raised == 1

    def test_unreachable_threshold_never_fires(self, model, trajectories):
        engine = FleetEngine(model, alert_policy=ThresholdAlertPolicy(1e9))
        summary = engine.run(replay_trajectories(trajectories))
        assert summary.alerts == []

    def test_top_k_ranks_by_per_segment_score(self, model, trajectories):
        engine = FleetEngine(model)
        engine.ingest(
            RideStart(t.trajectory_id, t.sd_pair, t.segments[0]) for t in trajectories
        )
        engine.tick()
        engine.ingest(
            SegmentObserved(t.trajectory_id, t.segments[1]) for t in trajectories
        )
        engine.tick()
        top = engine.top_k(3)
        assert len(top) == 3
        rates = [rate for _, rate in top]
        assert rates == sorted(rates, reverse=True)
        all_rates = dict(engine.top_k(len(trajectories)))
        assert max(all_rates.values()) == pytest.approx(rates[0])

    def test_top_k_rejects_nonpositive_k(self, model):
        engine = FleetEngine(model)
        with pytest.raises(ValueError):
            engine.top_k(0)


class TestTelemetry:
    def test_counters_consistent_after_run(self, model, trajectories):
        engine = FleetEngine(model)
        summary = engine.run(replay_trajectories(trajectories))
        snap = summary.telemetry
        total_segments = sum(len(t) - 1 for t in trajectories)
        assert snap["segments_processed"] == total_segments
        assert snap["rides_started"] == len(trajectories)
        assert snap["rides_finished"] == len(trajectories)
        assert snap["ticks"] == summary.ticks
        assert snap["segments_per_second"] > 0
        assert snap["p95_tick_seconds"] >= snap["p50_tick_seconds"] >= 0
        assert "segments/s" in engine.telemetry.format_summary()
