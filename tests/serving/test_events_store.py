"""Tests for the event replay driver and the session store."""

from __future__ import annotations

import dataclasses
from collections import deque

import numpy as np
import pytest

from repro.serving import (
    RideEnd,
    RideStart,
    RideState,
    SegmentObserved,
    SessionStore,
    replay_trajectories,
)
from repro.trajectory.types import SDPair


def open_rides(store: SessionStore, ride_ids, tick: int = 0, queues=None) -> np.ndarray:
    """Open sessions with fixed score parts 1.0 / 0.0 / 0.5 on segment 0."""
    count = len(ride_ids)
    return store.open(
        list(ride_ids),
        [SDPair(0, 1)] * count,
        np.zeros(count, dtype=np.int64),
        np.zeros((count, 4)),
        np.ones(count),
        np.full(count, 0.5),
        tick,
        queues,
    )


class TestReplayDriver:
    def test_replays_every_segment_in_order(self, benchmark_data):
        trajectories = benchmark_data.id_test.trajectories[:5]
        observed = {t.trajectory_id: [] for t in trajectories}
        started, ended = set(), set()
        for events in replay_trajectories(trajectories):
            for event in events:
                if isinstance(event, RideStart):
                    assert event.ride_id not in started
                    started.add(event.ride_id)
                    observed[event.ride_id].append(event.start_segment)
                elif isinstance(event, SegmentObserved):
                    assert event.ride_id in started and event.ride_id not in ended
                    observed[event.ride_id].append(event.segment_id)
                elif isinstance(event, RideEnd):
                    ended.add(event.ride_id)
        assert started == ended == set(observed)
        for trajectory in trajectories:
            assert observed[trajectory.trajectory_id] == list(trajectory.segments)

    def test_all_rides_start_first_tick_by_default(self, benchmark_data):
        trajectories = benchmark_data.id_test.trajectories[:5]
        first_tick = next(iter(replay_trajectories(trajectories)))
        assert sum(isinstance(e, RideStart) for e in first_tick) == len(trajectories)

    def test_staggered_ramp_up(self, benchmark_data):
        trajectories = benchmark_data.id_test.trajectories[:5]
        ticks = list(replay_trajectories(trajectories, starts_per_tick=2))
        starts_per_tick = [sum(isinstance(e, RideStart) for e in batch) for batch in ticks]
        assert starts_per_tick[:3] == [2, 2, 1]
        assert sum(starts_per_tick) == len(trajectories)

    def test_accepts_dataset_objects(self, benchmark_data):
        subset = benchmark_data.id_test.subset(range(3))
        ticks = list(replay_trajectories(subset))
        ride_ids = {e.ride_id for batch in ticks for e in batch if isinstance(e, RideStart)}
        assert ride_ids == {t.trajectory_id for t in subset.trajectories}

    def test_rejects_bad_stagger(self):
        with pytest.raises(ValueError):
            list(replay_trajectories([], starts_per_tick=0))

    def test_one_observation_per_ride_per_tick(self, benchmark_data):
        trajectories = benchmark_data.id_test.trajectories[:4]
        for events in replay_trajectories(trajectories):
            per_ride = {}
            for event in events:
                if isinstance(event, SegmentObserved):
                    per_ride[event.ride_id] = per_ride.get(event.ride_id, 0) + 1
            assert all(count == 1 for count in per_ride.values())


class TestRideState:
    def test_score_composition(self):
        state = RideState(
            ride_id="r",
            sd_pair=SDPair(0, 1),
            last_segment=0,
            observed_length=1,
            hidden=np.zeros(4),
            fixed_score=1.0,
            likelihood_sum=2.0,
            scaling_sum=0.5,
            started_tick=0,
            last_active_tick=0,
        )
        lam = 0.1
        assert state.score(lam) == pytest.approx(1.0 + 2.0 - lam * 0.5)
        assert state.per_segment_score(lam) == pytest.approx(state.score(lam) / 1)
        assert state.observed_length == 1

    def test_snapshot_is_a_frozen_copy(self):
        store = SessionStore()
        (slot,) = open_rides(store, ["r"], tick=3, queues=[deque([5, 6])])
        state = store.get("r")
        assert (state.last_segment, state.observed_length) == (0, 1)
        assert (state.started_tick, state.last_active_tick) == (3, 3)
        assert state.pending == (5, 6) and not state.alerted
        assert state.score(0.1) == pytest.approx(1.0 - 0.1 * 0.5)
        assert store.scores(np.array([slot]), 0.1)[0] == state.score(0.1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.observed_length = 2
        state.hidden[:] = 7.0
        assert not store.hidden[slot].any()


class TestSessionStore:
    def test_add_get_pop(self):
        store = SessionStore()
        slots = open_rides(store, ["a"])
        assert "a" in store and len(store) == 1
        assert store.get("a").ride_id == "a"
        assert store.slot_of("a") == slots[0]
        store.release(slots)
        assert "a" not in store and store.get("a") is None and store.slot_of("a") is None
        assert len(store) == 0
        assert store.active_ids() == []

    def test_duplicate_rejected(self):
        store = SessionStore()
        open_rides(store, ["a"])
        with pytest.raises(ValueError):
            open_rides(store, ["b", "a"])
        with pytest.raises(ValueError):
            open_rides(store, ["c", "c"])
        # A rejected batch changes nothing.
        assert store.active_ids() == ["a"]

    def test_capacity_evicts_least_recently_active(self):
        store = SessionStore(capacity=2)
        open_rides(store, ["a"], tick=0)
        open_rides(store, ["b"], tick=1)
        store.touch(np.array([store.slot_of("a")]), 5)  # 'b' becomes LRU
        assert store.over_capacity().size == 0
        open_rides(store, ["c"], tick=6)
        evicted = store.over_capacity()
        assert store.ride_ids(evicted) == ["b"]
        store.release(evicted)
        assert store.active_ids() == ["a", "c"]

    def test_capacity_smaller_than_one_batch_evicts_its_earliest_rides(self):
        store = SessionStore(capacity=2)
        open_rides(store, ["a"], tick=0)
        open_rides(store, ["b", "c", "d"], tick=1)
        evicted = store.over_capacity()
        assert store.ride_ids(evicted) == ["a", "b"]
        store.release(evicted)
        assert store.active_ids() == ["c", "d"]

    def test_ttl_eviction(self):
        store = SessionStore(ttl_ticks=3)
        open_rides(store, ["old", "fresh"], tick=0)
        assert store.expired(3).size == 0  # idle for exactly the TTL: kept
        store.touch(np.array([store.slot_of("fresh")]), 10)
        expired = store.expired(10)
        assert store.ride_ids(expired) == ["old"]
        store.release(expired)
        assert store.active_ids() == ["fresh"]

    def test_no_ttl_means_no_expiry(self):
        store = SessionStore()
        open_rides(store, ["a"], tick=0)
        assert store.expired(10**6).size == 0

    def test_observations_queue_in_order_one_per_take(self):
        store = SessionStore()
        open_rides(store, ["a", "b"], queues=[deque([3]), None])
        assert store.push("b", 7) and store.push("b", 8) and store.push("a", 4)
        assert not store.push("ghost", 1)
        slots, segments = store.take_next()
        assert store.ride_ids(slots) == ["a", "b"] and segments.tolist() == [3, 7]
        assert store.get("a").pending == (4,) and store.get("b").pending == (8,)
        store.release(slots[:1])
        slots, segments = store.take_next()
        assert store.ride_ids(slots) == ["b"] and segments.tolist() == [8]
        assert not store.any_queued()
        assert store.take_next()[0].size == 0

    def test_slots_are_reused_and_arrays_grow(self):
        store = SessionStore()
        first = open_rides(store, ["a", "b"])
        store.release(first[:1])
        (reused,) = open_rides(store, ["c"])
        assert reused == first[0]
        many = open_rides(store, [f"r{i}" for i in range(10)], tick=2)
        assert len(store) == 12 and len(set(many.tolist()) | {reused, first[1]}) == 12
        assert store.hidden.shape[0] >= 12
        assert store.get("b").observed_length == 1
        assert store.active_ids() == ["b", "c"] + [f"r{i}" for i in range(10)]
