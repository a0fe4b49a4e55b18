"""Property test: the fleet engine under random, hostile event interleavings.

Hypothesis draws fleets of rides and turns them into per-tick event streams
with everything a live feed can do wrong: observations that arrive before
their ride's start, duplicate starts, observations and ends, events for
unknown rides, events shuffled within a tick, off-graph jumps, gaps long
enough for TTL eviction and a capacity smaller than one tick's starts.
Whatever the interleaving:

* a ride that ended by :class:`RideEnd` scores exactly as offline
  :meth:`CausalTAD.score_trajectory` over the segments it was sent after its
  start (1e-12 relative);
* every started ride is finished, evicted or still active;
* the store never holds more rides than its capacity, nor a ride idle for
  longer than its TTL;
* an evicted ride was never more recently active than a ride that stayed,
  and was either idle beyond the TTL or pushed out by a full store.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CausalTAD, CausalTADConfig
from repro.core.scoring_kernel import can_advance
from repro.serving import (
    FleetEngine,
    RideEnd,
    RideStart,
    SegmentObserved,
    ThresholdAlertPolicy,
)
from repro.trajectory.types import MapMatchedTrajectory, SDPair
from repro.utils import RandomState

SETTINGS = dict(max_examples=100, deadline=None)
MAX_SEGMENTS = 7


@pytest.fixture(scope="module")
def model(benchmark_data):
    model = CausalTAD(
        CausalTADConfig.tiny(benchmark_data.num_segments),
        network=benchmark_data.city.network,
        rng=RandomState(7),
    )
    model.eval()
    # Every accepted observation is then scored: no ride can strand on a dead end.
    assert can_advance(model, np.arange(benchmark_data.num_segments)).all()
    return model


@pytest.fixture(scope="module")
def pool(benchmark_data):
    return [list(t.segments[:MAX_SEGMENTS]) for t in benchmark_data.train.trajectories]


def ride_plans(num_segments: int, pool_size: int):
    return st.fixed_dictionaries({
        "trajectory": st.integers(0, pool_size - 1),
        "length": st.integers(2, MAX_SEGMENTS),
        "start": st.integers(0, 5),
        # Ticks between consecutive observations: 0 queues a backlog, long
        # gaps let the TTL expire mid-ride.
        "gaps": st.lists(st.sampled_from([0, 0, 1, 1, 2, 5]),
                         min_size=MAX_SEGMENTS, max_size=MAX_SEGMENTS),
        "ends": st.booleans(),
        "jump": st.none() | st.tuples(st.integers(1, MAX_SEGMENTS - 2),
                                      st.integers(0, num_segments - 1)),
        "repeat": st.none() | st.integers(1, MAX_SEGMENTS - 2),
        "early": st.booleans(),
        "duplicate_start": st.booleans(),
        "duplicate_end": st.booleans(),
    })


def build_stream(plans, pool, ghosts, shuffle) -> List[list]:
    """Per-tick event lists for the drawn ride plans."""
    ticks: Dict[int, list] = {}

    def put(tick, event):
        ticks.setdefault(tick, []).append(event)

    for index, plan in enumerate(plans):
        ride_id = f"r{index}"
        segments = list(pool[plan["trajectory"]][: plan["length"]])
        if plan["jump"] is not None and plan["jump"][0] < len(segments) - 1:
            segments[plan["jump"][0]] = plan["jump"][1]  # off-graph jump
        observed = segments[1:]
        if plan["repeat"] is not None and plan["repeat"] < len(segments) - 1:
            observed.insert(plan["repeat"], segments[plan["repeat"]])  # duplicate observation
        start = RideStart(ride_id, SDPair(segments[0], segments[-1]), segments[0])
        if plan["early"] and plan["start"] > 0:
            put(plan["start"] - 1, SegmentObserved(ride_id, observed[0]))  # before the start
        put(plan["start"], start)
        if plan["duplicate_start"]:
            put(plan["start"], start)
        tick = plan["start"]
        for position, (gap, segment) in enumerate(zip(plan["gaps"], observed)):
            if position == len(observed) - 1:
                # The last observation gets a tick of its own after the start:
                # no shuffle moves it, so a ride that ends has reached the
                # destination of its SD pair, as offline scoring assumes.
                gap = max(gap, 1)
            tick += gap
            put(tick, SegmentObserved(ride_id, segment))
        if plan["ends"]:
            put(tick, RideEnd(ride_id))
            if plan["duplicate_end"]:
                put(tick + 1, RideEnd(ride_id))
    for tick, is_end in ghosts:
        put(tick, RideEnd(f"ghost{tick}") if is_end else SegmentObserved(f"ghost{tick}", 0))
    stream = []
    for tick in range(max(ticks) + 1):
        events = ticks.get(tick, [])
        shuffle.shuffle(events)
        stream.append(events)
    return stream


@st.composite
def scenarios(draw, num_segments: int, pool_size: int):
    return {
        "capacity": draw(st.sampled_from([None, 1, 2, 3, 5])),
        "ttl": draw(st.sampled_from([None, 1, 2, 4])),
        "threshold": draw(st.sampled_from([None, -1e9, 4.0])),
        "plans": draw(st.lists(ride_plans(num_segments, pool_size), min_size=1, max_size=8)),
        "ghosts": draw(st.lists(st.tuples(st.integers(0, 8), st.booleans()), max_size=4)),
        "shuffle": draw(st.randoms(use_true_random=False)),
    }


def test_fleet_engine_invariants_under_hostile_streams(model, pool, benchmark_data):
    @settings(**SETTINGS)
    @given(scenarios(benchmark_data.num_segments, len(pool)))
    def check(scenario):
        capacity, ttl = scenario["capacity"], scenario["ttl"]
        policy = None if scenario["threshold"] is None else ThresholdAlertPolicy(scenario["threshold"])
        engine = FleetEngine(
            model, capacity=capacity, ttl_ticks=ttl, alert_policy=policy
        )
        stream = build_stream(scenario["plans"], pool, scenario["ghosts"], scenario["shuffle"])
        # Enough idle ticks at the end to drain every queued observation.
        stream += [[] for _ in range(sum(len(events) for events in stream) + 2)]

        sent: Dict[str, List[int]] = {}  # segments each ride was sent after its start
        # Last tick each ride started or scored a segment, seen from outside.
        last_active: Dict[str, int] = {}
        for tick, events in enumerate(stream):
            lengths = {s.ride_id: s.observed_length for s in engine.store.states()}
            before = {ride_id: last_active[ride_id] for ride_id in lengths}
            for event in events:
                try:
                    engine.submit(event)
                except ValueError:
                    assert isinstance(event, RideStart) and event.ride_id in sent
                    continue
                if isinstance(event, RideStart):
                    sent[event.ride_id] = [event.start_segment]
                elif isinstance(event, SegmentObserved) and event.ride_id in sent:
                    sent[event.ride_id].append(event.segment_id)
            report = engine.tick()
            assert report.tick == tick
            for state in engine.store.states():
                if lengths.get(state.ride_id) != state.observed_length:
                    last_active[state.ride_id] = tick
                # An unbounded store without TTL does not track activity.
                if engine.store.evicts:
                    assert state.last_active_tick == last_active[state.ride_id]

            assert capacity is None or engine.active_rides <= capacity
            assert ttl is None or all(
                tick - last_active[ride_id] <= ttl for ride_id in engine.store.active_ids()
            )
            victims = [r.ride_id for r in engine.finished.values()
                       if r.evicted and r.finished_tick == tick]
            survivors = [ride_id for ride_id in before if ride_id in engine.store]
            crowded = capacity is not None and len(before) + report.rides_started > capacity
            for victim in victims:
                if victim in before:
                    assert all(before[victim] <= before[ride] for ride in survivors)
                    assert crowded or tick - before[victim] > ttl
                else:  # a ride evicted in its start tick: every older ride went first
                    assert not survivors

        telemetry = engine.telemetry
        assert telemetry.rides_started == len(sent)
        assert telemetry.rides_started == (
            telemetry.rides_finished + telemetry.rides_evicted + engine.active_rides
        )
        assert len({alert.ride_id for alert in engine.alerts}) == len(engine.alerts)
        for record in engine.finished.values():
            if record.evicted:
                continue
            segments = sent[record.ride_id]
            assert record.observed_length == len(segments)
            expected = model.score_trajectory(MapMatchedTrajectory(record.ride_id, tuple(segments)))
            assert record.final_score == pytest.approx(expected, rel=1e-12, abs=1e-12)

    check()
