"""``repro.serving`` — fleet-scale streaming serving of online anomaly scores.

The paper's O(1)-per-segment online scoring (§V-D), served at fleet scale:
:class:`FleetEngine` manages the lifecycle of thousands of concurrent ride
sessions and executes their segment updates as **vectorized micro-batches** —
one batched embedding lookup + GRU step + (masked) log-softmax per tick for
all pending rides — through the same
:mod:`~repro.core.scoring_kernel` the per-ride
:class:`~repro.core.OnlineSession` uses, so fleet scores match the per-ride
and offline paths exactly.  The rides' state lives in slot-indexed arrays,
so the bookkeeping around each kernel call is array work as well.

Modules:

* :mod:`~repro.serving.events` — ride lifecycle events and a replay driver
  turning recorded datasets into live event streams;
* :mod:`~repro.serving.engine` — the micro-batched :class:`FleetEngine`;
* :mod:`~repro.serving.store` — the slot-array session store with
  capacity/TTL eviction, and :class:`RideState` snapshots of one ride;
* :mod:`~repro.serving.alerts` — threshold alerts and their calibration;
* :mod:`~repro.serving.telemetry` — throughput counters and p50/p95 tick
  latency.
"""

from repro.serving.alerts import Alert, ThresholdAlertPolicy, calibrate_threshold
from repro.serving.engine import FleetEngine, FleetRunSummary, FinishedRide, TickReport
from repro.serving.events import (
    FleetEvent,
    RideEnd,
    RideStart,
    SegmentObserved,
    replay_trajectories,
)
from repro.serving.store import RideState, SessionStore
from repro.serving.telemetry import FleetTelemetry

__all__ = [
    "Alert",
    "ThresholdAlertPolicy",
    "calibrate_threshold",
    "FleetEngine",
    "FleetRunSummary",
    "FinishedRide",
    "TickReport",
    "FleetEvent",
    "RideStart",
    "SegmentObserved",
    "RideEnd",
    "replay_trajectories",
    "RideState",
    "SessionStore",
    "FleetTelemetry",
]
