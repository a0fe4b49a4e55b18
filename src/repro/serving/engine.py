"""The fleet-scale streaming serving engine.

:class:`FleetEngine` serves the paper's O(1)-per-segment online scoring to a
whole fleet at once.  Where :class:`~repro.core.OnlineSession` advances one
ride at a time (a Python-level GRU step per ride per segment), the engine
buffers incoming :class:`~repro.serving.events.SegmentObserved` events and
executes them in **vectorized micro-batches**: each :meth:`tick` performs

* one batched SD encoding for every ride that started since the last tick
  (:func:`~repro.core.scoring_kernel.init_session_states`), and
* one batched embedding lookup + one batched GRU-cell step + one batched
  log-softmax for every ride with a pending observation
  (:func:`~repro.core.scoring_kernel.advance_sessions`).  With a road network
  attached the softmax normalises over each ride's CSR successor set
  (:meth:`CompiledRoadGraph.successor_tables
  <repro.roadnet.csr.CompiledRoadGraph.successor_tables>`) — O(out-degree)
  gathered columns per ride instead of masking the full segment vocabulary,

so the per-segment cost is a handful of matrix ops for *all* pending rides
instead of N scalar passes.  Scores are identical to the per-ride path — both
run the same shared scoring kernel.

The rides' state lives in the slot-indexed arrays of
:class:`~repro.serving.store.SessionStore`, so the bookkeeping around the
kernel is array work too: the tick gathers the hidden states of the rides it
advances, runs the kernel and scatters the results back; score sums, alerts,
LRU/TTL eviction and ranking are array expressions over the same slots.
:class:`~repro.serving.telemetry.FleetTelemetry` tracks throughput and tick
latency, :mod:`repro.serving.alerts` decides which rides alert, and each tick
phase runs inside a ``serving/<phase>`` :mod:`repro.obs` span.
"""

from __future__ import annotations

import operator
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.causal_tad import CausalTAD
from repro.core.scoring_kernel import advance_sessions, can_advance, init_session_states
from repro.obs.registry import MetricsRegistry
from repro.serving.alerts import Alert, ThresholdAlertPolicy
from repro.serving.events import FleetEvent, RideEnd, RideStart, SegmentObserved
from repro.serving.store import SessionStore
from repro.serving.telemetry import FleetTelemetry
from repro.utils.logging import get_logger

__all__ = ["FleetEngine", "TickReport", "FinishedRide", "FleetRunSummary"]

logger = get_logger("serving.engine")


@dataclass(frozen=True)
class FinishedRide:
    """Final record of a completed (or evicted) ride.

    Attributes
    ----------
    ride_id:
        The ride's unique identifier (as submitted in :class:`RideStart`).
    final_score:
        Cumulative debiased anomaly score (Eq. 10) over the observed prefix;
        higher = more anomalous.
    per_segment_score:
        ``final_score`` normalised by the number of scored transitions —
        comparable across rides of different lengths.
    observed_length:
        Number of segments observed, including the start segment.
    started_tick / finished_tick:
        Engine ticks bracketing the session's lifetime.
    evicted:
        True when the session ended by capacity/TTL eviction rather than a
        :class:`RideEnd` event.
    """

    ride_id: str
    final_score: float
    per_segment_score: float
    observed_length: int
    started_tick: int
    finished_tick: int
    evicted: bool = False


@dataclass
class TickReport:
    """What one :meth:`FleetEngine.tick` did.

    Attributes
    ----------
    tick:
        The tick index the report covers.
    rides_started / rides_finished / rides_evicted:
        Session lifecycle counts within this tick.
    segments_processed:
        Number of observations consumed by the batched kernel step (at most
        one per active ride per tick).
    alerts:
        Alerts raised by the configured policy during this tick.
    seconds:
        Wall-clock duration of the tick.
    """

    tick: int
    rides_started: int = 0
    segments_processed: int = 0
    rides_finished: int = 0
    rides_evicted: int = 0
    alerts: List[Alert] = field(default_factory=list)
    seconds: float = 0.0


@dataclass
class FleetRunSummary:
    """Aggregate result of one :meth:`FleetEngine.run` over an event stream.

    ``ticks``, ``finished`` and ``alerts`` cover only that run (the engine can
    be reused across runs and live ingest/tick phases); ``telemetry`` is the
    engine-lifetime snapshot.
    """

    ticks: int
    finished: Dict[str, FinishedRide]
    alerts: List[Alert]
    telemetry: Dict[str, float]


class FleetEngine:
    """Vectorized micro-batched serving of online anomaly scores.

    Parameters
    ----------
    model:
        A (trained) :class:`CausalTAD` model; put into eval mode and its
        per-segment scaling factors precomputed once, as in
        :class:`~repro.core.OnlineDetector`.
    lambda_weight:
        Overrides the configured λ of the debiased score.
    capacity:
        Maximum concurrent sessions; the least-recently-active session is
        evicted when a new ride would exceed it.  ``None`` = unbounded.
    ttl_ticks:
        Sessions idle longer than this many ticks are evicted. ``None`` =
        never.
    alert_policy:
        Optional :class:`ThresholdAlertPolicy` checked after every update.
    retention:
        How many finished-ride records and alerts to keep (FIFO beyond
        that), so a long-running engine's memory stays flat no matter how
        many rides it has ever served.
    metrics_registry:
        Where :class:`FleetTelemetry` registers its instruments.  ``None``
        (default) keeps a private per-engine registry; pass the global
        ``repro.obs.metrics()`` to publish fleet metrics process-wide
        (JSON / Prometheus exporters then include them).
    """

    def __init__(
        self,
        model: CausalTAD,
        lambda_weight: Optional[float] = None,
        capacity: Optional[int] = None,
        ttl_ticks: Optional[int] = None,
        alert_policy: Optional[ThresholdAlertPolicy] = None,
        retention: int = 100_000,
        metrics_registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.model = model
        self.model.eval()
        self.lambda_weight = (
            model.config.lambda_weight if lambda_weight is None else lambda_weight
        )
        self._scaling = model.scaling_factors()
        self._num_segments = model.config.num_segments
        if retention <= 0:
            raise ValueError("retention must be positive")
        self.store = SessionStore(capacity=capacity, ttl_ticks=ttl_ticks)
        self.telemetry = FleetTelemetry(registry=metrics_registry)
        self.alert_policy = alert_policy
        self.retention = retention
        self.alerts: Deque[Alert] = deque(maxlen=retention)
        self.finished: "OrderedDict[str, FinishedRide]" = OrderedDict()
        self._pending_starts: List[RideStart] = []
        # Observations arriving before a pending start has been ticked in.
        self._prestart_observations: Dict[str, Deque[int]] = {}
        self._pending_ends: Deque[str] = deque()
        self._tick = 0

    # ------------------------------------------------------------------ #
    # ingest
    # ------------------------------------------------------------------ #
    @property
    def current_tick(self) -> int:
        """Index of the next tick to execute (0 before the first tick)."""
        return self._tick

    @property
    def active_rides(self) -> int:
        """Number of rides with a live session in the store."""
        return len(self.store)

    def _check_segment(self, segment_id: int) -> int:
        # Pure Python: submit() sits on the ingest hot path, so it must not
        # pay numpy overhead per event.  operator.index rejects floats (which
        # pass a range check) and numpy floats; numpy ints come back as int.
        try:
            segment = operator.index(segment_id)
        except TypeError:
            raise TypeError(f"segment id {segment_id!r} is not an integer") from None
        if not 0 <= segment < self._num_segments:
            raise ValueError(f"segment id {segment} outside [0, {self._num_segments})")
        return segment

    def submit(self, event: FleetEvent) -> None:
        """Queue one event; it takes effect on the next :meth:`tick`.

        Parameters
        ----------
        event:
            A :class:`RideStart` (opens a session; raises ``ValueError`` on a
            duplicate ride id), :class:`SegmentObserved` (appended to the
            ride's observation queue; silently dropped — and counted in
            telemetry — when the ride is unknown) or :class:`RideEnd`
            (closes the session once its observations have drained).
            Segment ids must be integers (``TypeError`` otherwise) in
            ``[0, num_segments)`` (``ValueError`` otherwise); a rejected event
            changes nothing.
        """
        # SegmentObserved dominates real streams, so it is dispatched first.
        if isinstance(event, SegmentObserved):
            segment = event.segment_id
            # Inline fast path for an in-range int; anything else is converted
            # or rejected by the full check.
            if type(segment) is not int or not 0 <= segment < self._num_segments:
                segment = self._check_segment(segment)
            if self.store.push(event.ride_id, segment):
                return
            prestart = self._prestart_observations.get(event.ride_id)
            if prestart is not None:
                prestart.append(segment)
            else:
                self.telemetry.events_dropped += 1
                logger.debug(
                    "dropped SegmentObserved for unknown ride %r (segment %d, tick %d)",
                    event.ride_id, segment, self._tick,
                )
        elif isinstance(event, RideStart):
            if event.ride_id in self.store or event.ride_id in self._prestart_observations:
                raise ValueError(f"ride {event.ride_id!r} already has an active session")
            self._check_segment(event.sd_pair.source)
            self._check_segment(event.sd_pair.destination)
            self._check_segment(event.start_segment)
            self._pending_starts.append(event)
            self._prestart_observations[event.ride_id] = deque()
        elif isinstance(event, RideEnd):
            if event.ride_id in self.store or event.ride_id in self._prestart_observations:
                self._pending_ends.append(event.ride_id)
            else:
                self.telemetry.events_dropped += 1
                logger.debug(
                    "dropped RideEnd for unknown ride %r (tick %d)", event.ride_id, self._tick
                )
        else:
            raise TypeError(f"unknown fleet event: {event!r}")

    def ingest(self, events: Iterable[FleetEvent]) -> None:
        """Queue a batch of events (equivalent to :meth:`submit` per event,
        preserving iteration order)."""
        for event in events:
            self.submit(event)

    # ------------------------------------------------------------------ #
    # the micro-batched tick
    # ------------------------------------------------------------------ #
    def tick(self) -> TickReport:
        """Execute all queued work as one vectorized micro-batch.

        Processing order: ride starts (batched session init, then capacity
        eviction of the least-recently-active sessions), then at most one
        pending observation per active ride (one batched kernel step), then
        ride ends whose observation queues have drained, then TTL eviction.
        Each phase runs in a ``serving/start``, ``serving/advance``,
        ``serving/finish`` or ``serving/evict`` span.  Rides with more than
        one queued observation keep the rest for subsequent ticks, which
        preserves per-ride ordering.  A ride on a road-constrained dead end
        (a segment with no successor) cannot be scored onward: its next
        observation is dropped, counted in ``telemetry.events_dropped`` and
        logged, and the other rides advance.
        """
        report = TickReport(tick=self._tick)
        tracer = obs.tracer()
        begin = time.perf_counter()
        with tracer.span("serving/start"):
            self._start_rides(report)
        with tracer.span("serving/advance"):
            self._advance_rides(report)
        with tracer.span("serving/finish"):
            self._finish_rides(report)
        with tracer.span("serving/evict"):
            self._evict_expired(report)
        report.seconds = time.perf_counter() - begin
        self.telemetry.record_tick(report.seconds, report.segments_processed)
        self.telemetry.rides_started += report.rides_started
        self._tick += 1
        return report

    def _start_rides(self, report: TickReport) -> None:
        if not self._pending_starts:
            return
        starts = self._pending_starts
        self._pending_starts = []
        sources = np.array([s.sd_pair.source for s in starts], dtype=np.int64)
        destinations = np.array([s.sd_pair.destination for s in starts], dtype=np.int64)
        first = np.array([s.start_segment for s in starts], dtype=np.int64)
        init = init_session_states(self.model, sources, destinations)
        self.store.open(
            [s.ride_id for s in starts],
            [s.sd_pair for s in starts],
            first,
            init.hidden,
            init.fixed_scores,
            self._scaling[first],
            self._tick,
            [self._prestart_observations.pop(s.ride_id, None) for s in starts],
        )
        report.rides_started += len(starts)
        # When one tick's starts alone exceed the capacity, the earliest of
        # them are the least recently active and go too.
        evicted = self.store.over_capacity()
        if evicted.size:
            self._retire(evicted, evicted=True)
            report.rides_evicted += evicted.size

    def _advance_rides(self, report: TickReport) -> None:
        store = self.store
        slots, entered = store.take_next()
        if not slots.size:
            return
        previous = store.last_segment[slots]
        movable = can_advance(self.model, previous)
        if not movable.all():
            # A ride stuck on a dead-end segment cannot be scored onward; its
            # observation is dropped (the policy submit() applies to unknown
            # rides) and the co-batched rides still advance.
            stuck = ~movable
            for ride_id, segment, current in zip(
                store.ride_ids(slots[stuck]), entered[stuck].tolist(), previous[stuck].tolist()
            ):
                self.telemetry.events_dropped += 1
                logger.warning(
                    "dropped SegmentObserved for ride %r (segment %d, tick %d): "
                    "its current segment %d has no successor",
                    ride_id, segment, self._tick, current,
                )
            slots, entered, previous = slots[movable], entered[movable], previous[movable]
            if not slots.size:
                return

        new_hidden, step_likelihoods = advance_sessions(
            self.model, previous, entered, store.hidden[slots]
        )
        store.hidden[slots] = new_hidden
        store.likelihood_sum[slots] += step_likelihoods
        store.scaling_sum[slots] += self._scaling[entered]
        store.last_segment[slots] = entered
        store.observed_length[slots] += 1
        # LRU/TTL bookkeeping only matters when eviction is configured; on the
        # unbounded store rides keep their start order.
        if store.evicts:
            store.touch(slots, self._tick)
        if self.alert_policy is not None:
            self._raise_alerts(slots, report)
        report.segments_processed += slots.size

    def _raise_alerts(self, slots: np.ndarray, report: TickReport) -> None:
        store = self.store
        scores = store.scores(slots, self.lambda_weight)
        lengths = store.observed_length[slots]
        rates = scores / lengths
        fire = self.alert_policy.fire_mask(lengths, rates, store.alerted[slots])
        if not fire.any():
            return
        store.alerted[slots[fire]] = True
        for ride_id, score, rate, length in zip(
            store.ride_ids(slots[fire]),
            scores[fire].tolist(),
            rates[fire].tolist(),
            lengths[fire].tolist(),
        ):
            alert = Alert(
                ride_id=ride_id,
                tick=self._tick,
                cumulative_score=score,
                per_segment_score=rate,
                observed_length=length,
            )
            report.alerts.append(alert)
            self.alerts.append(alert)
            logger.info(
                "alert: ride %r per-segment score %.4f at tick %d (%d segments observed)",
                ride_id, rate, self._tick, length,
            )
        self.telemetry.alerts_raised += int(fire.sum())

    def _finish_rides(self, report: TickReport) -> None:
        deferred: Deque[str] = deque()
        done: Dict[int, None] = {}  # insertion-ordered set of slots to retire
        while self._pending_ends:
            ride_id = self._pending_ends.popleft()
            slot = self.store.slot_of(ride_id)
            if slot is None:
                if ride_id in self._prestart_observations:
                    deferred.append(ride_id)  # start not ticked in yet
                # else: session was evicted meanwhile; final record already kept
                continue
            if self.store.has_queued(slot):
                deferred.append(ride_id)  # keep ordering: drain observations first
            else:
                done[slot] = None  # a repeated RideEnd finishes the ride once
        self._pending_ends = deferred
        if done:
            self._retire(np.fromiter(done, dtype=np.int64, count=len(done)), evicted=False)
            report.rides_finished += len(done)

    def _evict_expired(self, report: TickReport) -> None:
        expired = self.store.expired(self._tick)
        if expired.size:
            self._retire(expired, evicted=True)
            report.rides_evicted += expired.size

    def _retire(self, slots: np.ndarray, evicted: bool) -> None:
        """Keep the final records of the rides in ``slots``, then free the slots."""
        store = self.store
        scores = store.scores(slots, self.lambda_weight)
        lengths = store.observed_length[slots]
        for ride_id, score, rate, length, started in zip(
            store.ride_ids(slots),
            scores.tolist(),
            (scores / lengths).tolist(),
            lengths.tolist(),
            store.started_tick[slots].tolist(),
        ):
            self.finished.pop(ride_id, None)
            while len(self.finished) >= self.retention:
                self.finished.popitem(last=False)
            self.finished[ride_id] = FinishedRide(
                ride_id=ride_id,
                final_score=score,
                per_segment_score=rate,
                observed_length=length,
                started_tick=started,
                finished_tick=self._tick,
                evicted=evicted,
            )
            if evicted:
                logger.info(
                    "evicted ride %r at tick %d (%d segments observed, score %.4f)",
                    ride_id, self._tick, length, score,
                )
        store.release(slots)
        if evicted:
            self.telemetry.rides_evicted += len(slots)
        else:
            self.telemetry.rides_finished += len(slots)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def score(self, ride_id: str) -> Optional[float]:
        """Current cumulative debiased score of an active ride.

        Returns ``None`` when the ride has no live session (never started,
        already finished, or evicted); otherwise the running Eq. (10) score
        over the segments observed so far (higher = more anomalous).
        """
        slot = self.store.slot_of(ride_id)
        if slot is None:
            return None
        return float(self.store.scores(np.array([slot]), self.lambda_weight)[0])

    def active_scores(self) -> Dict[str, float]:
        """Mapping ``ride_id -> cumulative score`` for every active ride."""
        slots = self.store.lru_slots()
        scores = self.store.scores(slots, self.lambda_weight)
        return dict(zip(self.store.ride_ids(slots), scores.tolist()))

    def top_k(self, k: int) -> List[Tuple[str, float]]:
        """The ``k`` most anomalous active rides as ``(ride_id, rate)``.

        Ranked by *per-segment* score descending, so long rides do not
        dominate merely by accumulating more terms; ties keep the
        least-recently-active ride first.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        slots = self.store.lru_slots()
        rates = self.store.scores(slots, self.lambda_weight) / self.store.observed_length[slots]
        order = np.argsort(-rates, kind="stable")[:k]
        return list(zip(self.store.ride_ids(slots[order]), rates[order].tolist()))

    # ------------------------------------------------------------------ #
    # replay driver
    # ------------------------------------------------------------------ #
    def run(self, event_stream: Iterable[Iterable[FleetEvent]]) -> FleetRunSummary:
        """Ingest a per-tick event stream, tick after each batch, then drain.

        After the stream is exhausted, extra ticks run until every queued
        start, observation and end has been processed (each tick consumes at
        least one queued observation per ride, so draining terminates).
        """
        start_tick = self._tick
        for events in event_stream:
            self.ingest(events)
            self.tick()
        while self._pending_starts or self._pending_ends or self.store.any_queued():
            self.tick()
        return FleetRunSummary(
            ticks=self._tick - start_tick,
            finished={
                ride_id: record
                for ride_id, record in self.finished.items()
                if record.finished_tick >= start_tick
            },
            alerts=[alert for alert in self.alerts if alert.tick >= start_tick],
            telemetry=self.telemetry.snapshot(),
        )
