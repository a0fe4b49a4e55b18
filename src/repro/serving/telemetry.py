"""Telemetry for the fleet serving engine — a view over the metrics registry.

Tracks the operational counters a fleet operator watches (rides started /
finished / evicted, segments scored, events dropped, alerts raised) plus tick
latency, so the engine reports throughput (segments/s) and p50/p95/p99 tick
latency.

Historically this module kept its own counters and a list-based sliding
latency window whose eviction (``del samples[:-window]``) cost O(window) per
tick.  It is now a thin façade over :mod:`repro.obs`: every counter is a
:class:`repro.obs.Counter` and the latency window a
:class:`repro.obs.Histogram` ring buffer (O(1) per tick), registered under a
``fleet/`` scope.  The attribute API (``telemetry.events_dropped += 1``,
``snapshot()``, the percentile properties) is unchanged, and the percentile
values are bit-identical — ``np.percentile`` over the same window of samples.

By default each :class:`FleetTelemetry` owns a private, always-enabled
registry so concurrent engines never double-count; pass
``registry=repro.obs.metrics()`` (with the global registry enabled) to
publish an engine's metrics into the process-wide registry instead, where the
JSON / Prometheus exporters pick them up.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.registry import MetricsRegistry
from repro.utils.timing import format_duration

__all__ = ["FleetTelemetry"]

_COUNTERS = (
    "ticks",
    "rides_started",
    "rides_finished",
    "rides_evicted",
    "segments_processed",
    "events_dropped",
    "alerts_raised",
)


def _counter_property(name: str):
    def _get(self: "FleetTelemetry") -> int:
        return int(self._counters[name].value)

    def _set(self: "FleetTelemetry", value: int) -> None:
        self._counters[name].value = value

    return property(_get, _set, doc=f"Lifetime ``{name}`` count (read/write int).")


class FleetTelemetry:
    """Counters and latency statistics of one :class:`FleetEngine`.

    Counters are cumulative over the engine's lifetime; the per-tick latency
    samples behind the percentiles live in a ring buffer of the most recent
    ``latency_window`` ticks, so a long-running engine's memory stays flat
    and recording stays O(1).

    Parameters
    ----------
    latency_window:
        Ring-buffer capacity for tick-latency samples (resizable later via
        the ``latency_window`` property).
    registry:
        Metrics registry to register the instruments in.  ``None`` (default)
        creates a private always-enabled registry, keeping engines isolated;
        pass the global ``repro.obs.metrics()`` to publish fleet metrics
        process-wide.
    scope:
        Name prefix for the instruments (default ``"fleet"``).
    """

    def __init__(
        self,
        latency_window: int = 4096,
        registry: Optional[MetricsRegistry] = None,
        scope: str = "fleet",
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry(enabled=True)
        self._scope = self.registry.scope(scope)
        self._counters = {name: self._scope.counter(name) for name in _COUNTERS}
        self._tick_hist = self._scope.histogram("tick_seconds", window=latency_window)

    # ------------------------------------------------------------------ #
    # counters (read/write attributes, as the engine's `+= 1` sites expect)
    # ------------------------------------------------------------------ #
    ticks = _counter_property("ticks")
    rides_started = _counter_property("rides_started")
    rides_finished = _counter_property("rides_finished")
    rides_evicted = _counter_property("rides_evicted")
    segments_processed = _counter_property("segments_processed")
    events_dropped = _counter_property("events_dropped")
    alerts_raised = _counter_property("alerts_raised")

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record_tick(self, seconds: float, segments: int) -> None:
        self._counters["ticks"].inc()
        self._counters["segments_processed"].inc(segments)
        self._tick_hist.observe(seconds)

    # ------------------------------------------------------------------ #
    # latency window
    # ------------------------------------------------------------------ #
    @property
    def latency_window(self) -> int:
        """Capacity of the tick-latency ring buffer (assignable; resizes)."""
        return self._tick_hist.window

    @latency_window.setter
    def latency_window(self, window: int) -> None:
        self._tick_hist.resize(window)

    # ------------------------------------------------------------------ #
    # derived statistics
    # ------------------------------------------------------------------ #
    @property
    def total_tick_seconds(self) -> float:
        return self._tick_hist.total

    def tick_latency_percentile(self, percentile: float) -> float:
        """Tick latency percentile in seconds (0 before the first tick)."""
        return self._tick_hist.percentile(percentile)

    @property
    def p50_tick_seconds(self) -> float:
        return self._tick_hist.p50

    @property
    def p95_tick_seconds(self) -> float:
        return self._tick_hist.p95

    @property
    def p99_tick_seconds(self) -> float:
        return self._tick_hist.p99

    def segments_per_second(self) -> float:
        """Sustained scoring throughput across all ticks so far."""
        total = self.total_tick_seconds
        return self.segments_processed / total if total > 0 else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Flat dictionary of every counter and latency statistic."""
        return {
            "ticks": float(self.ticks),
            "rides_started": float(self.rides_started),
            "rides_finished": float(self.rides_finished),
            "rides_evicted": float(self.rides_evicted),
            "segments_processed": float(self.segments_processed),
            "events_dropped": float(self.events_dropped),
            "alerts_raised": float(self.alerts_raised),
            "segments_per_second": self.segments_per_second(),
            "p50_tick_seconds": self.p50_tick_seconds,
            "p95_tick_seconds": self.p95_tick_seconds,
        }

    def format_summary(self) -> str:
        """Human-readable one-paragraph telemetry summary."""
        return (
            f"{self.ticks} ticks, {self.rides_started} rides started, "
            f"{self.rides_finished} finished, {self.rides_evicted} evicted, "
            f"{self.segments_processed} segments "
            f"({self.segments_per_second():,.0f} segments/s), "
            f"tick latency p50 {format_duration(self.p50_tick_seconds)} / "
            f"p95 {format_duration(self.p95_tick_seconds)}, "
            f"{self.alerts_raised} alerts, {self.events_dropped} events dropped"
        )
