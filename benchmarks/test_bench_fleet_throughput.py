"""Benchmark — fleet serving throughput: micro-batched engine vs per-ride loop.

The serving engine's reason to exist: at fleet scale, advancing N concurrent
rides through one batched embedding lookup + GRU step + masked log-softmax per
tick must beat N scalar per-ride updates by a wide margin.  This benchmark
replays the same rides through both paths and reports segments/second.

Acceptance bar: at 256 concurrent rides the batched :class:`FleetEngine`
sustains at least 5× the throughput of the per-ride
:class:`~repro.core.OnlineSession` loop, while producing identical scores
(1e-12).
"""

from __future__ import annotations

import numpy as np

from benchmarks.support import (
    BENCH_SCALE,
    BENCH_SEED,
    baseline_floor,
    write_timing_artifact,
)
from repro.core import CausalTAD, CausalTADConfig, OnlineDetector
from repro.serving import FleetEngine, replay_trajectories
from repro.utils import RandomState
from repro.utils.timing import Timer, format_duration

CONCURRENT_RIDES = 512 if BENCH_SCALE == "full" else 256
MIN_SPEEDUP = 5.0


def _fleet_rides(data, count):
    """``count`` equal-length rides drawn from the benchmark bundle.

    The ``count`` longest trajectories, truncated to a common length (and
    recycled under fresh ids if the pool is smaller than ``count``): every
    tick then advances the full fleet, which is the steady-state "N
    concurrent rides" regime this benchmark is about — and it keeps the
    measurement uniform instead of deflating as short rides finish.
    """
    pool = sorted(
        list(data.train.trajectories) + list(data.id_test.trajectories),
        key=len,
        reverse=True,
    )
    rides = []
    while len(rides) < count:
        for trajectory in pool:
            if len(rides) >= count:
                break
            # Re-key recycled trajectories so every ride id is unique.
            rides.append(
                trajectory
                if len(rides) < len(pool)
                else trajectory.__class__(
                    trajectory_id=f"{trajectory.trajectory_id}#{len(rides)}",
                    segments=trajectory.segments,
                    timestamps=trajectory.timestamps,
                )
            )
    common_length = min(len(t) for t in rides)
    return [t.prefix(common_length) for t in rides]


def _serving_model(data) -> CausalTAD:
    """An eval-mode model at benchmark scale (throughput needs no training)."""
    model = CausalTAD(
        CausalTADConfig.small(data.num_segments),
        network=data.city.network,
        rng=RandomState(BENCH_SEED),
    )
    model.eval()
    return model


def _warmup(model, rides):
    """Warm numpy's lazy imports / BLAS paths and the scaling-factor cache."""
    engine = FleetEngine(model)
    engine.run(replay_trajectories(rides[:8]))


def test_bench_fleet_throughput(xian_data):
    rides = _fleet_rides(xian_data, CONCURRENT_RIDES)
    model = _serving_model(xian_data)
    total_segments = sum(len(t) - 1 for t in rides)
    _warmup(model, rides)

    # Best-of-N wall times for both paths: single runs of a ~30ms workload
    # are at the mercy of GC pauses / CPU steal on shared CI runners.
    rounds = 3

    # --- per-ride baseline: one OnlineSession per ride, scalar updates ----- #
    detector = OnlineDetector(model)
    loop_scores = {}
    loop_elapsed = float("inf")
    for _ in range(rounds):
        with Timer() as loop_timer:
            for trajectory in rides:
                session = detector.start_session(trajectory.sd_pair, trajectory.segments[0])
                for segment in trajectory.segments[1:]:
                    session.update(segment)
                loop_scores[trajectory.trajectory_id] = session.current_score
        loop_elapsed = min(loop_elapsed, loop_timer.elapsed)
    loop_rate = total_segments / loop_elapsed

    # --- batched fleet engine: all rides concurrent, one batch per tick ---- #
    fleet_elapsed = float("inf")
    for _ in range(rounds):
        engine = FleetEngine(model)
        with Timer() as fleet_timer:
            summary = engine.run(replay_trajectories(rides))
        fleet_elapsed = min(fleet_elapsed, fleet_timer.elapsed)
    fleet_rate = total_segments / fleet_elapsed

    speedup = loop_elapsed / fleet_elapsed

    print()
    print(f"Fleet throughput at {CONCURRENT_RIDES} concurrent rides "
          f"({total_segments} segments, {summary.ticks} ticks):")
    print(f"  per-ride OnlineSession loop : {loop_rate:12,.0f} segments/s "
          f"({format_duration(loop_elapsed)})")
    print(f"  batched FleetEngine         : {fleet_rate:12,.0f} segments/s "
          f"({format_duration(fleet_elapsed)})")
    print(f"  speedup                     : {speedup:.1f}x  "
          f"(tick latency p50 {format_duration(summary.telemetry['p50_tick_seconds'])} / "
          f"p95 {format_duration(summary.telemetry['p95_tick_seconds'])})")

    # Scores must be identical across the two paths (shared kernel).
    assert set(summary.finished) == set(loop_scores)
    worst = max(
        abs(summary.finished[ride_id].final_score - score)
        for ride_id, score in loop_scores.items()
    )
    print(f"  worst score disagreement    : {worst:.2e}")
    assert worst < 1e-12

    write_timing_artifact(
        "bench_fleet_throughput",
        {
            "concurrent_rides": CONCURRENT_RIDES,
            "total_segments": total_segments,
            "loop_segments_per_second": loop_rate,
            "fleet_segments_per_second": fleet_rate,
            "speedup": speedup,
            "p50_tick_seconds": summary.telemetry["p50_tick_seconds"],
            "p95_tick_seconds": summary.telemetry["p95_tick_seconds"],
            "min_speedup_required": MIN_SPEEDUP,
        },
    )

    assert summary.telemetry["segments_processed"] == total_segments
    floor = baseline_floor("fleet", "speedup", MIN_SPEEDUP)
    assert speedup >= floor, (
        f"batched fleet engine only {speedup:.1f}x faster than the per-ride "
        f"loop (required {floor:.1f}x)"
    )


def test_bench_fleet_throughput_holds_at_scale(xian_data):
    """4x the fleet must not collapse throughput (batching keeps paying off)."""
    model = _serving_model(xian_data)

    def best_rate(count):
        rides = _fleet_rides(xian_data, count)
        best_p50, best = float("inf"), 0.0
        for _ in range(3):
            engine = FleetEngine(model)
            engine.run(replay_trajectories(rides))
            best = max(best, engine.telemetry.segments_per_second())
            best_p50 = min(best_p50, engine.telemetry.p50_tick_seconds)
        return best_p50, best

    small_p50, small_rate = best_rate(64)
    large_p50, large_rate = best_rate(256)
    print()
    print(f"  64 rides: p50 tick {format_duration(small_p50)}, {small_rate:,.0f} segments/s")
    print(f" 256 rides: p50 tick {format_duration(large_p50)}, {large_rate:,.0f} segments/s")
    # At 4x the concurrency the per-segment rate must stay in the same league
    # (a vectorized tick amortises; a per-ride fallback would crater it).  The
    # 0.5 factor is deliberately loose: this guards against batching breaking,
    # not against scheduler noise on shared CI runners.
    assert large_rate > 0.5 * small_rate
