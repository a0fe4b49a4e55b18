"""Benchmark — fleet serving throughput against offline scoring of the same rides.

The serving engine's reason to exist: at fleet scale, advancing N concurrent
rides through one batched embedding lookup + GRU step + successor
log-softmax per tick must cost about what scoring the same rides offline
costs, not N scalar per-ride updates.  This benchmark replays 256 rides
through :class:`FleetEngine` and scores the same rides with
``model.score_dataset``, both warmed, as medians of interleaved repeats.

Gate: fleet/offline throughput ratio.  Both sides are batched numpy over the
same arithmetic — the SD half of the eval forward, the shared GRU step and
the successor-column log-softmax — so a faster kernel speeds both and the
ratio moves only with what serving adds (event ingest, slot gather/scatter,
per-tick bookkeeping).  A tick that advances its rides one kernel call at a
time reads about 0.06; the engine reads 0.5–0.7 on a 2-vCPU host.

The per-ride :class:`~repro.core.OnlineSession` loop still runs once, as the
score check: fleet, per-ride loop and offline scores agree to 1e-12.  Its
segments/s is printed and recorded as information only.  It used to be the
gate's denominator, but it runs the same kernel as the fleet, so a cheaper
kernel call (a faster session start, say) lowered that ratio although
nothing got slower.
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
from repro.trajectory.dataset import TrajectoryDataset
from repro.utils import RandomState
from repro.utils.timing import Timer, format_duration

CONCURRENT_RIDES = 512 if BENCH_SCALE == "full" else 256
#: Fixed floor of the fleet/offline gate, set from the measured spread (see
#: CHANGES.md): the engine's runs read 0.5–0.7, a one-call-per-ride tick 0.06.
MIN_FLEET_OVER_OFFLINE = 0.3
WARMUPS = 2
REPEATS = 7
SCORE_TOL = 1e-12


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


def _interleaved_medians(steps, warmups=WARMUPS, repeats=REPEATS):
    """Median wall time of each step, repeats interleaved so load drift hits all."""
    for _ in range(warmups):
        for step in steps:
            step()
    samples = [[] for _ in steps]
    for _ in range(repeats):
        for times, step in zip(samples, steps):
            with Timer() as timer:
                step()
            times.append(timer.elapsed)
    return [float(np.median(times)) for times in samples]


def test_bench_fleet_throughput(xian_data):
    rides = _fleet_rides(xian_data, CONCURRENT_RIDES)
    model = _serving_model(xian_data)
    model.scaling_factors()  # precomputed once per model, outside both timings
    dataset = TrajectoryDataset.from_trajectories(rides, xian_data.num_segments)
    total_segments = sum(len(t) - 1 for t in rides)

    # --- score check: fleet, per-ride loop and offline agree -------------- #
    summary = FleetEngine(model).run(replay_trajectories(rides))
    detector = OnlineDetector(model)
    loop_scores = {}
    with Timer() as loop_timer:
        for trajectory in rides:
            session = detector.start_session(trajectory.sd_pair, trajectory.segments[0])
            for segment in trajectory.segments[1:]:
                session.update(segment)
            loop_scores[trajectory.trajectory_id] = session.current_score
    offline = model.score_dataset(dataset)
    offline_scores = {t.trajectory_id: float(s) for t, s in zip(rides, offline)}
    assert summary.telemetry["segments_processed"] == total_segments
    assert set(summary.finished) == set(loop_scores) == set(offline_scores)
    fleet_scores = {ride_id: record.final_score for ride_id, record in summary.finished.items()}
    worst_loop = max(abs(fleet_scores[r] - loop_scores[r]) for r in loop_scores)
    worst_offline = max(
        abs(fleet_scores[r] - offline_scores[r]) / max(1.0, abs(offline_scores[r]))
        for r in offline_scores
    )

    # --- the gate: fleet against offline scoring of the same rides -------- #
    fleet_seconds, offline_seconds = _interleaved_medians(
        [
            lambda: FleetEngine(model).run(replay_trajectories(rides)),
            lambda: model.score_dataset(dataset),
        ]
    )
    fleet_rate = total_segments / fleet_seconds
    offline_rate = total_segments / offline_seconds
    loop_rate = total_segments / loop_timer.elapsed
    fleet_over_offline = fleet_rate / offline_rate

    print()
    print(f"Fleet throughput at {CONCURRENT_RIDES} concurrent rides "
          f"({total_segments} segments, {summary.ticks} ticks), "
          f"medians of {REPEATS} interleaved repeats:")
    print(f"  offline score_dataset       : {offline_rate:12,.0f} segments/s "
          f"({format_duration(offline_seconds)})")
    print(f"  batched FleetEngine         : {fleet_rate:12,.0f} segments/s "
          f"({format_duration(fleet_seconds)})")
    print(f"  fleet / offline             : {fleet_over_offline:.2f}")
    print(f"  per-ride OnlineSession loop : {loop_rate:12,.0f} segments/s "
          f"({format_duration(loop_timer.elapsed)}, one run, not gated)")
    print(f"  worst score disagreement    : fleet-loop {worst_loop:.2e}, "
          f"fleet-offline {worst_offline:.2e} (relative)")
    assert worst_loop < SCORE_TOL
    assert worst_offline < SCORE_TOL

    write_timing_artifact(
        "bench_fleet_throughput",
        {
            "concurrent_rides": CONCURRENT_RIDES,
            "total_segments": total_segments,
            "fleet_seconds": fleet_seconds,
            "offline_seconds": offline_seconds,
            "fleet_segments_per_second": fleet_rate,
            "offline_segments_per_second": offline_rate,
            "loop_segments_per_second": loop_rate,
            "fleet_over_offline": fleet_over_offline,
            "p50_tick_seconds": summary.telemetry["p50_tick_seconds"],
            "p95_tick_seconds": summary.telemetry["p95_tick_seconds"],
            "min_fleet_over_offline_required": MIN_FLEET_OVER_OFFLINE,
        },
    )

    floor = baseline_floor("fleet", "fleet_over_offline", MIN_FLEET_OVER_OFFLINE)
    assert fleet_over_offline >= floor, (
        f"FleetEngine reaches only {fleet_over_offline:.2f} of offline scoring's "
        f"throughput on the same rides (required {floor:.2f})"
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
