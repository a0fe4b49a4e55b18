"""Benchmark — the CSR road-graph kernel vs the dict/dataclass seed paths.

The road layer sits under everything the paper's evaluation does: the dataset
build (route sampling + GPS simulation + map matching), the nearest-segment
queries behind matching, and the shortest-path distances behind the anomaly
generators.  This benchmark drives the compiled
:class:`~repro.roadnet.csr.CompiledRoadGraph` and the dict/dataclass
implementations it replaced (the parity oracles of
``tests/roadnet_reference.py``) through identical seeded workloads and gates
on both speed and exactness.

Acceptance bars (quick scale, enforced):

* end-to-end dataset build (generation + map matching) ≥ 5× the legacy path,
  with bit-identical generated routes/timestamps and matched routes;
* nearest-segment candidate queries ≥ 10× the exhaustive scan, with
  identical top-k candidates;
* batched multi-source Dijkstra distances ≥ 3× per-source legacy Dijkstra,
  with bit-identical distances;
* offline anomaly scores under the CSR successor tables within 1e-12 of the
  dense transition-mask reference decoder (``tests/reference.py``).
"""

from __future__ import annotations

import numpy as np

from benchmarks.support import (
    BENCH_SCALE,
    BENCH_SEED,
    baseline_floor,
    write_timing_artifact,
)
from repro.core import CausalTAD, CausalTADConfig
from repro.roadnet import CityConfig, Point, batched_dijkstra_distances, generate_arterial_city
from repro.trajectory import MapMatcher, SimulatorConfig, TrajectorySimulator, simulate_gps
from repro.trajectory.dataset import encode_batch
from repro.utils import RandomState
from repro.utils.timing import Timer, format_duration
from tests import reference
from tests.roadnet_reference import LegacyMapMatcher, legacy_dijkstra_distances, legacy_simulator

MIN_BUILD_SPEEDUP = 5.0
MIN_QUERY_SPEEDUP = 10.0
MIN_DIJKSTRA_SPEEDUP = 3.0
MAX_SCORE_DRIFT = 1e-12

NUM_TRAJECTORIES = 80 if BENCH_SCALE == "full" else 40
NUM_QUERY_POINTS = 3000 if BENCH_SCALE == "full" else 1500


def _bench_city():
    rows = 11 if BENCH_SCALE == "full" else 9
    return generate_arterial_city(
        CityConfig(name="roadnet-bench", rows=rows, cols=rows, num_pois=4),
        rng=RandomState(BENCH_SEED),
    )


def test_bench_nearest_segment_queries():
    """Grid-local candidate queries vs the exhaustive all-segments scan."""
    city = _bench_city()
    graph = city.network.compiled()
    legacy = LegacyMapMatcher(city.network)
    rng = np.random.default_rng(BENCH_SEED)
    low = graph.node_xy.min(axis=0)
    high = graph.node_xy.max(axis=0)
    points = rng.uniform(low, high, size=(NUM_QUERY_POINTS, 2))
    headings = rng.normal(0.0, 50.0, size=(NUM_QUERY_POINTS, 2))

    graph.nearest_segments(points[:64], 4, headings=headings[:64], heading_weight=60.0)  # warm

    rounds = 3
    legacy_elapsed = float("inf")
    for _ in range(rounds):
        with Timer() as timer:
            reference = [
                legacy.candidates(
                    Point(float(x), float(y)), (float(hx), float(hy))
                )
                for (x, y), (hx, hy) in zip(points, headings)
            ]
        legacy_elapsed = min(legacy_elapsed, timer.elapsed)

    compiled_elapsed = float("inf")
    for _ in range(rounds):
        with Timer() as timer:
            sids, _ = graph.nearest_segments(
                points, 4, headings=headings, heading_weight=legacy.heading_weight
            )
        compiled_elapsed = min(compiled_elapsed, timer.elapsed)

    mismatches = sum(
        1
        for i in range(NUM_QUERY_POINTS)
        if [s for s, _ in reference[i]] != sids[i].tolist()
    )
    speedup = legacy_elapsed / compiled_elapsed
    print()
    print(f"Nearest-segment queries ({NUM_QUERY_POINTS} points, "
          f"{graph.num_segments} segments):")
    print(f"  exhaustive scan : {format_duration(legacy_elapsed)}")
    print(f"  grid-local CSR  : {format_duration(compiled_elapsed)}")
    print(f"  speedup         : {speedup:.1f}x, candidate mismatches {mismatches}")

    write_timing_artifact(
        "bench_roadnet_queries",
        {
            "points": NUM_QUERY_POINTS,
            "segments": graph.num_segments,
            "legacy_seconds": legacy_elapsed,
            "compiled_seconds": compiled_elapsed,
            "speedup": speedup,
            "min_speedup_required": MIN_QUERY_SPEEDUP,
        },
    )
    assert mismatches == 0, f"{mismatches} candidate sets diverged from the scan"
    floor = baseline_floor("roadnet", "queries.speedup", MIN_QUERY_SPEEDUP)
    assert speedup >= floor, (
        f"nearest-segment queries only {speedup:.1f}x faster (required "
        f"{floor:.1f}x)"
    )


def test_bench_dataset_build():
    """Generation + map matching end to end, CSR vs legacy, exact parity."""
    city = _bench_city()

    def build(compiled: bool):
        simulator = (TrajectorySimulator if compiled else legacy_simulator)(
            city,
            config=SimulatorConfig(min_length=6, max_length=50),
            rng=RandomState(BENCH_SEED + 1),
        )
        matcher = (MapMatcher if compiled else LegacyMapMatcher)(city.network)
        with Timer() as generation_timer:
            trajectories = simulator.generate_many(NUM_TRAJECTORIES)
        raws = [
            simulate_gps(city.network, t, rng=RandomState(10_000 + i))
            for i, t in enumerate(trajectories)
        ]
        with Timer() as matching_timer:
            matches = [matcher.match(raw) for raw in raws]
        return trajectories, matches, generation_timer.elapsed, matching_timer.elapsed

    # Warm both paths (grid build, numpy caches) outside the timed region.
    MapMatcher(city.network).match(
        simulate_gps(
            city.network,
            TrajectorySimulator(city, rng=RandomState(1)).generate_trajectory(),
            rng=RandomState(2),
        )
    )

    compiled_traj, compiled_matches, compiled_gen, compiled_match = build(compiled=True)
    legacy_traj, legacy_matches, legacy_gen, legacy_match = build(compiled=False)

    assert len(compiled_traj) == len(legacy_traj) == NUM_TRAJECTORIES
    for a, b in zip(compiled_traj, legacy_traj):
        assert a.segments == b.segments, "generated routes diverged"
        assert a.timestamps == b.timestamps, "generated timestamps diverged"
    for a, b in zip(compiled_matches, legacy_matches):
        assert a.trajectory.segments == b.trajectory.segments, "matched routes diverged"

    compiled_total = compiled_gen + compiled_match
    legacy_total = legacy_gen + legacy_match
    speedup = legacy_total / compiled_total
    print()
    print(f"Dataset build ({NUM_TRAJECTORIES} trajectories, "
          f"{city.network.num_segments} segments):")
    print(f"  legacy   : generate {format_duration(legacy_gen)} + "
          f"match {format_duration(legacy_match)} = {format_duration(legacy_total)}")
    print(f"  compiled : generate {format_duration(compiled_gen)} + "
          f"match {format_duration(compiled_match)} = {format_duration(compiled_total)}")
    print(f"  speedup  : {speedup:.1f}x (routes and timestamps bit-identical)")

    write_timing_artifact(
        "bench_roadnet_dataset_build",
        {
            "trajectories": NUM_TRAJECTORIES,
            "legacy_generate_seconds": legacy_gen,
            "legacy_match_seconds": legacy_match,
            "compiled_generate_seconds": compiled_gen,
            "compiled_match_seconds": compiled_match,
            "speedup": speedup,
            "min_speedup_required": MIN_BUILD_SPEEDUP,
        },
    )
    floor = baseline_floor("roadnet", "dataset_build.speedup", MIN_BUILD_SPEEDUP)
    assert speedup >= floor, (
        f"dataset build only {speedup:.1f}x faster (required {floor:.1f}x)"
    )


def test_bench_batched_dijkstra():
    """Batched multi-source distances vs one legacy Dijkstra per source."""
    city = _bench_city()
    net = city.network
    nodes = [n.node_id for n in net.intersections()]

    batched_dijkstra_distances(net, nodes[:4])  # warm (compile + caches)

    rounds = 3
    legacy_elapsed = float("inf")
    for _ in range(rounds):
        with Timer() as timer:
            reference = [legacy_dijkstra_distances(net, node) for node in nodes]
        legacy_elapsed = min(legacy_elapsed, timer.elapsed)

    compiled_elapsed = float("inf")
    for _ in range(rounds):
        with Timer() as timer:
            matrix = batched_dijkstra_distances(net, nodes)
        compiled_elapsed = min(compiled_elapsed, timer.elapsed)

    drift = 0.0
    for row, node in enumerate(nodes):
        expected = np.array(
            [reference[row].get(target, float("inf")) for target in nodes]
        )
        finite = np.isfinite(expected)
        assert (np.isfinite(matrix[row]) == finite).all()
        if finite.any():
            drift = max(drift, float(np.abs(matrix[row][finite] - expected[finite]).max()))

    speedup = legacy_elapsed / compiled_elapsed
    print()
    print(f"Batched Dijkstra ({len(nodes)} sources x {len(nodes)} nodes):")
    print(f"  per-source legacy : {format_duration(legacy_elapsed)}")
    print(f"  batched CSR       : {format_duration(compiled_elapsed)}")
    print(f"  speedup           : {speedup:.1f}x, max drift {drift:.2e}")

    write_timing_artifact(
        "bench_roadnet_dijkstra",
        {
            "sources": len(nodes),
            "legacy_seconds": legacy_elapsed,
            "compiled_seconds": compiled_elapsed,
            "speedup": speedup,
            "max_abs_drift": drift,
            "min_speedup_required": MIN_DIJKSTRA_SPEEDUP,
        },
    )
    assert drift == 0.0, f"batched distances drifted by {drift}"
    floor = baseline_floor("roadnet", "dijkstra.speedup", MIN_DIJKSTRA_SPEEDUP)
    assert speedup >= floor, (
        f"batched Dijkstra only {speedup:.1f}x faster (required "
        f"{floor:.1f}x)"
    )


def test_bench_score_parity_csr_vs_dense():
    """Anomaly scores under CSR successor tables vs the dense-mask reference.

    Serving has one road constraint, the compiled graph; its sparse advance
    is pinned to offline scoring at 1e-12 by the fleet parity suites.
    """
    city = _bench_city()
    net = city.network
    simulator = TrajectorySimulator(
        city, config=SimulatorConfig(min_length=6, max_length=40), rng=RandomState(BENCH_SEED + 2)
    )
    trajectories = simulator.generate_many(32)
    model = CausalTAD(
        CausalTADConfig.small(net.num_segments), network=net, rng=RandomState(BENCH_SEED)
    )
    model.eval()
    batch = encode_batch(trajectories, net.num_segments)

    # Offline: negative ELBO through the compiled graph vs the dense-mask
    # reference decoder.
    csr_scores = model.tg_vae.negative_elbo(batch, model.road_graph)
    dense = reference.tg_vae_forward(
        model.tg_vae, batch, net.transition_mask(), deterministic_latent=True
    )
    dense_scores = dense.trajectory_nll + dense.sd_nll + dense.kl
    offline_drift = float(np.abs(csr_scores - dense_scores).max())

    print()
    print(f"Score parity over {len(trajectories)} trajectories:")
    print(f"  offline CSR vs dense : max drift {offline_drift:.2e}")

    write_timing_artifact(
        "bench_roadnet_score_parity",
        {
            "trajectories": len(trajectories),
            "offline_max_drift": offline_drift,
            "max_drift_allowed": MAX_SCORE_DRIFT,
        },
    )
    assert offline_drift <= MAX_SCORE_DRIFT
