"""Benchmark — the CSR road-graph kernel: its speed, and its parity with the dict/dataclass seed paths.

The road layer sits under everything the paper's evaluation does: the dataset
build (route sampling + GPS simulation + map matching), the nearest-segment
queries behind matching, and the shortest-path distances behind the anomaly
generators.  This benchmark drives the compiled
:class:`~repro.roadnet.csr.CompiledRoadGraph` and the dict/dataclass
implementations it replaced (the parity oracles of
``tests/roadnet_reference.py``) through identical seeded workloads.

Exactness (quick scale, enforced):

* the dataset build (generation + map matching) yields bit-identical
  generated routes/timestamps and matched routes;
* nearest-segment candidate queries return the exhaustive scan's top-k
  candidates;
* batched multi-source Dijkstra distances equal per-source legacy Dijkstra
  bit for bit;
* offline anomaly scores under the CSR successor tables lie within 1e-12 of
  the dense transition-mask reference decoder (``tests/reference.py``).

Speed gates, on medians of interleaved repeats, each read in work per second
of ``bench``'s host-speed probe (:func:`bench.workloads.probe_seconds`) and
at least the committed ``BENCH_roadnet.json`` value × 0.75:

* **dataset build** — trajectories generated and map matched per
  probe-second;
* **nearest-segment queries** — query points answered per probe-second;
* **batched Dijkstra** — source rows of shortest distances per
  probe-second.

The speed-ups over the legacy paths used to be the gates.  The legacy paths
are bound by the interpreter and the compiled ones by numpy and scipy, so
their ratio moved with the host (queries read 50.8–87.5× against a 60.1×
floor on a 2-vCPU VM).  Each legacy path now runs once, for its parity
check; its time over the compiled path's is printed and recorded as
information only.
"""

from __future__ import annotations

import numpy as np

from bench.workloads import probe_seconds
from benchmarks.support import (
    BENCH_SCALE,
    BENCH_SEED,
    baseline_floor,
    interleaved_medians,
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

#: Fixed floors, set from the measured spread on a 2-vCPU host (see
#: CHANGES.md): over 20 runs unchanged code read 1.74–2.40 trajectories,
#: 436–645 query points and 378–429 Dijkstra sources per probe-second; a
#: build that answers nearest-segment queries one point at a time and runs
#: Dijkstra one source at a time read 0.84–0.95, 28–33 and 20–26.  The
#: committed baseline × 0.75 ratchets each floor up.
MIN_BUILD_TRAJECTORIES_PER_PROBE_SECOND = 1.3
MIN_QUERY_POINTS_PER_PROBE_SECOND = 250.0
MIN_DIJKSTRA_SOURCES_PER_PROBE_SECOND = 200.0
MAX_SCORE_DRIFT = 1e-12

NUM_TRAJECTORIES = 80 if BENCH_SCALE == "full" else 40
NUM_QUERY_POINTS = 3000 if BENCH_SCALE == "full" else 1500
#: Batched Dijkstra calls per timed step: one call over the quick city takes
#: under a millisecond, a fraction of the probe.
DIJKSTRA_CALLS = 8
WARMUPS = 2
REPEATS = 15


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

    def compiled_queries():
        return graph.nearest_segments(
            points, 4, headings=headings, heading_weight=legacy.heading_weight
        )

    with Timer() as legacy_timer:
        reference = [
            legacy.candidates(
                Point(float(x), float(y)), (float(hx), float(hy))
            )
            for (x, y), (hx, hy) in zip(points, headings)
        ]
    sids, _ = compiled_queries()
    mismatches = sum(
        1
        for i in range(NUM_QUERY_POINTS)
        if [s for s, _ in reference[i]] != sids[i].tolist()
    )

    probe_time, compiled_elapsed = interleaved_medians(
        [probe_seconds, compiled_queries], warmups=WARMUPS, repeats=REPEATS
    )
    points_per_probe_second = NUM_QUERY_POINTS * probe_time / compiled_elapsed
    speedup = legacy_timer.elapsed / compiled_elapsed
    print()
    print(f"Nearest-segment queries ({NUM_QUERY_POINTS} points, "
          f"{graph.num_segments} segments), medians of {REPEATS} interleaved repeats:")
    print(f"  grid-local CSR  : {format_duration(compiled_elapsed)}  probe "
          f"{format_duration(probe_time)}  {points_per_probe_second:,.0f} points "
          "per probe-second")
    print(f"  exhaustive scan : {format_duration(legacy_timer.elapsed)} (one run)")
    print(f"  speedup         : {speedup:.1f}x (not gated), candidate mismatches {mismatches}")

    write_timing_artifact(
        "bench_roadnet_queries",
        {
            "points": NUM_QUERY_POINTS,
            "segments": graph.num_segments,
            "probe_seconds": probe_time,
            "legacy_seconds": legacy_timer.elapsed,
            "compiled_seconds": compiled_elapsed,
            "points_per_probe_second": points_per_probe_second,
            "speedup": speedup,
            "min_points_per_probe_second_required": MIN_QUERY_POINTS_PER_PROBE_SECOND,
        },
    )
    assert mismatches == 0, f"{mismatches} candidate sets diverged from the scan"
    floor = baseline_floor(
        "roadnet", "queries.points_per_probe_second", MIN_QUERY_POINTS_PER_PROBE_SECOND
    )
    assert points_per_probe_second >= floor, (
        f"nearest-segment queries answer only {points_per_probe_second:,.0f} points "
        f"per probe-second (required {floor:,.0f})"
    )


def test_bench_dataset_build():
    """Generation + map matching end to end, CSR vs legacy, exact parity."""
    city = _bench_city()
    config = SimulatorConfig(min_length=6, max_length=50)

    def generate(simulator_class):
        simulator = simulator_class(city, config=config, rng=RandomState(BENCH_SEED + 1))
        return simulator.generate_many(NUM_TRAJECTORIES)

    def gps(trajectories):
        return [
            simulate_gps(city.network, t, rng=RandomState(10_000 + i))
            for i, t in enumerate(trajectories)
        ]

    matcher = MapMatcher(city.network)
    compiled_traj = generate(TrajectorySimulator)
    compiled_raws = gps(compiled_traj)
    compiled_matches = [matcher.match(raw) for raw in compiled_raws]

    legacy_matcher = LegacyMapMatcher(city.network)
    with Timer() as legacy_generation:
        legacy_traj = generate(legacy_simulator)
    legacy_raws = gps(legacy_traj)
    with Timer() as legacy_matching:
        legacy_matches = [legacy_matcher.match(raw) for raw in legacy_raws]

    assert len(compiled_traj) == len(legacy_traj) == NUM_TRAJECTORIES
    for a, b in zip(compiled_traj, legacy_traj):
        assert a.segments == b.segments, "generated routes diverged"
        assert a.timestamps == b.timestamps, "generated timestamps diverged"
    for a, b in zip(compiled_matches, legacy_matches):
        assert a.trajectory.segments == b.trajectory.segments, "matched routes diverged"

    probe_time, compiled_gen, compiled_match = interleaved_medians(
        [
            probe_seconds,
            lambda: generate(TrajectorySimulator),
            lambda: [matcher.match(raw) for raw in compiled_raws],
        ],
        warmups=WARMUPS,
        repeats=REPEATS,
    )
    compiled_total = compiled_gen + compiled_match
    legacy_total = legacy_generation.elapsed + legacy_matching.elapsed
    trajectories_per_probe_second = NUM_TRAJECTORIES * probe_time / compiled_total
    speedup = legacy_total / compiled_total
    print()
    print(f"Dataset build ({NUM_TRAJECTORIES} trajectories, "
          f"{city.network.num_segments} segments), medians of {REPEATS} interleaved repeats:")
    print(f"  compiled : generate {format_duration(compiled_gen)} + "
          f"match {format_duration(compiled_match)} = {format_duration(compiled_total)}  "
          f"probe {format_duration(probe_time)}  {trajectories_per_probe_second:,.2f} "
          "trajectories per probe-second")
    print(f"  legacy   : generate {format_duration(legacy_generation.elapsed)} + "
          f"match {format_duration(legacy_matching.elapsed)} = "
          f"{format_duration(legacy_total)} (one run)")
    print(f"  speedup  : {speedup:.1f}x (not gated; routes and timestamps bit-identical)")

    write_timing_artifact(
        "bench_roadnet_dataset_build",
        {
            "trajectories": NUM_TRAJECTORIES,
            "probe_seconds": probe_time,
            "legacy_generate_seconds": legacy_generation.elapsed,
            "legacy_match_seconds": legacy_matching.elapsed,
            "compiled_generate_seconds": compiled_gen,
            "compiled_match_seconds": compiled_match,
            "trajectories_per_probe_second": trajectories_per_probe_second,
            "speedup": speedup,
            "min_trajectories_per_probe_second_required": (
                MIN_BUILD_TRAJECTORIES_PER_PROBE_SECOND
            ),
        },
    )
    floor = baseline_floor(
        "roadnet",
        "dataset_build.trajectories_per_probe_second",
        MIN_BUILD_TRAJECTORIES_PER_PROBE_SECOND,
    )
    assert trajectories_per_probe_second >= floor, (
        f"the dataset build makes only {trajectories_per_probe_second:,.2f} trajectories "
        f"per probe-second (required {floor:,.2f})"
    )


def test_bench_batched_dijkstra():
    """Batched multi-source distances vs one legacy Dijkstra per source."""
    city = _bench_city()
    net = city.network
    nodes = [n.node_id for n in net.intersections()]

    with Timer() as legacy_timer:
        reference = [legacy_dijkstra_distances(net, node) for node in nodes]
    matrix = batched_dijkstra_distances(net, nodes)

    drift = 0.0
    for row, node in enumerate(nodes):
        expected = np.array(
            [reference[row].get(target, float("inf")) for target in nodes]
        )
        finite = np.isfinite(expected)
        assert (np.isfinite(matrix[row]) == finite).all()
        if finite.any():
            drift = max(drift, float(np.abs(matrix[row][finite] - expected[finite]).max()))

    def batched():
        for _ in range(DIJKSTRA_CALLS):
            batched_dijkstra_distances(net, nodes)

    probe_time, batched_time = interleaved_medians(
        [probe_seconds, batched], warmups=WARMUPS, repeats=REPEATS
    )
    compiled_elapsed = batched_time / DIJKSTRA_CALLS
    sources_per_probe_second = len(nodes) * probe_time / compiled_elapsed
    speedup = legacy_timer.elapsed / compiled_elapsed
    print()
    print(f"Batched Dijkstra ({len(nodes)} sources x {len(nodes)} nodes), medians of "
          f"{REPEATS} interleaved repeats:")
    print(f"  batched CSR       : {format_duration(compiled_elapsed)}  probe "
          f"{format_duration(probe_time)}  {sources_per_probe_second:,.0f} sources per "
          "probe-second")
    print(f"  per-source legacy : {format_duration(legacy_timer.elapsed)} (one run)")
    print(f"  speedup           : {speedup:.1f}x (not gated), max drift {drift:.2e}")

    write_timing_artifact(
        "bench_roadnet_dijkstra",
        {
            "sources": len(nodes),
            "probe_seconds": probe_time,
            "legacy_seconds": legacy_timer.elapsed,
            "compiled_seconds": compiled_elapsed,
            "sources_per_probe_second": sources_per_probe_second,
            "speedup": speedup,
            "max_abs_drift": drift,
            "min_sources_per_probe_second_required": MIN_DIJKSTRA_SOURCES_PER_PROBE_SECOND,
        },
    )
    assert drift == 0.0, f"batched distances drifted by {drift}"
    floor = baseline_floor(
        "roadnet", "dijkstra.sources_per_probe_second", MIN_DIJKSTRA_SOURCES_PER_PROBE_SECOND
    )
    assert sources_per_probe_second >= floor, (
        f"batched Dijkstra answers only {sources_per_probe_second:,.0f} sources per "
        f"probe-second (required {floor:,.0f})"
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
