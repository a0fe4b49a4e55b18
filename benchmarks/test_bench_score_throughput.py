"""Benchmark — dataset scoring and the λ sweep on the numpy inference engine.

The offline evaluation layer (Tables I–III, Figs. 4–8) scores datasets through
``CausalTAD.score_dataset``, which runs the inference engine
(:mod:`repro.core.inference`):

* road-constrained decoder states are contracted against only the successor
  weight columns (O(out-degree) per step instead of O(vocab)), so the
  ``(batch, time, vocab)`` logits never exist;
* length-bucketed batches reuse one set of workspaces;
* a :class:`~repro.core.inference.ScoreDecomposition` lets the Fig. 8 λ sweep
  score the dataset **once** and evaluate the whole grid as a vectorized
  ``likelihood − λ ⊗ scaling`` outer product.

Gates, on medians of interleaved repeats:

* **dataset scoring** — decoder positions scored per probe-second: positions
  ÷ (``score_dataset`` seconds ÷ seconds of ``bench``'s host-speed probe,
  :func:`bench.workloads.probe_seconds`), at least the committed
  ``BENCH_scoring.json`` value × 0.75.  The probe divides out how fast the
  host runs; an engine that projects every state onto all segments before
  its softmax reads about 0.4 of the baseline.
* **λ sweep** — one ``score_dataset`` pass ÷ one ``lambda_sweep_scores``
  call of the same engine.  One pass for the whole grid reads about 1; a
  sweep that makes one pass per λ reads about 1 / ``len(LAMBDAS)``.  The
  sweep must also run exactly one dataset pass.
* maximum score drift vs the Tensor path (``engine="graph"``) at most
  **1e-10**.

The Tensor path used to be the denominator of both speed gates.  Since the
training loss runs the engine's successor step, that path no longer projects
onto the vocabulary either, so a ratio against it measured the Tensor
bookkeeping rather than the engine.  Its time over the engine's is printed
and recorded as information only.

The city is generated at a paper-realistic road-network scale (~1200 directed
segments), and the scored trajectories are road-constrained walks in the
length regime of the paper's real Xi'an/Chengdu data.

Timing JSON is written via ``REPRO_BENCH_ARTIFACTS`` for the CI artifact.
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
from repro.roadnet import CityConfig, generate_arterial_city
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.types import MapMatchedTrajectory
from repro.utils import RandomState
from repro.utils.timing import format_duration

#: Fixed floors, set from the measured spread on a 2-vCPU host (see
#: CHANGES.md): unchanged code read 760–970 positions per probe-second and a
#: score/sweep ratio of 0.92–1.11 over 30 runs; an engine that projects onto
#: all segments read 355–391, a sweep with one pass per λ 0.15–0.18.
MIN_POSITIONS_PER_PROBE_SECOND = 500.0
MIN_SCORE_OVER_SWEEP = 0.6
DRIFT_ATOL = 1e-10
LAMBDAS = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0)
CITY_ROWS = 18
NUM_TRAJECTORIES = 320 if BENCH_SCALE == "full" else 224
MIN_WALK, MAX_WALK = 24, 96
WARMUPS = 2
REPEATS = 9


def _walk_dataset(network, num_segments: int, count: int) -> TrajectoryDataset:
    """Road-constrained random walks at paper-realistic trajectory lengths."""
    graph = network.compiled()
    succ_idx, succ_valid = graph.successor_tables()
    rng = np.random.default_rng(BENCH_SEED)
    walks = []
    for ride in range(count):
        target = int(rng.integers(MIN_WALK, MAX_WALK + 1))
        segments = [int(rng.integers(0, num_segments))]
        while len(segments) < target:
            valid = succ_valid[segments[-1]]
            if not valid.any():
                break
            segments.append(int(rng.choice(succ_idx[segments[-1]][valid])))
        walks.append(MapMatchedTrajectory(trajectory_id=f"walk-{ride}", segments=segments))
    return TrajectoryDataset.from_trajectories(walks, num_segments, name="score-walks")


def _graph_sweep(model, dataset):
    """The λ grid on the Tensor path: one ``engine="graph"`` dataset pass per λ."""
    return np.stack(
        [model.score_dataset(dataset, lambda_weight=lam, engine="graph") for lam in LAMBDAS]
    )


def test_bench_score_throughput_and_lambda_sweep():
    city = generate_arterial_city(
        CityConfig(name="score-bench", rows=CITY_ROWS, cols=CITY_ROWS, num_pois=5),
        rng=RandomState(BENCH_SEED),
    )
    network = city.network
    num_segments = network.num_segments
    dataset = _walk_dataset(network, num_segments, NUM_TRAJECTORIES)
    model = CausalTAD(
        CausalTADConfig.small(num_segments), network=network, rng=RandomState(BENCH_SEED)
    )
    # Precompute the RP-VAE scaling cache so no timed call pays it (the paper
    # precomputes it once per trained model).
    model.scaling_factors()
    engine = model.inference_engine()

    # --- parity: drift vs the Tensor path ------------------------------- #
    graph_scores = model.score_dataset(dataset, engine="graph")
    numpy_scores = model.score_dataset(dataset, engine="numpy")
    score_drift = float(np.abs(graph_scores - numpy_scores).max())
    assert score_drift <= DRIFT_ATOL, f"score drift {score_drift:.2e} > {DRIFT_ATOL}"

    # --- Fig. 8 λ sweep: one forward for the whole grid ------------------- #
    engine.stats.reset()
    sweep = model.lambda_sweep_scores(dataset, LAMBDAS)
    assert engine.stats.dataset_passes == 1, (
        f"λ sweep ran {engine.stats.dataset_passes} dataset passes; the "
        "decomposition must be computed exactly once for the whole grid"
    )
    assert engine.stats.trajectories_scored == len(dataset)
    graph_sweep = _graph_sweep(model, dataset)
    sweep_drift = float(np.abs(sweep - graph_sweep).max())
    assert sweep_drift <= DRIFT_ATOL, f"λ-sweep drift {sweep_drift:.2e} > {DRIFT_ATOL}"

    # --- timings: probe, engine pass, engine sweep, Tensor pass ----------- #
    probe_time, score_time, sweep_time, graph_time = interleaved_medians(
        [
            probe_seconds,
            lambda: model.score_dataset(dataset),
            lambda: model.lambda_sweep_scores(dataset, LAMBDAS),
            lambda: model.score_dataset(dataset, engine="graph"),
        ],
        warmups=WARMUPS,
        repeats=REPEATS,
    )
    positions = int(sum(len(item.trajectory) - 1 for item in dataset))
    positions_per_probe_second = positions * probe_time / score_time
    score_over_sweep = score_time / sweep_time
    graph_over_numpy = graph_time / score_time

    mean_length = dataset.mean_length()
    print()
    print(
        f"Offline scoring of {len(dataset)} walks (mean {mean_length:.0f} segments, "
        f"{positions} positions) on a {num_segments}-segment network, medians of "
        f"{REPEATS} interleaved repeats:"
    )
    print(
        f"  score_dataset      {format_duration(score_time)}  probe "
        f"{format_duration(probe_time)}  {positions_per_probe_second:,.0f} "
        "positions per probe-second"
    )
    print(
        f"  λ sweep ({len(LAMBDAS)} pts)   {format_duration(sweep_time)}  "
        f"score / sweep {score_over_sweep:.2f}"
    )
    print(
        f"  Tensor path        {format_duration(graph_time)}  graph / numpy "
        f"{graph_over_numpy:.2f} (not gated)"
    )
    print(f"  max score drift    {score_drift:.2e}   sweep drift {sweep_drift:.2e}")

    write_timing_artifact(
        "bench_score_throughput",
        {
            "num_segments": num_segments,
            "num_trajectories": len(dataset),
            "mean_length": mean_length,
            "positions": positions,
            "probe_seconds": probe_time,
            "numpy_score_seconds": score_time,
            "numpy_sweep_seconds": sweep_time,
            "graph_score_seconds": graph_time,
            "positions_per_probe_second": positions_per_probe_second,
            "score_over_sweep": score_over_sweep,
            "graph_over_numpy": graph_over_numpy,
            "lambda_grid": list(LAMBDAS),
            "sweep_dataset_passes": 1,
            "score_drift": score_drift,
            "sweep_drift": sweep_drift,
            "min_positions_per_probe_second_required": MIN_POSITIONS_PER_PROBE_SECOND,
            "min_score_over_sweep_required": MIN_SCORE_OVER_SWEEP,
        },
    )

    rate_floor = baseline_floor(
        "scoring", "positions_per_probe_second", MIN_POSITIONS_PER_PROBE_SECOND
    )
    assert positions_per_probe_second >= rate_floor, (
        f"the engine scores only {positions_per_probe_second:,.0f} positions per "
        f"probe-second (required {rate_floor:,.0f})"
    )
    sweep_floor = baseline_floor("scoring", "score_over_sweep", MIN_SCORE_OVER_SWEEP)
    assert score_over_sweep >= sweep_floor, (
        f"one λ sweep takes {1 / score_over_sweep:.2f} dataset passes' time "
        f"(score / sweep {score_over_sweep:.2f}, required {sweep_floor:.2f})"
    )
