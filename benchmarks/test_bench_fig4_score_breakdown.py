"""Benchmark for **Fig. 4** — per-segment anomaly scores of an OOD trajectory.

The paper visualises one normal trajectory with an unseen SD pair: the plain
VSAE assigns several unpopular road segments anomaly scores above 5 and
misclassifies the ride, while CausalTAD's scaling factor compensates for the
over-estimation.  The pipeline's ``eval/fig4`` holds the underlying numbers:
the per-segment likelihood scores, the per-segment scaling factors and the
debiased scores for the OOD normal trajectory the baseline dislikes most.
The timed pass recomputes that breakdown with the pipeline's fitted
detectors.
"""

from __future__ import annotations

import numpy as np

from benchmarks.support import SCORING_ROUNDS
from repro.eval import score_breakdown


def test_bench_fig4_breakdown(benchmark, pipeline):
    data = pipeline["dataset"]
    comparison = pipeline["eval/fig4"]
    causal = pipeline["train/CausalTAD"]
    baseline = pipeline[f"train/{comparison.baseline_name}"]
    benchmark.pedantic(
        lambda: score_breakdown(data, causal, baseline), rounds=SCORING_ROUNDS, warmup_rounds=1
    )

    print()
    print(f"== fig4-score-breakdown ({comparison.trajectory_id}) ==")
    print(f"baseline ({comparison.baseline_name}) total score: {comparison.baseline_total:.3f}")
    print(f"CausalTAD total score: {comparison.causal_total:.3f}")
    print("segment  scaling(logE[1/P])  debiased-score")
    for segment, scaling, debiased in zip(
        comparison.segments, comparison.scaling_scores, comparison.causal_scores
    ):
        print(f"{segment:7d}  {scaling:18.3f}  {debiased:14.3f}")

    assert comparison.segments.shape == comparison.causal_scores.shape
    assert np.isfinite(comparison.causal_scores).all()


def test_fig4_shape_scaling_targets_unpopular_segments(pipeline):
    """Segments that rarely (or never) occur in training get larger scaling factors."""
    data = pipeline["dataset"]
    comparison = pipeline["eval/fig4"]
    scaling = pipeline["train/CausalTAD"].model.scaling_factors()

    counts = np.zeros(data.num_segments)
    for trajectory in data.train.trajectories:
        for segment in trajectory.segments:
            counts[segment] += 1
    seen = counts > np.median(counts)
    unseen = counts == 0
    if unseen.any() and seen.any():
        assert scaling[unseen].mean() > scaling[seen].mean()
    # The trajectory's own unpopular segments receive above-average correction.
    trajectory_scaling = comparison.scaling_scores
    assert trajectory_scaling.max() >= np.median(scaling)
