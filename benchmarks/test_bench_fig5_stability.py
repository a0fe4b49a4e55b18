"""Benchmark for **Fig. 5** — stability under increasing distribution shift.

Paper protocol (§VI-D): mix the ID and OOD test sets (Detour anomalies) at
shift ratios α ∈ {0, 0.2, …, 1.0} and track ROC-AUC / PR-AUC.  Expected
shape: every method degrades roughly linearly as α grows; CausalTAD degrades
the slowest and stays on top across the whole range.

The shape claims read the pipeline's ``eval/fig5``; the timed sweep reruns
it with the pipeline's fitted detectors.
"""

from __future__ import annotations

from repro.eval import format_sweep, run_stability_sweep
from repro.utils import RandomState


def test_bench_fig5_stability(benchmark, pipeline):
    data = pipeline["dataset"]
    profile = pipeline.profile
    detectors = pipeline.detectors(profile.sweep_detectors)
    benchmark.pedantic(
        lambda: run_stability_sweep(
            data, detectors, alphas=profile.alphas, anomaly="detour", rng=RandomState(99)
        ),
        rounds=1,
        iterations=1,
    )

    sweep = pipeline["eval/fig5"]
    print()
    print(format_sweep(sweep, metric="roc_auc"))
    print(format_sweep(sweep, metric="pr_auc"))

    assert sweep.parameter_values == list(profile.alphas)
    for name in profile.sweep_detectors:
        assert len(sweep.curve(name)) == len(profile.alphas)


def test_fig5_shape_performance_decreases_with_shift(pipeline):
    """Full shift (α=1) is harder than no shift (α=0) for every detector."""
    sweep = pipeline["eval/fig5"]
    assert sweep.parameter_values[0] == 0.0 and sweep.parameter_values[-1] == 1.0
    for name in pipeline.profile.sweep_detectors:
        curve = sweep.curve(name)
        assert curve[-1] < curve[0] + 0.02


def test_fig5_shape_causal_tad_most_stable(pipeline):
    """CausalTAD's degradation from α=0 to α=1 is no worse than the baselines'."""
    sweep = pipeline["eval/fig5"]
    assert sweep.parameter_values[0] == 0.0 and sweep.parameter_values[-1] == 1.0
    drops = {name: sweep.curve(name)[0] - sweep.curve(name)[-1] for name in sweep.series}
    baseline_drops = [v for k, v in drops.items() if k != "CausalTAD"]
    assert drops["CausalTAD"] <= max(baseline_drops) + 0.10
