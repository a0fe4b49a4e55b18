"""Benchmark for **Fig. 6** — online evaluation at partial observation.

Paper protocol (§VI-E): truncate every test trajectory to an observed ratio
in {0.2, …, 1.0} and evaluate the detectors on the prefixes, for
ID & Switch (Fig. 6a) and OOD & Switch (Fig. 6b).  Expected shape: every
curve rises with the observed ratio; CausalTAD stays above the baselines at
every ratio, reaching usable quality around ratio 0.6.

The pipeline's ``eval/fig6`` is Fig. 6a, and the shape claim reads it.  Both
timed sweeps score the pipeline's fitted detectors; Fig. 6b exists only here.
"""

from __future__ import annotations

from repro.eval import format_sweep, run_online_sweep


def test_bench_fig6a_online_id_switch(benchmark, pipeline):
    data = pipeline["dataset"]
    ratios = pipeline.profile.observed_ratios
    detectors = pipeline.detectors(pipeline.profile.sweep_detectors)
    benchmark.pedantic(
        lambda: run_online_sweep(
            data, detectors, observed_ratios=ratios, distribution="id", anomaly="switch"
        ),
        rounds=1,
        iterations=1,
    )
    sweep = pipeline["eval/fig6"]
    print()
    print(format_sweep(sweep, metric="roc_auc"))
    print(format_sweep(sweep, metric="pr_auc"))
    assert sweep.parameter_values == list(ratios)


def test_bench_fig6b_online_ood_switch(benchmark, pipeline):
    data = pipeline["dataset"]
    detectors = pipeline.detectors(pipeline.profile.sweep_detectors)
    sweep = benchmark.pedantic(
        lambda: run_online_sweep(
            data,
            detectors,
            observed_ratios=pipeline.profile.observed_ratios,
            distribution="ood",
            anomaly="switch",
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_sweep(sweep, metric="roc_auc"))
    print(format_sweep(sweep, metric="pr_auc"))
    assert set(sweep.series) == set(pipeline.profile.sweep_detectors)


def test_fig6_shape_more_observation_helps(pipeline):
    """Full observation is at least as good as seeing only 20% of the ride."""
    sweep = pipeline["eval/fig6"]
    assert sweep.parameter_values[0] == 0.2 and sweep.parameter_values[-1] == 1.0
    curve = sweep.curve("CausalTAD")
    assert curve[-1] >= curve[0] - 0.02
