"""Benchmark for **Fig. 8** — sensitivity to the balance hyperparameter λ.

Paper protocol (§VI-H): re-score the *same trained model* with
λ ∈ {0, 0.01, 0.05, 0.1, 0.5, 1.0} on all four dataset combinations.
Expected shape: performance is flat-to-slightly-improving for small λ and
collapses for large λ (the scaling factor is an overestimate, Eq. 6, so a
small λ compensates); the paper's optimum is near 0.1 on the DiDi data, and
the harness prints where the optimum falls on the synthetic substrate.

The shape claims read the pipeline's ``eval/fig8``; the timed sweep reruns
it on the pipeline's fitted CausalTAD.
"""

from __future__ import annotations

import numpy as np

from repro.eval import format_sweep, run_lambda_sweep

COMBINATIONS = (("id", "detour"), ("id", "switch"), ("ood", "detour"), ("ood", "switch"))


def _roc_auc_at(sweep, series: str, lam: float) -> float:
    return sweep.series[series]["roc_auc"][sweep.parameter_values.index(lam)]


def test_bench_fig8_lambda_sweep(benchmark, pipeline):
    lambdas = pipeline.profile.lambdas
    benchmark.pedantic(
        lambda: run_lambda_sweep(
            pipeline["dataset"],
            pipeline["train/CausalTAD"],
            lambdas=lambdas,
            combinations=COMBINATIONS,
        ),
        rounds=1,
        iterations=1,
    )

    sweep = pipeline["eval/fig8"]
    print()
    print(format_sweep(sweep, metric="roc_auc"))
    print(format_sweep(sweep, metric="pr_auc"))
    for series in sweep.series:
        best_index = int(np.argmax(sweep.series[series]["roc_auc"]))
        print(f"optimal lambda for {series}: {lambdas[best_index]}")

    assert sweep.parameter_values == list(lambdas)
    assert set(sweep.series) == {f"{d}-{a}" for d, a in COMBINATIONS}


def test_fig8_shape_large_lambda_hurts(pipeline):
    """λ = 1 must be clearly worse than the small-λ regime (the paper's finding)."""
    sweep = pipeline["eval/fig8"]
    assert _roc_auc_at(sweep, "ood-detour", 0.05) > _roc_auc_at(sweep, "ood-detour", 1.0)


def test_fig8_shape_small_lambda_close_to_likelihood_only(pipeline):
    """λ → 0 recovers the TG-VAE-only scores (CausalTAD degrades to VSAE-style scoring)."""
    sweep = pipeline["eval/fig8"]
    assert abs(_roc_auc_at(sweep, "id-detour", 0.0) - _roc_auc_at(sweep, "id-detour", 0.01)) < 0.05
