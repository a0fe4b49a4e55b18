"""Benchmark for **Fig. 7(a)** — training scalability.

Paper protocol (§VI-F): vary the training-set size from 20% to 100% and
measure wall-clock training time.  Expected shape: every learning-based
method scales roughly linearly in the amount of training data.

The measurement is the pipeline's ``eval/fig7a`` stage, which trains its
scratch models for one epoch per fraction and runs alone at the tail of the
DAG so no other stage shares the host with its timers; this file prints and
checks it.
"""

from __future__ import annotations

from repro.eval import format_efficiency


def test_bench_fig7a_training_scalability(pipeline):
    result = pipeline["eval/fig7a"]
    fractions = pipeline.profile.train_fractions

    print()
    print(format_efficiency(result))

    assert result.parameter_values == list(fractions)
    assert set(result.seconds) == set(pipeline.profile.scalability_detectors)
    for series, seconds in result.seconds.items():
        assert len(seconds) == len(fractions)
        assert all(value > 0 for value in seconds), series


def test_fig7a_shape_roughly_linear_scaling(pipeline):
    """Training on 100% of the data costs clearly more than on 20%, and the
    growth is compatible with linear scaling (no quadratic blow-up)."""
    result = pipeline["eval/fig7a"]
    assert result.parameter_values[0] == 0.2 and result.parameter_values[-1] == 1.0
    seconds = result.seconds["CausalTAD"]
    t_small, t_full = seconds[0], seconds[-1]
    assert t_full > t_small
    # 5x the data should cost noticeably more than 1x but far less than 25x.
    assert t_full < t_small * 25
