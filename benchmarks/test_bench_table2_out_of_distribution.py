"""Benchmark for **Table II** — out-of-distribution evaluation.

Paper protocol (§VI-C): the same detector suite scored on the ``OOD & Detour``
and ``OOD & Switch`` combinations, whose normal trajectories have SD pairs
never seen in training.  Expected shape: every method drops substantially
relative to Table I, and CausalTAD's margin over the best baseline is much
larger than in distribution (the paper reports +10.6% – +32.7%).

The shape claims read the pipeline's ``eval/table1`` and ``eval/table2``;
the timed pass is the pipeline's fitted CausalTAD scoring OOD & Detour.
"""

from __future__ import annotations

from benchmarks.support import SCORING_ROUNDS
from repro.eval import format_improvement_summary, format_results_table


def test_bench_table2_scoring(benchmark, pipeline):
    """Time CausalTAD's scoring pass over the OOD & Detour combination."""
    data = pipeline["dataset"]
    causal = pipeline["train/CausalTAD"]
    result = benchmark.pedantic(
        lambda: causal.score(data.ood_detour), rounds=SCORING_ROUNDS, warmup_rounds=1
    )
    assert result.shape[0] == len(data.ood_detour)

    table2 = pipeline["eval/table2"]
    print()
    print(format_results_table(table2))
    print(format_improvement_summary(table2, metric="roc_auc"))
    print(format_improvement_summary(table2, metric="pr_auc"))


def test_table2_shape_causal_tad_leads_out_of_distribution(pipeline):
    """CausalTAD should be the best (or essentially tied-best) method on OOD data."""
    table2 = pipeline["eval/table2"]
    for dataset in ("ood-detour", "ood-switch"):
        best_baseline = max(
            result.roc_auc
            for result in table2.results
            if result.dataset == dataset and result.detector != "CausalTAD"
        )
        ours = table2.metric("CausalTAD", dataset)
        assert ours >= best_baseline - 0.03


def test_table2_shape_ood_is_harder_than_id(pipeline):
    """CausalTAD loses accuracy relative to the ID setting (the OOD gap)."""
    id_auc = pipeline["eval/table1"].metric("CausalTAD", "id-detour")
    ood_auc = pipeline["eval/table2"].metric("CausalTAD", "ood-detour")
    assert ood_auc < id_auc
