"""Benchmark for **Table I** — in-distribution evaluation.

Paper protocol (§VI-B): evaluate every detector on the ``ID & Detour`` and
``ID & Switch`` combinations and report ROC-AUC / PR-AUC.  Expected *shape*
(not absolute values): all learning-based methods beat iBOAT; the Seq2Seq
family is tightly clustered; CausalTAD is at or near the top.

The shape claims read the pipeline's ``eval/table1``, the table
``docs/REPORT.md`` shows.  The pytest-benchmark measurement times the
pipeline's fitted CausalTAD scoring ID & Detour, and the table is printed so
it can be recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from benchmarks.support import SCORING_ROUNDS
from repro.eval import format_improvement_summary, format_results_table


def test_bench_table1_scoring(benchmark, pipeline):
    """Time CausalTAD's scoring pass over the ID & Detour combination."""
    data = pipeline["dataset"]
    causal = pipeline["train/CausalTAD"]
    result = benchmark.pedantic(
        lambda: causal.score(data.id_detour), rounds=SCORING_ROUNDS, warmup_rounds=1
    )
    assert result.shape[0] == len(data.id_detour)

    table1 = pipeline["eval/table1"]
    print()
    print(format_results_table(table1))
    print(format_improvement_summary(table1, metric="roc_auc"))
    print(format_improvement_summary(table1, metric="pr_auc"))


def test_table1_shape_learning_beats_metric(pipeline):
    """Learning-based methods should clearly beat iBOAT in distribution."""
    table1 = pipeline["eval/table1"]
    for dataset in ("id-detour", "id-switch"):
        assert table1.metric("CausalTAD", dataset) > table1.metric("iBOAT", dataset)


def test_table1_shape_causal_tad_competitive(pipeline):
    """CausalTAD must be within a few percent of the best baseline on ID data."""
    table1 = pipeline["eval/table1"]
    for dataset in ("id-detour", "id-switch"):
        best_baseline = max(
            result.roc_auc
            for result in table1.results
            if result.dataset == dataset and result.detector != "CausalTAD"
        )
        assert table1.metric("CausalTAD", dataset) >= best_baseline - 0.05
