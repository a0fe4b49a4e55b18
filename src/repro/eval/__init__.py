"""``repro.eval`` — metrics, evaluation pipelines and experiment runners.

The experiment runners map one-to-one onto the paper's tables and figures; see
:mod:`repro.eval.experiments` for the index.
"""

from repro.eval.metrics import (
    roc_curve,
    roc_auc_score,
    precision_recall_curve,
    pr_auc_score,
    average_precision_score,
    evaluate_scores,
)
from repro.eval.evaluation import EvaluationResult, evaluate_detector
from repro.eval.experiments import (
    ExperimentTable,
    SweepResult,
    ScoreBreakdownComparison,
    EfficiencyResult,
    evaluate_fitted,
    score_breakdown,
    run_stability_sweep,
    run_online_sweep,
    run_training_scalability,
    run_inference_efficiency,
    run_lambda_sweep,
)
from repro.eval.reporting import (
    format_results_table,
    format_sweep,
    format_efficiency,
    format_improvement_summary,
    format_results_table_markdown,
    format_sweep_markdown,
    format_efficiency_markdown,
    format_breakdown_markdown,
)

__all__ = [
    "roc_curve",
    "roc_auc_score",
    "precision_recall_curve",
    "pr_auc_score",
    "average_precision_score",
    "evaluate_scores",
    "EvaluationResult",
    "evaluate_detector",
    "ExperimentTable",
    "SweepResult",
    "ScoreBreakdownComparison",
    "EfficiencyResult",
    "evaluate_fitted",
    "score_breakdown",
    "run_stability_sweep",
    "run_online_sweep",
    "run_training_scalability",
    "run_inference_efficiency",
    "run_lambda_sweep",
    "format_results_table",
    "format_sweep",
    "format_efficiency",
    "format_improvement_summary",
    "format_results_table_markdown",
    "format_sweep_markdown",
    "format_efficiency_markdown",
    "format_breakdown_markdown",
]
