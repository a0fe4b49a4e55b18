"""Detector evaluation helpers.

* :func:`evaluate_detector` — fit-free scoring of one detector on one test
  combination, returning ROC-AUC / PR-AUC.
* :class:`EvaluationResult` — one row of a results table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.baselines.base import TrajectoryAnomalyDetector
from repro.eval.metrics import evaluate_scores
from repro.trajectory.dataset import TrajectoryDataset
from repro.utils.timing import Timer

__all__ = ["EvaluationResult", "evaluate_detector"]


@dataclass(frozen=True)
class EvaluationResult:
    """Metrics of one detector on one test dataset."""

    detector: str
    dataset: str
    roc_auc: float
    pr_auc: float
    num_trajectories: int
    num_anomalies: int
    score_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "detector": self.detector,
            "dataset": self.dataset,
            "roc_auc": self.roc_auc,
            "pr_auc": self.pr_auc,
            "num_trajectories": self.num_trajectories,
            "num_anomalies": self.num_anomalies,
            "score_seconds": self.score_seconds,
        }


def evaluate_detector(
    detector: TrajectoryAnomalyDetector, dataset: TrajectoryDataset
) -> EvaluationResult:
    """Score a *fitted* detector on one labelled dataset."""
    with Timer() as timer:
        scores = detector.score(dataset)
    metrics = evaluate_scores(scores, dataset.labels)
    return EvaluationResult(
        detector=detector.name,
        dataset=dataset.name,
        roc_auc=metrics["roc_auc"],
        pr_auc=metrics["pr_auc"],
        num_trajectories=len(dataset),
        num_anomalies=dataset.num_anomalies,
        score_seconds=timer.elapsed,
    )
