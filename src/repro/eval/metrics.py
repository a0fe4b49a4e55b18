"""Evaluation metrics implemented from scratch (numpy only).

The paper reports ROC-AUC and PR-AUC (§VI-A3).  scikit-learn is not a
dependency of this library, so both metrics — and the underlying curves — are
implemented here and unit-tested against hand-computed values and
hypothesis-generated invariants.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

__all__ = [
    "roc_curve",
    "roc_auc_score",
    "precision_recall_curve",
    "pr_auc_score",
    "average_precision_score",
    "evaluate_scores",
]


def _validate(scores: Sequence[float], labels: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-D arrays of equal length")
    if scores.size == 0:
        raise ValueError("cannot compute metrics on empty inputs")
    non_finite = np.flatnonzero(~np.isfinite(scores))
    if non_finite.size:
        raise ValueError(
            f"{non_finite.size} of {scores.size} scores are not finite; "
            f"the first is at index {non_finite[0]} ({scores[non_finite[0]]})"
        )
    unique = set(np.unique(labels).tolist())
    if not unique <= {0, 1}:
        raise ValueError(f"labels must be binary (0/1); got {sorted(unique)}")
    if len(unique) < 2:
        raise ValueError("metrics require both positive and negative examples")
    return scores, labels


def roc_curve(scores: Sequence[float], labels: Sequence[int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """False-positive rates, true-positive rates and thresholds.

    Thresholds are the distinct score values in decreasing order; a point is
    predicted positive when its score is >= the threshold (higher score = more
    anomalous).
    """
    scores, labels = _validate(scores, labels)
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order]

    # Cumulative true/false positives at each distinct threshold.
    distinct = np.where(np.diff(sorted_scores))[0]
    threshold_idx = np.concatenate([distinct, [scores.size - 1]])
    tps = np.cumsum(sorted_labels)[threshold_idx]
    fps = (threshold_idx + 1) - tps

    total_pos = sorted_labels.sum()
    total_neg = scores.size - total_pos
    tpr = np.concatenate([[0.0], tps / total_pos])
    fpr = np.concatenate([[0.0], fps / total_neg])
    thresholds = np.concatenate([[np.inf], sorted_scores[threshold_idx]])
    return fpr, tpr, thresholds


def roc_auc_score(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the ROC curve (equivalently the Mann–Whitney U statistic)."""
    fpr, tpr, _ = roc_curve(scores, labels)
    # Trapezoidal integration (numpy>=2 renamed trapz to trapezoid; do it inline).
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))


def precision_recall_curve(
    scores: Sequence[float], labels: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precision and recall at every distinct threshold (descending scores)."""
    scores, labels = _validate(scores, labels)
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order]

    distinct = np.where(np.diff(sorted_scores))[0]
    threshold_idx = np.concatenate([distinct, [scores.size - 1]])
    tps = np.cumsum(sorted_labels)[threshold_idx]
    predicted_pos = threshold_idx + 1
    precision = tps / predicted_pos
    recall = tps / sorted_labels.sum()
    thresholds = sorted_scores[threshold_idx]

    # Prepend the (recall=0, precision=1) anchor used by the AP convention.
    precision = np.concatenate([[1.0], precision])
    recall = np.concatenate([[0.0], recall])
    thresholds = np.concatenate([[np.inf], thresholds])
    return precision, recall, thresholds


def average_precision_score(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Average precision: Σ (R_k − R_{k−1}) · P_k over the PR curve."""
    precision, recall, _ = precision_recall_curve(scores, labels)
    return float(np.sum(np.diff(recall) * precision[1:]))


def pr_auc_score(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the precision-recall curve.

    Computed as average precision (the step-function integral), which is the
    standard, non-interpolated estimator also used by the paper's baselines'
    public implementations.
    """
    return average_precision_score(scores, labels)


def evaluate_scores(scores: Sequence[float], labels: Sequence[int]) -> Dict[str, float]:
    """Both headline metrics in one call — the row format of Tables I–III."""
    return {
        "roc_auc": roc_auc_score(scores, labels),
        "pr_auc": pr_auc_score(scores, labels),
    }
