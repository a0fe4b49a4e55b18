"""Tests for the from-scratch ROC / PR metrics, including hypothesis properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.eval import (
    average_precision_score,
    evaluate_scores,
    pr_auc_score,
    precision_recall_curve,
    roc_auc_score,
    roc_curve,
)


class TestROCCurve:
    def test_perfect_separation(self):
        scores = [0.1, 0.2, 0.8, 0.9]
        labels = [0, 0, 1, 1]
        assert roc_auc_score(scores, labels) == pytest.approx(1.0)

    def test_perfectly_wrong(self):
        assert roc_auc_score([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == pytest.approx(0.0)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        scores = rng.random(2000)
        labels = rng.integers(0, 2, 2000)
        assert roc_auc_score(scores, labels) == pytest.approx(0.5, abs=0.05)

    def test_hand_computed_example(self):
        # scores: [3, 2, 1], labels: [1, 0, 1].
        # Pairs (pos, neg): (3 vs 2) win, (1 vs 2) loss -> AUC = 0.5.
        assert roc_auc_score([3.0, 2.0, 1.0], [1, 0, 1]) == pytest.approx(0.5)

    def test_ties_count_half(self):
        # A tie between a positive and a negative contributes 0.5.
        assert roc_auc_score([1.0, 1.0], [1, 0]) == pytest.approx(0.5)

    def test_curve_endpoints(self):
        fpr, tpr, thresholds = roc_curve([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0
        assert thresholds[0] == np.inf

    def test_curve_monotone(self):
        rng = np.random.default_rng(1)
        scores = rng.random(50)
        labels = rng.integers(0, 2, 50)
        if labels.sum() in (0, 50):
            labels[0] = 1 - labels[0]
        fpr, tpr, _ = roc_curve(scores, labels)
        assert (np.diff(fpr) >= -1e-12).all()
        assert (np.diff(tpr) >= -1e-12).all()


class TestPRCurve:
    def test_perfect_separation(self):
        assert pr_auc_score([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == pytest.approx(1.0)

    def test_hand_computed_average_precision(self):
        # Ranked by score: labels [1, 0, 1].
        # AP = 1/2 * (P@1 + P@3) = 0.5 * (1 + 2/3) = 0.8333...
        ap = average_precision_score([0.9, 0.8, 0.7], [1, 0, 1])
        assert ap == pytest.approx(0.5 * (1.0 + 2.0 / 3.0))

    def test_curve_anchor(self):
        precision, recall, thresholds = precision_recall_curve([0.2, 0.8], [0, 1])
        assert precision[0] == 1.0 and recall[0] == 0.0
        assert recall[-1] == 1.0

    def test_all_positive_baseline(self):
        # With many negatives and few positives ranked low, AP approaches prevalence.
        scores = list(range(100))
        labels = [1 if i < 5 else 0 for i in range(100)]  # positives ranked lowest
        ap = average_precision_score(scores, labels)
        assert ap < 0.2


class TestValidation:
    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            roc_auc_score([0.1, 0.2], [1, 1])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            roc_auc_score([0.1, 0.2], [0, 2])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            roc_auc_score([0.1, 0.2], [0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            roc_auc_score([], [])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_scores(self, bad):
        with pytest.raises(ValueError, match=r"2 of 4 scores are not finite; the first is at index 1"):
            evaluate_scores([0.3, bad, 0.2, bad], [0, 1, 0, 1])
        with pytest.raises(ValueError, match="4 of 4 scores"):
            evaluate_scores([float("nan")] * 4, [0, 1, 0, 1])

    def test_evaluate_scores_keys(self):
        out = evaluate_scores([0.1, 0.9], [0, 1])
        assert set(out) == {"roc_auc", "pr_auc"}


SETTINGS = dict(max_examples=40, deadline=None)


@settings(**SETTINGS)
@given(
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=4, max_size=60),
    st.data(),
)
def test_roc_auc_bounded_and_complement_symmetric(scores, data):
    labels = data.draw(
        st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores))
    )
    if sum(labels) in (0, len(labels)):
        labels[0] = 1 - labels[0]
    auc = roc_auc_score(scores, labels)
    assert 0.0 <= auc <= 1.0
    # Negating scores must flip the AUC.
    flipped = roc_auc_score([-s for s in scores], labels)
    assert auc + flipped == pytest.approx(1.0, abs=1e-9)


@settings(**SETTINGS)
@given(
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=4, max_size=60),
    st.data(),
)
def test_metrics_invariant_to_monotone_transform(scores, data):
    labels = data.draw(
        st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores))
    )
    if sum(labels) in (0, len(labels)):
        labels[0] = 1 - labels[0]
    # Quantise so the affine map cannot merge values that were distinct only
    # at float precision (which would legitimately change the tie structure).
    scores = [round(s, 3) for s in scores]
    transformed = [3.0 * s + 7.0 for s in scores]
    assert roc_auc_score(scores, labels) == pytest.approx(roc_auc_score(transformed, labels))
    assert pr_auc_score(scores, labels) == pytest.approx(pr_auc_score(transformed, labels))


@settings(**SETTINGS)
@given(st.integers(2, 30), st.integers(2, 30))
def test_roc_auc_equals_mann_whitney(num_pos, num_neg):
    rng = np.random.default_rng(num_pos * 100 + num_neg)
    pos_scores = rng.normal(1.0, 1.0, num_pos)
    neg_scores = rng.normal(0.0, 1.0, num_neg)
    scores = np.concatenate([pos_scores, neg_scores])
    labels = np.concatenate([np.ones(num_pos, dtype=int), np.zeros(num_neg, dtype=int)])
    # Mann-Whitney U statistic normalised.
    wins = sum((p > n) + 0.5 * (p == n) for p in pos_scores for n in neg_scores)
    expected = wins / (num_pos * num_neg)
    assert roc_auc_score(scores, labels) == pytest.approx(expected)
