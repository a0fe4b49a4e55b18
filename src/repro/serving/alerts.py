"""Alerting on top of the fleet serving engine.

Two complementary views of "which rides look anomalous right now":

* :class:`ThresholdAlertPolicy` — fires an :class:`Alert` the first time a
  ride's length-normalised score crosses a calibrated threshold (the
  "flag the detour while it is happening" workflow);
* :meth:`FleetEngine.top_k <repro.serving.engine.FleetEngine.top_k>` — the
  k most anomalous *active* rides, for a fleet dashboard that always shows
  the worst offenders regardless of threshold.

:func:`calibrate_threshold` derives the threshold from normal (training)
rides: the score is normalised per segment so long rides are not penalised for
being long, and the *maximum* rate each normal ride ever reaches is used so the
early-ride inflation of the fixed SD/KL score part is already accounted for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.online import OnlineDetector
from repro.trajectory.types import MapMatchedTrajectory

__all__ = ["Alert", "ThresholdAlertPolicy", "calibrate_threshold"]


@dataclass(frozen=True)
class Alert:
    """A ride crossed the anomaly threshold at some tick."""

    ride_id: str
    tick: int
    cumulative_score: float
    per_segment_score: float
    observed_length: int


class ThresholdAlertPolicy:
    """Fire once per ride when its per-segment score exceeds ``threshold``.

    ``min_observed`` suppresses alerts on very short prefixes, where a single
    surprising segment dominates the normalised score.
    """

    def __init__(self, threshold: float, min_observed: int = 2) -> None:
        if min_observed < 1:
            raise ValueError("min_observed must be at least 1")
        self.threshold = float(threshold)
        self.min_observed = int(min_observed)

    def fire_mask(
        self, observed_lengths: np.ndarray, rates: np.ndarray, alerted: np.ndarray
    ) -> np.ndarray:
        """Which rides alert now, one bool per ride.

        A ride alerts when it has not alerted before, has observed at least
        ``min_observed`` segments and its per-segment score ``rates``
        exceeds the threshold.
        """
        return ~alerted & (observed_lengths >= self.min_observed) & (rates > self.threshold)


def calibrate_threshold(
    detector: OnlineDetector,
    normal_trajectories: Sequence[MapMatchedTrajectory],
    percentile: float = 97.5,
) -> float:
    """Alert threshold from normal rides: a percentile of their worst rates.

    For each normal ride, replay it online and record the highest per-segment
    score rate it ever reaches; the threshold is the given percentile of those
    maxima, so roughly ``100 - percentile`` percent of normal rides would have
    (falsely) alerted during calibration.
    """
    if not normal_trajectories:
        raise ValueError("calibration requires at least one normal trajectory")
    worst_rates = []
    for trajectory in normal_trajectories:
        prefix_scores = detector.score_prefixes(trajectory)
        rates = [
            score / (position + 1)
            for position, score in enumerate(prefix_scores[1:], start=1)
        ]
        worst_rates.append(max(rates))
    return float(np.percentile(worst_rates, percentile))
