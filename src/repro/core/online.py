"""Online anomaly detection with O(1) per-segment updates (paper §V-D).

For a ride in progress the platform wants a fresh anomaly score every time the
vehicle enters a new road segment.  CausalTAD supports this efficiently
because:

* the TG-VAE posterior depends only on the SD pair, so the latent ``r`` and
  the decoder's initial hidden state are computed **once** when the ride
  starts;
* the GRU decoder is autoregressive — consuming the newly entered segment
  advances the hidden state and yields the log-probability of that segment in
  constant time;
* the RP-VAE scaling factors are per-segment and **precomputed** for the whole
  road network, so the debiasing term is a single array lookup.

:class:`OnlineDetector` manages per-ride :class:`OnlineSession` objects that
maintain exactly this state; ``update(segment)`` is O(hidden²) — constant in
the trajectory length — matching the complexity analysis of the paper.

The numerical work lives in :mod:`repro.core.scoring_kernel`, which is shared
with the fleet-scale serving engine (:mod:`repro.serving`): an
:class:`OnlineSession` is the batch-of-one special case of the same vectorized
start/advance kernel the fleet engine runs over thousands of rides per tick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.causal_tad import CausalTAD
from repro.core.scoring_kernel import advance_sessions, check_segment_id, init_session_states
from repro.trajectory.types import MapMatchedTrajectory, SDPair

__all__ = ["OnlineSession", "OnlineDetector", "ScoreUpdate"]


@dataclass
class ScoreUpdate:
    """The result of feeding one new segment to an online session."""

    segment_id: int
    step_likelihood_score: float   # −log P(t_i | c, t_{<i})
    step_scaling_score: float      # log E[1/P(t_i|e_i)]
    cumulative_score: float        # debiased anomaly score of the prefix so far


class OnlineSession:
    """Scoring state for one ongoing ride.

    Created by :class:`OnlineDetector.start_session` with the ride's SD pair
    and its first observed segment; every subsequent segment is fed through
    :meth:`update`, which returns the new cumulative anomaly score.
    """

    def __init__(
        self,
        model: CausalTAD,
        sd_pair: SDPair,
        first_segment: int,
        scaling_factors: np.ndarray,
        lambda_weight: float,
    ) -> None:
        self._model = model
        self._scaling = scaling_factors
        self._lambda = lambda_weight
        self.sd_pair = sd_pair
        num_segments = model.config.num_segments
        check_segment_id(sd_pair.source, num_segments)
        check_segment_id(sd_pair.destination, num_segments)
        first_segment = check_segment_id(first_segment, num_segments)
        self.segments: List[int] = [first_segment]
        self.updates: List[ScoreUpdate] = []

        # Fixed (per-ride) score parts and the decoder's initial hidden state,
        # computed once at session start (batch of one through the shared
        # kernel).
        init = init_session_states(
            model,
            np.array([sd_pair.source], dtype=np.int64),
            np.array([sd_pair.destination], dtype=np.int64),
        )
        self._fixed_score = float(init.fixed_scores[0])
        self._hidden = init.hidden

        # The first segment's scaling contribution (TG-VAE never predicts the
        # first segment, but the RP-VAE factorisation covers every segment).
        self._likelihood_sum = 0.0
        self._scaling_sum = float(self._scaling[first_segment])

    # ------------------------------------------------------------------ #
    @property
    def current_score(self) -> float:
        """Debiased anomaly score of the observed prefix (Eq. 10)."""
        return self._fixed_score + self._likelihood_sum - self._lambda * self._scaling_sum

    @property
    def observed_length(self) -> int:
        return len(self.segments)

    def update(self, segment_id: int) -> ScoreUpdate:
        """Feed the next observed segment; O(1) in the trajectory length.

        Raises ``TypeError`` / ``ValueError`` for a non-integer or
        out-of-range id, and ``ValueError`` naming the current segment when
        it has no successor to advance to, before the session state changes.
        """
        segment_id = check_segment_id(segment_id, self._model.config.num_segments)
        previous = np.array([self.segments[-1]], dtype=np.int64)
        entered = np.array([segment_id], dtype=np.int64)
        self._hidden, step_likelihoods = advance_sessions(
            self._model, previous, entered, self._hidden
        )
        step_likelihood = float(step_likelihoods[0])

        step_scaling = float(self._scaling[segment_id])
        self._likelihood_sum += step_likelihood
        self._scaling_sum += step_scaling
        self.segments.append(segment_id)
        update = ScoreUpdate(
            segment_id=segment_id,
            step_likelihood_score=step_likelihood,
            step_scaling_score=step_scaling,
            cumulative_score=self.current_score,
        )
        self.updates.append(update)
        return update


class OnlineDetector:
    """Factory and convenience wrapper for online scoring sessions."""

    def __init__(self, model: CausalTAD, lambda_weight: Optional[float] = None) -> None:
        self.model = model
        self.model.eval()
        self.lambda_weight = (
            model.config.lambda_weight if lambda_weight is None else lambda_weight
        )
        # Precompute the per-segment scaling factors once (paper §V-D).
        self._scaling = model.scaling_factors()

    def start_session(self, sd_pair: SDPair, first_segment: Optional[int] = None) -> OnlineSession:
        """Begin scoring a new ride given its SD pair (and first segment)."""
        first = sd_pair.source if first_segment is None else first_segment
        return OnlineSession(
            model=self.model,
            sd_pair=sd_pair,
            first_segment=first,
            scaling_factors=self._scaling,
            lambda_weight=self.lambda_weight,
        )

    def score_prefixes(self, trajectory: MapMatchedTrajectory) -> List[float]:
        """Cumulative scores after each segment of a (complete) trajectory.

        Equivalent to replaying the trajectory through an online session;
        useful for the observed-ratio experiments and for testing that online
        and offline scoring agree.
        """
        session = self.start_session(trajectory.sd_pair, trajectory.segments[0])
        scores = [session.current_score]
        for segment in trajectory.segments[1:]:
            scores.append(session.update(segment).cumulative_score)
        return scores

    def final_score(self, trajectory: MapMatchedTrajectory) -> float:
        """The score after the full trajectory has been observed."""
        return self.score_prefixes(trajectory)[-1]
