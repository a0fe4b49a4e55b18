"""Detector adapters for CausalTAD and its ablations.

The experiment runners (Tables I–III, Figures 5–8) iterate over a list of
objects implementing :class:`~repro.baselines.base.TrajectoryAnomalyDetector`.
These adapters wrap the core model so it slots into the same harness:

* :class:`CausalTADDetector` — the full model, scored with Eq. (10).
* :class:`TGVAEOnlyDetector` — ablation: likelihood term only (λ = 0 /
  ``use_scaling=False``), i.e. the "TG-VAE" row of Table III.
* :class:`RPVAEOnlyDetector` — ablation: scaling-factor term only, i.e. the
  "RP-VAE" row of Table III (scores are Σ_i −log P(t_i), the segment-level
  rarity under the road-preference VAE).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.baselines.base import DetectorConfig, TrajectoryAnomalyDetector
from repro.core.causal_tad import CausalTAD
from repro.core.config import CausalTADConfig
from repro.core.inference import ScoreDecomposition
from repro.core.trainer import Trainer
from repro.roadnet.network import RoadNetwork
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.types import MapMatchedTrajectory
from repro.utils.rng import RandomState

__all__ = ["CausalTADDetector", "TGVAEOnlyDetector", "RPVAEOnlyDetector"]


class CausalTADDetector(TrajectoryAnomalyDetector):
    """The full CausalTAD model behind the shared detector interface."""

    name = "CausalTAD"

    def __init__(
        self,
        config: DetectorConfig,
        lambda_weight: float = 0.1,
        model_config: Optional[CausalTADConfig] = None,
        rng: Optional[RandomState] = None,
    ) -> None:
        super().__init__()
        self.config = config
        self._rng = rng if rng is not None else RandomState(config.seed)
        self.model_config = model_config or CausalTADConfig(
            num_segments=config.num_segments,
            embedding_dim=config.embedding_dim,
            hidden_dim=config.hidden_dim,
            latent_dim=config.latent_dim,
            lambda_weight=lambda_weight,
        )
        self.model = CausalTAD(self.model_config, rng=self._rng)
        self.trainer: Optional[Trainer] = None

    # ------------------------------------------------------------------ #
    @property
    def num_segments(self) -> int:
        return self.config.num_segments

    def fit(
        self,
        train: TrajectoryDataset,
        network: Optional[RoadNetwork] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
    ) -> "CausalTADDetector":
        """Train on normal trajectories.

        ``checkpoint_path`` enables the trainer's kill-safe epoch checkpoints
        and bit-identical resume (see :meth:`repro.core.trainer.Trainer.fit`).
        """
        if train.num_segments != self.config.num_segments:
            raise ValueError("training data and detector disagree on num_segments")
        if network is not None:
            self.model.attach_network(network)
        self.trainer = Trainer(self.model, self.config.training, rng=self._rng)
        self.trainer.fit(
            train, checkpoint_path=checkpoint_path, checkpoint_every=checkpoint_every
        )
        self._fitted = True
        return self

    def score(self, dataset: TrajectoryDataset) -> np.ndarray:
        self._require_fitted()
        return self.model.score_dataset(dataset)

    def score_trajectory(self, trajectory: MapMatchedTrajectory) -> float:
        self._require_fitted()
        return self.model.score_trajectory(trajectory)

    def score_with_lambda(self, dataset: TrajectoryDataset, lambda_weight: float) -> np.ndarray:
        """Re-score with a different λ without retraining (Fig. 8 sweep)."""
        self._require_fitted()
        return self.model.score_dataset(dataset, lambda_weight=lambda_weight)

    def score_decomposition(self, dataset: TrajectoryDataset) -> ScoreDecomposition:
        """One engine pass over the dataset, returned as its decomposition.

        Every score the detector can produce — full Eq. 10, the TG-VAE-only
        ablation, per-step breakdowns and any λ re-weighting — composes from
        this single forward pass.
        """
        self._require_fitted()
        return self.model.score_decomposition(dataset)

    def score_with_lambdas(
        self, dataset: TrajectoryDataset, lambdas: Sequence[float]
    ) -> np.ndarray:
        """Scores for a whole λ grid — the dataset is forwarded exactly once.

        Returns ``(len(lambdas), len(dataset))``; row ``j`` equals
        ``score_with_lambda(dataset, lambdas[j])``.  This is the Fig. 8 sweep
        reduced to one model pass plus a vectorized outer product.
        """
        self._require_fitted()
        return self.model.lambda_sweep_scores(dataset, lambdas)


class TGVAEOnlyDetector(CausalTADDetector):
    """Ablation: likelihood term only (drops the RP-VAE scaling factor)."""

    name = "TG-VAE"

    def score(self, dataset: TrajectoryDataset) -> np.ndarray:
        self._require_fitted()
        return self.model.score_dataset(dataset, use_scaling=False)

    def score_trajectory(self, trajectory: MapMatchedTrajectory) -> float:
        self._require_fitted()
        return self.model.score_trajectory(trajectory, use_scaling=False)


class RPVAEOnlyDetector(TrajectoryAnomalyDetector):
    """Ablation: score with the road-preference VAE alone.

    The score of a trajectory is the sum over its segments of the RP-VAE
    negative log-likelihood −log P(t_i) (approximated by the per-segment
    negative ELBO): trajectories dominated by rare road segments score high.
    This reproduces the "RP-VAE" rows of Table III, which the paper shows to
    be much weaker than the full model — rarity alone is a poor anomaly
    criterion.
    """

    name = "RP-VAE"

    def __init__(self, config: DetectorConfig, rng: Optional[RandomState] = None) -> None:
        super().__init__()
        self.config = config
        self._rng = rng if rng is not None else RandomState(config.seed)
        model_config = CausalTADConfig(
            num_segments=config.num_segments,
            embedding_dim=config.embedding_dim,
            hidden_dim=config.hidden_dim,
            latent_dim=config.latent_dim,
        )
        # Reuse the full CausalTAD container but train only the RP-VAE branch.
        from repro.core.rp_vae import RPVAE

        self.model = RPVAE(model_config, rng=self._rng)
        self.trainer: Optional[Trainer] = None

    @property
    def num_segments(self) -> int:
        return self.config.num_segments

    def fit(
        self,
        train: TrajectoryDataset,
        network: Optional[RoadNetwork] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
    ) -> "RPVAEOnlyDetector":
        if train.num_segments != self.config.num_segments:
            raise ValueError("training data and detector disagree on num_segments")
        self.trainer = Trainer(self.model, self.config.training, rng=self._rng)
        self.trainer.fit(
            train, checkpoint_path=checkpoint_path, checkpoint_every=checkpoint_every
        )
        self._fitted = True
        return self

    def score(self, dataset: TrajectoryDataset) -> np.ndarray:
        self._require_fitted()
        from repro.nn import no_grad

        was_training = self.model.training
        self.model.eval()
        try:
            scores = np.empty(len(dataset), dtype=np.float64)
            cursor = 0
            with no_grad():
                for batch in dataset.iter_batches(self.config.training.batch_size, shuffle=False):
                    output = self.model(batch)
                    scores[cursor : cursor + len(output.per_trajectory_nll)] = output.per_trajectory_nll
                    cursor += len(output.per_trajectory_nll)
        finally:
            self.model.train(was_training)
        return scores
