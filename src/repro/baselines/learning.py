"""Learning-based baseline detectors (paper §VI-A4).

Each class pairs a :class:`~repro.baselines.seq2seq.Seq2SeqVAEModel` variant
with the shared detector interface:

* :class:`SAEDetector` — deterministic GRU Seq2Seq autoencoder scored by
  reconstruction error (Malhotra et al., 2016).
* :class:`VSAEDetector` — the basic variational sequence autoencoder.
* :class:`BetaVAEDetector` — VSAE with β-weighted KL (Higgins et al., 2017).
* :class:`FactorVAEDetector` — VSAE plus a factorisation penalty
  (Kim & Mnih, 2018; see the variant docstring for the substitution used on
  the numpy substrate).
* :class:`GMVSAEDetector` — Gaussian-mixture prior over routes (Liu et al.,
  ICDE 2020).
* :class:`DeepTEADetector` — time-aware variant standing in for DeepTEA
  (Han et al., VLDB 2022).

All of them read the *whole* trajectory into the encoder, so scoring an
ongoing trajectory from scratch costs O(n) per new point — the efficiency gap
CausalTAD's SD-only encoder closes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import DetectorConfig, TrajectoryAnomalyDetector
from repro.baselines.seq2seq import Seq2SeqVAEModel, Seq2SeqVariant
from repro.core.inference import Seq2SeqInferenceEngine
from repro.core.trainer import Trainer
from repro.roadnet.network import RoadNetwork
from repro.trajectory.dataset import TrajectoryDataset
from repro.utils.rng import RandomState

__all__ = [
    "Seq2SeqDetector",
    "SAEDetector",
    "VSAEDetector",
    "BetaVAEDetector",
    "FactorVAEDetector",
    "GMVSAEDetector",
    "DeepTEADetector",
]


class Seq2SeqDetector(TrajectoryAnomalyDetector):
    """Generic detector wrapping one :class:`Seq2SeqVAEModel` variant."""

    name = "seq2seq"
    variant = Seq2SeqVariant()

    def __init__(self, config: DetectorConfig, rng: Optional[RandomState] = None) -> None:
        super().__init__()
        self.config = config
        self._rng = rng if rng is not None else RandomState(config.seed)
        self.model = Seq2SeqVAEModel(config, self.variant, rng=self._rng)
        self.trainer: Optional[Trainer] = None
        self._engine: Optional[Seq2SeqInferenceEngine] = None

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
    ) -> "Seq2SeqDetector":
        """Train on normal trajectories; the road network is unused by baselines.

        ``checkpoint_path`` enables the trainer's atomic epoch checkpoints
        and bit-identical resume (see :meth:`repro.core.trainer.Trainer.fit`).
        """
        if train.num_segments != self.config.num_segments:
            raise ValueError("training data and detector disagree on num_segments")
        self.trainer = Trainer(self.model, self.config.training, rng=self._rng)
        self.trainer.fit(
            train, checkpoint_path=checkpoint_path, checkpoint_every=checkpoint_every
        )
        self._fitted = True
        return self

    def inference_engine(self) -> Seq2SeqInferenceEngine:
        """The model's graph-free batched scorer (built lazily, then reused)."""
        if self._engine is None:
            self._engine = Seq2SeqInferenceEngine(self.model)
        return self._engine

    def score(self, dataset: TrajectoryDataset) -> np.ndarray:
        """Negative ELBO (or reconstruction error) per trajectory.

        Scored by the graph-free numpy engine, which mirrors the eval-mode
        forward without building Tensor graphs and never touches the model's
        train/eval flag.
        """
        self._require_fitted()
        return self.inference_engine().score_dataset(dataset)


class SAEDetector(Seq2SeqDetector):
    """Deterministic Seq2Seq autoencoder scored by reconstruction error."""

    name = "SAE"
    variant = Seq2SeqVariant(variational=False)


class VSAEDetector(Seq2SeqDetector):
    """Variational sequence autoencoder (VAE with RNN encoder/decoder)."""

    name = "VSAE"
    variant = Seq2SeqVariant(variational=True)


class BetaVAEDetector(Seq2SeqDetector):
    """β-VAE: heavier KL regularisation for more independent latents."""

    name = "beta-VAE"
    variant = Seq2SeqVariant(variational=True, beta=4.0)


class FactorVAEDetector(Seq2SeqDetector):
    """FactorVAE: VSAE plus a factorised-representation penalty."""

    name = "FactorVAE"
    variant = Seq2SeqVariant(variational=True, factor_gamma=2.0)


class GMVSAEDetector(Seq2SeqDetector):
    """GM-VSAE: Gaussian-mixture prior capturing several normal route types."""

    name = "GM-VSAE"
    variant = Seq2SeqVariant(variational=True, num_mixture_components=5)


class DeepTEADetector(Seq2SeqDetector):
    """DeepTEA-style time-aware variational sequence autoencoder."""

    name = "DeepTEA"
    variant = Seq2SeqVariant(variational=True, time_aware=True)
