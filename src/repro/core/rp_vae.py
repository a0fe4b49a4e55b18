"""RP-VAE — the Road Preference VAE (paper §V-C).

RP-VAE estimates the per-segment scaling factor of the debiased anomaly score.
Following Eq. (7) the whole-trajectory scaling factor factorises over road
segments:

    E_{e ~ P(E|c,t)} [ 1 / P(c|e) ]  ≈  Π_i  E_{e_i ~ P(E_i|t_i)} [ 1 / P(t_i|e_i) ]

RP-VAE is a per-segment VAE: the encoder ``Ψ_e`` maps the segment embedding to
the posterior ``Q2(E_i | t_i)``, the decoder ``Ψ_d`` reconstructs the segment
from a latent sample.  The log scaling factor of segment ``t_i`` is estimated
by Monte Carlo as

    log E[1 / P(t_i|e_i)]  ≈  logsumexp_k( −log P(t_i | e_i^{(k)}) ) − log K .

Because the factor depends only on the segment (not the trajectory), it is
**precomputed for every segment of the road network** after training, giving
the O(1) online updates of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import CausalTADConfig
from repro.nn import (
    Embedding,
    GaussianHead,
    Linear,
    MLP,
    Module,
    Tensor,
    fused_masked_nll,
    gaussian_kl_standard,
    log_softmax,
    no_grad,
)
from repro.trajectory.dataset import EncodedBatch
from repro.utils.rng import RandomState, get_rng

__all__ = ["RPVAE", "RPVAEOutput"]


@dataclass
class RPVAEOutput:
    """Outputs of an RP-VAE forward pass over a batch of trajectories."""

    loss: Tensor
    per_trajectory_nll: np.ndarray  # (batch,) Σ_i [H(t̂_i, t_i) + KL_i] over valid segments


class RPVAE(Module):
    """Road Preference VAE: a VAE over individual road segments."""

    def __init__(self, config: CausalTADConfig, rng: Optional[RandomState] = None) -> None:
        super().__init__()
        self.config = config
        rng = get_rng(rng)
        emb_dim = config.embedding_dim
        hidden = config.hidden_dim
        latent = config.latent_dim

        # Segment embedding E_s, encoder Ψ_e and decoder Ψ_d (all MLPs, §V-C2).
        self.segment_embedding = Embedding(config.vocab_size, emb_dim, rng=rng)
        self.encoder = MLP((emb_dim, hidden), activation="relu", final_activation="relu", rng=rng)
        self.posterior_head = GaussianHead(hidden, latent, rng=rng)
        self.decoder = MLP((latent, hidden), activation="relu", final_activation="relu", rng=rng)
        self.output_projection = Linear(hidden, config.num_segments, rng=rng)

        self._rng = rng
        self._cached_scaling: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # building blocks
    # ------------------------------------------------------------------ #
    def encode(self, segments: np.ndarray):
        """Posterior parameters ``(μ, log σ²)`` of ``Q2(E_i | t_i)``."""
        embedded = self.segment_embedding(segments)
        return self.posterior_head(self.encoder(embedded))

    def decode(self, latent: Tensor) -> Tensor:
        """Segment logits from latent samples."""
        return self.output_projection(self.decoder(latent))

    # ------------------------------------------------------------------ #
    # training pass
    # ------------------------------------------------------------------ #
    def forward(self, batch: EncodedBatch) -> RPVAEOutput:
        """Compute the L2 loss (paper §V-C2) over all valid segments of a batch."""
        segments = batch.full_segments
        valid = batch.full_mask
        flat_segments = segments[valid]
        if flat_segments.size == 0:
            raise ValueError("RP-VAE received a batch with no valid segments")

        mu, logvar = self.encode(flat_segments)
        latent = self.posterior_head.sample(mu, logvar, rng=self._rng, deterministic=not self.training)
        logits = self.decode(latent)

        # One-node softmax cross-entropy (no (N, vocab) log-prob graph).
        reconstruction = fused_masked_nll(logits, flat_segments)
        kl = gaussian_kl_standard(mu, logvar, reduction="none")
        per_segment = reconstruction + kl * self.config.kl_weight
        loss = per_segment.mean()

        # Scatter the per-segment losses back to per-trajectory sums.  The
        # flat segments are grouped by trajectory (boolean-mask order), so a
        # single reduceat over the row boundaries replaces per-element add.at.
        counts = valid.sum(axis=1)
        per_trajectory = np.zeros(batch.batch_size, dtype=np.float64)
        nonempty = counts > 0
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))[nonempty]
        per_trajectory[nonempty] = np.add.reduceat(per_segment.data, starts)

        self._cached_scaling = None  # parameters are about to change
        return RPVAEOutput(loss=loss, per_trajectory_nll=per_trajectory)

    # ------------------------------------------------------------------ #
    # scaling factor estimation
    # ------------------------------------------------------------------ #
    def log_scaling_factor(
        self, segment_ids: np.ndarray, num_samples: Optional[int] = None
    ) -> np.ndarray:
        """Monte-Carlo estimate of ``log E_{e_i}[ 1 / P(t_i | e_i) ]`` per segment.

        Larger values mean the segment is *less popular* under the learned
        road preference; the debiased score subtracts λ times this quantity,
        compensating the likelihood model's over-penalisation of rare roads.
        """
        num_samples = num_samples or self.config.num_scaling_samples
        segment_ids = np.asarray(segment_ids, dtype=np.int64)
        with no_grad():
            mu, logvar = self.encode(segment_ids)
            neg_log_probs = np.empty((num_samples, segment_ids.shape[0]), dtype=np.float64)
            for k in range(num_samples):
                latent = self.posterior_head.sample(mu, logvar, rng=self._rng, deterministic=False)
                log_probs = log_softmax(self.decode(latent), axis=-1)
                picked = log_probs.gather_last(segment_ids)
                neg_log_probs[k] = -picked.data
        # log E[1/P] ≈ logsumexp_k(−log P_k) − log K  (stable Monte-Carlo mean).
        max_val = neg_log_probs.max(axis=0)
        log_mean = max_val + np.log(np.exp(neg_log_probs - max_val).mean(axis=0))
        return log_mean

    def precompute_scaling_factors(self, num_samples: Optional[int] = None) -> np.ndarray:
        """Log scaling factors for *every* segment of the network (cached).

        This is the paper's inference-time optimisation: because the factor is
        per-segment, it can be computed once and stored, so online detection
        only runs TG-VAE.
        """
        if self._cached_scaling is None:
            all_segments = np.arange(self.config.num_segments, dtype=np.int64)
            self._cached_scaling = self.log_scaling_factor(all_segments, num_samples=num_samples)
        return self._cached_scaling

    def invalidate_cache(self) -> None:
        """Drop the precomputed factors (call after loading new weights)."""
        self._cached_scaling = None
