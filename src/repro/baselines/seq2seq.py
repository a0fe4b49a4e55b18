"""Shared sequence-to-sequence machinery for the learning-based baselines.

Every learning-based baseline of the paper — SAE, VSAE, β-VAE, FactorVAE,
GM-VSAE and DeepTEA — is a Seq2Seq model over road-segment sequences that
differs only in

* whether the bottleneck is deterministic (SAE) or variational (the others),
* the weight or structure of the KL/regularisation term (β-VAE, FactorVAE),
* the prior over the latent (standard normal vs Gaussian mixture, GM-VSAE),
* whether time-of-day information enters the encoder/decoder (DeepTEA).

:class:`Seq2SeqVAEModel` implements that family once, driven by
:class:`Seq2SeqVariant`; the thin baseline classes in the sibling modules
instantiate particular variants.  Unlike CausalTAD's TG-VAE, the encoder here
reads the *whole trajectory* (which is exactly why these baselines pay an
O(n) cost per new point in online detection, see the paper's §V-B), and the
decoder's softmax is unconstrained by the road network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baselines.base import DetectorConfig
from repro.nn import (
    GRU,
    Embedding,
    GaussianHead,
    Linear,
    Module,
    Parameter,
    Tensor,
    concatenate,
    fused_masked_nll,
    gaussian_kl_standard,
    logsumexp,
)
from repro.nn import init as nn_init
from repro.trajectory.dataset import EncodedBatch
from repro.utils.rng import RandomState, get_rng

__all__ = ["Seq2SeqVariant", "Seq2SeqOutput", "Seq2SeqVAEModel"]

SECONDS_PER_DAY = 24 * 3600.0


@dataclass(frozen=True)
class Seq2SeqVariant:
    """Which member of the Seq2Seq family to instantiate.

    Attributes
    ----------
    variational:
        ``False`` gives the deterministic SAE autoencoder; ``True`` gives the
        VAE family.
    beta:
        Weight of the KL term (β-VAE uses beta > 1).
    factor_gamma:
        Weight of the total-correlation style penalty.  The original FactorVAE
        trains an adversarial discriminator to estimate total correlation; on
        this numpy substrate we use the moment-matching approximation
        (penalising off-diagonal covariance of the aggregate posterior), which
        preserves the "encourage factorised representations" behaviour the
        paper compares against.  Documented under "Deviations from the paper"
        in ``docs/EXPERIMENTS.md``.
    num_mixture_components:
        > 1 activates the Gaussian-mixture prior of GM-VSAE.
    time_aware:
        ``True`` adds a time-of-day bucket embedding to every decoder input —
        the simplified stand-in for DeepTEA's traffic-condition encoder.
    num_time_buckets:
        Number of time-of-day buckets for the time embedding.
    """

    variational: bool = True
    beta: float = 1.0
    factor_gamma: float = 0.0
    num_mixture_components: int = 1
    time_aware: bool = False
    num_time_buckets: int = 24

    def __post_init__(self) -> None:
        if self.beta < 0 or self.factor_gamma < 0:
            raise ValueError("beta and factor_gamma must be non-negative")
        if self.num_mixture_components < 1:
            raise ValueError("num_mixture_components must be >= 1")
        if self.num_time_buckets < 1:
            raise ValueError("num_time_buckets must be >= 1")


@dataclass
class Seq2SeqOutput:
    """Forward-pass outputs: training loss plus per-trajectory scores."""

    loss: Tensor
    per_trajectory_nll: np.ndarray   # reconstruction + (weighted) KL per trajectory


class Seq2SeqVAEModel(Module):
    """Trajectory Seq2Seq (V)AE with the variations used by the baselines."""

    def __init__(
        self,
        config: DetectorConfig,
        variant: Seq2SeqVariant,
        rng: Optional[RandomState] = None,
    ) -> None:
        super().__init__()
        self.config = config
        self.variant = variant
        rng = get_rng(rng)
        emb_dim = config.embedding_dim
        hidden = config.hidden_dim
        latent = config.latent_dim

        self.segment_embedding = Embedding(config.vocab_size, emb_dim, rng=rng)
        encoder_input = emb_dim + (emb_dim if variant.time_aware else 0)
        self.encoder_rnn = GRU(encoder_input, hidden, rng=rng)

        if variant.variational:
            self.posterior_head = GaussianHead(hidden, latent, rng=rng)
            self.latent_to_hidden = Linear(latent, hidden, rng=rng)
        else:
            self.bottleneck = Linear(hidden, latent, rng=rng)
            self.latent_to_hidden = Linear(latent, hidden, rng=rng)

        decoder_input = emb_dim + (emb_dim if variant.time_aware else 0)
        self.decoder_rnn = GRU(decoder_input, hidden, rng=rng)
        self.output_projection = Linear(hidden, config.num_segments, rng=rng)

        if variant.time_aware:
            self.time_embedding = Embedding(variant.num_time_buckets, emb_dim, rng=rng)

        if variant.num_mixture_components > 1:
            # Learnable mixture means with unit-variance components and uniform
            # weights, following GM-VSAE's "discover different types of normal
            # routes" prior.
            self.mixture_means = Parameter(
                nn_init.normal_init((variant.num_mixture_components, latent), std=0.5, rng=rng),
                name="mixture_means",
            )

        self._rng = rng

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _time_buckets(self, batch: EncodedBatch, length: int) -> Optional[np.ndarray]:
        """Time-of-day bucket index per (trajectory, step); zeros when absent."""
        if not self.variant.time_aware:
            return None
        buckets = np.zeros((batch.batch_size, length), dtype=np.int64)
        # EncodedBatch does not carry timestamps (they are optional per
        # trajectory); DeepTEA-style models therefore bucket by *position* of
        # day derived from the trajectory's stored timestamps when available.
        # The encoded batch keeps only segment ids, so the bucket is derived
        # from a stable hash of the trajectory's source segment — a synthetic
        # but deterministic proxy for departure time that still gives the
        # model a time-conditioning channel to learn from.
        buckets += (batch.sources[:, None] * 7) % self.variant.num_time_buckets
        return buckets

    def _embed_steps(self, segments: np.ndarray, buckets: Optional[np.ndarray]) -> Tensor:
        embedded = self.segment_embedding(segments)
        if buckets is None:
            return embedded
        time_embedded = self.time_embedding(buckets)
        return concatenate([embedded, time_embedded], axis=-1)

    def encode(self, batch: EncodedBatch) -> Tensor:
        """Final encoder hidden state over the full (padded) trajectory."""
        buckets = self._time_buckets(batch, batch.full_segments.shape[1])
        # Padding ids index the last (padding) embedding row — valid because the
        # table has vocab_size = num_segments + 1 rows; masked GRU steps carry
        # the hidden state through unchanged.
        embedded = self._embed_steps(batch.full_segments, buckets)
        _, final_hidden = self.encoder_rnn(embedded, mask=batch.full_mask)
        return final_hidden

    def _mixture_kl(self, mu: Tensor, logvar: Tensor, latent: Tensor) -> Tensor:
        """KL(q || mixture prior) estimated with the sampled latent.

        KL(q||p) = E_q[log q(z)] − E_q[log p(z)]; the first term is the
        negative entropy of the diagonal Gaussian (closed form), the second is
        estimated at the sampled point against the uniform-weight mixture.
        """
        k = self.variant.num_mixture_components
        latent_dim = self.config.latent_dim
        # Negative entropy of N(mu, sigma^2): −0.5 * Σ (1 + log 2π + logvar).
        neg_entropy = (logvar + float(np.log(2 * np.pi)) + 1.0).sum(axis=-1) * (-0.5)
        # log p(z) under the mixture with unit-variance components.
        diffs = latent.unsqueeze(1) - self.mixture_means  # (batch, K, latent)
        component_log_probs = (
            (diffs * diffs).sum(axis=-1) * (-0.5)
            - 0.5 * latent_dim * float(np.log(2 * np.pi))
        )
        log_prior = logsumexp(component_log_probs, axis=-1) - float(np.log(k))
        return neg_entropy - log_prior

    @staticmethod
    def _factor_penalty(latent: Tensor) -> Tensor:
        """Moment-matching stand-in for FactorVAE's total correlation penalty."""
        centred = latent - latent.mean(axis=0, keepdims=True)
        batch = latent.shape[0]
        covariance = (centred.transpose() @ centred) * (1.0 / max(batch - 1, 1))
        diagonal = Tensor(np.eye(covariance.shape[0]))
        off_diagonal = covariance * (1.0 - diagonal)
        return (off_diagonal * off_diagonal).sum()

    # ------------------------------------------------------------------ #
    # forward
    # ------------------------------------------------------------------ #
    def forward(self, batch: EncodedBatch, deterministic_latent: Optional[bool] = None) -> Seq2SeqOutput:
        variant = self.variant
        if deterministic_latent is None:
            deterministic_latent = not self.training

        final_hidden = self.encode(batch)

        kl = Tensor(np.zeros(batch.batch_size))
        factor_term = Tensor(np.zeros(()))
        if variant.variational:
            mu, logvar = self.posterior_head(final_hidden)
            latent = self.posterior_head.sample(
                mu, logvar, rng=self._rng, deterministic=deterministic_latent
            )
            if variant.num_mixture_components > 1:
                kl = self._mixture_kl(mu, logvar, latent)
            else:
                kl = gaussian_kl_standard(mu, logvar, reduction="none")
            if variant.factor_gamma > 0:
                factor_term = self._factor_penalty(latent)
        else:
            latent = self.bottleneck(final_hidden).tanh()

        # Decode: teacher forcing over t_1 … t_{n-1} predicting t_2 … t_n.
        h0 = self.latent_to_hidden(latent).tanh()
        buckets = self._time_buckets(batch, batch.inputs.shape[1])
        decoder_inputs = self._embed_steps(batch.inputs, buckets)
        outputs, _ = self.decoder_rnn(decoder_inputs, h0=h0)
        logits = self.output_projection(outputs)
        per_step_nll = fused_masked_nll(logits, batch.targets, valid_mask=batch.mask)
        reconstruction = per_step_nll.sum(axis=1)

        per_trajectory = reconstruction + kl * variant.beta
        loss = per_trajectory.mean() + factor_term * variant.factor_gamma
        return Seq2SeqOutput(loss=loss, per_trajectory_nll=per_trajectory.data.copy())
