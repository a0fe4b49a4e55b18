"""TG-VAE — the Trajectory Generation VAE (paper §V-B).

TG-VAE estimates the likelihood term ``P(c, t)`` of the debiased anomaly
criterion through the ELBO of Eq. (4):

    log P(t, c) ≥ E_{r ~ Q1(R|c)} [ log P(t|r) + log P(c|r) ]
                  − KL( Q1(R|c) || P(R) )

Its three parts, all following the paper:

* **SD encoder** ``Φ_e`` — embeds the source and destination segments and maps
  them to the posterior ``Q1(R | c) = N(μ_r, σ_r² I)``.  Conditioning on the
  SD pair only (not the trajectory) is what gives O(1) online updates.
* **SD decoder** ``Φ_c`` — reconstructs ``(ŝ, d̂)`` from ``r``; this prevents
  posterior collapse and forces the latent to carry SD information, which is
  the paper's out-of-distribution safeguard.
* **Road-constrained trajectory decoder** ``Φ_t`` — a GRU started from ``r``
  that predicts the next segment autoregressively, normalising the softmax
  over the graph successors of the current segment only.  The successor
  sets come from the compiled road graph
  (:class:`~repro.roadnet.csr.CompiledRoadGraph`), the one form of the road
  constraint the model accepts.  The loss contracts the decoder states
  against only those successors' output columns
  (:func:`~repro.nn.fused.fused_successor_nll`), the step offline scoring and
  serving run too, so no ``(batch, time, vocab)`` logits are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.config import CausalTADConfig
from repro.nn import (
    GRU,
    Embedding,
    GaussianHead,
    Linear,
    MLP,
    Module,
    Tensor,
    concatenate,
    fused_masked_nll,
    fused_successor_nll,
    gaussian_kl_standard,
)
from repro.roadnet.csr import CompiledRoadGraph
from repro.trajectory.dataset import EncodedBatch
from repro.utils.rng import RandomState, get_rng

__all__ = ["TGVAE", "TGVAEOutput"]


@dataclass
class TGVAEOutput:
    """Per-batch outputs of a TG-VAE forward pass.

    ``loss`` is the training objective (negative ELBO, Eq. 4/L1).  The
    per-trajectory pieces are kept separately because anomaly scoring needs
    them individually (Eq. 10) and the online detector needs the per-step
    log-probabilities.
    """

    loss: Tensor
    trajectory_nll: np.ndarray      # (batch,) Σ_i −log P(t_{i+1} | r, t_{≤i})
    sd_nll: np.ndarray              # (batch,) −log P(c | r)
    kl: np.ndarray                  # (batch,) KL(Q1 || prior)
    step_log_probs: np.ndarray      # (batch, time) log P(t_{i+1} | ...) at valid steps, 0 elsewhere


class TGVAE(Module):
    """Trajectory Generation VAE."""

    def __init__(self, config: CausalTADConfig, rng: Optional[RandomState] = None) -> None:
        super().__init__()
        self.config = config
        rng = get_rng(rng)
        vocab = config.vocab_size
        emb_dim = config.embedding_dim
        hidden = config.hidden_dim
        latent = config.latent_dim

        # Embedding tables: E_c for SD tokens, E_r for trajectory tokens (§V-B).
        self.sd_embedding = Embedding(vocab, emb_dim, rng=rng)
        self.segment_embedding = Embedding(vocab, emb_dim, rng=rng)

        # SD encoder Φ_e: (s, d) -> posterior over R.
        self.sd_encoder = MLP((2 * emb_dim, hidden, hidden), activation="relu", rng=rng)
        self.posterior_head = GaussianHead(hidden, latent, rng=rng)

        # SD decoder Φ_c: r -> (ŝ, d̂).
        self.sd_decoder_hidden = MLP((latent, hidden), activation="relu", final_activation="relu", rng=rng)
        self.source_head = Linear(hidden, config.num_segments, rng=rng)
        self.destination_head = Linear(hidden, config.num_segments, rng=rng)

        # Trajectory decoder Φ_t: GRU started from r.
        self.latent_to_hidden = Linear(latent, hidden, rng=rng)
        self.decoder_rnn = GRU(emb_dim, hidden, rng=rng)
        self.output_projection = Linear(hidden, config.num_segments, rng=rng)

        self._rng = rng

    # ------------------------------------------------------------------ #
    # pieces
    # ------------------------------------------------------------------ #
    def encode_sd(self, sources: np.ndarray, destinations: np.ndarray) -> Tuple[Tensor, Tensor]:
        """Posterior parameters ``(μ_r, log σ_r²)`` of ``Q1(R | c)``."""
        s_emb = self.sd_embedding(sources)
        d_emb = self.sd_embedding(destinations)
        joint = concatenate([s_emb, d_emb], axis=-1)
        return self.posterior_head(self.sd_encoder(joint))

    def sample_latent(self, mu: Tensor, logvar: Tensor, deterministic: Optional[bool] = None) -> Tensor:
        """Reparameterised latent sample (posterior mean in eval mode)."""
        if deterministic is None:
            deterministic = not self.training
        return self.posterior_head.sample(mu, logvar, rng=self._rng, deterministic=deterministic)

    def decode_sd(self, latent: Tensor) -> Tuple[Tensor, Tensor]:
        """Logits of the reconstructed source and destination."""
        hidden = self.sd_decoder_hidden(latent)
        return self.source_head(hidden), self.destination_head(hidden)

    def decoder_states(self, latent: Tensor, inputs: np.ndarray) -> Tensor:
        """Decoder GRU states ``(batch, time, hidden)``, started from ``tanh(W r + b)``."""
        h0 = self.latent_to_hidden(latent).tanh()
        outputs, _ = self.decoder_rnn(self.segment_embedding(inputs), h0=h0)
        return outputs

    def successor_candidates(
        self, batch: EncodedBatch, road_graph: CompiledRoadGraph
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each decoder step's ``(cand_idx, cand_valid, target_allowed)``.

        :meth:`CompiledRoadGraph.step_candidates
        <repro.roadnet.csr.CompiledRoadGraph.step_candidates>` at the batch's
        inputs and targets, shared by training and offline scoring.  Padding
        steps read segment 0's row; the batch mask zeroes their loss.
        """
        inputs = np.where(batch.inputs >= self.config.num_segments, 0, batch.inputs)
        return road_graph.step_candidates(inputs, batch.targets, valid=batch.mask)

    # ------------------------------------------------------------------ #
    # full pass
    # ------------------------------------------------------------------ #
    def forward(
        self,
        batch: EncodedBatch,
        road_graph: Optional[CompiledRoadGraph] = None,
        deterministic_latent: Optional[bool] = None,
    ) -> TGVAEOutput:
        """Compute the L1 loss (Eq. 4) and per-trajectory components.

        Without ``road_graph`` (or with ``config.road_constrained`` off) the
        decoder softmax runs over the whole vocabulary.
        """
        config = self.config
        mu, logvar = self.encode_sd(batch.sources, batch.destinations)
        latent = self.sample_latent(mu, logvar, deterministic=deterministic_latent)

        # Trajectory reconstruction term  Σ_i H(t̂_i, t_i), one graph node.
        # With a road constraint each state meets only its step's successor
        # columns of the output projection (O(degree) instead of O(vocab) per
        # position, and no (batch, time, vocab) logits); without one the
        # softmax runs over the whole vocabulary.
        states = self.decoder_states(latent, batch.inputs)
        projection = self.output_projection
        if road_graph is not None and config.road_constrained:
            cand_idx, cand_valid, target_allowed = self.successor_candidates(batch, road_graph)
            per_step_nll = fused_successor_nll(
                states,
                projection.weight,
                projection.bias,
                cand_idx,
                cand_valid,
                batch.targets,
                target_allowed,
                valid_mask=batch.mask,
            )
        else:
            per_step_nll = fused_masked_nll(projection(states), batch.targets, valid_mask=batch.mask)
        trajectory_nll = per_step_nll.sum(axis=1)

        # SD reconstruction term  H(ŝ, s) + H(d̂, d), on the softmax scoring runs.
        if config.use_sd_decoder:
            source_logits, destination_logits = self.decode_sd(latent)
            sd_nll = fused_masked_nll(source_logits, batch.sources) + fused_masked_nll(
                destination_logits, batch.destinations
            )
        else:
            sd_nll = Tensor(np.zeros(batch.batch_size))

        # KL term.
        kl = gaussian_kl_standard(mu, logvar, reduction="none")

        per_trajectory = trajectory_nll + sd_nll + kl * config.kl_weight
        loss = per_trajectory.mean()

        step_log_probs = -per_step_nll.data  # (batch, time); zero where masked
        return TGVAEOutput(
            loss=loss,
            trajectory_nll=trajectory_nll.data.copy(),
            sd_nll=sd_nll.data.copy(),
            kl=kl.data.copy(),
            step_log_probs=step_log_probs,
        )

    # ------------------------------------------------------------------ #
    # inference helpers
    # ------------------------------------------------------------------ #
    def negative_elbo(
        self, batch: EncodedBatch, road_graph: Optional[CompiledRoadGraph] = None
    ) -> np.ndarray:
        """Per-trajectory −ELBO ≈ −log P(c, t), the likelihood part of Eq. 10."""
        output = self.forward(batch, road_graph, deterministic_latent=True)
        return output.trajectory_nll + output.sd_nll + output.kl
