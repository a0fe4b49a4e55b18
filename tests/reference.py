"""Per-step autograd reference formulations of the models' forward passes.

The library runs each GRU through one fused kernel (:mod:`repro.nn.fused`)
and each decoder loss through a one-node NLL.  The composite formulations
they replace live here, as parity oracles only: a GRU built from one Tensor
op per gate per timestep, the dense ``(batch, time, vocab)`` masked decoder,
and the TG-VAE, RP-VAE, CausalTAD and Seq2Seq losses composed from those
pieces, with the eval-mode scores built on them (Eq. 10 scores, the Fig. 4
breakdown, the Seq2Seq baseline scores) and the Tensor-module session start
that :func:`~repro.core.scoring_kernel.init_session_states` is pinned to.
:class:`PerParameterAdam` is the Adam update run parameter by parameter,
the oracle of the flat :class:`~repro.nn.optim.Adam`.
Every function reads the parameters of a live model, so a fused
forward and its reference can be compared on identical weights (and, for
two models built from the same seed, identical random streams).  The dense
decoder takes the road constraint as a dense ``(V, V)`` transition mask or
densifies a compiled graph; :func:`build_successor_table` packs such a mask
into the gather tables the library builds from the CSR arrays.

Used by ``tests/nn/test_fused_kernels.py`` (kernel and model-level gradient
parity), ``tests/core/test_inference_engine.py`` (score parity of the numpy
engine), ``tests/core/test_scoring_kernel.py`` (session start, bitwise),
``tests/roadnet/test_csr_graph.py`` (successor-table parity),
``benchmarks/test_bench_train_fused.py`` (the gradient and loss parity
references, and the per-step timings it prints),
``tests/nn/test_optim_serialization.py`` (the flat Adam against
:class:`PerParameterAdam`, bitwise) and
``benchmarks/test_bench_roadnet_pipeline.py`` (CSR-vs-dense scores).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.baselines.seq2seq import Seq2SeqOutput, Seq2SeqVAEModel
from repro.core.causal_tad import CausalTAD, CausalTADLoss, SegmentScoreBreakdown
from repro.core.rp_vae import RPVAE, RPVAEOutput
from repro.core.tg_vae import TGVAE, TGVAEOutput
from repro.nn import (
    GRU,
    GRUCell,
    Tensor,
    as_tensor,
    cross_entropy_from_logits,
    gaussian_kl_standard,
    log_softmax,
    masked_log_softmax,
    no_grad,
    Optimizer,
    Parameter,
    sequence_nll,
    stack,
)
from repro.roadnet.csr import CompiledRoadGraph
from repro.trajectory.dataset import EncodedBatch, TrajectoryDataset, encode_batch
from repro.trajectory.types import MapMatchedTrajectory
from repro.utils.arrays import pad_ragged_rows


# --------------------------------------------------------------------------- #
# per-step GRU
# --------------------------------------------------------------------------- #
def gru_cell_forward(cell: GRUCell, x: Tensor, h: Tensor) -> Tensor:
    """One GRU step as Tensor ops: ``x`` is ``(batch, in)``, ``h`` ``(batch, hidden)``."""
    x = as_tensor(x)
    h = as_tensor(h)
    gates_x = x @ cell.w_ih + cell.b_ih
    gates_h = h @ cell.w_hh + cell.b_hh
    H = cell.hidden_dim
    rx, zx, nx = gates_x[:, :H], gates_x[:, H : 2 * H], gates_x[:, 2 * H :]
    rh, zh, nh = gates_h[:, :H], gates_h[:, H : 2 * H], gates_h[:, 2 * H :]
    reset = (rx + rh).sigmoid()
    update = (zx + zh).sigmoid()
    candidate = (nx + reset * nh).tanh()
    return (1.0 - update) * candidate + update * h


def gru_forward(
    gru: GRU,
    x: Tensor,
    h0: Optional[Tensor] = None,
    mask: Optional[np.ndarray] = None,
) -> Tuple[Tensor, Tensor]:
    """The GRU unrolled one :func:`gru_cell_forward` graph per timestep.

    Same conventions as :meth:`repro.nn.GRU.forward`: masked positions carry
    the hidden state through unchanged.
    """
    x = as_tensor(x)
    batch, time = x.shape[0], x.shape[1]
    h = h0 if h0 is not None else Tensor(np.zeros((batch, gru.hidden_dim)))
    outputs: List[Tensor] = []
    for t in range(time):
        h_new = gru_cell_forward(gru.cell, x[:, t, :], h)
        if mask is not None:
            keep = mask[:, t].astype(np.float64)[:, None]
            h = Tensor(keep) * h_new + Tensor(1.0 - keep) * h
        else:
            h = h_new
        outputs.append(h)
    return stack(outputs, axis=1), h


# --------------------------------------------------------------------------- #
# dense masked decoder (TG-VAE)
# --------------------------------------------------------------------------- #
def build_successor_table(transition_mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Pad the boolean ``(V, V)`` successor matrix into dense gather tables.

    Returns ``(idx, valid)`` of shape ``(V, max_degree)``: ``idx[v]`` lists the
    successors of segment ``v`` in ascending order, padded with the row's
    first successor (so padded slots gather a real column and contribute an
    exact zero to scatter-adds); ``valid`` marks the real entries.  Rows with
    no successors keep ``idx = 0`` and all-False ``valid``.
    """
    tm = np.asarray(transition_mask, dtype=bool)
    # ``nonzero`` walks the mask row-major, so within each row the successor
    # columns come out ascending; the padded packing itself is shared with
    # the CSR builder so both stay bit-identical.
    rows, cols = np.nonzero(tm)
    return pad_ragged_rows(rows, cols, tm.sum(axis=1), tm.shape[0])


def allowed_mask(tg: TGVAE, inputs: np.ndarray, transition_mask) -> Optional[np.ndarray]:
    """The ``(batch, time, vocab)`` road-constrained prediction mask, or ``None``.

    The next segment must be a graph successor of the current input segment;
    padding rows get an all-True mask (the batch mask removes their loss).
    """
    if transition_mask is None or not tg.config.road_constrained:
        return None
    if isinstance(transition_mask, CompiledRoadGraph):
        transition_mask = transition_mask.transition_mask()
    safe_inputs = np.where(inputs >= tg.config.num_segments, 0, inputs)
    step_mask = transition_mask[safe_inputs]
    return step_mask | (inputs >= tg.config.num_segments)[..., None]


def decoder_logits(tg: TGVAE, latent: Tensor, inputs: np.ndarray) -> Tensor:
    """Unnormalised next-segment scores ``(batch, time, num_segments)``."""
    h0 = tg.latent_to_hidden(latent).tanh()
    embedded = tg.segment_embedding(inputs)
    outputs, _ = gru_forward(tg.decoder_rnn, embedded, h0=h0)
    return tg.output_projection(outputs)


def decode_trajectory(tg: TGVAE, latent: Tensor, inputs: np.ndarray, transition_mask) -> Tensor:
    """Dense ``(batch, time, num_segments)`` next-segment log-probabilities."""
    logits = decoder_logits(tg, latent, inputs)
    step_mask = allowed_mask(tg, inputs, transition_mask)
    if step_mask is None:
        return log_softmax(logits, axis=-1)
    return masked_log_softmax(logits, step_mask, axis=-1)


# --------------------------------------------------------------------------- #
# loss compositions
# --------------------------------------------------------------------------- #
def tg_vae_forward(
    tg: TGVAE,
    batch: EncodedBatch,
    transition_mask=None,
    deterministic_latent: Optional[bool] = None,
) -> TGVAEOutput:
    """Reference for :meth:`TGVAE.forward`: L1 (Eq. 4) through the dense decoder."""
    config = tg.config
    mu, logvar = tg.encode_sd(batch.sources, batch.destinations)
    latent = tg.sample_latent(mu, logvar, deterministic=deterministic_latent)

    log_probs = decode_trajectory(tg, latent, batch.inputs, transition_mask)
    per_step_nll = sequence_nll(log_probs, batch.targets, mask=batch.mask, reduction="none")
    trajectory_nll = per_step_nll.sum(axis=1)

    if config.use_sd_decoder:
        source_logits, destination_logits = tg.decode_sd(latent)
        source_nll = cross_entropy_from_logits(source_logits, batch.sources, reduction="none")
        destination_nll = cross_entropy_from_logits(
            destination_logits, batch.destinations, reduction="none"
        )
        sd_nll = source_nll + destination_nll
    else:
        sd_nll = Tensor(np.zeros(batch.batch_size))

    kl = gaussian_kl_standard(mu, logvar, reduction="none")

    per_trajectory = trajectory_nll + sd_nll + kl * config.kl_weight
    loss = per_trajectory.mean()
    return TGVAEOutput(
        loss=loss,
        trajectory_nll=trajectory_nll.data.copy(),
        sd_nll=sd_nll.data.copy(),
        kl=kl.data.copy(),
        step_log_probs=-per_step_nll.data,
    )


def rp_vae_forward(rp: RPVAE, batch: EncodedBatch) -> RPVAEOutput:
    """Reference for :meth:`RPVAE.forward`: L2 with the composite cross-entropy."""
    segments = batch.full_segments
    valid = batch.full_mask
    flat_segments = segments[valid]
    if flat_segments.size == 0:
        raise ValueError("RP-VAE received a batch with no valid segments")

    mu, logvar = rp.encode(flat_segments)
    latent = rp.posterior_head.sample(mu, logvar, rng=rp._rng, deterministic=not rp.training)
    logits = rp.decode(latent)

    reconstruction = cross_entropy_from_logits(logits, flat_segments, reduction="none")
    kl = gaussian_kl_standard(mu, logvar, reduction="none")
    per_segment = reconstruction + kl * rp.config.kl_weight
    loss = per_segment.mean()

    counts = valid.sum(axis=1)
    per_trajectory = np.zeros(batch.batch_size, dtype=np.float64)
    nonempty = counts > 0
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))[nonempty]
    per_trajectory[nonempty] = np.add.reduceat(per_segment.data, starts)

    rp._cached_scaling = None  # parameters are about to change
    return RPVAEOutput(loss=loss, per_trajectory_nll=per_trajectory)


def causal_tad_loss(model: CausalTAD, batch: EncodedBatch) -> CausalTADLoss:
    """Reference for :meth:`CausalTAD.forward`: the joint loss of Eq. (9)."""
    tg_out = tg_vae_forward(model.tg_vae, batch, transition_mask=model.road_graph)
    rp_out = rp_vae_forward(model.rp_vae, batch)
    total = tg_out.loss + rp_out.loss
    return CausalTADLoss(total=total, tg_loss=tg_out.loss.item(), rp_loss=rp_out.loss.item())


def _eval_forward(model: CausalTAD, batch: EncodedBatch) -> TGVAEOutput:
    """:func:`tg_vae_forward` in eval mode, without a graph, mode restored after."""
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            return tg_vae_forward(
                model.tg_vae, batch, model.road_graph, deterministic_latent=True
            )
    finally:
        model.train(was_training)


def causal_tad_scores(
    model: CausalTAD, batch: EncodedBatch, use_scaling: bool = True
) -> np.ndarray:
    """Reference for :meth:`CausalTAD.score_batch`: Eq. (10) at the configured λ."""
    lam = model.config.lambda_weight
    output = _eval_forward(model, batch)
    likelihood = output.trajectory_nll + output.sd_nll + output.kl
    if not use_scaling or lam == 0.0:
        return likelihood
    return likelihood - lam * model._sum_scaling(batch, model.scaling_factors())


def segment_score_breakdown(
    model: CausalTAD, trajectory: MapMatchedTrajectory
) -> SegmentScoreBreakdown:
    """Reference for :meth:`CausalTAD.segment_score_breakdown` at the configured λ."""
    lam = model.config.lambda_weight
    batch = encode_batch([trajectory], model.config.num_segments)
    output = _eval_forward(model, batch)
    scaling = model.scaling_factors()
    targets = np.asarray(trajectory.segments[1:], dtype=np.int64)
    likelihood_scores = -output.step_log_probs[0][: len(targets)]
    likelihood = float(output.trajectory_nll[0] + output.sd_nll[0] + output.kl[0])
    return SegmentScoreBreakdown(
        segments=targets,
        likelihood_scores=likelihood_scores,
        scaling_scores=scaling[targets],
        debiased_scores=likelihood_scores - lam * scaling[targets],
        total_score=likelihood - lam * float(model._sum_scaling(batch, scaling)[0]),
    )


def session_start(
    model: CausalTAD, sources: np.ndarray, destinations: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Reference for :func:`~repro.core.scoring_kernel.init_session_states`.

    The Tensor-module session start: SD encoding, SD decoding and KL through
    the model's modules under ``no_grad``.  Returns ``(fixed_scores,
    hidden)``: SD reconstruction + unweighted KL, and ``tanh(W r + b)`` at
    the posterior mean ``r``.
    """
    tg = model.tg_vae
    sources = np.asarray(sources, dtype=np.int64)
    destinations = np.asarray(destinations, dtype=np.int64)
    with no_grad():
        mu, logvar = tg.encode_sd(sources, destinations)
        latent = tg.sample_latent(mu, logvar, deterministic=True)

        fixed = np.zeros(sources.shape[0], dtype=np.float64)
        if model.config.use_sd_decoder:
            source_logits, destination_logits = tg.decode_sd(latent)
            rows = np.arange(sources.shape[0])
            source_lp = log_softmax(source_logits, axis=-1).data[rows, sources]
            destination_lp = log_softmax(destination_logits, axis=-1).data[rows, destinations]
            fixed += -(source_lp + destination_lp)
        kl = 0.5 * (np.exp(logvar.data) + mu.data**2 - 1.0 - logvar.data).sum(axis=-1)
        fixed += kl

        hidden = tg.latent_to_hidden(latent).tanh().data
    return fixed, hidden


def seq2seq_forward(
    model: Seq2SeqVAEModel, batch: EncodedBatch, deterministic_latent: Optional[bool] = None
) -> Seq2SeqOutput:
    """Reference for :meth:`Seq2SeqVAEModel.forward`: per-step GRUs, dense NLL."""
    variant = model.variant
    if deterministic_latent is None:
        deterministic_latent = not model.training

    buckets = model._time_buckets(batch, batch.full_segments.shape[1])
    embedded = model._embed_steps(batch.full_segments, buckets)
    _, final_hidden = gru_forward(model.encoder_rnn, embedded, mask=batch.full_mask)

    kl = Tensor(np.zeros(batch.batch_size))
    factor_term = Tensor(np.zeros(()))
    if variant.variational:
        mu, logvar = model.posterior_head(final_hidden)
        latent = model.posterior_head.sample(
            mu, logvar, rng=model._rng, deterministic=deterministic_latent
        )
        if variant.num_mixture_components > 1:
            kl = model._mixture_kl(mu, logvar, latent)
        else:
            kl = gaussian_kl_standard(mu, logvar, reduction="none")
        if variant.factor_gamma > 0:
            factor_term = model._factor_penalty(latent)
    else:
        latent = model.bottleneck(final_hidden).tanh()

    h0 = model.latent_to_hidden(latent).tanh()
    decoder_inputs = model._embed_steps(
        batch.inputs, model._time_buckets(batch, batch.inputs.shape[1])
    )
    outputs, _ = gru_forward(model.decoder_rnn, decoder_inputs, h0=h0)
    log_probs = log_softmax(model.output_projection(outputs), axis=-1)
    per_step_nll = sequence_nll(log_probs, batch.targets, mask=batch.mask, reduction="none")
    reconstruction = per_step_nll.sum(axis=1)

    per_trajectory = reconstruction + kl * variant.beta
    loss = per_trajectory.mean() + factor_term * variant.factor_gamma
    return Seq2SeqOutput(loss=loss, per_trajectory_nll=per_trajectory.data.copy())


def seq2seq_scores(
    model: Seq2SeqVAEModel, dataset: TrajectoryDataset, batch_size: int = 16
) -> np.ndarray:
    """Reference for :meth:`Seq2SeqDetector.score`: eval-mode :func:`seq2seq_forward`."""
    scores = np.empty(len(dataset), dtype=np.float64)
    cursor = 0
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            for batch in dataset.iter_batches(batch_size, shuffle=False):
                batch_scores = seq2seq_forward(model, batch).per_trajectory_nll
                scores[cursor : cursor + len(batch_scores)] = batch_scores
                cursor += len(batch_scores)
    finally:
        model.train(was_training)
    return scores


# --------------------------------------------------------------------------- #
# per-parameter Adam
# --------------------------------------------------------------------------- #
class PerParameterAdam(Optimizer):
    """Adam with one moment, scratch and decay buffer per parameter.

    The update :class:`repro.nn.optim.Adam` ran before its moments became flat
    buffers: the same in-place ufuncs, in the same order, with the same
    scalars, once per parameter that has a gradient.  Parameters that never
    had a gradient have no state.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.001,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        # (m, v, scratch, decay_scratch) per parameter, keyed by id.
        self.state: Dict[int, tuple] = {}
        self._t = 0

    def _buffers(self, p: Parameter) -> tuple:
        state = self.state.get(id(p))
        if state is None:
            state = (
                np.zeros_like(p.data),
                np.zeros_like(p.data),
                np.empty_like(p.data),
                np.empty_like(p.data) if self.weight_decay else None,
            )
            self.state[id(p)] = state
        return state

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p in self.parameters:
            if p.grad is None:
                continue
            m, v, scratch, decay = self._buffers(p)
            grad = np.asarray(p.grad, dtype=p.data.dtype)
            if self.weight_decay:
                np.multiply(p.data, self.weight_decay, out=decay)
                decay += grad
                grad = decay
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=scratch)
            m += scratch
            v *= self.beta2
            np.multiply(grad, grad, out=scratch)
            scratch *= 1.0 - self.beta2
            v += scratch
            np.divide(v, bias2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += self.eps
            np.divide(m, scratch, out=scratch)
            scratch *= self.lr / bias1
            p.data -= scratch
