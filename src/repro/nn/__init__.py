"""``repro.nn`` — a from-scratch numpy neural-network substrate.

The original CausalTAD implementation is written in PyTorch.  This package
replaces it with a self-contained reverse-mode autodiff engine plus the layers,
losses and optimisers required by the paper's models and baselines:

* :class:`Tensor` and :class:`no_grad` — the autograd core.
* :class:`Module` / :class:`Parameter` — model containers with state dicts.
* Layers: :class:`Linear`, :class:`Embedding`, :class:`MLP`, :class:`GRU`,
  :class:`GaussianHead`.
* Losses: cross entropy (road-constrained variant via
  :func:`masked_log_softmax` + :func:`cross_entropy_from_log_probs`),
  Gaussian KL divergences, sequence NLL.
* Fused kernels (:mod:`repro.nn.fused`): the one GRU step
  (:func:`~repro.nn.fused.gru_step`) that training, offline scoring and
  serving share, its single-node BPTT unroll (:func:`gru_sequence`), fused
  embedding gather, the full-vocabulary and successor-set decoder losses,
  fused linear/KL/reparameterisation — the training hot path.  Their
  forwards are numpy functions that scoring calls too
  (:func:`gather_log_softmax`, :func:`successor_step_nll`, …), and the
  layers offer the same arithmetic on raw arrays (``Linear.infer`` etc.).
* Optimisers: :class:`SGD`, :class:`Adam` (one flat in-place update per step), plus
  gradient clipping.
* Checkpoint (de)serialisation helpers.
"""

from repro.nn.tensor import Tensor, as_tensor, concatenate, stack, no_grad, is_grad_enabled
from repro.nn.functional import (
    softmax,
    log_softmax,
    masked_log_softmax,
    logsumexp,
    one_hot,
    dropout,
    NEG_INF,
)
from repro.nn.fused import (
    gru_sequence,
    gather_log_softmax,
    successor_step_nll,
    embedding_gather,
    fused_masked_nll,
    fused_successor_nll,
    fused_linear,
    fused_gaussian_kl,
    fused_reparameterize,
)
from repro.nn.module import Module, Parameter
from repro.nn.layers import Linear, Embedding, Dropout, Sequential, MLP, GaussianHead, Activation
from repro.nn.rnn import GRUCell, GRU
from repro.nn.losses import (
    cross_entropy_from_logits,
    cross_entropy_from_log_probs,
    sequence_nll,
    gaussian_kl_standard,
    gaussian_kl,
    mse_loss,
)
from repro.nn.optim import Optimizer, SGD, Adam, clip_grad_norm
from repro.nn.serialization import (
    save_checkpoint,
    load_checkpoint,
    save_state_dict,
    load_state_dict,
    save_training_checkpoint,
    load_training_checkpoint,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "softmax",
    "log_softmax",
    "masked_log_softmax",
    "logsumexp",
    "one_hot",
    "dropout",
    "NEG_INF",
    "Module",
    "Parameter",
    "Linear",
    "Embedding",
    "Dropout",
    "Sequential",
    "MLP",
    "GaussianHead",
    "Activation",
    "GRUCell",
    "GRU",
    "gru_sequence",
    "gather_log_softmax",
    "successor_step_nll",
    "embedding_gather",
    "fused_masked_nll",
    "fused_successor_nll",
    "fused_linear",
    "fused_gaussian_kl",
    "fused_reparameterize",
    "cross_entropy_from_logits",
    "cross_entropy_from_log_probs",
    "sequence_nll",
    "gaussian_kl_standard",
    "gaussian_kl",
    "mse_loss",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "save_checkpoint",
    "load_checkpoint",
    "save_training_checkpoint",
    "load_training_checkpoint",
    "save_state_dict",
    "load_state_dict",
]
