"""Functional operations built on top of the autograd :class:`~repro.nn.tensor.Tensor`.

These are the numerically careful primitives the VAE models need:

* :func:`log_softmax` / :func:`softmax` with the max-subtraction trick,
* :func:`one_hot` encoding of road-segment indices,
* :func:`masked_log_softmax` implementing the paper's *road-constrained
  prediction* (probability mass restricted to graph neighbours of the current
  road segment),
* :func:`logsumexp` (one node whose forward is :func:`logsumexp_forward`,
  the arithmetic the Seq2Seq inference engine runs on arrays),
  :func:`dropout` and small helpers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.tensor import Tensor, as_tensor
from repro.utils.rng import RandomState, get_rng

__all__ = [
    "softmax",
    "log_softmax",
    "masked_log_softmax",
    "logsumexp",
    "logsumexp_forward",
    "one_hot",
    "dropout",
    "NEG_INF",
]

#: Finite stand-in for ``-inf`` used when masking logits.  Using a finite value
#: keeps gradients well defined while making the masked probability ~1e-260.
NEG_INF = -1e9


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return log_softmax(logits, axis=axis).exp()


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``.

    Implemented as ``x - max(x) - log(sum(exp(x - max(x))))`` so that large
    logits produced late in training do not overflow.
    """
    logits = as_tensor(logits)
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def masked_log_softmax(logits: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Log-softmax restricted to positions where ``mask`` is True.

    This is the *road-constrained prediction* of the paper (§V-B):  when the
    trajectory decoder predicts the next road segment, only graph neighbours of
    the current segment may receive probability mass.  Positions where the mask
    is False get log-probability ``NEG_INF``.

    Parameters
    ----------
    logits:
        Tensor of shape ``(..., V)``.
    mask:
        Boolean array broadcastable to ``logits`` — True marks *allowed*
        positions.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=axis).all():
        raise ValueError("masked_log_softmax requires at least one allowed position per row")
    constrained = logits.masked_fill(~mask, NEG_INF)
    return log_softmax(constrained, axis=axis)


def logsumexp_forward(x: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """Stable ``log(sum(exp(x)))`` on raw arrays: the forward of :func:`logsumexp`."""
    shift = x.max(axis=axis, keepdims=True)
    out = np.log(np.exp(x - shift).sum(axis=axis, keepdims=True)) + shift
    return out if keepdims else np.squeeze(out, axis=axis)


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Stable ``log(sum(exp(x)))`` reduction as one node (backward: ``softmax(x)``)."""
    x = as_tensor(x)
    data = logsumexp_forward(x.data, axis=axis, keepdims=True)

    def backward(grad: np.ndarray):
        if not keepdims:
            grad = np.expand_dims(grad, axis)
        return [(x, grad * np.exp(x.data - data))]

    return x._make(data if keepdims else np.squeeze(data, axis=axis), (x,), backward)


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode an integer array; returns a float numpy array."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= num_classes):
        raise ValueError(
            f"one_hot indices must lie in [0, {num_classes}); got range "
            f"[{idx.min()}, {idx.max()}]"
        )
    out = np.zeros(idx.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(out, idx[..., None], 1.0, axis=-1)
    return out


def dropout(x: Tensor, p: float, training: bool, rng: Optional[RandomState] = None) -> Tensor:
    """Inverted dropout: zero each element with probability ``p`` during training."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1); got {p}")
    rng = get_rng(rng)
    keep = (rng.random(x.shape) >= p).astype(x.data.dtype)
    return x * Tensor(keep / (1.0 - p))
