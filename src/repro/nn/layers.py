"""Feed-forward building blocks: Linear, Embedding, MLP, Sequential, Dropout.

These cover every non-recurrent component of the paper's architecture:

* ``Embedding`` — the learnable road-segment / SD-pair embedding matrices
  ``E_c``, ``E_r`` and ``E_s`` (paper §V-B, §V-C).
* ``Linear`` + ``MLP`` — the SD encoder ``Φ_e``, SD decoder ``Φ_c`` and the
  RP-VAE encoder/decoder ``Ψ_e`` / ``Ψ_d`` are all small MLPs.
* ``GaussianHead`` — produces ``(μ, log σ²)`` for the variational posteriors.

Their ``infer`` methods are the eval-mode forward on raw arrays, with the
arithmetic of the Tensor kernels and no Tensor; the inference engine calls
them.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import init as nn_init
from repro.nn.functional import dropout as dropout_fn
from repro.nn.fused import embedding_gather, fused_linear, fused_reparameterize, linear_forward
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, as_tensor, concatenate, sigmoid_forward
from repro.utils.rng import RandomState, get_rng

__all__ = [
    "Linear",
    "Embedding",
    "Dropout",
    "Sequential",
    "MLP",
    "GaussianHead",
    "Activation",
]


class Linear(Module):
    """Affine layer ``y = x W + b`` with weight stored as ``(in_dim, out_dim)``."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        bias: bool = True,
        rng: Optional[RandomState] = None,
    ) -> None:
        super().__init__()
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("Linear dimensions must be positive")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Parameter(nn_init.xavier_uniform((in_dim, out_dim), rng=rng), name="weight")
        self.bias = Parameter(nn_init.zeros((out_dim,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        # One fused node (matmul + bias) instead of two; same arithmetic.
        return fused_linear(as_tensor(x), self.weight, self.bias)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode forward on raw arrays (no Tensor, no graph)."""
        return linear_forward(x, self.weight.data, None if self.bias is None else self.bias.data)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    Used for road-segment embeddings (vocabulary = number of road segments in
    the network, plus special padding / start tokens handled by the callers).
    """

    def __init__(self, num_embeddings: int, dim: int, rng: Optional[RandomState] = None) -> None:
        super().__init__()
        if num_embeddings <= 0 or dim <= 0:
            raise ValueError("Embedding sizes must be positive")
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(nn_init.normal_init((num_embeddings, dim), std=0.1, rng=rng), name="weight")

    def forward(self, indices: np.ndarray) -> Tensor:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"got range [{idx.min()}, {idx.max()}]"
            )
        # Fused lookup: identical forward to ``weight.index_select`` but with a
        # sort/reduceat scatter-add backward instead of per-element np.add.at.
        return embedding_gather(self.weight, idx)


class Dropout(Module):
    """Inverted dropout layer; inactive in eval mode."""

    def __init__(self, p: float = 0.1, rng: Optional[RandomState] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1); got {p}")
        self.p = p
        self._rng = get_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return dropout_fn(x, self.p, training=self.training, rng=self._rng)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Eval mode: the identity."""
        return x


class Activation(Module):
    """Named activation wrapper so activations can live inside Sequential."""

    #: name -> (the Tensor op, the same arithmetic on raw arrays).
    _FUNCS: dict = {
        "tanh": (Tensor.tanh, np.tanh),
        "relu": (Tensor.relu, lambda x: np.maximum(x, 0.0)),
        "sigmoid": (Tensor.sigmoid, sigmoid_forward),
        "identity": (lambda x: x, lambda x: x),
    }

    def __init__(self, name: str = "tanh") -> None:
        super().__init__()
        if name not in self._FUNCS:
            raise ValueError(f"unknown activation '{name}'; choose from {sorted(self._FUNCS)}")
        self.name = name

    def forward(self, x: Tensor) -> Tensor:
        return self._FUNCS[self.name][0](x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode forward on raw arrays."""
        return self._FUNCS[self.name][1](x)


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._layers: List[Module] = []
        for i, module in enumerate(modules):
            setattr(self, f"layer{i}", module)
            self._layers.append(module)

    def forward(self, x):
        for layer in self._layers:
            x = layer(x)
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode forward on raw arrays: each child's ``infer`` in order."""
        for layer in self._layers:
            x = layer.infer(x)
        return x

    def __iter__(self):
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)


class MLP(Module):
    """Multi-layer perceptron with a configurable activation.

    Parameters
    ----------
    dims:
        Layer widths including input and output, e.g. ``(128, 128, 64)``
        builds two Linear layers.
    activation:
        Activation between hidden layers (not applied after the final layer).
    final_activation:
        Optional activation applied after the final layer.
    """

    def __init__(
        self,
        dims: Sequence[int],
        activation: str = "relu",
        final_activation: Optional[str] = None,
        dropout: float = 0.0,
        rng: Optional[RandomState] = None,
    ) -> None:
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP requires at least input and output dimensions")
        layers: List[Module] = []
        for i in range(len(dims) - 1):
            layers.append(Linear(dims[i], dims[i + 1], rng=rng))
            is_last = i == len(dims) - 2
            if not is_last:
                layers.append(Activation(activation))
                if dropout > 0:
                    layers.append(Dropout(dropout, rng=rng))
            elif final_activation is not None:
                layers.append(Activation(final_activation))
        self.net = Sequential(*layers)
        self.in_dim = dims[0]
        self.out_dim = dims[-1]

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode forward on raw arrays (dropout inactive)."""
        return self.net.infer(x)


class GaussianHead(Module):
    """Produces the mean and log-variance of a diagonal Gaussian posterior.

    Both the SD encoder of TG-VAE and the road-segment encoder of RP-VAE end
    with this head: ``μ, log σ² = W_mu h + b_mu, W_lv h + b_lv``.  The
    log-variance is clipped to a sane range so that early-training instability
    cannot produce degenerate (zero or exploding) variances.
    """

    LOGVAR_MIN = -8.0
    LOGVAR_MAX = 8.0

    def __init__(self, in_dim: int, latent_dim: int, rng: Optional[RandomState] = None) -> None:
        super().__init__()
        self.mu = Linear(in_dim, latent_dim, rng=rng)
        self.logvar = Linear(in_dim, latent_dim, rng=rng)
        self.latent_dim = latent_dim

    def forward(self, h: Tensor) -> Tuple[Tensor, Tensor]:
        mu = self.mu(h)
        logvar = self.logvar(h).clip(self.LOGVAR_MIN, self.LOGVAR_MAX)
        return mu, logvar

    def infer(self, h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Eval-mode ``(μ, log σ²)`` on raw arrays."""
        mu = self.mu.infer(h)
        logvar = np.clip(self.logvar.infer(h), self.LOGVAR_MIN, self.LOGVAR_MAX)
        return mu, logvar

    def sample(
        self,
        mu: Tensor,
        logvar: Tensor,
        rng: Optional[RandomState] = None,
        deterministic: bool = False,
    ) -> Tensor:
        """Reparameterised sample ``z = μ + σ ⊙ ε`` (or ``μ`` if deterministic)."""
        if deterministic:
            return mu
        rng = get_rng(rng)
        eps = rng.normal(0.0, 1.0, size=mu.shape)
        return fused_reparameterize(mu, logvar, eps)
