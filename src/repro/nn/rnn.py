"""Recurrent layers: the GRU and its cell.

The trajectory decoder ``Φ_t`` in TG-VAE (paper §V-B) is a GRU that starts
from the latent state ``h_0 = r`` (the SD-pair posterior sample) and, at every
step, consumes the embedding of the observed road segment to predict the next
segment.  The Seq2Seq baselines (SAE, VSAE, GM-VSAE, DeepTEA) additionally
need a GRU *encoder* over the trajectory.

The arithmetic lives in :mod:`repro.nn.fused`: :class:`GRU` runs the fused
single-node BPTT kernel :func:`~repro.nn.fused.gru_sequence`, and
:meth:`GRUCell.step` runs one :func:`~repro.nn.fused.gru_step` — the same
step the sequence kernel and the offline inference engine unroll.

The implementations are batch-first: inputs have shape ``(batch, time, dim)``
and hidden states have shape ``(batch, hidden)``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import init as nn_init
from repro.nn.fused import gru_sequence, gru_step
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, as_tensor
from repro.utils.rng import RandomState

__all__ = ["GRUCell", "GRU"]


class GRUCell(Module):
    """Gated recurrent unit cell: the GRU's parameters and its one-step update.

    Follows the standard formulation::

        r = sigmoid(x W_xr + b_xr + h W_hr + b_hr)
        z = sigmoid(x W_xz + b_xz + h W_hz + b_hz)
        n = tanh(x W_xn + b_xn + r * (h W_hn + b_hn))
        h' = (1 - z) * n + z * h
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: Optional[RandomState] = None) -> None:
        super().__init__()
        if input_dim <= 0 or hidden_dim <= 0:
            raise ValueError("GRUCell dimensions must be positive")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        # Fused gate weights: columns are [reset | update | candidate].
        self.w_ih = Parameter(nn_init.xavier_uniform((input_dim, 3 * hidden_dim), rng=rng), name="w_ih")
        self.w_hh = Parameter(
            np.concatenate(
                [nn_init.orthogonal((hidden_dim, hidden_dim), rng=rng) for _ in range(3)], axis=1
            ),
            name="w_hh",
        )
        self.b_ih = Parameter(nn_init.zeros((3 * hidden_dim,)), name="b_ih")
        self.b_hh = Parameter(nn_init.zeros((3 * hidden_dim,)), name="b_hh")

    def step(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        """One inference step on raw numpy arrays (no autograd graph).

        ``x`` is ``(batch, input_dim)``, ``h`` is ``(batch, hidden_dim)``.
        Runs :func:`~repro.nn.fused.gru_step`, the step that training and
        offline scoring unroll, on the input gates computed as
        :func:`~repro.nn.fused.gru_sequence` computes them, so the new state
        is bitwise equal to one step of the sequence kernel on the same rows.
        The serving kernel uses it to advance every pending ride of a fleet
        tick in one call.
        """
        rows, H = h.shape[0], self.hidden_dim
        gates_x = x @ self.w_ih.data + self.b_ih.data
        out, n, tmp = np.empty((3, rows, H))
        rz, gh = np.empty((rows, 2 * H)), np.empty((rows, 3 * H))
        return gru_step(gates_x, h, self.w_hh.data, self.b_hh.data, out, rz, n, gh, tmp)


class GRU(Module):
    """Single-layer GRU over batch-first sequences.

    Returns the full sequence of hidden states and the final state; supports
    an explicit initial state (how TG-VAE injects the latent ``r``) and an
    optional boolean mask for padded positions.  The sequence runs through
    the fused single-node BPTT kernel :func:`repro.nn.fused.gru_sequence`.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: Optional[RandomState] = None) -> None:
        super().__init__()
        self.cell = GRUCell(input_dim, hidden_dim, rng=rng)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim

    def forward(
        self,
        x: Tensor,
        h0: Optional[Tensor] = None,
        mask: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, Tensor]:
        """Run the GRU over a sequence.

        Parameters
        ----------
        x:
            Input of shape ``(batch, time, input_dim)``; ``time`` must be at
            least 1 (``ValueError`` otherwise).
        h0:
            Optional initial hidden state ``(batch, hidden_dim)``; zeros when
            omitted.
        mask:
            Optional boolean array ``(batch, time)``; where False, the hidden
            state is carried through unchanged (padding positions).

        Returns
        -------
        (outputs, h_n):
            ``outputs`` has shape ``(batch, time, hidden_dim)``; ``h_n`` is the
            final hidden state ``(batch, hidden_dim)``.
        """
        x = as_tensor(x)
        h = h0 if h0 is not None else Tensor(np.zeros((x.shape[0], self.hidden_dim)))
        cell = self.cell
        return gru_sequence(x, h, cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh, mask=mask)
