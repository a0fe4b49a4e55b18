"""Recurrent layers: GRUCell, GRU and LSTM-style sequence encoders.

The trajectory decoder ``Φ_t`` in TG-VAE (paper §V-B) is an RNN that starts
from the latent state ``h_0 = r`` (the SD-pair posterior sample) and, at every
step, consumes the embedding of the observed road segment to predict the next
segment.  The Seq2Seq baselines (SAE, VSAE, GM-VSAE, DeepTEA) additionally need
an RNN *encoder* over the trajectory.  All of those are built from the cells in
this module.

The implementations are batch-first: inputs have shape ``(batch, time, dim)``
and hidden states have shape ``(batch, hidden)``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn import init as nn_init
from repro.nn.fused import gru_sequence, lstm_sequence
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, as_tensor, concatenate, stack
from repro.utils.rng import RandomState

__all__ = ["GRUCell", "GRU", "LSTMCell", "LSTM"]


class GRUCell(Module):
    """Gated recurrent unit cell.

    Follows the standard formulation::

        r = sigmoid(x W_xr + h W_hr + b_r)
        z = sigmoid(x W_xz + h W_hz + b_z)
        n = tanh(x W_xn + (r * h) W_hn + b_n)
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

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        """One step: ``x`` is ``(batch, input_dim)``, ``h`` is ``(batch, hidden_dim)``."""
        x = as_tensor(x)
        h = as_tensor(h)
        gates_x = x @ self.w_ih + self.b_ih
        gates_h = h @ self.w_hh + self.b_hh
        H = self.hidden_dim
        rx, zx, nx = gates_x[:, :H], gates_x[:, H : 2 * H], gates_x[:, 2 * H :]
        rh, zh, nh = gates_h[:, :H], gates_h[:, H : 2 * H], gates_h[:, 2 * H :]
        reset = (rx + rh).sigmoid()
        update = (zx + zh).sigmoid()
        candidate = (nx + reset * nh).tanh()
        return (1.0 - update) * candidate + update * h

    def initial_state(self, batch_size: int) -> Tensor:
        """Zero hidden state of shape ``(batch, hidden_dim)``."""
        return Tensor(np.zeros((batch_size, self.hidden_dim)))

    def step(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Inference-only step on raw numpy arrays (no autograd graph).

        Mirrors :meth:`forward` operation-for-operation, and :func:`_sigmoid_np`
        is bitwise equal to :meth:`Tensor.sigmoid`, so the new state is bitwise
        identical to ``forward`` under ``no_grad``.  The serving kernel uses it
        to advance every pending ride of a fleet tick in one call without
        recording a graph.
        """
        gates_x = x @ self.w_ih.data + self.b_ih.data
        gates_h = h @ self.w_hh.data + self.b_hh.data
        H = self.hidden_dim
        reset = _sigmoid_np(gates_x[:, :H] + gates_h[:, :H])
        update = _sigmoid_np(gates_x[:, H : 2 * H] + gates_h[:, H : 2 * H])
        candidate = np.tanh(gates_x[:, 2 * H :] + reset * gates_h[:, 2 * H :])
        return (1.0 - update) * candidate + update * h


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid, bitwise equal to :meth:`Tensor.sigmoid`.

    The Tensor path evaluates ``1 / (1 + exp(-c))`` for ``x >= 0`` and
    ``exp(c) / (1 + exp(c))`` otherwise, with ``c = clip(x, -60, 60)``.  Both
    branches share the one exponential ``e = exp(-|c|)``, so this computes it
    once and picks each element's branch with ``np.where`` — the same
    per-element operations, hence the same bits (NaN included: ``min(c, -c)``
    keeps a NaN's sign where ``-abs(c)`` would flip it).  Boolean-mask
    indexing is avoided on purpose: an earlier masked form that computed each
    branch only where needed took 1.8 ms against this form's 0.55 ms on a
    992×48 array (2-vCPU x86 VM), and :meth:`GRUCell.step` calls it twice.
    """
    e = np.clip(x, -60, 60)
    np.minimum(e, -e, out=e)
    np.exp(e, out=e)
    denom = e + 1.0
    positive = np.divide(1.0, denom)
    np.divide(e, denom, out=e)
    return np.where(x >= 0, positive, e)


class GRU(Module):
    """Single-layer GRU over batch-first sequences.

    Returns the full sequence of hidden states and the final state; supports
    an explicit initial state (how TG-VAE injects the latent ``r``) and an
    optional boolean mask for padded positions.

    By default the sequence runs through the fused single-node BPTT kernel
    (:func:`repro.nn.fused.gru_sequence`); construct with ``fused=False`` (or
    pass ``fused=False`` per call) to fall back to the per-step graph path,
    which is the reference implementation the parity tests compare against.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: Optional[RandomState] = None,
        fused: bool = True,
    ) -> None:
        super().__init__()
        self.cell = GRUCell(input_dim, hidden_dim, rng=rng)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.fused = fused

    def forward(
        self,
        x: Tensor,
        h0: Optional[Tensor] = None,
        mask: Optional[np.ndarray] = None,
        fused: Optional[bool] = None,
    ) -> Tuple[Tensor, Tensor]:
        """Run the GRU over a sequence.

        Parameters
        ----------
        x:
            Input of shape ``(batch, time, input_dim)``.
        h0:
            Optional initial hidden state ``(batch, hidden_dim)``.
        mask:
            Optional boolean array ``(batch, time)``; where False, the hidden
            state is carried through unchanged (padding positions).
        fused:
            Overrides the constructor's ``fused`` flag for this call.

        Returns
        -------
        (outputs, h_n):
            ``outputs`` has shape ``(batch, time, hidden_dim)``; ``h_n`` is the
            final hidden state ``(batch, hidden_dim)``.
        """
        x = as_tensor(x)
        batch, time = x.shape[0], x.shape[1]
        h = h0 if h0 is not None else self.cell.initial_state(batch)
        use_fused = self.fused if fused is None else fused
        if use_fused and time > 0:
            cell = self.cell
            return gru_sequence(x, h, cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh, mask=mask)
        outputs: List[Tensor] = []
        for t in range(time):
            x_t = x[:, t, :]
            h_new = self.cell(x_t, h)
            if mask is not None:
                keep = mask[:, t].astype(np.float64)[:, None]
                keep_t = Tensor(keep)
                inv_t = Tensor(1.0 - keep)
                h = keep_t * h_new + inv_t * h
            else:
                h = h_new
            outputs.append(h)
        return stack(outputs, axis=1), h


class LSTMCell(Module):
    """Long short-term memory cell (used by the SAE / DeepTEA baselines)."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: Optional[RandomState] = None) -> None:
        super().__init__()
        if input_dim <= 0 or hidden_dim <= 0:
            raise ValueError("LSTMCell dimensions must be positive")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        # Fused gate weights: [input | forget | cell | output].
        self.w_ih = Parameter(nn_init.xavier_uniform((input_dim, 4 * hidden_dim), rng=rng), name="w_ih")
        self.w_hh = Parameter(nn_init.xavier_uniform((hidden_dim, 4 * hidden_dim), rng=rng), name="w_hh")
        self.bias = Parameter(nn_init.zeros((4 * hidden_dim,)), name="bias")

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        h, c = state
        gates = as_tensor(x) @ self.w_ih + as_tensor(h) @ self.w_hh + self.bias
        H = self.hidden_dim
        i = gates[:, :H].sigmoid()
        f = gates[:, H : 2 * H].sigmoid()
        g = gates[:, 2 * H : 3 * H].tanh()
        o = gates[:, 3 * H :].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new

    def initial_state(self, batch_size: int) -> Tuple[Tensor, Tensor]:
        zeros = np.zeros((batch_size, self.hidden_dim))
        return Tensor(zeros.copy()), Tensor(zeros.copy())


class LSTM(Module):
    """Single-layer LSTM over batch-first sequences.

    Like :class:`GRU`, runs through the fused single-node BPTT kernel by
    default; ``fused=False`` selects the per-step graph path.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: Optional[RandomState] = None,
        fused: bool = True,
    ) -> None:
        super().__init__()
        self.cell = LSTMCell(input_dim, hidden_dim, rng=rng)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.fused = fused

    def forward(
        self,
        x: Tensor,
        state: Optional[Tuple[Tensor, Tensor]] = None,
        mask: Optional[np.ndarray] = None,
        fused: Optional[bool] = None,
    ) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        """Run the LSTM; same conventions as :meth:`GRU.forward`."""
        x = as_tensor(x)
        batch, time = x.shape[0], x.shape[1]
        h, c = state if state is not None else self.cell.initial_state(batch)
        use_fused = self.fused if fused is None else fused
        if use_fused and time > 0:
            cell = self.cell
            return lstm_sequence(x, h, c, cell.w_ih, cell.w_hh, cell.bias, mask=mask)
        outputs: List[Tensor] = []
        for t in range(time):
            h_new, c_new = self.cell(x[:, t, :], (h, c))
            if mask is not None:
                keep = mask[:, t].astype(np.float64)[:, None]
                keep_t = Tensor(keep)
                inv_t = Tensor(1.0 - keep)
                h = keep_t * h_new + inv_t * h
                c = keep_t * c_new + inv_t * c
            else:
                h, c = h_new, c_new
            outputs.append(h)
        return stack(outputs, axis=1), (h, c)
