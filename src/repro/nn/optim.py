"""Optimisers: SGD (with momentum) and Adam.

The paper trains CausalTAD with Adam (initial learning rate 0.01, hidden dim
128, 200 epochs).  Both optimisers support gradient clipping by global norm,
which stabilises the RNN trajectory decoder on long sequences.

:class:`Adam` keeps its moments and scratch as flat buffers over all its
parameters, so one step runs the update once over one contiguous array
instead of once per parameter; the result is bitwise the per-parameter
update, which ``tests/reference.py`` keeps as the oracle.  Its
:meth:`~Adam.state_dict` holds the two flat moments, which is what lets a
training checkpoint (:mod:`repro.nn.serialization`) store them as two
archive members.  :func:`clip_grad_norm` sums one dot product per parameter
on purpose: one flat dot would add in another order and move the trained
weights in their last bits.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm"]


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for monitoring training health).
    """
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    # Flat dot products: no squared-gradient temporaries.
    total = float(np.sqrt(sum(float(np.dot(g, g)) for g in (p.grad.ravel() for p in params))))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for p in params:
            p.grad *= scale
    return total


class Optimizer:
    """Base optimiser: holds parameters and clears their gradients."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive; got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear gradients of all managed parameters."""
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # state round-trip (checkpoint / resume)
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, Any]:
        """Snapshot of the optimiser's internal state.

        Returns a dict with three keys:

        * ``"type"`` — the optimiser class name (checked on load),
        * ``"arrays"`` — the state arrays: SGD keys its velocities by
          ``"<parameter index>.velocity"`` (the index refers to the position in
          ``self.parameters``, which is deterministic for a given model) and
          leaves out parameters that never had a gradient; Adam holds two
          flat arrays, ``"m"`` and ``"v"``, over all its parameters,
        * ``"extra"`` — JSON-serialisable scalars (e.g. Adam's step count).
        """
        return {"type": type(self).__name__, "arrays": {}, "extra": {}}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`.

        The optimiser must manage the same parameters (same count, shapes and
        order) as the one that produced the snapshot.
        """
        if state.get("type") != type(self).__name__:
            raise ValueError(
                f"optimizer state is for {state.get('type')!r}, not {type(self).__name__!r}"
            )

    def _param_at(self, key: str) -> "tuple[Parameter, str]":
        """Resolve an ``"<index>.<field>"`` state key to (parameter, field)."""
        index, field = key.split(".", 1)
        try:
            param = self.parameters[int(index)]
        except (IndexError, ValueError) as exc:
            raise ValueError(f"optimizer state key {key!r} does not match the parameters") from exc
        return param, field


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        """Apply one update to every parameter that has a gradient."""
        for p in self.parameters:
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v = self._velocity.get(id(p))
                v = self.momentum * v + grad if v is not None else grad.copy()
                self._velocity[id(p)] = v
                grad = v
            p.data = p.data - self.lr * grad

    def state_dict(self) -> Dict[str, "np.ndarray"]:
        state = super().state_dict()
        for index, p in enumerate(self.parameters):
            velocity = self._velocity.get(id(p))
            if velocity is not None:
                state["arrays"][f"{index}.velocity"] = velocity.copy()
        return state

    def load_state_dict(self, state) -> None:
        super().load_state_dict(state)
        # Validate every entry before touching any state, so a malformed
        # snapshot raises with the optimiser unchanged.
        resolved = []
        for key, value in state["arrays"].items():
            param, field = self._param_at(key)
            if field != "velocity":
                raise ValueError(f"unknown SGD state field {field!r}")
            array = np.asarray(value)
            if array.shape != param.data.shape:
                raise ValueError(
                    f"SGD state shape mismatch for {key!r}: expected "
                    f"{param.data.shape}, got {array.shape}"
                )
            resolved.append((param, array))
        self._velocity = {
            id(param): array.astype(param.data.dtype).copy() for param, array in resolved
        }


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015) — the optimiser used in the paper.

    The moments ``m`` and ``v`` and the step's scratch are flat buffers over
    all parameters, in the order given, with one offset table.  A step copies
    each gradient into its slice of a flat gradient buffer, runs the update
    once per contiguous span of parameters that have a gradient (one span
    when every parameter has one) and subtracts each slice from its
    parameter in place.  Per element the operations, their order and the
    scalars are those of the per-parameter update it replaced (kept as
    ``tests.reference.PerParameterAdam``), so the result is the same to the
    bit; what the flat layout saves is about ten ufunc calls per parameter
    per step.  A repeated parameter or mixed parameter dtypes
    raise ``ValueError``.
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
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if len({id(p) for p in self.parameters}) != len(self.parameters):
            raise ValueError("Adam received the same parameter more than once")
        dtypes = {p.data.dtype for p in self.parameters}
        if len(dtypes) != 1:
            raise ValueError(f"Adam needs one parameter dtype; got {sorted(map(str, dtypes))}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        dtype = dtypes.pop()
        bounds = np.cumsum([0] + [p.data.size for p in self.parameters]).tolist()
        self._offsets = list(zip(bounds[:-1], bounds[1:]))
        self._m = np.zeros(bounds[-1], dtype=dtype)
        self._v = np.zeros(bounds[-1], dtype=dtype)
        self._grad = np.empty(bounds[-1], dtype=dtype)
        self._scratch = np.empty(bounds[-1], dtype=dtype)
        # Each parameter's slice of the gradient and scratch buffers, shaped
        # like the parameter.
        self._views = [
            (self._grad[a:b].reshape(p.data.shape), self._scratch[a:b].reshape(p.data.shape))
            for p, (a, b) in zip(self.parameters, self._offsets)
        ]
        self._t = 0

    def step(self) -> None:
        """Apply one Adam update to every parameter with a gradient."""
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        runs: List[List[int]] = []
        for p, (a, b), (grad, decay) in zip(self.parameters, self._offsets, self._views):
            if p.grad is None:
                continue
            np.copyto(grad, p.grad)
            if self.weight_decay:
                np.multiply(p.data, self.weight_decay, out=decay)
            if runs and runs[-1][1] == a:
                runs[-1][1] = b
            else:
                runs.append([a, b])
        for a, b in runs:
            grad, m, v, scratch = self._grad[a:b], self._m[a:b], self._v[a:b], self._scratch[a:b]
            if self.weight_decay:
                grad += scratch  # the scratch holds p * weight_decay from the loop above
            # m = beta1 * m + (1 - beta1) * grad
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=scratch)
            m += scratch
            # v = beta2 * v + (1 - beta2) * grad^2
            v *= self.beta2
            np.multiply(grad, grad, out=scratch)
            scratch *= 1.0 - self.beta2
            v += scratch
            # p -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
            np.divide(v, bias2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += self.eps
            np.divide(m, scratch, out=scratch)
            scratch *= self.lr / bias1
        for p, (_, update) in zip(self.parameters, self._views):
            if p.grad is not None:
                p.data -= update

    def state_dict(self) -> Dict[str, Any]:
        """The step count and copies of the flat moments ``m`` and ``v``.

        Parameter ``i`` owns the slice ``[sum of sizes before i, + its
        size)`` of each moment; a parameter that never had a gradient holds
        zeros there, which is what a fresh optimiser starts from.
        """
        state = super().state_dict()
        state["extra"]["t"] = self._t
        state["arrays"]["m"] = self._m.copy()
        state["arrays"]["v"] = self._v.copy()
        return state

    def load_state_dict(self, state) -> None:
        super().load_state_dict(state)
        # Validate every entry before touching any state, so a malformed
        # snapshot raises with the optimiser unchanged.
        if "t" not in state.get("extra", {}):
            raise KeyError("Adam state is missing the step count 't'")
        arrays = state["arrays"]
        unknown = sorted(set(arrays) - {"m", "v"})
        if unknown:
            raise ValueError(f"unknown Adam state field(s) {unknown}")
        for field in ("m", "v"):
            if field not in arrays:
                raise KeyError(f"Adam state is missing the moment {field!r}")
            shape = np.shape(arrays[field])
            if shape != self._m.shape:
                raise ValueError(
                    f"Adam state {field!r} has shape {shape}; the parameters hold "
                    f"{self._m.size} values"
                )
        self._t = int(state["extra"]["t"])
        np.copyto(self._m, arrays["m"])
        np.copyto(self._v, arrays["v"])
