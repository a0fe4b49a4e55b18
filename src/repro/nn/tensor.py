"""A small reverse-mode automatic differentiation engine on top of numpy.

The paper trains two variational autoencoders (TG-VAE and RP-VAE) with an
RNN trajectory decoder.  The original implementation uses PyTorch; this module
provides the minimal but complete tensor/autograd substrate required to train
those models from scratch with nothing but numpy:

* :class:`Tensor` — an n-dimensional array with an optional gradient and a
  recorded backward function.
* Broadcasting-aware elementwise arithmetic, matrix multiplication, reductions
  (sum / mean / max), shape manipulation (reshape / transpose / concatenate /
  stack / slicing), nonlinearities (tanh / sigmoid / relu / exp / log),
  numerically stable ``log_softmax`` and gather/embedding-style indexing.
* :func:`Tensor.backward` — reverse-mode accumulation over the recorded graph
  using a topological sort.

The engine intentionally mirrors PyTorch's public semantics (e.g. gradients
accumulate into ``.grad``; ``detach()`` stops gradient flow), which keeps the
model code in :mod:`repro.core` readable for anyone familiar with the paper's
original implementation.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "as_tensor", "no_grad", "is_grad_enabled", "sigmoid_forward"]

ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]

# --------------------------------------------------------------------------- #
# grad mode (mirrors torch.no_grad) — thread-local, so one thread scoring
# under no_grad() never disables graph recording for a thread that is
# training concurrently (the experiment orchestrator runs independent
# stages in parallel workers).
# --------------------------------------------------------------------------- #
import threading as _threading

_GRAD_STATE = _threading.local()


class no_grad:
    """Context manager disabling graph recording in the current thread.

    Used during inference (anomaly scoring) so that scoring thousands of
    trajectories does not build throw-away computation graphs.
    """

    def __enter__(self) -> "no_grad":
        self._previous = is_grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _GRAD_STATE.enabled = self._previous


def is_grad_enabled() -> bool:
    """Whether operations in the current thread record backward functions."""
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape`` after numpy broadcasting.

    During the forward pass numpy silently broadcasts operands; the gradient
    flowing back must be summed over the broadcast axes to recover the shape
    of the original operand.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def sigmoid_forward(x: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid on raw arrays: the forward of :meth:`Tensor.sigmoid`.

    ``1 / (1 + exp(-c))`` for ``x >= 0``, else ``exp(c) / (1 + exp(c))``,
    with ``c = clip(x, -60, 60)``; both branches share ``exp(-|c|)``.
    """
    c = np.clip(x, -60, 60)
    e = np.exp(np.minimum(c, -c))
    denom = e + 1.0
    return np.where(x >= 0, 1.0 / denom, e / denom)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64`` unless it already is a
        floating numpy array (``float32`` is preserved).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward = _backward
        self._parents = _parents if self.requires_grad or _parents else ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """The underlying numpy array (not a copy)."""
        return self.data

    def item(self) -> float:
        """The scalar value of a single-element tensor."""
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """A new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """A deep copy detached from the graph."""
        return Tensor(self.data.copy(), requires_grad=False)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    # ------------------------------------------------------------------ #
    # graph construction helpers
    # ------------------------------------------------------------------ #
    def _make(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults to
            ones (only valid for scalar outputs, matching PyTorch semantics).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar output")
            grad = np.ones_like(self.data)

        # Topological order over the recorded graph.
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads = {id(self): np.asarray(grad, dtype=self.data.dtype)}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and not node._parents:
                # Leaf tensor: accumulate into .grad
                node._accumulate(node_grad)
            if node._backward is not None:
                node._backward_with(node_grad, grads)

        # Intermediate nodes with both parents and requires_grad keep nothing;
        # gradients only persist on leaves, as in PyTorch's default behaviour.

    def _backward_with(self, grad: np.ndarray, grads: dict) -> None:
        """Invoke the backward closure, routing parent gradients via ``grads``."""
        contributions = self._backward(grad)
        if contributions is None:
            return
        for parent, parent_grad in contributions:
            if parent_grad is None or not (parent.requires_grad or parent._parents):
                continue
            parent_grad = _unbroadcast(
                np.asarray(parent_grad, dtype=parent.data.dtype), parent.data.shape
            )
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + parent_grad
            else:
                grads[key] = parent_grad

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        data = self.data + other.data

        def backward(grad: np.ndarray):
            return [(self, grad), (other, grad)]

        return self._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray):
            return [(self, -grad)]

        return self._make(data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        data = self.data - other.data

        def backward(grad: np.ndarray):
            return [(self, grad), (other, -grad)]

        return self._make(data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        data = self.data * other.data

        def backward(grad: np.ndarray):
            return [(self, grad * other.data), (other, grad * self.data)]

        return self._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        data = self.data / other.data

        def backward(grad: np.ndarray):
            return [
                (self, grad / other.data),
                (other, -grad * self.data / (other.data**2)),
            ]

        return self._make(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data**exponent

        def backward(grad: np.ndarray):
            return [(self, grad * exponent * self.data ** (exponent - 1))]

        return self._make(data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                grad_a = grad * b
                grad_b = grad * a
            elif a.ndim == 1:
                grad_a = grad @ np.swapaxes(b, -1, -2)
                grad_b = np.outer(a, grad)
            elif b.ndim == 1:
                grad_a = np.expand_dims(grad, -1) * b
                grad_b = np.swapaxes(a, -1, -2) @ grad
            elif a.ndim > 2 and b.ndim == 2:
                # Batched input against a shared weight (the Linear-layer hot
                # path, e.g. (batch, time, hidden) @ (hidden, vocab)): fold the
                # leading axes into one flat GEMM instead of a batched matmul
                # whose (batch, in, out) result would then be reduced — one
                # BLAS call and no giant temporary.
                grad_a = grad @ b.T
                grad_b = a.reshape(-1, a.shape[-1]).T @ grad.reshape(-1, grad.shape[-1])
            else:
                grad_a = grad @ np.swapaxes(b, -1, -2)
                grad_b = np.swapaxes(a, -1, -2) @ grad
            return [(self, grad_a), (other, grad_b)]

        return self._make(data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # comparisons (produce detached float masks, no gradient)
    # ------------------------------------------------------------------ #
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > as_tensor(other).data

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < as_tensor(other).data

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= as_tensor(other).data

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= as_tensor(other).data

    # ------------------------------------------------------------------ #
    # nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray):
            return [(self, grad * data)]

        return self._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray):
            return [(self, grad / self.data)]

        return self._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray):
            return [(self, grad * (1.0 - data**2))]

        return self._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = sigmoid_forward(self.data)

        def backward(grad: np.ndarray):
            return [(self, grad * data * (1.0 - data))]

        return self._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray):
            return [(self, grad * (self.data > 0))]

        return self._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient is passed through inside the range only."""
        data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray):
            inside = (self.data >= low) & (self.data <= high)
            return [(self, grad * inside)]

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            if axis is None:
                expanded = np.broadcast_to(grad, self.data.shape)
            else:
                grad_arr = grad
                if not keepdims:
                    grad_arr = np.expand_dims(grad_arr, axis=axis)
                expanded = np.broadcast_to(grad_arr, self.data.shape)
            return [(self, expanded)]

        return self._make(data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            if axis is None:
                mask = (self.data == self.data.max()).astype(self.data.dtype)
                mask /= mask.sum()
                return [(self, grad * mask)]
            grad_arr = grad
            data_arr = data
            if not keepdims:
                grad_arr = np.expand_dims(grad_arr, axis=axis)
                data_arr = np.expand_dims(data_arr, axis=axis)
            mask = (self.data == data_arr).astype(self.data.dtype)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            return [(self, grad_arr * mask)]

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original_shape = self.data.shape

        def backward(grad: np.ndarray):
            return [(self, grad.reshape(original_shape))]

        return self._make(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple: Optional[Tuple[int, ...]] = axes if axes else None
        data = np.transpose(self.data, axes_tuple)

        def backward(grad: np.ndarray):
            if axes_tuple is None:
                return [(self, np.transpose(grad))]
            inverse = np.argsort(axes_tuple)
            return [(self, np.transpose(grad, inverse))]

        return self._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            return [(self, full)]

        return self._make(data, (self,), backward)

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        data = np.squeeze(self.data, axis=axis)
        original_shape = self.data.shape

        def backward(grad: np.ndarray):
            return [(self, grad.reshape(original_shape))]

        return self._make(data, (self,), backward)

    def unsqueeze(self, axis: int) -> "Tensor":
        data = np.expand_dims(self.data, axis=axis)
        original_shape = self.data.shape

        def backward(grad: np.ndarray):
            return [(self, grad.reshape(original_shape))]

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # gather / indexing for embeddings and sequence models
    # ------------------------------------------------------------------ #
    def index_select(self, indices: np.ndarray) -> "Tensor":
        """Select rows (axis 0) by an integer index array of any shape.

        ``out[i...] = self[indices[i...]]``, which is exactly an embedding
        lookup when ``self`` is an ``(vocab, dim)`` weight matrix.
        """
        idx = np.asarray(indices, dtype=np.int64)
        data = self.data[idx]

        def backward(grad: np.ndarray):
            full = np.zeros_like(self.data)
            np.add.at(full, idx.reshape(-1), grad.reshape(-1, self.data.shape[-1]))
            return [(self, full)]

        return self._make(data, (self,), backward)

    def gather_last(self, indices: np.ndarray) -> "Tensor":
        """Pick one element along the last axis per leading position.

        For ``self`` of shape ``(..., V)`` and integer ``indices`` of shape
        ``(...)`` this returns shape ``(...)`` — used to pull out the log
        probability of the observed next road segment.
        """
        idx = np.asarray(indices, dtype=np.int64)
        leading = np.indices(idx.shape)
        data = self.data[(*leading, idx)]

        def backward(grad: np.ndarray):
            full = np.zeros_like(self.data)
            np.add.at(full, (*leading, idx), grad)
            return [(self, full)]

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # masking
    # ------------------------------------------------------------------ #
    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Replace entries where ``mask`` is True with ``value`` (no grad there)."""
        mask = np.asarray(mask, dtype=bool)
        data = np.where(mask, value, self.data)

        def backward(grad: np.ndarray):
            return [(self, np.where(mask, 0.0, grad))]

        return self._make(data, (self,), backward)


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce arrays / scalars to :class:`Tensor` (no-op for tensors)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


# --------------------------------------------------------------------------- #
# free functions building on Tensor methods
# --------------------------------------------------------------------------- #
def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing to each input."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(grad: np.ndarray):
        pieces = np.split(grad, np.cumsum(sizes)[:-1], axis=axis)
        return list(zip(tensors, pieces))

    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = tuple(tensors)
        out._backward = backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing to each input."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray):
        pieces = np.split(grad, len(tensors), axis=axis)
        return [(t, np.squeeze(p, axis=axis)) for t, p in zip(tensors, pieces)]

    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = tuple(tensors)
        out._backward = backward
    return out
