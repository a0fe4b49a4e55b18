"""Fused sequence-level autograd kernels and the one GRU step.

A per-step autograd RNN builds ~15 :class:`Tensor` graph nodes per timestep
(gate slices, sigmoids, elementwise combines), so one training batch over a
length-``T`` trajectory would allocate thousands of nodes and ``backward()``
would walk them one by one through Python closures.  This module collapses
each hot sequence computation into a *single* autograd node whose forward
runs the whole time loop in raw numpy (stashing per-step activations) and
whose backward performs hand-derived BPTT with preallocated buffers — the
cuDNN-style fused-RNN strategy, on the numpy substrate:

* :func:`gru_step` — one GRU step on raw arrays, written into caller-owned
  buffers.  It is the only copy of the GRU arithmetic in the library:
  :func:`gru_unroll` runs it over time for training (:func:`gru_sequence`)
  and offline scoring (:mod:`repro.core.inference`), and
  :meth:`GRUCell.step <repro.nn.GRUCell.step>` runs it once per serving
  tick, so training, offline scoring and serving produce the same bits.
* :func:`gru_sequence` — full GRU unroll ``(batch, time, in) -> (batch, time,
  hidden)`` with a single BPTT backward producing gradients for the inputs,
  the initial state and all four weight tensors.
* :func:`embedding_gather` — fused take + sort/``reduceat`` scatter-add
  backward, replacing the generic ``index_select`` graph node on embedding
  lookups.
* :func:`fused_masked_nll` — masked log-softmax + target gather + validity
  masking in one node, avoiding the ``(batch, time, vocab)`` intermediate
  graph the decoder loss otherwise materialises five times over.

Every kernel is numerically interchangeable with the composite autograd
formulation it replaces (gradients agree to ~1e-12).  The per-step reference
formulations, the dense masked decoder and the dense-mask successor-table
builder live in the test suite as parity oracles (``tests/reference.py``),
which pins the two together.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.nn.functional import NEG_INF
from repro.nn.tensor import Tensor, as_tensor, is_grad_enabled

__all__ = [
    "gru_step",
    "gru_unroll",
    "gru_sequence",
    "embedding_gather",
    "fused_masked_nll",
    "fused_successor_nll",
    "fused_linear",
    "fused_gaussian_kl",
    "fused_reparameterize",
]


def _node(
    data: np.ndarray,
    parents: Tuple[Tensor, ...],
    backward: Callable[[np.ndarray], list],
) -> Tensor:
    """Create a single graph node over ``parents`` (mirrors ``Tensor._make``)."""
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = parents
        out._backward = backward
    return out


def _needs_graph(*tensors: Tensor) -> bool:
    return is_grad_enabled() and any(t.requires_grad for t in tensors)


def _sigmoid_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sigmoid via ``0.5 * tanh(x / 2) + 0.5``, written into ``out``.

    Three ufunc dispatches instead of the seven-plus of the two-branch
    ``exp`` formulation — the dominant cost of the BPTT time loop is ufunc
    dispatch on small per-step arrays, not arithmetic.  ``tanh`` saturates,
    so no overflow clip is needed; agreement with :meth:`Tensor.sigmoid` is
    ~1 ulp in the interior and within 1e-44 absolute in the saturated tails,
    far inside the 1e-8 parity budget of the fused kernels.
    """
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def _empty(name: str, shape: Tuple[int, ...]) -> np.ndarray:
    """Default scratch allocator of :func:`gru_unroll` (names are ignored)."""
    return np.empty(shape)


# --------------------------------------------------------------------------- #
# GRU
# --------------------------------------------------------------------------- #
def gru_step(
    gx: np.ndarray,
    h: np.ndarray,
    w_hh: np.ndarray,
    b_hh: np.ndarray,
    out: np.ndarray,
    rz: np.ndarray,
    n: np.ndarray,
    gh: np.ndarray,
    tmp: np.ndarray,
    keep: Optional[np.ndarray] = None,
    nh: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One GRU step on raw arrays, written into ``out`` ``(batch, hidden)``.

    ``gx`` is the step's input-side gates ``x W_ih + b_ih`` ``(batch, 3H)``,
    columns ``[reset | update | candidate]``; ``h`` the previous state::

        r, z = sigmoid(gx[:, :2H] + (h W_hh + b_hh)[:, :2H])
        n = tanh(gx[:, 2H:] + r * (h W_hh + b_hh)[:, 2H:])
        h' = (1 - z) * n + z * h

    ``rz`` ``(batch, 2H)`` receives both gates, ``n`` the candidate; ``gh``
    ``(batch, 3H)`` and ``tmp`` are scratch.  Where the optional float
    ``keep`` ``(batch, 1)`` is 0 the state carries through unchanged.  ``nh``,
    if given, receives the hidden-side candidate gate, which BPTT needs.
    Nothing is allocated but the mask complement.
    """
    hidden = h.shape[-1]
    H2 = 2 * hidden
    np.dot(h, w_hh, out=gh)
    gh += b_hh
    # Reset and update gates share one sigmoid over (batch, 2H).
    np.add(gx[:, :H2], gh[:, :H2], out=rz)
    _sigmoid_into(rz, rz)
    r, z = rz[:, :hidden], rz[:, hidden:]
    candidate_h = gh[:, H2:]
    if nh is not None:
        nh[:] = candidate_h
        candidate_h = nh
    np.multiply(r, candidate_h, out=n)
    n += gx[:, H2:]
    np.tanh(n, out=n)
    # h' = (1 - z) * n + z * h, blended through the mask if present.
    np.subtract(1.0, z, out=out)
    out *= n
    np.multiply(z, h, out=tmp)
    out += tmp
    if keep is not None:
        out *= keep
        np.multiply(h, 1.0 - keep, out=tmp)
        out += tmp
    return out


def gru_unroll(
    gates_x: np.ndarray,
    hs: np.ndarray,
    w_hh: np.ndarray,
    b_hh: np.ndarray,
    keep: Optional[np.ndarray] = None,
    stash: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    take: Callable[[str, Tuple[int, ...]], np.ndarray] = _empty,
) -> np.ndarray:
    """Run :func:`gru_step` over a time-major sequence; returns ``hs``.

    ``gates_x`` is ``(time, batch, 3H)``; ``hs`` ``(time + 1, batch, H)``
    holds the initial state in ``hs[0]`` and receives the state after step
    ``t`` in ``hs[t + 1]``.  ``keep`` is an optional float ``(batch, time)``
    validity mask.  ``stash``, optional ``(rz, n, nh)`` arrays of shape
    ``(time, batch, ·)``, receives each step's activations for BPTT; without
    it the steps share one scratch set, allocated by ``take(name, shape)``
    (the inference engine passes its reusable workspace).
    """
    time, batch, _ = gates_x.shape
    hidden = hs.shape[-1]
    gh = take("gh", (batch, 3 * hidden))
    tmp = take("scratch", (batch, hidden))
    nh = None
    if stash is None:
        rz = take("rz", (batch, 2 * hidden))
        n = take("n", (batch, hidden))
    for t in range(time):
        if stash is not None:
            rz, n, nh = stash[0][t], stash[1][t], stash[2][t]
        k = None if keep is None else keep[:, t][:, None]
        gru_step(gates_x[t], hs[t], w_hh, b_hh, hs[t + 1], rz, n, gh, tmp, keep=k, nh=nh)
    return hs


def gru_sequence(
    x: Tensor,
    h0: Tensor,
    w_ih: Tensor,
    w_hh: Tensor,
    b_ih: Tensor,
    b_hh: Tensor,
    mask: Optional[np.ndarray] = None,
) -> Tuple[Tensor, Tensor]:
    """Run a full GRU unroll as one autograd node.

    The forward is :func:`gru_unroll` (see :func:`gru_step` for the
    arithmetic), with masked positions carrying the hidden state through
    unchanged; the backward is hand-derived BPTT over the stashed gates.

    Parameters
    ----------
    x:
        ``(batch, time, input_dim)`` inputs.
    h0:
        ``(batch, hidden)`` initial state.
    w_ih / w_hh / b_ih / b_hh:
        Fused gate weights, columns ordered ``[reset | update | candidate]``.
    mask:
        Optional ``(batch, time)`` boolean validity mask.

    Returns
    -------
    (outputs, h_n):
        ``outputs`` is ``(batch, time, hidden)``; ``h_n`` the final state.
    """
    x, h0 = as_tensor(x), as_tensor(h0)
    batch, time, _ = x.shape
    hidden = h0.shape[-1]
    if time == 0:
        raise ValueError("gru_sequence requires at least one timestep")

    # Time-major input copy: per-step slices become contiguous and the final
    # input-gradient GEMMs run over flat (T*B, ·) views with no re-copy.
    x_tm = np.ascontiguousarray(x.data.transpose(1, 0, 2))
    # Input-side gates for every timestep in one matmul: (T*B, D) @ (D, 3H).
    gates_x = (x_tm.reshape(time * batch, -1) @ w_ih.data + b_ih.data).reshape(
        time, batch, 3 * hidden
    )
    keep = None if mask is None else np.asarray(mask, dtype=np.float64)
    record = _needs_graph(x, h0, w_ih, w_hh, b_ih, b_hh)
    w_hh_arr = w_hh.data
    H2 = 2 * hidden

    hs = np.empty((time + 1, batch, hidden))
    hs[0] = h0.data
    stash = None
    if record:
        # Per-step activations for BPTT: reset/update packed together, the
        # candidate and the hidden-side candidate gate.
        stash = (
            np.empty((time, batch, H2)),
            np.empty((time, batch, hidden)),
            np.empty((time, batch, hidden)),
        )
    gru_unroll(gates_x, hs, w_hh_arr, b_hh.data, keep=keep, stash=stash)

    outputs_data = hs[1:].transpose(1, 0, 2).copy()

    if not record:
        outputs = Tensor(outputs_data)
        return outputs, Tensor(outputs_data[:, -1, :])
    rz_all, n_all, nh_all = stash

    def backward(grad: np.ndarray):
        # grad: (batch, time, hidden) — includes any h_n gradient routed in by
        # the final-state slice node.
        grad_tm = grad.transpose(1, 0, 2)
        dh = np.zeros((batch, hidden))
        # Gate gradients, stashed time-major so the weight/bias gradients
        # batch into single flat GEMMs/reductions after the loop.
        gx_grad = np.empty((time, batch, 3 * hidden))
        gh_grad = np.empty((time, batch, 3 * hidden))
        buf_a = np.empty((batch, hidden))
        buf_b = np.empty((batch, hidden))
        sig_deriv = np.empty((batch, H2))
        w_hh_t = np.ascontiguousarray(w_hh_arr.T)
        for t in range(time - 1, -1, -1):
            dht = dh
            dht += grad_tm[t]
            if keep is not None:
                k = keep[:, t][:, None]
                dh_new = np.multiply(dht, k, out=buf_a)
                dh = dht
                dh *= 1.0 - k
            else:
                np.copyto(buf_a, dht)
                dh_new = buf_a
                dh.fill(0.0)
            rz, n, nh = rz_all[t], n_all[t], nh_all[t]
            r, z = rz[:, :hidden], rz[:, hidden:]
            h_prev = hs[t]
            gh = gh_grad[t]
            # Joint sigmoid derivative rz * (1 - rz) for both gate columns.
            ds = np.subtract(1.0, rz, out=sig_deriv)
            omz = ds[:, hidden:]
            # da_n = dh_new * (1 - z) * (1 - n^2)
            da_n = np.multiply(dh_new, omz, out=buf_b)
            scratch = np.multiply(n, n, out=gh[:, :hidden])
            np.subtract(1.0, scratch, out=scratch)
            da_n *= scratch
            ds *= rz
            # Update-gate gradient: dh_new * (h_prev - n) * z(1 - z).
            da_z = np.subtract(h_prev, n, out=gh[:, hidden:H2])
            da_z *= dh_new
            da_z *= ds[:, hidden:]
            # Reset-gate gradient: da_n * nh * r(1 - r).
            da_r = np.multiply(da_n, nh, out=gh[:, :hidden])
            da_r *= ds[:, :hidden]
            # Candidate column on the hidden side carries the reset product.
            np.multiply(da_n, r, out=gh[:, H2:])
            g_slab = gx_grad[t]
            g_slab[:, :H2] = gh[:, :H2]
            g_slab[:, H2:] = da_n
            # Recurrent gradient: dh = dh_direct + dh_new * z + gh @ w_hh^T.
            dh_new *= z
            dh += dh_new
            dh += gh @ w_hh_t
        # Weight/bias/input gradients batched over all timesteps at once.
        gh_2d = gh_grad.reshape(time * batch, 3 * hidden)
        gx_2d = gx_grad.reshape(time * batch, 3 * hidden)
        dw_hh = hs[:-1].reshape(time * batch, hidden).T @ gh_2d
        db_hh = gh_2d.sum(axis=0)
        dw_ih = x_tm.reshape(time * batch, -1).T @ gx_2d
        db_ih = gx_2d.sum(axis=0)
        dx = (gx_2d @ w_ih.data.T).reshape(time, batch, -1).transpose(1, 0, 2)
        return [
            (x, dx),
            (h0, dh),
            (w_ih, dw_ih),
            (w_hh, dw_hh),
            (b_ih, db_ih),
            (b_hh, db_hh),
        ]

    outputs = _node(outputs_data, (x, h0, w_ih, w_hh, b_ih, b_hh), backward)
    h_n = outputs[:, -1, :]
    return outputs, h_n


# --------------------------------------------------------------------------- #
# fused VAE primitives
# --------------------------------------------------------------------------- #
def fused_gaussian_kl(mu: Tensor, logvar: Tensor) -> Tensor:
    """``KL(N(mu, diag(exp(logvar))) || N(0, I))`` summed over the last axis.

    Parameters
    ----------
    mu / logvar:
        Posterior mean and log-variance, shape ``(..., latent)``.

    Returns
    -------
    Tensor of shape ``(...,)`` — the per-row KL divergence.

    One node for ``0.5 * Σ (exp(logvar) + mu² - 1 - logvar)`` instead of the
    six-node elementwise chain; the closed-form backward is
    ``dmu = g·mu`` and ``dlogvar = 0.5·g·(exp(logvar) - 1)``.
    """
    mu, logvar = as_tensor(mu), as_tensor(logvar)
    e = np.exp(logvar.data)
    kl = (e + mu.data * mu.data - 1.0 - logvar.data).sum(axis=-1) * 0.5

    def backward(grad: np.ndarray):
        g = grad[..., None]
        return [(mu, g * mu.data), (logvar, 0.5 * g * (e - 1.0))]

    return _node(kl, (mu, logvar), backward)


def fused_reparameterize(mu: Tensor, logvar: Tensor, eps: np.ndarray) -> Tensor:
    """Reparameterised sample ``mu + exp(0.5 * logvar) * eps`` as one node.

    Parameters
    ----------
    mu / logvar:
        Posterior mean and log-variance, shape ``(..., latent)``.
    eps:
        Pre-drawn standard-normal noise of the same shape (a plain ndarray;
        no gradient flows into it).

    Returns
    -------
    Tensor of shape ``(..., latent)`` — the sampled latent, differentiable
    w.r.t. ``mu`` and ``logvar`` (``dmu = g``,
    ``dlogvar = 0.5 · g · eps · std``).
    """
    mu, logvar = as_tensor(mu), as_tensor(logvar)
    eps = np.asarray(eps)
    std = np.exp(logvar.data * 0.5)
    data = mu.data + std * eps

    def backward(grad: np.ndarray):
        return [(mu, grad), (logvar, 0.5 * grad * eps * std)]

    return _node(data, (mu, logvar), backward)


# --------------------------------------------------------------------------- #
# fused linear
# --------------------------------------------------------------------------- #
def fused_linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight + bias`` as one node (weight stored ``(in, out)``).

    Halves the graph nodes and intermediate ``(.., out)`` arrays of the
    two-node ``@`` + ``+`` formulation; the backward folds any leading batch
    axes into a single flat GEMM per operand.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    data = x.data @ weight.data
    if bias is not None:
        data += bias.data

    def backward(grad: np.ndarray):
        grad_2d = grad.reshape(-1, grad.shape[-1])
        x_2d = x.data.reshape(-1, x.data.shape[-1])
        contributions = [
            (x, (grad @ weight.data.T)),
            (weight, x_2d.T @ grad_2d),
        ]
        if bias is not None:
            contributions.append((bias, grad_2d.sum(axis=0)))
        return contributions

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _node(data, parents, backward)


# --------------------------------------------------------------------------- #
# embedding gather
# --------------------------------------------------------------------------- #
def embedding_gather(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Embedding lookup ``out[i...] = weight[indices[i...]]`` as one node.

    The backward is a scatter-add into the ``(vocab, dim)`` table.  Instead of
    ``np.add.at`` (which dispatches per element), duplicate indices are folded
    with a sort + ``np.add.reduceat`` — the dominant cost becomes two
    vectorised passes over the gradient rows.
    """
    weight = as_tensor(weight)
    idx = np.asarray(indices, dtype=np.int64)
    data = weight.data[idx]

    def backward(grad: np.ndarray):
        full = np.zeros_like(weight.data)
        flat_idx = idx.reshape(-1)
        if flat_idx.size:
            grad_rows = np.ascontiguousarray(grad).reshape(-1, weight.data.shape[-1])
            order = np.argsort(flat_idx, kind="stable")
            sorted_idx = flat_idx[order]
            starts = np.concatenate(
                ([0], np.flatnonzero(sorted_idx[1:] != sorted_idx[:-1]) + 1)
            )
            sums = np.add.reduceat(grad_rows[order], starts, axis=0)
            full[sorted_idx[starts]] = sums
        return [(weight, full)]

    return _node(data, (weight,), backward)


# --------------------------------------------------------------------------- #
# fused masked NLL
# --------------------------------------------------------------------------- #
def fused_masked_nll(
    logits: Tensor,
    targets: np.ndarray,
    allowed_mask: Optional[np.ndarray] = None,
    valid_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Per-position NLL of ``targets`` under (masked-)softmax ``logits``.

    Equivalent to ``sequence_nll(masked_log_softmax(logits, allowed_mask),
    targets, mask=valid_mask, reduction="none")`` but as a single graph node:
    the ``(.., vocab)`` log-probability tensor never enters the autograd graph
    and the backward is the closed form ``grad * (softmax - onehot)``.

    Parameters
    ----------
    logits:
        ``(..., V)`` unnormalised scores.
    targets:
        Integer array of shape ``(...)``.
    allowed_mask:
        Optional boolean array broadcastable to ``logits``; False positions
        are excluded from the softmax (road-constrained prediction) and
        receive zero gradient.
    valid_mask:
        Optional boolean array of shape ``(...)``; False positions (padding)
        contribute zero loss and zero gradient.

    Returns
    -------
    Tensor of shape ``(...)`` — the per-position negative log-likelihood
    (zero at invalid positions).
    """
    logits = as_tensor(logits)
    idx = np.asarray(targets, dtype=np.int64)
    picked_logit = np.take_along_axis(logits.data, idx[..., None], axis=-1)
    if allowed_mask is not None:
        allowed = np.broadcast_to(np.asarray(allowed_mask, dtype=bool), logits.shape)
        if not allowed.any(axis=-1).all():
            raise ValueError("fused_masked_nll requires at least one allowed position per row")
        # Equivalent to masking logits to NEG_INF then softmaxing, but the
        # masked entries never enter an `exp` (whose deep-underflow path is an
        # order of magnitude slower) and the constrained (.., V) copy of the
        # logits is never materialised: `where=`-gated reductions see only
        # allowed entries, everything else contributes an exact 0 — the same
        # value exp(NEG_INF - shift) underflows to on the graph path.
        shift = np.max(logits.data, axis=-1, keepdims=True, where=allowed, initial=NEG_INF)
        # The shifted array doubles as the exp buffer (exp in place): only the
        # exponentials are needed downstream, and masked entries are zeroed
        # rather than exponentiated — the deep-underflow exp path of
        # exp(NEG_INF - shift) is an order of magnitude slower than the
        # multiply and produces the same exact 0.
        exp_shifted = logits.data - shift
        # Allowed entries are <= 0 after the shift; the clamp only guards
        # masked entries that exceed the allowed maximum from overflowing
        # (they are zeroed right after regardless).
        np.minimum(exp_shifted, 700.0, out=exp_shifted)
        np.exp(exp_shifted, out=exp_shifted)
        exp_shifted *= allowed
        target_allowed = np.take_along_axis(allowed, idx[..., None], axis=-1)
        picked_logit = np.where(target_allowed, picked_logit, NEG_INF)
    else:
        allowed = None
        target_allowed = None
        shift = logits.data.max(axis=-1, keepdims=True)
        exp_shifted = logits.data - shift
        np.exp(exp_shifted, out=exp_shifted)
    sum_exp = exp_shifted.sum(axis=-1, keepdims=True)
    log_z = np.log(sum_exp)
    # Only the target column of the full log-prob array is ever needed:
    # nll = -((logit[target] - shift) - log Z).  The (.., V) log-prob tensor
    # is never materialised; backward reuses exp_shifted for the softmax.
    nll = (log_z - (picked_logit - shift))[..., 0]
    valid = None
    if valid_mask is not None:
        valid = np.asarray(valid_mask, dtype=np.float64)
        nll = nll * valid

    def backward(grad: np.ndarray):
        upstream = grad * valid if valid is not None else grad
        # dlogits = upstream * (softmax - onehot), softmax = exp_shifted / Z.
        # Masked entries are exact zeros in exp_shifted, so their gradient is
        # zero without another (.., V) masking pass.  The multiply goes into a
        # fresh array — mutating the stashed exp buffer would silently corrupt
        # a repeated backward() through the same graph.
        dlogits = exp_shifted * (upstream[..., None] / sum_exp)
        at_target = np.take_along_axis(dlogits, idx[..., None], axis=-1)
        target_grad = upstream[..., None]
        if target_allowed is not None:
            # A disallowed target (anomalous transition) gets no gradient,
            # matching the graph path's masked_fill zeroing.
            target_grad = target_grad * target_allowed
        np.put_along_axis(dlogits, idx[..., None], at_target - target_grad, axis=-1)
        return [(logits, dlogits)]

    return _node(nll, (logits,), backward)


def fused_successor_nll(
    logits: Tensor,
    targets: np.ndarray,
    succ_idx: np.ndarray,
    succ_valid: np.ndarray,
    target_allowed: np.ndarray,
    valid_mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Road-constrained NLL over the successor set only — O(B·T·degree).

    Numerically interchangeable with :func:`fused_masked_nll` when the allowed
    mask is exactly the successor set of each row (the road-constrained
    decoder): the masked softmax normalises over the handful of graph
    successors, so the max/exp/sum run on ``(.., max_degree)`` gathers instead
    of the full ``(.., V)`` vocabulary — on real road networks a 30-80× cut in
    loss-side work.  Rows whose ``valid_mask`` is False (padding) may carry
    arbitrary successor rows; their loss and gradient are exactly zero.

    Parameters
    ----------
    logits:
        ``(..., V)`` unnormalised scores.
    targets:
        Integer array of shape ``(...)``.
    succ_idx / succ_valid:
        Row-wise gather tables of shape ``(..., max_degree)``, gathered from
        :meth:`CompiledRoadGraph.successor_tables
        <repro.roadnet.csr.CompiledRoadGraph.successor_tables>`.
    target_allowed:
        Boolean ``(...)`` — whether the target is a successor of the input
        (False for anomalous transitions, which receive the NEG_INF
        log-probability of the dense path and no gradient).
    valid_mask:
        Optional boolean ``(...)`` padding mask.
    """
    logits = as_tensor(logits)
    idx = np.asarray(targets, dtype=np.int64)
    vocab = logits.shape[-1]
    has_successor = succ_valid.any(axis=-1)
    degenerate = ~has_successor
    if degenerate.any() if valid_mask is None else (degenerate & np.asarray(valid_mask, dtype=bool)).any():
        raise ValueError("fused_successor_nll requires at least one allowed position per row")
    cand = np.take_along_axis(logits.data, succ_idx, axis=-1)
    shift = np.max(cand, axis=-1, keepdims=True, where=succ_valid, initial=NEG_INF)
    # minimum(·, 0) is a no-op on well-formed rows (the max is subtracted) and
    # stops exp overflow on degenerate padding rows with no successors, whose
    # loss and gradient are zeroed anyway.
    exp_shifted = np.exp(np.minimum(cand - shift, 0.0))
    exp_shifted *= succ_valid
    sum_exp = exp_shifted.sum(axis=-1, keepdims=True)
    if degenerate.any():
        sum_exp = np.where(has_successor[..., None], sum_exp, 1.0)
    log_z = np.log(sum_exp)
    picked = np.take_along_axis(logits.data, idx[..., None], axis=-1)
    picked = np.where(target_allowed[..., None], picked, NEG_INF)
    nll = (log_z - (picked - shift))[..., 0]
    valid = None
    if valid_mask is not None:
        valid = np.asarray(valid_mask, dtype=np.float64)
        nll = nll * valid

    def backward(grad: np.ndarray):
        upstream = grad * valid if valid is not None else grad
        dcand = exp_shifted * (upstream[..., None] / sum_exp)
        # Scatter-add the successor-column gradients into the vocabulary axis.
        # bincount accumulates duplicates exactly (padded slots carry weight
        # 0), unlike put_along_axis whose duplicate handling is undefined.
        rows = np.arange(dcand.size // dcand.shape[-1], dtype=np.int64)
        flat_pos = rows[:, None] * vocab + succ_idx.reshape(len(rows), -1)
        dlogits = np.bincount(
            flat_pos.ravel(), weights=dcand.ravel(), minlength=len(rows) * vocab
        ).reshape(logits.shape)
        at_target = np.take_along_axis(dlogits, idx[..., None], axis=-1)
        target_grad = upstream[..., None] * target_allowed[..., None]
        np.put_along_axis(dlogits, idx[..., None], at_target - target_grad, axis=-1)
        return [(logits, dlogits)]

    return _node(nll, (logits,), backward)
