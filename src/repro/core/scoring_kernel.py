"""Vectorized online-scoring kernel shared by per-ride and fleet serving.

The O(1)-per-segment online update of the paper (§V-D) decomposes into two
operations, both of which vectorize cleanly over a batch of concurrent rides:

* **session start** — encode the SD pair once, producing the fixed part of the
  score (SD reconstruction + KL) and the initial hidden state of the
  autoregressive decoder;
* **session advance** — one embedding lookup, one :class:`~repro.nn.GRUCell`
  step and one (road-constrained) log-softmax yielding the log-probability of
  the newly entered segment.

:class:`~repro.core.online.OnlineSession` calls these with batch size 1;
:class:`~repro.serving.FleetEngine` calls them with one row per pending ride,
turning thousands of per-ride Python steps into a handful of matrix ops.
Offline scoring does not run this module: it runs the batched engine in
:mod:`repro.core.inference`.  What the two share is the per-step arithmetic
after the GRU — :func:`~repro.core.inference.successor_step_nll` on
road-constrained models and :func:`~repro.core.inference.gather_log_softmax`
on unconstrained ones — so fleet, per-ride and offline step scores agree.
The GRU step itself is shared with training and offline scoring too:
:func:`advance_sessions` runs :meth:`GRUCell.step <repro.nn.GRUCell.step>`,
one :func:`~repro.nn.fused.gru_step` on raw numpy arrays, and never builds
autograd graphs.  The road constraint is the attached compiled graph only, so
offline scoring and serving cannot disagree about which segments may follow
which.  Session start is :func:`~repro.core.inference.sd_forward`, the SD
half of the offline engine's forward, so no scoring path builds a Tensor.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from repro.core.causal_tad import CausalTAD
from repro.core.inference import gather_log_softmax, sd_forward, successor_step_nll

__all__ = [
    "SessionInit",
    "init_session_states",
    "advance_sessions",
    "can_advance",
    "check_segment_id",
    "validate_segment_ids",
]


@dataclass
class SessionInit:
    """Per-ride state produced at session start (one row per ride).

    Attributes
    ----------
    fixed_scores:
        ``(batch,)`` — the SD-reconstruction + KL part of Eq. 10, constant for
        the lifetime of each ride.  The KL enters unweighted, as in every
        offline scorer: ``config.kl_weight`` only weights the training loss.
    hidden:
        ``(batch, hidden_dim)`` — initial hidden state of the trajectory
        decoder (``tanh(W r)`` with ``r`` the deterministic posterior mean).
    """

    fixed_scores: np.ndarray
    hidden: np.ndarray


def validate_segment_ids(model: CausalTAD, segment_ids: np.ndarray) -> None:
    """Raise ``ValueError`` if any id falls outside ``[0, num_segments)``."""
    ids = np.asarray(segment_ids)
    if ids.size and (ids.min() < 0 or ids.max() >= model.config.num_segments):
        bad = ids[(ids < 0) | (ids >= model.config.num_segments)]
        raise ValueError(
            f"segment id {int(bad[0])} outside [0, {model.config.num_segments})"
        )


def check_segment_id(segment_id, num_segments: int) -> int:
    """One event's segment id as a Python int in ``[0, num_segments)``.

    The per-event form of :func:`validate_segment_ids` for the ingest paths
    (:meth:`OnlineSession.update <repro.core.online.OnlineSession.update>`,
    :meth:`FleetEngine.submit <repro.serving.FleetEngine.submit>`), in pure
    Python so a single id pays no array construction.  Raises ``TypeError``
    for a non-integer (a float would pass a range check and be truncated by
    the kernel; numpy integers are accepted) and ``ValueError`` for an id out
    of range (a negative one would silently wrap in the embedding lookup).
    """
    try:
        segment = operator.index(segment_id)
    except TypeError:
        raise TypeError(f"segment id {segment_id!r} is not an integer") from None
    if not 0 <= segment < num_segments:
        raise ValueError(f"segment id {segment} outside [0, {num_segments})")
    return segment


def init_session_states(
    model: CausalTAD, sources: np.ndarray, destinations: np.ndarray
) -> SessionInit:
    """Batched session start for rides with the given SD pairs.

    Runs :func:`~repro.core.inference.sd_forward`, the SD half of the
    offline engine's eval forward, on every ride at once; the per-row
    results are identical to running each ride through a batch of one.
    """
    sources = np.asarray(sources, dtype=np.int64)
    destinations = np.asarray(destinations, dtype=np.int64)
    # Negative ids would silently wrap in the embedding lookups below and
    # yield plausible but wrong scores, so reject them up front.
    validate_segment_ids(model, sources)
    validate_segment_ids(model, destinations)
    sd_nll, kl, hidden = sd_forward(model.tg_vae, sources, destinations)
    return SessionInit(fixed_scores=sd_nll + kl, hidden=hidden)


def can_advance(model: CausalTAD, segments: np.ndarray) -> np.ndarray:
    """Which rows :func:`advance_sessions` can step away from.

    ``(batch,)`` bool: False only where a road-constrained model has a ride on
    a segment with no successor (a one-way spur into a dead end), for which
    the constrained softmax has nothing to normalise over.
    """
    segments = np.asarray(segments, dtype=np.int64)
    if model.config.road_constrained and model.road_graph is not None:
        return model.road_graph.successor_tables()[1][segments].any(axis=-1)
    return np.ones(segments.shape, dtype=bool)


def advance_sessions(
    model: CausalTAD,
    previous_segments: np.ndarray,
    next_segments: np.ndarray,
    hidden: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """One batched autoregressive step for a batch of ongoing rides.

    Parameters
    ----------
    model:
        The (eval-mode) CausalTAD model; its parameters are read at call time.
    previous_segments / next_segments:
        ``(batch,)`` int arrays — the segment each ride is currently on and
        the segment it just entered.
    hidden:
        ``(batch, hidden_dim)`` decoder hidden states (one row per ride).

    Returns
    -------
    (new_hidden, step_likelihoods):
        The advanced hidden states ``(batch, hidden_dim)`` and the per-ride
        step scores ``−log P(t_i | c, t_{<i})`` of shape ``(batch,)``.

    The GRU step is :meth:`GRUCell.step <repro.nn.GRUCell.step>`, the
    :func:`~repro.nn.fused.gru_step` that training and offline scoring
    unroll.  With a road network attached, each ride is projected onto only
    its current segment's successor columns through
    :func:`~repro.core.inference.successor_step_nll`, the helper the offline
    engine runs, so no ``(batch, vocab)`` logits are built; an unconstrained
    model normalises over every segment.  Raises ``ValueError`` when a
    road-constrained row has no successor (see :func:`can_advance`).
    """
    config = model.config
    tg = model.tg_vae
    projection = tg.output_projection
    previous_segments = np.asarray(previous_segments, dtype=np.int64)
    next_segments = np.asarray(next_segments, dtype=np.int64)

    movable = can_advance(model, previous_segments)
    if not movable.all():
        stuck = int(previous_segments[~movable][0])
        raise ValueError(f"segment {stuck} has no successor: a ride on it cannot advance")

    embedded = tg.segment_embedding.weight.data[previous_segments]
    new_hidden = tg.decoder_rnn.cell.step(embedded, hidden)
    if config.road_constrained and model.road_graph is not None:
        succ_idx, succ_valid = model.road_graph.successor_tables()
        cand_idx = succ_idx[previous_segments]
        cand_valid = succ_valid[previous_segments]
        allowed_next = ((cand_idx == next_segments[:, None]) & cand_valid).any(axis=-1)
        step_likelihoods = successor_step_nll(
            new_hidden,
            projection.weight.data.T,
            projection.bias.data,
            cand_idx,
            cand_valid,
            next_segments,
            allowed_next,
        )
        return new_hidden, step_likelihoods
    logits = new_hidden @ projection.weight.data + projection.bias.data
    rows = np.arange(next_segments.shape[0])
    step_likelihoods = -gather_log_softmax(logits, rows, next_segments)
    return new_hidden, step_likelihoods
