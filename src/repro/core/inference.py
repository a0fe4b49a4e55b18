"""Graph-free batched inference engine (paper §V-D, offline form).

The paper's inference-time observation is that the anomaly score decomposes
into reusable pieces: a likelihood term from TG-VAE's deterministic eval-mode
forward plus precomputed per-segment scaling factors from RP-VAE.  Training
needs the autograd :class:`~repro.nn.tensor.Tensor` graph; *scoring* does not
— yet the historical offline path ran every ``score_dataset`` call through the
full ``TGVAE.forward`` (graph construction, fused-kernel backward stashes,
per-step NLL bookkeeping), and the Fig. 8 λ sweep repeated that forward once
per λ even though λ only enters as a scalar weight at composition time.

This module is the offline counterpart of :mod:`repro.core.scoring_kernel`
(which vectorizes the *online* per-segment update): a pure-numpy,
allocation-reusing batched scorer that composes the eval-mode forward from
the arithmetic the training kernels run, with no copy of its own.  The layers
are their ``infer`` methods (``Linear``, ``MLP``, ``GaussianHead``), the GRU
recurrence is :func:`repro.nn.fused.gru_unroll` over the one
:func:`~repro.nn.fused.gru_step`, and the decoder softmax is
:func:`~repro.nn.fused.successor_step_nll` — the forward of the training loss
:func:`~repro.nn.fused.fused_successor_nll` — or, without a road constraint,
:func:`~repro.nn.fused.gather_log_softmax`, the forward of
:func:`~repro.nn.fused.fused_masked_nll`.  The serving kernel runs the same
functions, so training, offline, online and fleet step scores agree.

* :class:`InferenceEngine` — scores CausalTAD batches/datasets without
  building a single Tensor.  Road-constrained batches never materialise the
  ``(batch, time, vocab)`` logits: the decoder hidden states are contracted
  against only the gathered successor weight columns (O(out-degree) per step
  instead of O(vocab)).
* :class:`ScoreDecomposition` — the reusable result: per-trajectory
  ``trajectory_nll`` / ``sd_nll`` / ``kl``, per-step log-probabilities and
  per-trajectory scaling sums.  Every downstream consumer composes scores
  without re-running the model; :meth:`ScoreDecomposition.lambda_sweep`
  evaluates a whole λ grid as one ``likelihood − λ ⊗ scaling`` outer product.
* :class:`Seq2SeqInferenceEngine` — the same treatment for the Seq2Seq
  baseline family (SAE / VSAE / β-VAE / FactorVAE / GM-VSAE / DeepTEA).
* :func:`sd_forward` — the SD half of the forward (SD reconstruction, KL and
  the decoder's initial state), which the online kernel runs at session
  start.

Datasets are scored in length-bucketed batches (near-homogeneous lengths, so
padded GRU steps are almost eliminated) through per-bucket workspaces that are
reused across batches; results are scattered back into dataset order.  This
is the only eval-mode scoring path of the library.  The Tensor forward
remains as one reference, ``CausalTAD.score_dataset(engine="graph")``:
``tests/core/test_inference_engine.py`` pins the two paths together and
``benchmarks/test_bench_score_throughput.py`` gates the engine's throughput.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.nn.functional import logsumexp_forward
from repro.nn.fused import gather_log_softmax, gaussian_kl_forward, gru_unroll, successor_step_nll
from repro.trajectory.dataset import EncodedBatch, TrajectoryDataset

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.baselines.seq2seq import Seq2SeqVAEModel
    from repro.core.causal_tad import CausalTAD
    from repro.core.tg_vae import TGVAE

__all__ = [
    "ScoreDecomposition",
    "InferenceEngine",
    "Seq2SeqInferenceEngine",
    "EngineStats",
    "Workspace",
    "sd_forward",
    "resolve_engine",
    "DEFAULT_ENGINE",
]

_LOG_2PI = float(np.log(2.0 * np.pi))

#: The engine the scoring entry points use when none is requested.
DEFAULT_ENGINE = "numpy"


def resolve_engine(engine: Optional[str]) -> str:
    """Validate an ``engine=`` argument (``None`` selects :data:`DEFAULT_ENGINE`).

    ``"numpy"`` is the graph-free batched engine of this module; ``"graph"``
    is the autograd Tensor path that ``CausalTAD.score_dataset``, the one
    scoring entry point with an ``engine=`` option, keeps as the reference.
    """
    if engine is None:
        return DEFAULT_ENGINE
    if engine not in ("numpy", "graph"):
        raise ValueError(f"unknown inference engine {engine!r}; choose 'numpy' or 'graph'")
    return engine


# --------------------------------------------------------------------------- #
# reusable workspaces
# --------------------------------------------------------------------------- #
class Workspace:
    """Named, growable float64 scratch buffers reused across batches.

    ``take(name, shape)`` returns a C-contiguous view of a cached flat buffer,
    reallocating only when the requested size exceeds the current capacity —
    so scoring a length-bucketed dataset allocates each decoder workspace once
    (at the largest bucket) instead of once per batch.  Views are only valid
    until the next ``take`` of the same name; callers must copy anything that
    outlives the batch.

    ``takes`` / ``allocs`` count lifetime requests vs actual allocations (two
    plain int increments, no registry involvement); the reuse ratio they imply
    is published as ``inference/workspace_*`` gauges after each dataset pass
    when observability is enabled.
    """

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}
        self.takes = 0
        self.allocs = 0

    def take(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        size = 1
        for dim in shape:
            size *= int(dim)
        self.takes += 1
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            self.allocs += 1
            buffer = np.empty(size, dtype=np.float64)
            self._buffers[name] = buffer
        return buffer[:size].reshape(shape)

    def clear(self) -> None:
        """Drop every buffer (frees the memory; capacities regrow on demand)."""
        self._buffers.clear()

    def __getstate__(self) -> dict:
        # Scratch buffers are pure caches; never ship them into pickles (the
        # experiment artifact cache stores fitted detectors whose engines
        # would otherwise drag megabytes of dead scratch along).
        return {"_buffers": {}}

    def __setstate__(self, state: dict) -> None:
        self._buffers = {}
        self.takes = 0
        self.allocs = 0


# --------------------------------------------------------------------------- #
# the SD half and the decoder states
# --------------------------------------------------------------------------- #
def sd_forward(
    tg: "TGVAE",
    sources: np.ndarray,
    destinations: np.ndarray,
    joint: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The SD half of the eval-mode TG-VAE forward: ``(sd_nll, kl, h0)``.

    Everything Eq. 10 takes from the SD pair alone (paper §V-D): the SD
    encoder Φ_e at the posterior mean (the eval-mode latent), the SD
    decoder's ``−log P(c | r)`` (zeros with ``use_sd_decoder`` off), the
    unweighted ``KL(Q1(R|c) || P(R))`` and the trajectory decoder's initial
    state ``tanh(W r + b)``, one row per SD pair.  Offline scoring runs it
    ahead of each batch's GRU unroll; serving runs it once per ride, at
    session start.  ``joint`` is an optional ``(batch, 2 · embedding_dim)``
    buffer for the concatenated SD embeddings.
    """
    sd_weight = tg.sd_embedding.weight.data
    emb_dim = sd_weight.shape[1]
    count = sources.shape[0]
    if joint is None:
        joint = np.empty((count, 2 * emb_dim), dtype=np.float64)
    joint[:, :emb_dim] = sd_weight[sources]
    joint[:, emb_dim:] = sd_weight[destinations]
    mu, logvar = tg.posterior_head.infer(tg.sd_encoder.infer(joint))
    latent = mu  # posterior mean — the eval-mode deterministic sample

    if tg.config.use_sd_decoder:
        hidden = tg.sd_decoder_hidden.infer(latent)
        rows = np.arange(count)
        sd_nll = -gather_log_softmax(tg.source_head.infer(hidden), rows, sources)
        sd_nll -= gather_log_softmax(tg.destination_head.infer(hidden), rows, destinations)
    else:
        sd_nll = np.zeros(count, dtype=np.float64)

    h0 = tg.latent_to_hidden.infer(latent)
    np.tanh(h0, out=h0)
    return sd_nll, gaussian_kl_forward(mu, logvar), h0


def _gru_states(
    x_tm: np.ndarray,
    h0: np.ndarray,
    cell,
    ws: Workspace,
    prefix: str,
    mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """GRU states over a time-major input, on workspace buffers.

    ``x_tm`` is the ``(time, batch, input_dim)`` input; returns the states
    ``hs`` of shape ``(time + 1, batch, hidden)`` with ``hs[0] = h0`` — a
    workspace view, valid until the next use of ``prefix`` buffers.  The
    input-side gates of every step come from one GEMM; the recurrence is
    :func:`repro.nn.fused.gru_unroll`, the unroll training runs, so the states
    are bitwise those of the Tensor path.
    """
    time, batch, _ = x_tm.shape
    hidden = h0.shape[-1]
    gates_x = ws.take(prefix + ".gx", (time * batch, 3 * hidden))
    np.dot(x_tm.reshape(time * batch, -1), cell.w_ih.data, out=gates_x)
    gates_x += cell.b_ih.data
    hs = ws.take(prefix + ".hs", (time + 1, batch, hidden))
    hs[0] = h0
    return gru_unroll(
        gates_x.reshape(time, batch, 3 * hidden),
        hs,
        cell.w_hh.data,
        cell.b_hh.data,
        keep=None if mask is None else np.asarray(mask, dtype=np.float64),
        take=lambda name, shape: ws.take(f"{prefix}.{name}", shape),
    )


def _embed_time_major(
    weight: np.ndarray, indices: np.ndarray, ws: Workspace, name: str
) -> np.ndarray:
    """Gather ``weight[indices.T]`` into a reusable ``(time, batch, dim)`` buffer.

    ``mode="clip"`` selects numpy's fast unbuffered take (the default
    ``"raise"`` mode with ``out=`` goes through a ~4× slower buffered path);
    the indices are already validated — ``encode_batch`` bounds-checks every
    segment id and the pad id indexes the embedding table's reserved row.
    """
    batch, time = indices.shape
    out = ws.take(name, (time, batch, weight.shape[1]))
    np.take(weight, indices.T, axis=0, out=out, mode="clip")
    return out


# --------------------------------------------------------------------------- #
# the reusable score decomposition
# --------------------------------------------------------------------------- #
@dataclass
class ScoreDecomposition:
    """Per-trajectory pieces of the debiased anomaly score (Eq. 10).

    Produced by one engine forward; every downstream consumer — full scores,
    the TG-VAE-only / no-scaling ablations of Table III, the Fig. 4 per-step
    breakdown, and the Fig. 8 λ grid — composes from these arrays without
    running the model again.

    Attributes
    ----------
    trajectory_nll:
        ``(n,)`` — ``Σ_i −log P(t_{i+1} | r, t_{≤i})`` per trajectory.
    sd_nll:
        ``(n,)`` — ``−log P(c | r)`` (zero when the SD decoder is disabled).
    kl:
        ``(n,)`` — ``KL(Q1(R|c) || prior)``.
    step_log_probs:
        ``(n, time)`` — per-step ``log P(t_{i+1} | ...)`` at valid prediction
        positions, zero elsewhere (rows padded to the longest trajectory).
    scaling_sum:
        ``(n,)`` — ``Σ_i log E[1/P(t_i|e_i)]`` over each trajectory's valid
        segments (zeros when computed with ``include_scaling=False``).
    lengths:
        ``(n,)`` — true (unpadded) trajectory lengths.
    """

    trajectory_nll: np.ndarray
    sd_nll: np.ndarray
    kl: np.ndarray
    step_log_probs: np.ndarray
    scaling_sum: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return int(self.trajectory_nll.shape[0])

    @property
    def likelihood(self) -> np.ndarray:
        """Per-trajectory −ELBO ≈ −log P(c, t) — the likelihood part of Eq. 10."""
        return self.trajectory_nll + self.sd_nll + self.kl

    def step_scores(self) -> np.ndarray:
        """Per-step −log P(t_{i+1} | ...) (Fig. 4's per-segment scores)."""
        return -self.step_log_probs

    def scores(self, lambda_weight: float, use_scaling: bool = True) -> np.ndarray:
        """Debiased anomaly scores ``likelihood − λ · scaling`` (Eq. 10)."""
        likelihood = self.likelihood
        if not use_scaling or lambda_weight == 0.0:
            return likelihood
        return likelihood - lambda_weight * self.scaling_sum

    def lambda_sweep(self, lambdas: Sequence[float]) -> np.ndarray:
        """Scores for a whole λ grid at once — zero extra model forwards.

        Returns ``(len(lambdas), n)``: row ``j`` equals
        ``scores(lambdas[j])``, evaluated as the vectorized outer product
        ``likelihood − λ ⊗ scaling_sum`` (Fig. 8's sweep reduced to one
        subtraction per grid point).
        """
        lam = np.asarray(list(lambdas), dtype=np.float64)
        return self.likelihood[None, :] - lam[:, None] * self.scaling_sum[None, :]

    @classmethod
    def empty(cls, count: int, max_steps: int) -> "ScoreDecomposition":
        """Preallocated decomposition to be filled row-wise (dataset scoring)."""
        return cls(
            trajectory_nll=np.zeros(count, dtype=np.float64),
            sd_nll=np.zeros(count, dtype=np.float64),
            kl=np.zeros(count, dtype=np.float64),
            step_log_probs=np.zeros((count, max_steps), dtype=np.float64),
            scaling_sum=np.zeros(count, dtype=np.float64),
            lengths=np.zeros(count, dtype=np.int64),
        )

    def fill_rows(self, rows: np.ndarray, part: "ScoreDecomposition") -> None:
        """Scatter a batch decomposition into the given dataset rows."""
        self.trajectory_nll[rows] = part.trajectory_nll
        self.sd_nll[rows] = part.sd_nll
        self.kl[rows] = part.kl
        self.scaling_sum[rows] = part.scaling_sum
        self.lengths[rows] = part.lengths
        width = part.step_log_probs.shape[1]
        if width:
            self.step_log_probs[rows, :width] = part.step_log_probs


@dataclass
class EngineStats:
    """Forward-pass counters (the λ-sweep benchmark gates on these).

    ``batch_forwards`` counts model-equivalent batch forwards executed by the
    engine; ``dataset_passes`` counts whole-dataset scoring passes.  A Fig. 8
    sweep over any λ grid must increment ``dataset_passes`` by exactly one.
    """

    batch_forwards: int = 0
    dataset_passes: int = 0
    trajectories_scored: int = 0

    def reset(self) -> None:
        self.batch_forwards = 0
        self.dataset_passes = 0
        self.trajectories_scored = 0


def _inference_instruments():
    """Handles for the ``inference/`` metrics, or None when obs is disabled.

    Resolved once per dataset pass; the per-batch path costs a dict lookup and
    a few O(1) instrument updates, and nothing at all when the registry is
    disabled (see ``benchmarks/test_bench_obs_overhead.py``).
    """
    registry = obs.metrics()
    if not registry.enabled:
        return None
    scope = registry.scope("inference")
    return {
        "batches": scope.counter("batches"),
        "trajectories": scope.counter("trajectories"),
        "batch_seconds": scope.histogram("batch_seconds"),
        "batch_rows": scope.histogram("batch_rows"),
        "batch_fill": scope.histogram("batch_fill"),
        "workspace_takes": scope.gauge("workspace_takes"),
        "workspace_allocs": scope.gauge("workspace_allocs"),
    }


def _record_batch(ins, batch: EncodedBatch, seconds: float) -> None:
    """Record one scored batch: latency, width and packing efficiency."""
    ins["batches"].inc()
    ins["trajectories"].inc(batch.batch_size)
    ins["batch_seconds"].observe(seconds)
    ins["batch_rows"].observe(batch.batch_size)
    mask = batch.mask
    if mask.size:
        # Packing efficiency of length bucketing: valid prediction positions
        # over the padded (batch, time) grid; 1 − fill is the padding waste.
        ins["batch_fill"].observe(float(mask.sum()) / float(mask.size))


def _publish_workspace(ins, ws: Workspace) -> None:
    ins["workspace_takes"].set(ws.takes)
    ins["workspace_allocs"].set(ws.allocs)


#: Target decoder positions (rows × padded timesteps) per engine batch.  Short
#: trajectories pack into wide batches (amortising per-step ufunc dispatch),
#: long ones into narrow batches (bounding the successor-gather working set).
_BATCH_POSITION_BUDGET = 8192
#: Hard cap on rows per batch regardless of trajectory length.
_BATCH_MAX_ROWS = 1024


def _length_sorted_batches(
    dataset: TrajectoryDataset, batch_size: Optional[int]
) -> List[np.ndarray]:
    """Dataset indices grouped into length-homogeneous batches.

    With an explicit ``batch_size`` the sorted order is simply chunked.  With
    ``batch_size=None`` (the engine default) batches are packed greedily so
    each holds roughly :data:`_BATCH_POSITION_BUDGET` decoder positions —
    datasets of short trajectories get wide batches, long-trajectory datasets
    narrow ones, keeping every batch in the GEMM-bound (not dispatch-bound)
    regime with a bounded working set.
    """
    lengths = np.fromiter(
        (len(item.trajectory) for item in dataset), dtype=np.int64, count=len(dataset)
    )
    order = np.argsort(lengths, kind="stable")
    if batch_size is not None:
        return [order[start : start + batch_size] for start in range(0, len(order), batch_size)]
    batches: List[np.ndarray] = []
    start = 0
    count = len(order)
    while start < count:
        size = 1
        # Sorted ascending, so the last trajectory sets the padded length.
        while (
            start + size < count
            and size < _BATCH_MAX_ROWS
            and (size + 1) * lengths[order[start + size]] <= _BATCH_POSITION_BUDGET
        ):
            size += 1
        batches.append(order[start : start + size])
        start += size
    return batches


# --------------------------------------------------------------------------- #
# CausalTAD engine
# --------------------------------------------------------------------------- #
class InferenceEngine:
    """Pure-numpy batched scorer for a :class:`~repro.core.causal_tad.CausalTAD`.

    Reads the model's parameters at call time (so in-place optimiser updates
    are always reflected) and never constructs autograd Tensors.  One engine
    per model; reuse it across calls — the workspaces amortise to zero
    allocations per batch.  Not thread-safe (workspaces are shared state);
    create one engine per thread for concurrent scoring.
    """

    def __init__(self, model: "CausalTAD") -> None:
        self.model = model
        self.stats = EngineStats()
        self._ws = Workspace()
        # Transposed projection weight, cached for the duration of one
        # dataset pass (parameters cannot change mid-pass).
        self._weight_t: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def decompose_batch(
        self, batch: EncodedBatch, include_scaling: bool = True
    ) -> ScoreDecomposition:
        """One batched eval-mode forward, returned as a :class:`ScoreDecomposition`.

        ``TGVAE.forward(deterministic_latent=True)`` on raw arrays, through
        the same layer arithmetic, GRU step and successor step.  With
        ``include_scaling`` the RP-VAE per-segment factors (precomputed and
        cached on the model) are summed per trajectory, otherwise ``scaling_sum`` is zero and the RP-VAE is never touched —
        matching the graph path's behaviour for ``use_scaling=False`` scoring.
        """
        model = self.model
        tg = model.tg_vae
        ws = self._ws
        batch_size = batch.batch_size

        # --- SD half: Φ_e, Φ_c, KL and the decoder's initial state --------- #
        joint = ws.take("sd.joint", (batch_size, 2 * tg.config.embedding_dim))
        sd_nll, kl, h0 = sd_forward(tg, batch.sources, batch.destinations, joint=joint)

        # --- trajectory decoder Φ_t ---------------------------------------- #
        time = batch.inputs.shape[1]
        if time:
            x_tm = _embed_time_major(
                tg.segment_embedding.weight.data, batch.inputs, ws, "dec.x"
            )
            hs = _gru_states(x_tm, h0, tg.decoder_rnn.cell, ws, "dec")
            per_step_nll = self._per_step_nll(batch, hs[1:])
            step_log_probs = -per_step_nll
            trajectory_nll = per_step_nll.sum(axis=1)
        else:
            step_log_probs = np.zeros((batch_size, 0), dtype=np.float64)
            trajectory_nll = np.zeros(batch_size, dtype=np.float64)

        # --- RP-VAE scaling sums ------------------------------------------- #
        if include_scaling:
            scaling = model.scaling_factors()
            valid = batch.full_mask
            safe = np.where(valid, batch.full_segments, 0)
            scaling_sum = (scaling[safe] * valid).sum(axis=1)
        else:
            scaling_sum = np.zeros(batch_size, dtype=np.float64)

        self.stats.batch_forwards += 1
        self.stats.trajectories_scored += batch_size
        return ScoreDecomposition(
            trajectory_nll=trajectory_nll,
            sd_nll=sd_nll,
            kl=kl,
            step_log_probs=step_log_probs,
            scaling_sum=scaling_sum,
            lengths=batch.lengths.copy(),
        )

    # ------------------------------------------------------------------ #
    def _per_step_nll(self, batch: EncodedBatch, outputs_tm: np.ndarray) -> np.ndarray:
        """Per-position NLL ``(batch, time)`` from time-major decoder states."""
        model = self.model
        tg = model.tg_vae
        projection = tg.output_projection
        graph = model.road_graph
        valid = np.asarray(batch.mask, dtype=np.float64)

        if graph is not None and model.config.road_constrained:
            # Sparse road-constrained scoring through the successor step that
            # training and the serving kernel run: the (batch, time, vocab)
            # logits never exist.
            cand_idx, cand_valid, target_allowed = tg.successor_candidates(batch, graph)
            weight_t = self._weight_t
            if weight_t is None:  # standalone decompose_batch call
                weight_t = np.ascontiguousarray(projection.weight.data.T)
            per_step = successor_step_nll(
                outputs_tm.transpose(1, 0, 2),          # (batch, time, hidden) view
                weight_t,
                projection.bias.data,
                cand_idx,
                cand_valid,
                batch.targets,
                target_allowed,
                cand_weights=self._ws.take("dec.candw", cand_idx.shape + (weight_t.shape[1],)),
            )
            return per_step * valid

        # Unconstrained: the full-vocabulary softmax needs every logit, but
        # only the target column of the log-probability matrix is gathered.
        time, batch_size, hidden = outputs_tm.shape
        vocab = projection.out_dim
        logits = self._ws.take("dec.logits", (time * batch_size, vocab))
        np.dot(outputs_tm.reshape(time * batch_size, hidden), projection.weight.data, out=logits)
        logits += projection.bias.data
        rows = np.arange(time * batch_size)
        cols = batch.targets.T.reshape(-1)
        log_probs = gather_log_softmax(logits, rows, cols)
        per_step = -log_probs.reshape(time, batch_size).T
        return per_step * valid

    # ------------------------------------------------------------------ #
    def decompose_dataset(
        self,
        dataset: TrajectoryDataset,
        batch_size: Optional[int] = None,
        include_scaling: bool = True,
    ) -> ScoreDecomposition:
        """Score a whole dataset (dataset order) with length-bucketed batches.

        Trajectories are scored in near-homogeneous-length batches — padded
        decoder steps almost vanish and the per-bucket workspaces are reused
        across batches — then scattered back into dataset order, so the result
        aligns with ``dataset.labels``.  ``batch_size=None`` (default) lets
        the engine pack batches to a fixed position budget, which is both the
        fast and the memory-bounded choice; pass an explicit size only to
        reproduce a specific batching.
        """
        if len(dataset) == 0:
            # Match the graph path: scoring nothing yields empty results.
            self.stats.dataset_passes += 1
            return ScoreDecomposition.empty(0, 0)
        max_steps = max(len(item.trajectory) for item in dataset) - 1
        out = ScoreDecomposition.empty(len(dataset), max(max_steps, 0))
        # One transposed-weight copy per pass, not per batch (the parameters
        # cannot change while a pass is running).
        self._weight_t = np.ascontiguousarray(
            self.model.tg_vae.output_projection.weight.data.T
        )
        ins = _inference_instruments()
        try:
            with obs.span("inference/decompose_dataset", trajectories=len(dataset)):
                for indices in _length_sorted_batches(dataset, batch_size):
                    if ins is None:
                        part = self.decompose_batch(dataset.encode(indices), include_scaling)
                    else:
                        encoded = dataset.encode(indices)
                        begin = _time.perf_counter()
                        part = self.decompose_batch(encoded, include_scaling)
                        _record_batch(ins, encoded, _time.perf_counter() - begin)
                    out.fill_rows(np.asarray(indices, dtype=np.int64), part)
        finally:
            self._weight_t = None
        if ins is not None:
            _publish_workspace(ins, self._ws)
        self.stats.dataset_passes += 1
        return out


# --------------------------------------------------------------------------- #
# Seq2Seq baseline engine
# --------------------------------------------------------------------------- #
class Seq2SeqInferenceEngine:
    """Pure-numpy eval-mode scorer for the Seq2Seq baseline family.

    Mirrors the per-trajectory scores of
    :meth:`repro.baselines.seq2seq.Seq2SeqVAEModel.forward` (eval mode,
    deterministic latent) for every variant — deterministic SAE,
    variational (β-)VSAE, the GM-VSAE mixture prior and DeepTEA's time-aware
    conditioning — without building Tensor graphs.  The FactorVAE penalty only
    enters the *training* loss, never the per-trajectory score, so it has no
    inference-time mirror.
    """

    def __init__(self, model: "Seq2SeqVAEModel") -> None:
        self.model = model
        self.stats = EngineStats()
        self._ws = Workspace()

    # ------------------------------------------------------------------ #
    def _time_buckets(self, batch: EncodedBatch, length: int) -> Optional[np.ndarray]:
        # The model's bucket derivation is already pure numpy; reuse it so the
        # engine can never drift from the Tensor path's conditioning.
        return self.model._time_buckets(batch, length)

    def _embed_steps_tm(
        self, segments: np.ndarray, buckets: Optional[np.ndarray], name: str
    ) -> np.ndarray:
        """Time-major mirror of ``Seq2SeqVAEModel._embed_steps``."""
        model = self.model
        ws = self._ws
        seg_weight = model.segment_embedding.weight.data
        if buckets is None:
            return _embed_time_major(seg_weight, segments, ws, name)
        time_weight = model.time_embedding.weight.data
        batch, length = segments.shape
        emb_dim, time_dim = seg_weight.shape[1], time_weight.shape[1]
        out = ws.take(name, (length, batch, emb_dim + time_dim))
        np.take(seg_weight, segments.T, axis=0, out=out[:, :, :emb_dim], mode="clip")
        np.take(time_weight, buckets.T, axis=0, out=out[:, :, emb_dim:], mode="clip")
        return out

    # ------------------------------------------------------------------ #
    def score_batch(self, batch: EncodedBatch) -> np.ndarray:
        """Per-trajectory anomaly scores (negative ELBO / reconstruction error)."""
        model = self.model
        variant = model.variant
        ws = self._ws
        batch_size = batch.batch_size

        # Encoder over the full (padded) trajectory; masked steps carry the
        # hidden state through unchanged, exactly as the fused GRU does.
        enc_len = batch.full_segments.shape[1]
        enc_in = self._embed_steps_tm(
            batch.full_segments, self._time_buckets(batch, enc_len), "enc.x"
        )
        h0 = np.zeros((batch_size, model.encoder_rnn.hidden_dim), dtype=np.float64)
        enc_hs = _gru_states(enc_in, h0, model.encoder_rnn.cell, ws, "enc", mask=batch.full_mask)
        final_hidden = enc_hs[enc_len]

        kl = np.zeros(batch_size, dtype=np.float64)
        if variant.variational:
            mu, logvar = model.posterior_head.infer(final_hidden)
            latent = mu  # deterministic eval-mode sample
            if variant.num_mixture_components > 1:
                kl = self._mixture_kl(mu, logvar, latent)
            else:
                kl = gaussian_kl_forward(mu, logvar)
        else:
            latent = np.tanh(model.bottleneck.infer(final_hidden))

        # Decoder with teacher forcing over t_1 … t_{n-1}.
        time = batch.inputs.shape[1]
        if time:
            dec_h0 = model.latent_to_hidden.infer(latent)
            np.tanh(dec_h0, out=dec_h0)
            dec_in = self._embed_steps_tm(
                batch.inputs, self._time_buckets(batch, time), "dec.x"
            )
            dec_hs = _gru_states(dec_in, dec_h0, model.decoder_rnn.cell, ws, "dec")
            projection = model.output_projection
            vocab = projection.out_dim
            logits = ws.take("dec.logits", (time * batch_size, vocab))
            np.dot(
                dec_hs[1:].reshape(time * batch_size, -1), projection.weight.data, out=logits
            )
            logits += projection.bias.data
            rows = np.arange(time * batch_size)
            cols = batch.targets.T.reshape(-1)
            per_step = -gather_log_softmax(logits, rows, cols).reshape(time, batch_size).T
            per_step = per_step * np.asarray(batch.mask, dtype=np.float64)
            reconstruction = per_step.sum(axis=1)
        else:
            reconstruction = np.zeros(batch_size, dtype=np.float64)

        self.stats.batch_forwards += 1
        self.stats.trajectories_scored += batch_size
        return reconstruction + kl * variant.beta

    def _mixture_kl(self, mu: np.ndarray, logvar: np.ndarray, latent: np.ndarray) -> np.ndarray:
        """Mirror of ``Seq2SeqVAEModel._mixture_kl`` at the deterministic latent."""
        model = self.model
        k = model.variant.num_mixture_components
        latent_dim = model.config.latent_dim
        neg_entropy = (logvar + _LOG_2PI + 1.0).sum(axis=-1) * (-0.5)
        diffs = latent[:, None, :] - model.mixture_means.data
        component_log_probs = (diffs * diffs).sum(axis=-1) * (-0.5) - 0.5 * latent_dim * _LOG_2PI
        log_prior = logsumexp_forward(component_log_probs) - float(np.log(k))
        return neg_entropy - log_prior

    # ------------------------------------------------------------------ #
    def score_dataset(
        self, dataset: TrajectoryDataset, batch_size: Optional[int] = None
    ) -> np.ndarray:
        """Scores for every trajectory (dataset order), length-bucketed batches."""
        scores = np.empty(len(dataset), dtype=np.float64)
        ins = _inference_instruments()
        with obs.span("inference/score_dataset", trajectories=len(dataset)):
            for indices in _length_sorted_batches(dataset, batch_size):
                rows = np.asarray(indices, dtype=np.int64)
                if ins is None:
                    scores[rows] = self.score_batch(dataset.encode(indices))
                else:
                    encoded = dataset.encode(indices)
                    begin = _time.perf_counter()
                    scores[rows] = self.score_batch(encoded)
                    _record_batch(ins, encoded, _time.perf_counter() - begin)
        if ins is not None:
            _publish_workspace(ins, self._ws)
        self.stats.dataset_passes += 1
        return scores
