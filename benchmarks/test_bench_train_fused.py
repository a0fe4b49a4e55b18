"""Benchmark — fused sequence kernels: single-node BPTT vs per-step autograd.

The fused training path (:mod:`repro.nn.fused`) collapses the GRU time loop,
the embedding lookups and the (road-constrained) log-softmax/NLL loss into one
autograd node each, with hand-derived BPTT backwards.  The per-step graph
path it replaced is kept as a test-only reference (``tests/reference.py``).
This benchmark gates the win on a CausalTAD batch of paper-realistic
trajectories:

* the **sequence-model training step** (TG-VAE: embedding + GRU decoder +
  masked NLL — exactly the computation the fused kernels rewired) must run at
  least **3×** faster than the per-step graph path;
* the **full CausalTAD step** (which adds the RP-VAE, a flat per-segment MLP
  VAE whose cost is single-core GEMM work shared by both paths) must win by
  at least **1.5×**;
* gradients of every parameter must match the graph path to **1e-8**;
* the loss trajectory over several optimiser steps must match to **1e-6**.

The synthetic cities generate short routes (~9 segments on average), so the
benchmark batch replays road-constrained random walks of 96 segments — the
length regime of the paper's real Xi'an/Chengdu taxi trajectories, and the
regime the per-step path's O(time) graph construction is worst at.

Timing JSON is written via ``REPRO_BENCH_ARTIFACTS`` for the CI artifact.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from benchmarks.support import (
    BENCH_SCALE,
    BENCH_SEED,
    baseline_floor,
    write_timing_artifact,
)
from repro.core import RPVAE, TGVAE, CausalTAD, CausalTADConfig
from repro.nn import Adam, clip_grad_norm
from repro.trajectory.dataset import encode_batch
from repro.trajectory.types import MapMatchedTrajectory
from repro.utils import RandomState
from repro.utils.timing import Timer, format_duration
from tests import reference

MIN_SEQ_SPEEDUP = 3.0
MIN_FULL_SPEEDUP = 1.5
GRAD_ATOL = 1e-8
LOSS_ATOL = 1e-6
WALK_LENGTH = 96
BATCH_SIZE = 48 if BENCH_SCALE == "full" else 32
TRAJECTORY_STEPS = 5
ROUNDS = 8


def _training_batch(data, size, length=WALK_LENGTH):
    """``size`` road-constrained random walks of ``length`` segments.

    Walks follow the attached network's transition mask, so the batch is
    exactly what the road-constrained decoder trains on — only longer than
    the synthetic simulator's routes, matching real taxi-trajectory lengths.
    """
    transition = data.city.network.transition_mask()
    rng = np.random.default_rng(BENCH_SEED)
    starts = rng.integers(0, data.num_segments, size=size)
    walks = []
    for ride, start in enumerate(starts):
        segments = [int(start)]
        while len(segments) < length:
            successors = np.flatnonzero(transition[segments[-1]])
            if successors.size == 0:
                break
            segments.append(int(rng.choice(successors)))
        walks.append(MapMatchedTrajectory(trajectory_id=f"walk-{ride}", segments=segments))
    return encode_batch(walks, data.num_segments)


def _model_pair(data):
    """Two CausalTAD models with identical weights and random streams.

    The first trains through the library's fused path, the second through
    the per-step reference (see :data:`FUSED` / :data:`GRAPH`).
    """
    config = CausalTADConfig.small(data.num_segments)
    fused = CausalTAD(config, network=data.city.network, rng=RandomState(BENCH_SEED))
    graph = CausalTAD(config, network=data.city.network, rng=RandomState(BENCH_SEED))
    graph.load_state_dict(fused.state_dict())
    return fused, graph


class Path(NamedTuple):
    """One training path's forwards, each called with the model as first argument."""

    tg_forward: Callable
    rp_forward: Callable
    joint_loss: Callable


FUSED = Path(TGVAE.forward, RPVAE.forward, CausalTAD.forward)
GRAPH = Path(reference.tg_vae_forward, reference.rp_vae_forward, reference.causal_tad_loss)


def _grads(model):
    return {name: p.grad.copy() for name, p in model.named_parameters() if p.grad is not None}


def _one_backward(model, path, batch):
    """One forward/backward with deterministic latents; returns (loss, grads)."""
    model.train()
    model.zero_grad()
    tg = path.tg_forward(model.tg_vae, batch, model.road_graph, deterministic_latent=True)
    rp = path.rp_forward(model.rp_vae, batch)
    loss = tg.loss + rp.loss
    loss.backward()
    return loss.item(), _grads(model)


def _interleaved_best(step_a, step_b, rounds=ROUNDS, steps=2):
    """Best-of wall times for two step functions, rounds interleaved.

    Interleaving makes the measured *ratio* robust against machine-load
    drift: a slow patch hits both paths, not just one.
    """
    step_a(), step_b()
    best_a = best_b = float("inf")
    for _ in range(rounds):
        with Timer() as timer:
            for _ in range(steps):
                step_a()
        best_a = min(best_a, timer.elapsed / steps)
        with Timer() as timer:
            for _ in range(steps):
                step_b()
        best_b = min(best_b, timer.elapsed / steps)
    return best_a, best_b


def test_bench_train_fused_speedup_and_gradient_parity(xian_data):
    batch = _training_batch(xian_data, BATCH_SIZE)
    fused, graph = _model_pair(xian_data)

    # --- gradient parity on the same batch, same weights ------------------- #
    fused_loss, fused_grads = _one_backward(fused, FUSED, batch)
    graph_loss, graph_grads = _one_backward(graph, GRAPH, batch)
    assert abs(fused_loss - graph_loss) < LOSS_ATOL
    assert set(fused_grads) == set(graph_grads)
    worst = 0.0
    for name, grad in graph_grads.items():
        delta = float(np.abs(fused_grads[name] - grad).max())
        worst = max(worst, delta)
        assert delta <= GRAD_ATOL, f"gradient mismatch for {name}: {delta:.3e}"

    # --- sequence-model (TG-VAE) training step ----------------------------- #
    fused_opt = Adam(fused.tg_vae.parameters(), lr=0.01)
    graph_opt = Adam(graph.tg_vae.parameters(), lr=0.01)

    def tg_step(model, path, optimizer):
        optimizer.zero_grad()
        out = path.tg_forward(model.tg_vae, batch, model.road_graph)
        out.loss.backward()
        clip_grad_norm(optimizer.parameters, 5.0)
        optimizer.step()

    fused.train(), graph.train()
    fused_seq, graph_seq = _interleaved_best(
        lambda: tg_step(fused, FUSED, fused_opt), lambda: tg_step(graph, GRAPH, graph_opt)
    )
    seq_speedup = graph_seq / fused_seq

    # --- full CausalTAD training step (TG-VAE + RP-VAE) -------------------- #
    fused_full_opt = Adam(fused.parameters(), lr=0.01)
    graph_full_opt = Adam(graph.parameters(), lr=0.01)

    def full_step(model, path, optimizer):
        optimizer.zero_grad()
        out = path.joint_loss(model, batch)
        out.total.backward()
        clip_grad_norm(optimizer.parameters, 5.0)
        optimizer.step()

    fused_full, graph_full = _interleaved_best(
        lambda: full_step(fused, FUSED, fused_full_opt),
        lambda: full_step(graph, GRAPH, graph_full_opt),
    )
    full_speedup = graph_full / fused_full

    print()
    print(f"Training step on {batch.batch_size} walks of {batch.max_length} segments "
          f"({xian_data.num_segments}-segment network):")
    print(f"  TG-VAE (sequence model)  graph {format_duration(graph_seq)}  "
          f"fused {format_duration(fused_seq)}  speedup {seq_speedup:.1f}x")
    print(f"  CausalTAD (TG + RP)      graph {format_duration(graph_full)}  "
          f"fused {format_duration(fused_full)}  speedup {full_speedup:.1f}x")
    print(f"  worst grad mismatch      {worst:.2e}")

    write_timing_artifact(
        "bench_train_fused",
        {
            "batch_size": batch.batch_size,
            "max_length": batch.max_length,
            "num_segments": xian_data.num_segments,
            "tg_graph_step_seconds": graph_seq,
            "tg_fused_step_seconds": fused_seq,
            "tg_speedup": seq_speedup,
            "full_graph_step_seconds": graph_full,
            "full_fused_step_seconds": fused_full,
            "full_speedup": full_speedup,
            "worst_grad_mismatch": worst,
            "min_seq_speedup_required": MIN_SEQ_SPEEDUP,
            "min_full_speedup_required": MIN_FULL_SPEEDUP,
        },
    )

    seq_floor = baseline_floor("train", "tg_speedup", MIN_SEQ_SPEEDUP)
    assert seq_speedup >= seq_floor, (
        f"fused sequence-model step only {seq_speedup:.1f}x faster than the "
        f"per-step graph path (required {seq_floor:.1f}x)"
    )
    full_floor = baseline_floor("train", "full_speedup", MIN_FULL_SPEEDUP)
    assert full_speedup >= full_floor, (
        f"fused CausalTAD step only {full_speedup:.1f}x faster than the "
        f"per-step graph path (required {full_floor:.1f}x)"
    )


def test_bench_train_fused_loss_trajectories_match(xian_data):
    """Several real optimiser steps produce the same loss curve on both paths.

    Both models are built from the same seed (identical weights *and* RNG
    streams for latent sampling), trained with the in-place Adam on the same
    batch; the per-step losses must agree to 1e-6.
    """
    batch = _training_batch(xian_data, min(BATCH_SIZE, 24), length=48)
    fused, graph = _model_pair(xian_data)

    def run(model, path):
        optimizer = Adam(model.parameters(), lr=0.01)
        model.train()
        losses = []
        for _ in range(TRAJECTORY_STEPS):
            optimizer.zero_grad()
            out = path.joint_loss(model, batch)
            out.total.backward()
            clip_grad_norm(optimizer.parameters, 5.0)
            optimizer.step()
            losses.append(out.total.item())
        return losses

    fused_losses = run(fused, FUSED)
    graph_losses = run(graph, GRAPH)
    print()
    for step, (a, b) in enumerate(zip(fused_losses, graph_losses)):
        print(f"  step {step}: fused {a:.8f}  graph {b:.8f}  |Δ| {abs(a - b):.2e}")
    np.testing.assert_allclose(fused_losses, graph_losses, atol=LOSS_ATOL, rtol=0.0)
