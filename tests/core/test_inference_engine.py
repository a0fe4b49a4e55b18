"""Parity suite for the graph-free batched inference engine.

The numpy engine (``repro/core/inference.py``) is the only eval-mode scorer
in the library.  It must reproduce the autograd Tensor forwards bit-tight
(≤ 1e-12) across every scoring configuration the models support:
road-constrained and unconstrained decoding, against both the fused Tensor
path (``score_dataset(engine="graph")``) and the per-step reference of
``tests/reference.py``, padded batches containing zero-prediction rows, the
λ grid, and the full Seq2Seq baseline family.  It also pins the
decomposition contract — summing the pieces reproduces ``score_batch`` — and
that ``Seq2SeqDetector.score`` leaves the model's train/eval mode alone.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines import (
    BetaVAEDetector,
    DeepTEADetector,
    DetectorConfig,
    GMVSAEDetector,
    SAEDetector,
    VSAEDetector,
)
from repro.core import (
    CausalTAD,
    CausalTADConfig,
    ScoreDecomposition,
    TrainingConfig,
    resolve_engine,
)
from repro.core.inference import Workspace, _length_sorted_batches
from repro.trajectory.dataset import TrajectoryDataset, encode_batch
from repro.trajectory.types import MapMatchedTrajectory
from repro.utils import RandomState
from tests import reference

PARITY_ATOL = 1e-12
LAMBDAS = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0)


# --------------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def mixed_dataset(benchmark_data) -> TrajectoryDataset:
    """ID + OOD trajectories of both anomaly kinds (varied lengths, labels)."""
    return (
        benchmark_data.id_detour.merge(benchmark_data.id_switch)
        .merge(benchmark_data.ood_detour)
        .merge(benchmark_data.ood_switch)
    )


@pytest.fixture(scope="module")
def padded_batch(benchmark_data):
    """A batch mixing long rows with a minimal two-segment (one-prediction) row.

    The stub row is padding almost everywhere, so it exercises the padded
    successor-gather rows (segment-0 tables, batch-mask zeroing) of the
    road-constrained scorer.
    """
    trajectories = [item.trajectory for item in benchmark_data.id_detour.items[:6]]
    first = trajectories[0]
    stub = MapMatchedTrajectory(
        trajectory_id="stub", segments=list(first.segments[:2])
    )
    return encode_batch(trajectories + [stub], benchmark_data.num_segments)


def _model_for(benchmark_data, config: CausalTADConfig, attach: bool = True) -> CausalTAD:
    network = benchmark_data.city.network if attach else None
    model = CausalTAD(config, network=network, rng=RandomState(1234))
    model.scaling_factors()  # warm the RP-VAE cache so both engines share it
    return model


# --------------------------------------------------------------------------- #
# CausalTAD parity
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize("road_constrained", [True, False], ids=["road", "free"])
def test_score_batch_parity_all_configs(
    benchmark_data, mixed_dataset, fused, road_constrained
):
    """The numpy engine against the fused Tensor path and the per-step reference."""
    config = dataclasses.replace(
        CausalTADConfig.tiny(benchmark_data.num_segments),
        road_constrained=road_constrained,
    )
    model = _model_for(benchmark_data, config)
    batch = mixed_dataset.encode(range(24))
    if fused:
        graph = model.score_dataset(mixed_dataset.subset(range(24)), engine="graph")
    else:
        graph = reference.causal_tad_scores(model, batch)
    numpy_scores = model.score_batch(batch)
    np.testing.assert_allclose(numpy_scores, graph, atol=PARITY_ATOL, rtol=0.0)


@pytest.mark.parametrize("use_sd_decoder", [True, False], ids=["sd", "nosd"])
def test_score_dataset_parity(benchmark_data, mixed_dataset, use_sd_decoder):
    config = dataclasses.replace(
        CausalTADConfig.tiny(benchmark_data.num_segments), use_sd_decoder=use_sd_decoder
    )
    model = _model_for(benchmark_data, config)
    graph = model.score_dataset(mixed_dataset, engine="graph")
    numpy_scores = model.score_dataset(mixed_dataset, engine="numpy")
    np.testing.assert_allclose(numpy_scores, graph, atol=PARITY_ATOL, rtol=0.0)


def test_trained_model_parity(trained_causal_tad, mixed_dataset):
    """Parity holds on trained weights, not just the random initialisation."""
    trained_causal_tad.scaling_factors()
    graph = trained_causal_tad.score_dataset(mixed_dataset, engine="graph")
    numpy_scores = trained_causal_tad.score_dataset(mixed_dataset, engine="numpy")
    np.testing.assert_allclose(numpy_scores, graph, atol=PARITY_ATOL, rtol=0.0)


def test_padded_and_minimal_rows(benchmark_data, padded_batch):
    """Heavily padded rows (one real prediction) match the Tensor reference."""
    model = _model_for(benchmark_data, CausalTADConfig.tiny(benchmark_data.num_segments))
    graph = reference.causal_tad_scores(model, padded_batch)
    numpy_scores = model.score_batch(padded_batch)
    np.testing.assert_allclose(numpy_scores, graph, atol=PARITY_ATOL, rtol=0.0)
    decomposition = model.inference_engine().decompose_batch(padded_batch)
    # The stub row made exactly one prediction; its padded tail is zero.
    assert decomposition.lengths[-1] == 2
    assert np.all(decomposition.step_log_probs[-1, 1:] == 0.0)
    assert decomposition.step_log_probs[-1, 0] != 0.0


def test_zero_timestep_batch(benchmark_data):
    """A batch with no decoder timesteps (all rows length 1) still scores.

    ``MapMatchedTrajectory`` forbids single-segment routes, but the encoded
    form can arise from external callers; the engine returns the SD + KL
    likelihood pieces with an empty step matrix instead of crashing.
    """
    from repro.trajectory.dataset import EncodedBatch

    model = _model_for(benchmark_data, CausalTADConfig.tiny(benchmark_data.num_segments))
    pad = benchmark_data.num_segments
    count = 3
    batch = EncodedBatch(
        inputs=np.zeros((count, 0), dtype=np.int64),
        targets=np.zeros((count, 0), dtype=np.int64),
        mask=np.zeros((count, 0), dtype=bool),
        full_segments=np.arange(count, dtype=np.int64)[:, None],
        full_mask=np.ones((count, 1), dtype=bool),
        sources=np.arange(count, dtype=np.int64),
        destinations=np.arange(count, dtype=np.int64) + 1,
        lengths=np.ones(count, dtype=np.int64),
        labels=np.zeros(count, dtype=np.int64),
        pad_id=pad,
    )
    decomposition = model.inference_engine().decompose_batch(batch)
    assert decomposition.step_log_probs.shape == (count, 0)
    assert np.all(decomposition.trajectory_nll == 0.0)
    # Likelihood still carries the SD and KL terms.
    assert np.all(decomposition.likelihood > 0.0)


def test_step_scores_and_breakdown_parity(trained_causal_tad, mixed_dataset):
    trajectory = mixed_dataset[0].trajectory
    graph = reference.segment_score_breakdown(trained_causal_tad, trajectory)
    numpy_breakdown = trained_causal_tad.segment_score_breakdown(trajectory)
    np.testing.assert_allclose(
        numpy_breakdown.likelihood_scores, graph.likelihood_scores, atol=PARITY_ATOL, rtol=0.0
    )
    np.testing.assert_allclose(
        numpy_breakdown.debiased_scores, graph.debiased_scores, atol=PARITY_ATOL, rtol=0.0
    )
    assert abs(numpy_breakdown.total_score - graph.total_score) <= PARITY_ATOL
    # The breakdown's total matches the standalone trajectory score.
    direct = trained_causal_tad.score_trajectory(trajectory)
    assert abs(numpy_breakdown.total_score - direct) <= PARITY_ATOL


# --------------------------------------------------------------------------- #
# decomposition contract
# --------------------------------------------------------------------------- #
def test_decomposition_sum_equals_score_batch(trained_causal_tad, mixed_dataset):
    batch = mixed_dataset.encode(range(16))
    decomposition = trained_causal_tad.inference_engine().decompose_batch(batch)
    lam = trained_causal_tad.config.lambda_weight
    # likelihood = trajectory + SD + KL, and the step rows sum to the
    # trajectory term.
    np.testing.assert_allclose(
        decomposition.likelihood,
        decomposition.trajectory_nll + decomposition.sd_nll + decomposition.kl,
        atol=0.0,
        rtol=0.0,
    )
    np.testing.assert_allclose(
        (-decomposition.step_log_probs).sum(axis=1),
        decomposition.trajectory_nll,
        atol=PARITY_ATOL,
        rtol=0.0,
    )
    np.testing.assert_allclose(
        decomposition.scores(lam),
        trained_causal_tad.score_batch(batch),
        atol=0.0,
        rtol=0.0,
    )
    # use_scaling=False drops the scaling term entirely (Table III ablation).
    np.testing.assert_allclose(
        decomposition.scores(lam, use_scaling=False),
        reference.causal_tad_scores(trained_causal_tad, batch, use_scaling=False),
        atol=PARITY_ATOL,
        rtol=0.0,
    )


def test_lambda_grid_parity(trained_causal_tad, mixed_dataset):
    """The vectorized λ sweep matches per-λ scoring on both engines."""
    sweep = trained_causal_tad.lambda_sweep_scores(mixed_dataset, LAMBDAS)
    assert sweep.shape == (len(LAMBDAS), len(mixed_dataset))
    graph_sweep = np.stack(
        [
            trained_causal_tad.score_dataset(mixed_dataset, lambda_weight=lam, engine="graph")
            for lam in LAMBDAS
        ]
    )
    np.testing.assert_allclose(sweep, graph_sweep, atol=PARITY_ATOL, rtol=0.0)
    for index, lam in enumerate(LAMBDAS):
        per_lambda = trained_causal_tad.score_dataset(
            mixed_dataset, lambda_weight=lam, engine="numpy"
        )
        np.testing.assert_allclose(sweep[index], per_lambda, atol=PARITY_ATOL, rtol=0.0)


def test_lambda_sweep_runs_one_dataset_pass(trained_causal_tad, mixed_dataset):
    stats = trained_causal_tad.inference_engine().stats
    stats.reset()
    trained_causal_tad.lambda_sweep_scores(mixed_dataset, LAMBDAS)
    assert stats.dataset_passes == 1
    assert stats.trajectories_scored == len(mixed_dataset)


def test_engine_stats_and_resolve():
    assert resolve_engine(None) == "numpy"
    assert resolve_engine("graph") == "graph"
    with pytest.raises(ValueError):
        resolve_engine("torch")


def test_decomposition_dataset_order(trained_causal_tad, mixed_dataset):
    """Length-bucketed scoring scatters results back into dataset order."""
    decomposition = trained_causal_tad.score_decomposition(mixed_dataset)
    lengths = np.array([len(item.trajectory) for item in mixed_dataset])
    np.testing.assert_array_equal(decomposition.lengths, lengths)
    # Spot-check a few rows against single-trajectory scoring.
    lam = trained_causal_tad.config.lambda_weight
    scores = decomposition.scores(lam)
    for index in (0, len(mixed_dataset) // 2, len(mixed_dataset) - 1):
        single = trained_causal_tad.score_trajectory(mixed_dataset[index].trajectory)
        assert abs(scores[index] - single) <= PARITY_ATOL


def test_empty_dataset_matches_graph_path(trained_causal_tad, benchmark_data):
    """Both engines return empty results for an empty dataset (no raise)."""
    empty = TrajectoryDataset([], benchmark_data.num_segments, name="empty")
    for engine in ("numpy", "graph"):
        scores = trained_causal_tad.score_dataset(empty, engine=engine)
        assert scores.shape == (0,)
    decomposition = trained_causal_tad.score_decomposition(empty)
    assert len(decomposition) == 0
    assert trained_causal_tad.lambda_sweep_scores(empty, LAMBDAS).shape == (len(LAMBDAS), 0)


def test_length_bucketed_batches_cover_every_index(benchmark_data, mixed_dataset):
    for batch_size in (None, 7, 64):
        batches = _length_sorted_batches(mixed_dataset, batch_size)
        seen = np.concatenate([np.asarray(b) for b in batches])
        assert sorted(seen.tolist()) == list(range(len(mixed_dataset)))
        for indices in batches:
            lengths = [len(mixed_dataset[int(i)].trajectory) for i in indices]
            assert lengths == sorted(lengths)


def test_workspace_reuses_and_grows():
    ws = Workspace()
    a = ws.take("buf", (4, 8))
    b = ws.take("buf", (2, 8))
    assert b.base is a.base  # shrinking reuses the same allocation
    c = ws.take("buf", (16, 8))
    assert c.shape == (16, 8)
    ws.clear()
    assert ws.take("buf", (1, 1)).shape == (1, 1)


# --------------------------------------------------------------------------- #
# Seq2Seq baseline family parity
# --------------------------------------------------------------------------- #
SEQ2SEQ_DETECTORS = [
    SAEDetector,
    VSAEDetector,
    BetaVAEDetector,
    GMVSAEDetector,
    DeepTEADetector,
]


@pytest.fixture(scope="module")
def seq2seq_config(benchmark_data) -> DetectorConfig:
    return DetectorConfig.tiny(
        benchmark_data.num_segments,
        training=TrainingConfig(epochs=2, batch_size=16, learning_rate=0.02),
    )


@pytest.mark.parametrize("detector_cls", SEQ2SEQ_DETECTORS, ids=lambda c: c.name)
def test_seq2seq_engine_parity(detector_cls, seq2seq_config, mixed_dataset):
    detector = detector_cls(seq2seq_config, rng=RandomState(55))
    detector._fitted = True  # untrained weights exercise the same arithmetic
    graph = reference.seq2seq_scores(detector.model, mixed_dataset)
    numpy_scores = detector.score(mixed_dataset)
    np.testing.assert_allclose(numpy_scores, graph, atol=PARITY_ATOL, rtol=0.0)


def test_seq2seq_trained_parity(benchmark_data, seq2seq_config, mixed_dataset):
    detector = VSAEDetector(seq2seq_config, rng=RandomState(56))
    detector.fit(benchmark_data.train)
    graph = reference.seq2seq_scores(detector.model, mixed_dataset)
    numpy_scores = detector.score(mixed_dataset)
    np.testing.assert_allclose(numpy_scores, graph, atol=PARITY_ATOL, rtol=0.0)


def test_seq2seq_score_restores_mode(seq2seq_config, mixed_dataset):
    """Regression: ``score`` used to force the model back into train mode."""
    detector = VSAEDetector(seq2seq_config, rng=RandomState(57))
    detector._fitted = True
    detector.model.eval()
    detector.score(mixed_dataset)
    assert detector.model.training is False
    detector.model.train()
    detector.score(mixed_dataset)
    assert detector.model.training is True


def test_rp_vae_detector_score_restores_mode(benchmark_data, mixed_dataset):
    """Regression: the RP-VAE-only ablation leaked train mode the same way."""
    from repro.baselines import RPVAEOnlyDetector

    detector = RPVAEOnlyDetector(
        DetectorConfig.tiny(
            benchmark_data.num_segments,
            training=TrainingConfig(epochs=2, batch_size=16, learning_rate=0.02),
        ),
        rng=RandomState(58),
    )
    detector._fitted = True
    detector.model.eval()
    detector.score(mixed_dataset)
    assert detector.model.training is False
