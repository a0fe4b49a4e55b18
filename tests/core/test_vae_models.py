"""Tests for TG-VAE and RP-VAE forward passes, losses and scoring pieces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CausalTADConfig, RPVAE, TGVAE
from repro.nn import NEG_INF
from repro.trajectory.dataset import encode_batch
from repro.trajectory.types import MapMatchedTrajectory
from repro.utils import RandomState


@pytest.fixture(scope="module")
def small_batch(benchmark_data):
    return benchmark_data.train.encode(range(6))


@pytest.fixture(scope="module")
def model_config(benchmark_data):
    return CausalTADConfig.tiny(benchmark_data.num_segments)


@pytest.fixture(scope="module")
def jump_batch(benchmark_data):
    """Two trajectories, the second with one jump to a non-successor segment.

    Returns ``(batch, row, step)``: the prediction position whose target is
    not a graph successor of its input (the step after it may leave the
    road too).
    """
    transition = benchmark_data.city.network.transition_mask()
    first, second = (item.trajectory for item in benchmark_data.train.items[:2])
    segments = list(second.segments)
    jump = 2
    segments[jump] = int(np.flatnonzero(~transition[segments[jump - 1]])[0])
    jumped = MapMatchedTrajectory(trajectory_id="jump", segments=segments)
    batch = encode_batch([first, jumped], benchmark_data.num_segments)
    return batch, 1, jump - 1


class TestTGVAE:
    def test_forward_shapes_and_finiteness(self, model_config, small_batch, benchmark_data):
        model = TGVAE(model_config, rng=RandomState(0))
        output = model(small_batch, benchmark_data.city.network.compiled())
        assert np.isfinite(output.loss.item())
        assert output.trajectory_nll.shape == (6,)
        assert output.sd_nll.shape == (6,)
        assert output.kl.shape == (6,)
        assert output.step_log_probs.shape == (6, small_batch.inputs.shape[1])
        assert (output.kl >= -1e-6).all()
        assert (output.trajectory_nll > 0).all()

    def test_loss_backward_reaches_all_parameters(self, model_config, small_batch):
        model = TGVAE(model_config, rng=RandomState(0))
        output = model(small_batch)
        output.loss.backward()
        missing = [name for name, p in model.named_parameters() if p.grad is None]
        # The SD decoder and all embeddings must receive gradients.
        assert not missing, f"parameters without gradient: {missing}"

    def test_road_constraint_masks_non_successors(self, model_config, jump_batch, benchmark_data):
        batch, row, step = jump_batch
        network = benchmark_data.city.network
        transition = network.transition_mask()
        valid = batch.mask
        on_road = transition[batch.inputs[valid], batch.targets[valid]]
        assert not transition[batch.inputs[row, step], batch.targets[row, step]]
        model = TGVAE(model_config, rng=RandomState(0))
        log_probs = model(batch, network.compiled(), deterministic_latent=True).step_log_probs
        # Log-probability of a non-successor must be (near) -inf, and only of
        # a non-successor.
        np.testing.assert_array_equal(log_probs[valid] <= NEG_INF / 2, ~on_road)

    def test_unconstrained_when_disabled(self, benchmark_data, jump_batch):
        batch, row, step = jump_batch
        config = CausalTADConfig.tiny(benchmark_data.num_segments)
        config = CausalTADConfig(
            num_segments=config.num_segments,
            embedding_dim=config.embedding_dim,
            hidden_dim=config.hidden_dim,
            latent_dim=config.latent_dim,
            road_constrained=False,
        )
        model = TGVAE(config, rng=RandomState(0))
        output = model(
            batch, benchmark_data.city.network.compiled(), deterministic_latent=True
        )
        # All probabilities finite (no masking applied), the jump included.
        assert (output.step_log_probs[batch.mask] > NEG_INF / 2).all()
        assert output.step_log_probs[row, step] < 0.0

    def test_sd_decoder_can_be_disabled(self, benchmark_data, small_batch):
        config = CausalTADConfig(
            num_segments=benchmark_data.num_segments,
            embedding_dim=16,
            hidden_dim=16,
            latent_dim=8,
            use_sd_decoder=False,
        )
        model = TGVAE(config, rng=RandomState(0))
        output = model(small_batch)
        np.testing.assert_allclose(output.sd_nll, 0.0)

    def test_eval_mode_uses_posterior_mean(self, model_config, small_batch):
        model = TGVAE(model_config, rng=RandomState(0))
        model.eval()
        first = model.negative_elbo(small_batch)
        second = model.negative_elbo(small_batch)
        np.testing.assert_allclose(first, second)

    def test_step_scores_nonnegative_at_valid_positions(self, model_config, small_batch, benchmark_data):
        model = TGVAE(model_config, rng=RandomState(0))
        output = model(
            small_batch, benchmark_data.city.network.compiled(), deterministic_latent=True
        )
        scores = -output.step_log_probs
        assert (scores[small_batch.mask] >= 0).all()


class TestRPVAE:
    def test_forward_and_loss(self, model_config, small_batch):
        model = RPVAE(model_config, rng=RandomState(0))
        output = model(small_batch)
        assert np.isfinite(output.loss.item())
        assert output.per_trajectory_nll.shape == (6,)
        assert (output.per_trajectory_nll > 0).all()

    def test_backward_reaches_parameters(self, model_config, small_batch):
        model = RPVAE(model_config, rng=RandomState(0))
        model(small_batch).loss.backward()
        assert all(p.grad is not None for p in model.parameters())

    def test_scaling_factor_shape_and_positivity(self, model_config):
        model = RPVAE(model_config, rng=RandomState(0))
        factors = model.precompute_scaling_factors()
        assert factors.shape == (model_config.num_segments,)
        # log E[1/P] >= -log(max P) >= 0 since P <= 1.
        assert (factors >= -1e-6).all()

    def test_precompute_is_cached_and_invalidated(self, model_config):
        model = RPVAE(model_config, rng=RandomState(0))
        first = model.precompute_scaling_factors()
        second = model.precompute_scaling_factors()
        assert first is second
        model.invalidate_cache()
        assert model.precompute_scaling_factors() is not first

    def test_training_step_invalidates_cache(self, model_config, small_batch):
        model = RPVAE(model_config, rng=RandomState(0))
        first = model.precompute_scaling_factors()
        model(small_batch)
        assert model._cached_scaling is None

    def test_popular_segments_get_smaller_scaling_factor(self, benchmark_data, model_config):
        """After training, frequently seen segments should have lower log E[1/P]."""
        from repro.core import Trainer, TrainingConfig

        model = RPVAE(model_config, rng=RandomState(0))
        trainer = Trainer(model, TrainingConfig(epochs=8, batch_size=16, learning_rate=0.02), rng=RandomState(1))
        trainer.fit(benchmark_data.train)
        factors = model.precompute_scaling_factors(num_samples=16)

        counts = np.zeros(model_config.num_segments)
        for item in benchmark_data.train:
            for segment in item.trajectory.segments:
                counts[segment] += 1
        popular = counts >= np.percentile(counts[counts > 0], 75)
        unseen = counts == 0
        assert factors[popular].mean() < factors[unseen].mean()
