"""Tests for the baseline detectors (metric-based and learning-based)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    BetaVAEDetector,
    CausalTADDetector,
    DeepTEADetector,
    DetectorConfig,
    FactorVAEDetector,
    GMVSAEDetector,
    IBOATDetector,
    RPVAEOnlyDetector,
    SAEDetector,
    Seq2SeqVariant,
    Seq2SeqVAEModel,
    TGVAEOnlyDetector,
    VSAEDetector,
    default_detector_suite,
)
from repro.eval import roc_auc_score
from repro.utils import RandomState

LEARNING_DETECTORS = [
    SAEDetector,
    VSAEDetector,
    BetaVAEDetector,
    FactorVAEDetector,
    GMVSAEDetector,
    DeepTEADetector,
]


class TestDetectorConfig:
    def test_vocab_size(self):
        assert DetectorConfig(num_segments=10).vocab_size == 11

    def test_presets(self):
        tiny = DetectorConfig.tiny(10)
        small = DetectorConfig.small(10)
        assert tiny.hidden_dim < small.hidden_dim

    @pytest.mark.parametrize(
        "kwargs",
        [{"num_segments": 1}, {"num_segments": 10, "hidden_dim": 0}, {"num_segments": 10, "latent_dim": -2}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DetectorConfig(**kwargs)


class TestSeq2SeqVariants:
    def test_variant_validation(self):
        with pytest.raises(ValueError):
            Seq2SeqVariant(beta=-1.0)
        with pytest.raises(ValueError):
            Seq2SeqVariant(num_mixture_components=0)
        with pytest.raises(ValueError):
            Seq2SeqVariant(num_time_buckets=0)

    @pytest.mark.parametrize(
        "variant",
        [
            Seq2SeqVariant(variational=False),
            Seq2SeqVariant(variational=True),
            Seq2SeqVariant(variational=True, beta=4.0),
            Seq2SeqVariant(variational=True, factor_gamma=2.0),
            Seq2SeqVariant(variational=True, num_mixture_components=3),
            Seq2SeqVariant(variational=True, time_aware=True),
        ],
    )
    def test_forward_finite_for_all_variants(self, benchmark_data, tiny_detector_config, variant):
        model = Seq2SeqVAEModel(tiny_detector_config, variant, rng=RandomState(0))
        batch = benchmark_data.train.encode(range(6))
        output = model(batch)
        assert np.isfinite(output.loss.item())
        assert output.per_trajectory_nll.shape == (6,)

    def test_backward_through_mixture_prior(self, benchmark_data, tiny_detector_config):
        model = Seq2SeqVAEModel(
            tiny_detector_config, Seq2SeqVariant(num_mixture_components=3), rng=RandomState(0)
        )
        batch = benchmark_data.train.encode(range(4))
        model(batch).loss.backward()
        assert model.mixture_means.grad is not None

    def test_anomaly_scores_deterministic_in_eval(self, benchmark_data, tiny_detector_config):
        model = Seq2SeqVAEModel(tiny_detector_config, Seq2SeqVariant(), rng=RandomState(0))
        model.eval()
        batch = benchmark_data.id_test.encode(range(5))
        first = model(batch, deterministic_latent=True).per_trajectory_nll
        second = model(batch, deterministic_latent=True).per_trajectory_nll
        np.testing.assert_allclose(first, second)


class TestLearningDetectors:
    @pytest.mark.parametrize("detector_cls", LEARNING_DETECTORS)
    def test_fit_and_score(self, benchmark_data, tiny_detector_config, detector_cls):
        detector = detector_cls(tiny_detector_config, rng=RandomState(3))
        detector.fit(benchmark_data.train, network=benchmark_data.city.network)
        assert detector.is_fitted
        scores = detector.score(benchmark_data.id_detour)
        assert scores.shape == (len(benchmark_data.id_detour),)
        assert np.isfinite(scores).all()
        # Better than chance on the easiest (in-distribution detour) setting.
        assert roc_auc_score(scores, benchmark_data.id_detour.labels) > 0.6

    def test_score_before_fit_raises(self, benchmark_data, tiny_detector_config):
        detector = VSAEDetector(tiny_detector_config)
        with pytest.raises(RuntimeError):
            detector.score(benchmark_data.id_test)

    def test_mismatched_vocab_rejected(self, benchmark_data):
        config = DetectorConfig.tiny(benchmark_data.num_segments + 10)
        detector = VSAEDetector(config)
        with pytest.raises(ValueError):
            detector.fit(benchmark_data.train)

    def test_score_trajectory_matches_dataset(self, benchmark_data, tiny_detector_config):
        detector = SAEDetector(tiny_detector_config, rng=RandomState(5))
        detector.fit(benchmark_data.train)
        trajectory = benchmark_data.id_test.trajectories[0]
        single = detector.score_trajectory(trajectory)
        assert np.isfinite(single)


class TestIBOAT:
    def test_fit_and_score_range(self, benchmark_data):
        detector = IBOATDetector(benchmark_data.num_segments)
        detector.fit(benchmark_data.train, network=benchmark_data.city.network)
        scores = detector.score(benchmark_data.id_detour)
        assert ((scores >= 0.0) & (scores <= 1.0)).all()
        assert roc_auc_score(scores, benchmark_data.id_detour.labels) > 0.5

    def test_unseen_sd_pair_uses_nearest_reference(self, benchmark_data):
        detector = IBOATDetector(benchmark_data.num_segments)
        detector.fit(benchmark_data.train, network=benchmark_data.city.network)
        scores = detector.score(benchmark_data.ood_test)
        assert np.isfinite(scores).all()

    def test_without_network_falls_back(self, benchmark_data):
        detector = IBOATDetector(benchmark_data.num_segments)
        detector.fit(benchmark_data.train)
        scores = detector.score(benchmark_data.ood_test.subset(range(5)))
        assert scores.shape == (5,)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            IBOATDetector(1)
        with pytest.raises(ValueError):
            IBOATDetector(10, support_threshold=1.5)


class TestCausalAdapters:
    def test_causal_tad_detector(self, benchmark_data, tiny_detector_config):
        detector = CausalTADDetector(tiny_detector_config, rng=RandomState(7))
        detector.fit(benchmark_data.train, network=benchmark_data.city.network)
        scores = detector.score(benchmark_data.id_detour)
        assert roc_auc_score(scores, benchmark_data.id_detour.labels) > 0.6

    def test_lambda_rescoring(self, benchmark_data, tiny_detector_config):
        detector = CausalTADDetector(tiny_detector_config, rng=RandomState(7))
        detector.fit(benchmark_data.train, network=benchmark_data.city.network)
        base = detector.score_with_lambda(benchmark_data.ood_detour, 0.0)
        debiased = detector.score_with_lambda(benchmark_data.ood_detour, 0.3)
        assert not np.allclose(base, debiased)

    def test_tgvae_only_ignores_scaling(self, benchmark_data, tiny_detector_config):
        detector = TGVAEOnlyDetector(tiny_detector_config, rng=RandomState(7))
        detector.fit(benchmark_data.train, network=benchmark_data.city.network)
        scores = detector.score(benchmark_data.id_detour)
        lambda_zero = detector.model.score_dataset(benchmark_data.id_detour, lambda_weight=0.0)
        np.testing.assert_allclose(scores, lambda_zero)

    def test_rpvae_only_detector(self, benchmark_data, tiny_detector_config):
        detector = RPVAEOnlyDetector(tiny_detector_config, rng=RandomState(8))
        detector.fit(benchmark_data.train)
        scores = detector.score(benchmark_data.id_detour)
        assert scores.shape == (len(benchmark_data.id_detour),)
        assert np.isfinite(scores).all()


class TestDetectorSuite:
    def test_default_suite_composition(self, tiny_detector_config):
        suite = default_detector_suite(tiny_detector_config)
        names = [d.name for d in suite]
        assert names[0] == "iBOAT"
        assert "CausalTAD" in names
        assert len(names) == len(set(names))
        assert len(suite) == 8

    def test_suite_without_optional_members(self, tiny_detector_config):
        suite = default_detector_suite(tiny_detector_config, include_iboat=False, include_causal_tad=False)
        names = [d.name for d in suite]
        assert "iBOAT" not in names and "CausalTAD" not in names
